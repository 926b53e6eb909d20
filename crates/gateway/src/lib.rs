#![warn(missing_docs)]
//! # lora-gateway — concurrent multi-channel gateway runtime
//!
//! The paper deploys CIC at SDR gateways that digitise a whole band of
//! LoRa channels at once (§6). This crate is that runtime:
//!
//! * [`gateway`] — the [`Gateway`] itself: wideband samples in, a merged
//!   time-ordered packet stream out, every (channel, spreading factor)
//!   stream fed through a bounded queue (counted drop-oldest as the last
//!   resort) and decoded by a pool of `min(streams, cores)` threads;
//! * [`load`] — the adaptive overload control plane: a degradation
//!   ladder that cuts decoder effort, then sheds whole spreading
//!   factors, before any samples are dropped;
//! * [`sink`] — the watermark-based merge of all worker outputs into one
//!   time-ordered, duplicate-suppressed stream;
//! * [`dedup`] — the duplicate-suppression window shared by the sink and
//!   the cluster merge tier;
//! * [`cluster`] — the sharded scale-out tier: N gateways over slices of
//!   one band, pushed inline on the caller's thread, behind a single
//!   global watermark, with cross-gateway duplicate suppression for
//!   overlapping coverage;
//! * [`stats`] — [`GatewayStats`]: atomic counters and log2 latency
//!   histograms, snapshot-readable while the gateway runs.
//!
//! The channelizer itself lives in [`lora_dsp::channelizer`]; the
//! wideband multi-channel stimulus for tests and benchmarks lives in
//! `lora_channel::wideband`.

pub mod cluster;
pub mod dedup;
pub mod gateway;
pub mod load;
mod pool;
mod queue;
pub mod sink;
pub mod stats;

pub use cluster::{ClusterConfig, ClusterError, ClusterSnapshot, GatewayCluster, ShardPlan};
pub use dedup::{DedupEntry, DedupWindow};
pub use gateway::{ConfigError, Gateway, GatewayConfig};
pub use load::{
    ControlAction, LoadMonitor, OverloadConfig, OverloadController, OverloadPolicy, WorkerControl,
    SHED_RUNG, SIC_RUNG,
};
pub use sink::{GatewayPacket, PacketSink};
pub use stats::{
    rung_slot, GatewaySnapshot, GatewayStats, HistogramSnapshot, LatencyHistogram,
    LatencyPercentiles, WorkerStats, RUNG_SLOTS,
};
