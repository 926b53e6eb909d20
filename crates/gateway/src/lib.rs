#![warn(missing_docs)]
//! # lora-gateway — concurrent multi-channel gateway runtime
//!
//! The paper deploys CIC at SDR gateways that digitise a whole band of
//! LoRa channels at once (§6). This crate is that runtime:
//!
//! * [`gateway`] — the [`Gateway`] itself: wideband samples in, a merged
//!   time-ordered packet stream out, every (channel, spreading factor)
//!   stream fed through a bounded queue (counted drop-oldest as the last
//!   resort), decoded by a pool of `min(streams, cores)` threads and
//!   merged by one watermark sink into a time-ordered,
//!   duplicate-suppressed stream of [`GatewayPacket`]s;
//! * [`load`] — the adaptive overload control plane: a degradation
//!   ladder, ticked by the pushes themselves, that cuts decoder effort,
//!   then sheds whole spreading factors, before any samples are dropped;
//! * [`cluster`] — the sharded scale-out tier: N gateway front ends over
//!   slices of one band, pushed inline on the caller's thread, whose
//!   streams all report into one sink on global channel indices, so
//!   copies of one transmission from overlapping coverage are suppressed
//!   by the sink's own duplicate rule;
//! * [`stats`] — [`GatewayStats`]: atomic counters and log2 latency
//!   histograms, snapshot-readable while the gateway runs.
//!
//! The channelizer itself lives in [`lora_dsp::channelizer`]; the
//! wideband multi-channel stimulus for tests and benchmarks lives in
//! `lora_channel::wideband`.

pub mod cluster;
mod dedup;
pub mod gateway;
pub mod load;
mod pool;
mod queue;
mod sink;
pub mod stats;

pub use cluster::{ClusterConfig, ClusterError, ClusterSnapshot, GatewayCluster, ShardPlan};
pub use gateway::{ConfigError, Gateway, GatewayConfig};
pub use load::{
    ControlAction, LoadMonitor, OverloadConfig, OverloadController, OverloadPolicy, SHED_RUNG,
    SIC_RUNG,
};
pub use sink::GatewayPacket;
pub use stats::{
    rung_slot, GatewaySnapshot, GatewayStats, HistogramSnapshot, LatencyHistogram,
    LatencyPercentiles, WorkerStats, RUNG_SLOTS,
};
