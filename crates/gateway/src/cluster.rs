//! The sharded scale-out tier: N [`Gateway`] instances, each digitising
//! a slice of one wideband LoRa band, behind a single merged,
//! time-ordered, duplicate-suppressed packet stream.
//!
//! The paper evaluates one 8-channel gateway; a dense deployment runs
//! many front ends whose coverage overlaps, feeding a coordinator that
//! must merge, order, and deduplicate what they hear. This module is
//! that coordinator:
//!
//! * **Shard routing** — every shard is a full [`Gateway`] whose
//!   channelizer layout is the base plan restricted to that shard's
//!   channel offsets. The same FIR prototype and decimation make a
//!   shard's per-channel streams bit-identical to the wide gateway's, so
//!   a wideband capture can be broadcast to all shards
//!   ([`GatewayCluster::push`]) or fed per shard from independent ingest
//!   front ends ([`GatewayCluster::push_shard`]) with identical decode
//!   results.
//! * **Global watermark** — each shard's sink already maintains a
//!   release horizon (minimum over its workers' watermarks); the cluster
//!   generalises the same rule one level up: packets merge into the
//!   global stream only once `min` over shards of
//!   [`Gateway::release_horizon`] covers them, so the merged stream is
//!   globally non-decreasing in `start_wideband` without stalling any
//!   shard.
//! * **Cross-gateway dedup** — shards with overlapping coverage (same
//!   channel in two band slices, or the same band decoded under split SF
//!   sets) each release their own copy of one transmission. A shared
//!   [`DedupWindow`] over *global* channel indices suppresses the extra
//!   copies at the merge point, counting them separately from the
//!   in-gateway suppressions.
//! * **Telemetry aggregation** — [`ClusterSnapshot`] carries each
//!   shard's [`GatewaySnapshot`] plus their [`GatewaySnapshot::merged`]
//!   aggregate and the merge tier's own counters.
//! * **Threaded execution** — [`GatewayCluster::new_threaded`] gives
//!   every shard its own thread behind a bounded *lossless* broadcast
//!   queue ([`ChunkQueue::push_wait`]): `push` returns once the chunk is
//!   enqueued everywhere and the shards channelize + decode
//!   concurrently, so an N-shard cluster's wall clock approaches the
//!   slowest shard instead of the sum. Each shard thread publishes its
//!   release horizon only *after* depositing the packets that horizon
//!   covers into its sink, and the coordinator reads horizons before
//!   draining sinks — so the global watermark rule above holds verbatim
//!   and the merged stream is the same exactly-once, time-ordered
//!   sequence the sequential cluster produces. The dedup retention bound
//!   is unchanged too: the window is sized by release slack, and the
//!   global watermark still never overtakes any shard horizon.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use lora_dsp::Cf32;

use crate::dedup::{DedupEntry, DedupWindow};
use crate::gateway::{ConfigError, Gateway, GatewayConfig};
use crate::queue::{Chunk, ChunkQueue, Pop};
use crate::sink::GatewayPacket;
use crate::stats::{GatewaySnapshot, GatewayStats, WorkerStats};

/// One shard's slice of the cluster's band plan.
#[derive(Debug, Clone)]
pub struct ShardPlan {
    /// Global channel indices (into the base plan) this shard digitises
    /// and decodes. Shards may overlap — the merge tier deduplicates.
    pub channels: Vec<usize>,
    /// Spreading factors this shard decodes; `None` inherits the base
    /// configuration's set. Disjoint SF splits over one band are
    /// expressed as shards with identical channels and disjoint sets.
    pub sfs: Option<Vec<u8>>,
}

/// Everything needed to stand up a sharded cluster: the full-band
/// gateway configuration a single wide gateway would run, plus the
/// per-shard slices of it.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// The full-band configuration; shards inherit everything except
    /// their channel/SF slice.
    pub base: GatewayConfig,
    /// Per-shard slices of the base plan.
    pub shards: Vec<ShardPlan>,
}

/// Typed rejection of an invalid [`ClusterConfig`], raised before any
/// shard gateway is spawned.
#[derive(Debug, Clone, PartialEq)]
pub enum ClusterError {
    /// No shards configured.
    NoShards,
    /// A shard covers no channels.
    EmptyShard(usize),
    /// A shard references a channel index outside the base plan.
    ChannelOutOfRange {
        /// Offending shard.
        shard: usize,
        /// Offending global channel index.
        channel: usize,
        /// Channels in the base plan.
        n_channels: usize,
    },
    /// A channel repeats within one shard.
    DuplicateChannel {
        /// Offending shard.
        shard: usize,
        /// Repeated global channel index.
        channel: usize,
    },
    /// A shard's derived gateway configuration failed validation.
    Shard {
        /// Offending shard.
        shard: usize,
        /// The underlying configuration error.
        source: ConfigError,
    },
}

impl std::fmt::Display for ClusterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClusterError::NoShards => write!(f, "cluster has no shards"),
            ClusterError::EmptyShard(shard) => write!(f, "shard {shard} covers no channels"),
            ClusterError::ChannelOutOfRange {
                shard,
                channel,
                n_channels,
            } => write!(
                f,
                "shard {shard} references channel {channel} \
                 but the base plan has {n_channels} channels"
            ),
            ClusterError::DuplicateChannel { shard, channel } => {
                write!(f, "shard {shard} lists channel {channel} more than once")
            }
            ClusterError::Shard { shard, source } => {
                write!(f, "shard {shard} configuration invalid: {source}")
            }
        }
    }
}

impl std::error::Error for ClusterError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ClusterError::Shard { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl ClusterConfig {
    /// Channel-sharded layout: the base plan's channels split
    /// contiguously across `n_shards` gateways (leading shards take one
    /// extra channel when the count does not divide evenly).
    pub fn channel_sharded(base: GatewayConfig, n_shards: usize) -> Self {
        let n_channels = base.channelizer.n_channels();
        let mut shards = Vec::with_capacity(n_shards);
        let mut next = 0usize;
        for s in 0..n_shards.max(1) {
            let take = n_channels / n_shards.max(1) + usize::from(s < n_channels % n_shards.max(1));
            shards.push(ShardPlan {
                channels: (next..next + take).collect(),
                sfs: None,
            });
            next += take;
        }
        Self { base, shards }
    }

    /// The gateway configuration of shard `idx`: the base configuration
    /// restricted to the shard's channel offsets (same wideband rate,
    /// decimation and FIR prototype, so per-channel output is
    /// bit-identical to the wide gateway's) and its SF set.
    pub fn shard_config(&self, idx: usize) -> GatewayConfig {
        let plan = &self.shards[idx];
        let mut channelizer = self.base.channelizer.clone();
        channelizer.offsets_hz = plan
            .channels
            .iter()
            .map(|&c| self.base.channelizer.offsets_hz[c])
            .collect();
        GatewayConfig {
            channelizer,
            sfs: plan.sfs.clone().unwrap_or_else(|| self.base.sfs.clone()),
            ..self.base.clone()
        }
    }

    /// Check the shard layout and every derived shard configuration up
    /// front, naming the offending shard and parameter.
    pub fn validate(&self) -> Result<(), ClusterError> {
        if self.shards.is_empty() {
            return Err(ClusterError::NoShards);
        }
        let n_channels = self.base.channelizer.n_channels();
        for (s, plan) in self.shards.iter().enumerate() {
            if plan.channels.is_empty() {
                return Err(ClusterError::EmptyShard(s));
            }
            for (i, &c) in plan.channels.iter().enumerate() {
                if c >= n_channels {
                    return Err(ClusterError::ChannelOutOfRange {
                        shard: s,
                        channel: c,
                        n_channels,
                    });
                }
                if plan.channels[..i].contains(&c) {
                    return Err(ClusterError::DuplicateChannel {
                        shard: s,
                        channel: c,
                    });
                }
            }
            self.shard_config(s)
                .validate()
                .map_err(|source| ClusterError::Shard { shard: s, source })?;
        }
        Ok(())
    }
}

/// Point-in-time telemetry of a running (or finished) cluster.
#[derive(Debug, Clone)]
pub struct ClusterSnapshot {
    /// Each shard's own snapshot, in shard order.
    pub shards: Vec<GatewaySnapshot>,
    /// The shard snapshots aggregated ([`GatewaySnapshot::merged`]).
    pub merged: GatewaySnapshot,
    /// Duplicates suppressed *at the merge tier* — the same transmission
    /// released by more than one shard under overlapping coverage
    /// (distinct from each shard's in-gateway `duplicates_suppressed`).
    pub cross_gateway_duplicates: u64,
    /// Packets accepted into the merged global stream.
    pub packets_merged: u64,
    /// The global release watermark, wideband samples: the merged stream
    /// is complete below it (`u64::MAX` after `finish`).
    pub global_watermark: u64,
}

/// How long an idle shard thread waits for the next chunk before
/// refreshing its published horizon (the gateway's own workers keep
/// advancing their watermarks between cluster pushes).
const SHARD_IDLE_POLL: Duration = Duration::from_millis(25);

/// One shard of a threaded cluster: its broadcast queue, the sink its
/// thread deposits releases into, its last published horizon, and the
/// thread itself (which owns the shard's [`Gateway`]).
struct ShardRunner {
    queue: Arc<ChunkQueue>,
    /// Packets the shard has released, local channel indices, awaiting
    /// collection by the coordinator's merge.
    sink: Arc<Mutex<Vec<GatewayPacket>>>,
    /// The shard's release horizon, published *after* the packets it
    /// covers reached `sink` — reading it can only under-estimate what
    /// the sink holds, never overtake it.
    horizon: Arc<AtomicU64>,
    /// Wideband samples enqueued to this shard so far (coordinator-side
    /// position for [`Chunk::start`]).
    pos: usize,
    /// Set when the cluster is dropped without `finish`: the thread
    /// drops its gateway instead of draining and finishing it.
    abort: Arc<AtomicBool>,
    /// `None` when aborted.
    handle: JoinHandle<Option<(Vec<GatewayPacket>, GatewaySnapshot)>>,
}

impl ShardRunner {
    /// Spawn shard `shard`'s thread, which owns `gw` until the queue
    /// closes and then finishes it.
    fn spawn(shard: usize, gw: Gateway, queue_capacity: usize) -> Self {
        let queue_stats = Arc::new(WorkerStats::new(shard, 0));
        let queue = Arc::new(ChunkQueue::new(queue_capacity, queue_stats));
        let sink = Arc::new(Mutex::new(Vec::new()));
        let horizon = Arc::new(AtomicU64::new(0));
        let abort = Arc::new(AtomicBool::new(false));
        let (q, s, h, a) = (queue.clone(), sink.clone(), horizon.clone(), abort.clone());
        let handle = std::thread::Builder::new()
            .name(format!("cluster-shard-{shard}"))
            .spawn(move || shard_worker(gw, q, s, h, &a))
            .expect("failed to spawn cluster shard thread");
        Self {
            queue,
            sink,
            horizon,
            pos: 0,
            abort,
            handle,
        }
    }
}

/// Body of one shard thread: pop broadcast chunks, push them through the
/// owned gateway, move fresh releases into the shared sink, publish the
/// horizon — and finish the gateway when the queue closes, or just drop
/// it once `abort` is set.
fn shard_worker(
    mut gw: Gateway,
    queue: Arc<ChunkQueue>,
    sink: Arc<Mutex<Vec<GatewayPacket>>>,
    horizon: Arc<AtomicU64>,
    abort: &AtomicBool,
) -> Option<(Vec<GatewayPacket>, GatewaySnapshot)> {
    loop {
        if abort.load(Ordering::Acquire) {
            return None;
        }
        match queue.pop_timeout(SHARD_IDLE_POLL) {
            Pop::Chunk(chunk) => gw.push(&chunk.samples),
            Pop::Idle => {}
            Pop::Closed => break,
        }
        // Horizon before poll: everything the snapshot covers is already
        // in the gateway's release buffer, so after the copy below the
        // published horizon really is complete in the sink. (Polling
        // first could publish a horizon whose packets a concurrent
        // decode released after the poll.)
        let h = gw.release_horizon();
        let packets = gw.poll_packets();
        if !packets.is_empty() {
            sink.lock().unwrap().extend(packets);
        }
        horizon.store(h, Ordering::Release);
    }
    (!abort.load(Ordering::Acquire)).then(|| gw.finish())
}

/// Shard execution strategy: inline on the caller's thread, or one
/// thread per shard behind lossless broadcast queues.
enum Backend {
    Sequential(Vec<Gateway>),
    Threaded(Vec<ShardRunner>),
}

/// N sharded gateways behind one merged stream. See the module docs.
pub struct GatewayCluster {
    backend: Backend,
    /// Shard → local channel index → global channel index.
    channel_maps: Vec<Vec<usize>>,
    /// Live telemetry handles, usable while shards run and after finish.
    stats: Vec<Arc<GatewayStats>>,
    /// Cross-shard duplicate window, over global channel indices.
    dedup: DedupWindow,
    /// Shard releases remapped to global channels, waiting for the
    /// global watermark to cover them.
    pending: Vec<GatewayPacket>,
    /// Merged, ordered, deduplicated, awaiting collection.
    released: VecDeque<GatewayPacket>,
    cross_gateway_duplicates: u64,
    packets_merged: u64,
    global_watermark: u64,
}

impl GatewayCluster {
    /// Validate the layout and spawn every shard gateway, pushed inline
    /// in shard order from the caller's thread.
    pub fn new(config: ClusterConfig) -> Result<Self, ClusterError> {
        Self::build(config, false)
    }

    /// Validate the layout and spawn every shard gateway on its own
    /// thread behind a bounded lossless broadcast queue
    /// ([`ChunkQueue::push_wait`], capacity `base.queue_capacity`
    /// chunks): [`GatewayCluster::push`] returns once the chunk is
    /// enqueued everywhere, shards run concurrently, and the merged
    /// stream is identical to the sequential cluster's.
    pub fn new_threaded(config: ClusterConfig) -> Result<Self, ClusterError> {
        Self::build(config, true)
    }

    fn build(config: ClusterConfig, threaded: bool) -> Result<Self, ClusterError> {
        config.validate()?;
        let mut gateways = Vec::with_capacity(config.shards.len());
        let mut channel_maps = Vec::with_capacity(config.shards.len());
        let mut stats = Vec::with_capacity(config.shards.len());
        let mut max_sf = 0u8;
        for (s, plan) in config.shards.iter().enumerate() {
            let cfg = config.shard_config(s);
            max_sf = max_sf.max(*cfg.sfs.iter().max().expect("validated: non-empty sfs"));
            let gw =
                Gateway::new(cfg).map_err(|source| ClusterError::Shard { shard: s, source })?;
            stats.push(gw.stats());
            channel_maps.push(plan.channels.clone());
            gateways.push(gw);
        }
        // A shard's release can trail its own horizon by its release
        // slack (receiver holdback); the cross-shard window must retain
        // accepted packets over the largest such reach.
        let release_slack = gateways
            .iter()
            .map(Gateway::release_slack)
            .max()
            .unwrap_or(0);
        let chip_wideband = config.base.oversampling * config.base.channelizer.decimation;
        let backend = if threaded {
            let capacity = config.base.queue_capacity.max(1);
            Backend::Threaded(
                gateways
                    .into_iter()
                    .enumerate()
                    .map(|(s, gw)| ShardRunner::spawn(s, gw, capacity))
                    .collect(),
            )
        } else {
            Backend::Sequential(gateways)
        };
        Ok(Self {
            backend,
            channel_maps,
            stats,
            dedup: DedupWindow::new(chip_wideband, max_sf, release_slack),
            pending: Vec::new(),
            released: VecDeque::new(),
            cross_gateway_duplicates: 0,
            packets_merged: 0,
            global_watermark: 0,
        })
    }

    /// Number of shard gateways.
    pub fn n_shards(&self) -> usize {
        self.channel_maps.len()
    }

    /// Whether shards run on their own threads
    /// ([`GatewayCluster::new_threaded`]).
    pub fn is_threaded(&self) -> bool {
        matches!(self.backend, Backend::Threaded(_))
    }

    /// Broadcast a wideband chunk to every shard (each extracts only its
    /// own band slice) and advance the merge. Sequential clusters push
    /// each shard inline; threaded clusters enqueue (blocking only when
    /// a shard's broadcast queue is full — never dropping) and return
    /// while the shards work.
    pub fn push(&mut self, samples: &[Cf32]) {
        match &mut self.backend {
            Backend::Sequential(shards) => {
                for gw in shards.iter_mut() {
                    gw.push(samples);
                }
            }
            Backend::Threaded(runners) => {
                // One shared copy of the chunk feeds every shard.
                let shared = Arc::new(samples.to_vec());
                for r in runners.iter_mut() {
                    r.queue.push_wait(Chunk {
                        start: r.pos,
                        samples: shared.clone(),
                    });
                    r.pos += samples.len();
                }
            }
        }
        self.merge();
    }

    /// Feed shard `shard` from its own ingest front end (the per-shard
    /// capture must share the cluster's wideband time base) and advance
    /// the merge.
    pub fn push_shard(&mut self, shard: usize, samples: &[Cf32]) {
        match &mut self.backend {
            Backend::Sequential(shards) => shards[shard].push(samples),
            Backend::Threaded(runners) => {
                let r = &mut runners[shard];
                r.queue.push_wait(Chunk {
                    start: r.pos,
                    samples: Arc::new(samples.to_vec()),
                });
                r.pos += samples.len();
            }
        }
        self.merge();
    }

    /// The global release watermark: minimum over shard release
    /// horizons at the last merge. The merged stream is complete below
    /// it.
    pub fn global_watermark(&self) -> u64 {
        self.global_watermark
    }

    /// Merged packets released since the last call, globally
    /// time-ordered.
    pub fn poll_packets(&mut self) -> Vec<GatewayPacket> {
        self.merge();
        std::mem::take(&mut self.released).into_iter().collect()
    }

    /// Live cluster telemetry.
    pub fn snapshot(&self) -> ClusterSnapshot {
        let shards: Vec<GatewaySnapshot> = self.stats.iter().map(|s| s.snapshot()).collect();
        let merged = GatewaySnapshot::merged(&shards);
        ClusterSnapshot {
            shards,
            merged,
            cross_gateway_duplicates: self.cross_gateway_duplicates,
            packets_merged: self.packets_merged,
            global_watermark: self.global_watermark,
        }
    }

    /// Collect fresh shard releases (remapped onto global channel
    /// indices), recompute the global watermark, and release everything
    /// it covers.
    fn merge(&mut self) {
        self.merge_with(|_| {});
    }

    /// [`GatewayCluster::merge`], running `between` after the shard
    /// horizons are read and before their releases are collected — the
    /// window in which a shard's pool threads can release concurrently.
    fn merge_with(&mut self, between: impl FnOnce(&Backend)) {
        let horizon = match &self.backend {
            Backend::Sequential(shards) => {
                // Horizons *before* releases: a shard's pool threads
                // release packets concurrently, and everything a
                // horizon covers is already in that gateway's release
                // buffer when the horizon is read. Polling first would
                // miss a packet released between the poll and the
                // horizon read, which would then arrive below the
                // advanced global watermark after later packets were
                // handed out.
                let horizon = shards
                    .iter()
                    .map(Gateway::release_horizon)
                    .min()
                    .unwrap_or(u64::MAX);
                between(&self.backend);
                for (s, gw) in shards.iter().enumerate() {
                    for mut p in gw.poll_packets() {
                        p.channel = self.channel_maps[s][p.channel];
                        self.pending.push(p);
                    }
                }
                horizon
            }
            Backend::Threaded(runners) => {
                // Horizons *before* sinks: a shard publishes its horizon
                // only after depositing the packets it covers, so a
                // horizon read first can only lag the sink — the
                // watermark computed from it is always complete in
                // `pending`.
                let horizon = runners
                    .iter()
                    .map(|r| r.horizon.load(Ordering::Acquire))
                    .min()
                    .unwrap_or(u64::MAX);
                between(&self.backend);
                for (s, r) in runners.iter().enumerate() {
                    let mut sink = r.sink.lock().unwrap();
                    for mut p in sink.drain(..) {
                        p.channel = self.channel_maps[s][p.channel];
                        self.pending.push(p);
                    }
                }
                horizon
            }
        };
        // Monotone: each shard horizon only moves forward.
        self.global_watermark = self.global_watermark.max(horizon);
        self.release_due();
    }

    /// Release every pending packet the global watermark covers, in
    /// `(start, channel, sf)` order, through the cross-shard dedup
    /// window. Mirrors the sink's drain: a shard's late (SIC) release
    /// below the already-advanced watermark is inserted in order rather
    /// than appended.
    fn release_due(&mut self) {
        let horizon = self.global_watermark;
        if self.pending.iter().all(|p| p.start_wideband > horizon) {
            return;
        }
        let mut due = Vec::new();
        let mut keep = Vec::new();
        for p in self.pending.drain(..) {
            if p.start_wideband <= horizon {
                due.push(p);
            } else {
                keep.push(p);
            }
        }
        self.pending = keep;
        due.sort_by_key(|p| (p.start_wideband, p.channel, p.sf));
        for p in due {
            if self
                .dedup
                .is_duplicate(p.channel, p.sf, p.start_wideband, &p.packet.payload)
            {
                self.cross_gateway_duplicates += 1;
                continue;
            }
            self.dedup.accept(DedupEntry {
                channel: p.channel,
                sf: p.sf,
                start_wideband: p.start_wideband,
                payload: p.packet.payload.clone(),
            });
            self.packets_merged += 1;
            let key = (p.start_wideband, p.channel, p.sf);
            let at = self
                .released
                .partition_point(|q| (q.start_wideband, q.channel, q.sf) <= key);
            self.released.insert(at, p);
        }
        self.dedup.prune(horizon);
    }

    /// End of stream: finish every shard (flushing channelizer tails and
    /// draining workers), run the final merge with the watermark fully
    /// open, and return the remaining merged packets plus the final
    /// cluster snapshot.
    pub fn finish(mut self) -> (Vec<GatewayPacket>, ClusterSnapshot) {
        let mut snaps = Vec::with_capacity(self.channel_maps.len());
        match std::mem::replace(&mut self.backend, Backend::Sequential(Vec::new())) {
            Backend::Sequential(shards) => {
                for (s, gw) in shards.into_iter().enumerate() {
                    let (packets, snap) = gw.finish();
                    for mut p in packets {
                        p.channel = self.channel_maps[s][p.channel];
                        self.pending.push(p);
                    }
                    snaps.push(snap);
                }
            }
            Backend::Threaded(runners) => {
                // Close every queue first so the shards drain their
                // backlogs and finish concurrently, then join in shard
                // order.
                for r in &runners {
                    r.queue.close();
                }
                for (s, r) in runners.into_iter().enumerate() {
                    let (packets, snap) = r
                        .handle
                        .join()
                        .expect("cluster shard thread panicked")
                        .expect("only a dropped cluster aborts its shards");
                    let drained: Vec<GatewayPacket> = std::mem::take(&mut *r.sink.lock().unwrap());
                    for mut p in drained.into_iter().chain(packets) {
                        p.channel = self.channel_maps[s][p.channel];
                        self.pending.push(p);
                    }
                    snaps.push(snap);
                }
            }
        }
        self.global_watermark = u64::MAX;
        self.release_due();
        let merged = GatewaySnapshot::merged(&snaps);
        let snapshot = ClusterSnapshot {
            shards: snaps,
            merged,
            cross_gateway_duplicates: self.cross_gateway_duplicates,
            packets_merged: self.packets_merged,
            global_watermark: u64::MAX,
        };
        let packets = std::mem::take(&mut self.released).into_iter().collect();
        (packets, snapshot)
    }
}

/// A cluster dropped without [`GatewayCluster::finish`] stops every
/// thread it started: threaded shards are told to abort, their queues
/// close, and each shard thread drops its gateway (whose own `Drop`
/// stops its pool) instead of draining it. Sequential shards are plain
/// gateways and stop the same way.
impl Drop for GatewayCluster {
    fn drop(&mut self) {
        if let Backend::Threaded(runners) = &mut self.backend {
            for r in runners.iter() {
                r.abort.store(true, Ordering::Release);
                r.queue.close();
            }
            for r in runners.drain(..) {
                let _ = r.handle.join();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::load::OverloadConfig;
    use cic::CicConfig;
    use lora_dsp::ChannelizerConfig;
    use lora_phy::params::CodeRate;

    fn base() -> GatewayConfig {
        GatewayConfig {
            channelizer: ChannelizerConfig::uniform(4, 250e3, 500e3, 1e6, 4),
            oversampling: 4,
            sfs: vec![7, 9],
            code_rate: CodeRate::Cr45,
            payload_len: 16,
            cic: CicConfig::default(),
            queue_capacity: 64,
            overload: OverloadConfig::default(),
        }
    }

    #[test]
    fn channel_sharded_splits_contiguously() {
        let c = ClusterConfig::channel_sharded(base(), 3);
        let chans: Vec<Vec<usize>> = c.shards.iter().map(|s| s.channels.clone()).collect();
        assert_eq!(chans, vec![vec![0, 1], vec![2], vec![3]]);
        assert!(c.validate().is_ok());
        // Shard configs subset the offsets but keep the filter design.
        let s0 = c.shard_config(0);
        assert_eq!(s0.channelizer.n_channels(), 2);
        assert_eq!(s0.channelizer.num_taps, c.base.channelizer.num_taps);
        assert_eq!(
            s0.channelizer.offsets_hz,
            c.base.channelizer.offsets_hz[..2]
        );
    }

    #[test]
    fn validate_rejects_bad_layouts() {
        let cfg = ClusterConfig {
            base: base(),
            shards: vec![],
        };
        assert_eq!(cfg.validate(), Err(ClusterError::NoShards));

        let cfg = ClusterConfig {
            base: base(),
            shards: vec![ShardPlan {
                channels: vec![],
                sfs: None,
            }],
        };
        assert_eq!(cfg.validate(), Err(ClusterError::EmptyShard(0)));

        let cfg = ClusterConfig {
            base: base(),
            shards: vec![ShardPlan {
                channels: vec![0, 4],
                sfs: None,
            }],
        };
        assert_eq!(
            cfg.validate(),
            Err(ClusterError::ChannelOutOfRange {
                shard: 0,
                channel: 4,
                n_channels: 4
            })
        );

        let cfg = ClusterConfig {
            base: base(),
            shards: vec![ShardPlan {
                channels: vec![1, 1],
                sfs: None,
            }],
        };
        assert_eq!(
            cfg.validate(),
            Err(ClusterError::DuplicateChannel {
                shard: 0,
                channel: 1
            })
        );

        // A shard's SF slice is validated through the gateway's own
        // typed validation, wrapped with the shard index.
        let cfg = ClusterConfig {
            base: base(),
            shards: vec![ShardPlan {
                channels: vec![0],
                sfs: Some(vec![13]),
            }],
        };
        let err = cfg.validate().unwrap_err();
        assert!(
            matches!(err, ClusterError::Shard { shard: 0, .. }),
            "got {err:?}"
        );
        assert!(err.to_string().contains("shard 0"), "{err}");
    }

    #[test]
    fn empty_cluster_stream_finishes_cleanly() {
        let cluster =
            GatewayCluster::new(ClusterConfig::channel_sharded(base(), 2)).expect("valid layout");
        assert_eq!(cluster.n_shards(), 2);
        let (packets, snap) = cluster.finish();
        assert!(packets.is_empty());
        assert_eq!(snap.shards.len(), 2);
        assert_eq!(snap.merged.samples_in, 0);
        assert_eq!(snap.cross_gateway_duplicates, 0);
        assert_eq!(snap.global_watermark, u64::MAX);
    }

    #[test]
    fn silence_counts_samples_on_every_shard() {
        let mut cluster =
            GatewayCluster::new(ClusterConfig::channel_sharded(base(), 2)).expect("valid layout");
        assert!(!cluster.is_threaded());
        for _ in 0..4 {
            cluster.push(&vec![Cf32::new(0.0, 0.0); 4096]);
        }
        let live = cluster.snapshot();
        assert_eq!(live.shards.len(), 2);
        let (packets, snap) = cluster.finish();
        assert!(packets.is_empty());
        // Broadcast routing: each shard saw the full wideband stream.
        for s in &snap.shards {
            assert_eq!(s.samples_in, 4 * 4096);
        }
        assert_eq!(snap.merged.samples_in, 2 * 4 * 4096);
        assert_eq!(snap.packets_merged, 0);
    }

    #[test]
    fn threaded_empty_cluster_finishes_cleanly() {
        let cluster = GatewayCluster::new_threaded(ClusterConfig::channel_sharded(base(), 2))
            .expect("valid layout");
        assert!(cluster.is_threaded());
        assert_eq!(cluster.n_shards(), 2);
        let (packets, snap) = cluster.finish();
        assert!(packets.is_empty());
        assert_eq!(snap.shards.len(), 2);
        assert_eq!(snap.global_watermark, u64::MAX);
    }

    #[test]
    fn dropping_a_cluster_without_finish_stops_every_thread() {
        // Regression: without `Drop`, a dropped threaded cluster left
        // every shard thread (and each shard gateway's threads) parked
        // forever, each holding its shard's stats.
        for threaded in [true, false] {
            let config = ClusterConfig::channel_sharded(base(), 2);
            let mut cluster = if threaded {
                GatewayCluster::new_threaded(config)
            } else {
                GatewayCluster::new(config)
            }
            .expect("valid layout");
            for _ in 0..4 {
                cluster.push(&vec![Cf32::new(0.0, 0.0); 4096]);
            }
            let stats = cluster.stats.clone();
            drop(cluster);
            for (shard, s) in stats.iter().enumerate() {
                assert_eq!(
                    Arc::strong_count(s),
                    1,
                    "shard {shard} (threaded {threaded}) kept a thread alive"
                );
            }
        }
    }

    fn released(channel: usize, start: u64, payload: &[u8]) -> GatewayPacket {
        GatewayPacket {
            channel,
            sf: 7,
            start_wideband: start,
            packet: cic::DecodedPacket {
                detection: cic::Detection {
                    frame_start: start as usize,
                    cfo_bins: 0.0,
                    peak_power: 1.0,
                    score: 10.0,
                },
                symbols: vec![],
                payload: Some(payload.to_vec()),
                truncated_symbols: 0,
                contested_symbols: 0,
                sic_pass: 0,
            },
        }
    }

    /// Release `packet` from `gw`'s sink and move every one of its
    /// watermarks to `watermark`, as its pool threads would.
    fn release_through(gw: &Gateway, packet: GatewayPacket, watermark: u64) {
        gw.sink().report(vec![packet]);
        for w in 0..gw.stats().snapshot().workers.len() {
            gw.sink().set_watermark(w, watermark);
        }
    }

    #[test]
    fn sequential_merge_reads_horizons_before_collecting_releases() {
        // Regression: the sequential merge polled shard releases first and
        // read horizons second. A shard releasing in between (its pool
        // threads run concurrently) advanced the global watermark past a
        // packet the merge had not collected; the later packet went out
        // first and the earlier one followed, out of order. The hook runs
        // that release deterministically between the merge's two reads.
        let mut cluster =
            GatewayCluster::new(ClusterConfig::channel_sharded(base(), 2)).expect("valid layout");
        let Backend::Sequential(shards) = &cluster.backend else {
            unreachable!("sequential cluster");
        };
        // Shard 1 has already released a packet at 3 000 and is past it.
        release_through(&shards[1], released(0, 3_000, b"later"), 4_000);
        cluster.merge_with(|backend| {
            let Backend::Sequential(shards) = backend else {
                unreachable!("sequential cluster");
            };
            // Shard 0 releases an earlier packet and catches up.
            release_through(&shards[0], released(0, 1_000, b"earlier"), 4_000);
        });
        // The caller collects between merges.
        let mut stream: Vec<GatewayPacket> = std::mem::take(&mut cluster.released).into();
        stream.extend(cluster.poll_packets());
        let starts: Vec<(u64, usize)> = stream
            .iter()
            .map(|p| (p.start_wideband, p.channel))
            .collect();
        // Shard 1's local channel 0 is global channel 2.
        assert_eq!(starts, vec![(1_000, 0), (3_000, 2)]);
    }

    #[test]
    fn threaded_broadcast_reaches_every_shard_losslessly() {
        let mut cluster = GatewayCluster::new_threaded(ClusterConfig::channel_sharded(base(), 2))
            .expect("valid layout");
        for _ in 0..4 {
            cluster.push(&vec![Cf32::new(0.0, 0.0); 4096]);
        }
        let (packets, snap) = cluster.finish();
        assert!(packets.is_empty());
        // The lossless broadcast queue must deliver the full stream to
        // every shard regardless of thread scheduling.
        for s in &snap.shards {
            assert_eq!(s.samples_in, 4 * 4096);
        }
        assert_eq!(snap.merged.samples_in, 2 * 4 * 4096);
    }
}
