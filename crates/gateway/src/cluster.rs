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
//!   a wideband capture broadcast to all shards ([`GatewayCluster::push`])
//!   decodes exactly as the wide gateway would.
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
//!
//! Shards run inline: `push` channelizes the chunk into each shard in
//! turn on the caller's thread, and each shard's own decode pool does the
//! decoding. The cluster spawns no thread of its own.

use std::collections::VecDeque;

use lora_dsp::Cf32;

use crate::dedup::{DedupEntry, DedupWindow};
use crate::gateway::{ConfigError, Gateway, GatewayConfig};
use crate::sink::GatewayPacket;
use crate::stats::GatewaySnapshot;

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

/// N sharded gateways behind one merged stream. See the module docs.
pub struct GatewayCluster {
    /// The shard gateways, pushed inline in shard order.
    shards: Vec<Gateway>,
    /// Shard → local channel index → global channel index.
    channel_maps: Vec<Vec<usize>>,
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
        config.validate()?;
        let mut shards = Vec::with_capacity(config.shards.len());
        let mut channel_maps = Vec::with_capacity(config.shards.len());
        let mut max_sf = 0u8;
        for (s, plan) in config.shards.iter().enumerate() {
            let cfg = config.shard_config(s);
            max_sf = max_sf.max(*cfg.sfs.iter().max().expect("validated: non-empty sfs"));
            let gw =
                Gateway::new(cfg).map_err(|source| ClusterError::Shard { shard: s, source })?;
            channel_maps.push(plan.channels.clone());
            shards.push(gw);
        }
        // A shard's release can trail its own horizon by its release
        // slack (receiver holdback); the cross-shard window must retain
        // accepted packets over the largest such reach.
        let release_slack = shards.iter().map(Gateway::release_slack).max().unwrap_or(0);
        let chip_wideband = config.base.oversampling * config.base.channelizer.decimation;
        Ok(Self {
            shards,
            channel_maps,
            dedup: DedupWindow::new(chip_wideband, max_sf, release_slack),
            pending: Vec::new(),
            released: VecDeque::new(),
            cross_gateway_duplicates: 0,
            packets_merged: 0,
            global_watermark: 0,
        })
    }

    /// The same cluster as [`GatewayCluster::new`]. Kept for callers
    /// written against the former threaded backend: shards always run
    /// inline.
    pub fn new_threaded(config: ClusterConfig) -> Result<Self, ClusterError> {
        Self::new(config)
    }

    /// Number of shard gateways.
    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }

    /// Broadcast a wideband chunk to every shard in turn (each extracts
    /// only its own band slice and hands it to its decode pool) and
    /// advance the merge.
    pub fn push(&mut self, samples: &[Cf32]) {
        for gw in &mut self.shards {
            gw.push(samples);
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
        let shards: Vec<GatewaySnapshot> =
            self.shards.iter().map(|gw| gw.stats().snapshot()).collect();
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
    fn merge_with(&mut self, between: impl FnOnce(&[Gateway])) {
        // Horizons *before* releases: a shard's pool threads release
        // packets concurrently, and everything a horizon covers is
        // already in that gateway's release buffer when the horizon is
        // read. Polling first would miss a packet released between the
        // poll and the horizon read, which would then arrive below the
        // advanced global watermark after later packets were handed out.
        let horizon = self
            .shards
            .iter()
            .map(Gateway::release_horizon)
            .min()
            .unwrap_or(u64::MAX);
        between(&self.shards);
        for (gw, map) in self.shards.iter().zip(&self.channel_maps) {
            for mut p in gw.poll_packets() {
                p.channel = map[p.channel];
                self.pending.push(p);
            }
        }
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
        let mut snaps = Vec::with_capacity(self.shards.len());
        for (gw, map) in self.shards.drain(..).zip(&self.channel_maps) {
            let (packets, snap) = gw.finish();
            for mut p in packets {
                p.channel = map[p.channel];
                self.pending.push(p);
            }
            snaps.push(snap);
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::load::OverloadConfig;
    use cic::CicConfig;
    use lora_dsp::ChannelizerConfig;
    use lora_phy::params::CodeRate;
    use std::sync::Arc;

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
    fn dropping_a_cluster_without_finish_stops_every_thread() {
        // Each shard gateway's threads hold its stats; a dropped cluster
        // must leave none of them running.
        let mut cluster =
            GatewayCluster::new(ClusterConfig::channel_sharded(base(), 2)).expect("valid layout");
        for _ in 0..4 {
            cluster.push(&vec![Cf32::new(0.0, 0.0); 4096]);
        }
        let stats: Vec<_> = cluster.shards.iter().map(Gateway::stats).collect();
        drop(cluster);
        for (shard, s) in stats.iter().enumerate() {
            assert_eq!(Arc::strong_count(s), 1, "shard {shard} kept a thread alive");
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
        // Shard 1 has already released a packet at 3 000 and is past it.
        release_through(&cluster.shards[1], released(0, 3_000, b"later"), 4_000);
        cluster.merge_with(|shards| {
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
}
