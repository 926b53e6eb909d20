//! The sharded scale-out tier: N gateway shards, each digitising
//! a slice of one wideband LoRa band, behind a single merged,
//! time-ordered, duplicate-suppressed packet stream.
//!
//! The paper evaluates one 8-channel gateway; a dense deployment runs
//! many front ends whose coverage overlaps, and what they hear must come
//! out merged, ordered and deduplicated. A cluster does that with the
//! machinery of one gateway:
//!
//! * **Shard routing** — every shard is a gateway front end whose
//!   channelizer layout is the base plan restricted to that shard's
//!   channel offsets. The same FIR prototype and decimation make a
//!   shard's per-channel streams bit-identical to the wide gateway's, so
//!   a wideband capture broadcast to all shards ([`GatewayCluster::push`])
//!   decodes exactly as the wide gateway would.
//! * **One sink** — the shards are front ends on one runtime, as a single
//!   [`Gateway`] is one front end on its own. Every shard's streams report
//!   into the runtime's one sink on *global* channel indices, so its
//!   release watermark (what [`GatewayCluster::global_watermark`]
//!   reports) is the minimum over every stream of every shard, and the
//!   merged stream is globally non-decreasing in `start_wideband` without
//!   stalling any shard.
//! * **Cross-gateway dedup** — shards with overlapping coverage (same
//!   channel in two band slices, or the same band decoded under split SF
//!   sets) each decode their own copy of one transmission. The sink's
//!   duplicate window, keyed on global channel indices, suppresses the
//!   extra copies, and counts them apart from each shard's in-gateway
//!   suppressions because it knows which shard reported each packet.
//! * **Telemetry aggregation** — [`ClusterSnapshot`] carries each
//!   shard's [`GatewaySnapshot`] plus their `GatewaySnapshot::merged`
//!   aggregate and the sink's cross-shard counters.
//!
//! Shards run inline: `push` channelizes the chunk into each shard in
//! turn on the caller's thread, and under the adaptive policy ticks each
//! shard's own ladder there too. One decode pool of
//! `min(streams, cores)` threads serves every shard's streams; it is the
//! cluster's only thread.
//!
//! [`Gateway`]: crate::Gateway

use lora_dsp::Cf32;

use crate::gateway::{available_cores, ConfigError, GatewayConfig, Runtime};
use crate::sink::GatewayPacket;
use crate::stats::GatewaySnapshot;

/// One shard's slice of the cluster's band plan.
#[derive(Debug, Clone)]
pub struct ShardPlan {
    /// Global channel indices (into the base plan) this shard digitises
    /// and decodes. Shards may overlap — the sink deduplicates.
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
/// shard is built or thread spawned.
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
    pub(crate) fn shard_config(&self, idx: usize) -> GatewayConfig {
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
    pub(crate) fn validate(&self) -> Result<(), ClusterError> {
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
    /// The shard snapshots aggregated (`GatewaySnapshot::merged`).
    pub merged: GatewaySnapshot,
    /// Packets a shard released that another shard had released under
    /// overlapping coverage (distinct from each shard's in-gateway
    /// `duplicates_suppressed`).
    pub cross_gateway_duplicates: u64,
    /// Packets accepted into the merged global stream; with the
    /// cross-gateway duplicates, they sum to the shards' releases.
    pub packets_merged: u64,
    /// The global release watermark, wideband samples: the merged stream
    /// is complete below it (`u64::MAX` after `finish`).
    pub global_watermark: u64,
}

/// N sharded gateways behind one merged stream. See the module docs.
///
/// Dropped without [`GatewayCluster::finish`], a cluster stops every
/// thread it runs without draining, as a [`Gateway`](crate::Gateway)
/// does.
pub struct GatewayCluster {
    /// Every shard's front end, the one sink and the threads decoding
    /// every shard's streams.
    runtime: Runtime,
}

impl GatewayCluster {
    /// Validate the layout, build every shard, and spawn the one runtime
    /// serving them all: a decode pool of `min(streams, cores)` threads
    /// over every shard's streams, under either policy. Shards are pushed
    /// inline in shard order from the caller's thread.
    pub fn new(config: ClusterConfig) -> Result<Self, ClusterError> {
        config.validate()?;
        let plans: Vec<(GatewayConfig, Vec<usize>)> = (0..config.shards.len())
            .map(|s| (config.shard_config(s), config.shards[s].channels.clone()))
            .collect();
        Ok(Self {
            runtime: Runtime::spawn(&plans, available_cores()),
        })
    }

    /// The same cluster as [`GatewayCluster::new`]. Kept for callers
    /// written against the former threaded backend: shards always run
    /// inline.
    pub fn new_threaded(config: ClusterConfig) -> Result<Self, ClusterError> {
        Self::new(config)
    }

    /// The threads serving every shard, for tests that count them.
    #[cfg(test)]
    pub(crate) fn runtime(&self) -> &Runtime {
        &self.runtime
    }

    /// Broadcast a wideband chunk to every shard in turn: each extracts
    /// only its own band slice and hands it to the shared decode pool.
    pub fn push(&mut self, samples: &[Cf32]) {
        self.runtime.push(samples);
    }

    /// The global release watermark, wideband samples: the sink's
    /// horizon over every shard's streams. The merged stream is complete
    /// below it.
    pub fn global_watermark(&self) -> u64 {
        self.runtime.release_horizon()
    }

    /// Merged packets released since the last call, globally
    /// time-ordered.
    pub fn poll_packets(&mut self) -> Vec<GatewayPacket> {
        self.runtime.poll_packets()
    }

    /// Live cluster telemetry.
    pub fn snapshot(&self) -> ClusterSnapshot {
        let shards: Vec<GatewaySnapshot> = self
            .runtime
            .shards()
            .iter()
            .map(|shard| shard.stats().snapshot())
            .collect();
        let merged = GatewaySnapshot::merged(&shards);
        let (packets_merged, cross_gateway_duplicates) = self.runtime.merge_counts();
        ClusterSnapshot {
            shards,
            merged,
            cross_gateway_duplicates,
            packets_merged,
            global_watermark: self.global_watermark(),
        }
    }

    /// End of stream: end every shard's input (flushing its channelizer
    /// tail), drain the shared pool once, and return the remaining merged
    /// packets plus the final cluster snapshot, whose watermark is fully
    /// open.
    pub fn finish(mut self) -> (Vec<GatewayPacket>, ClusterSnapshot) {
        let packets = self.runtime.finish();
        (packets, self.snapshot())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::load::OverloadConfig;
    use cic::CicConfig;
    use lora_dsp::ChannelizerConfig;
    use lora_phy::params::CodeRate;
    use proptest::collection;
    use proptest::prelude::*;
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
        assert_eq!(cluster.runtime.shards().len(), 2);
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
        let stats: Vec<_> = cluster.runtime.shards().iter().map(|s| s.stats()).collect();
        drop(cluster);
        for (shard, s) in stats.iter().enumerate() {
            assert_eq!(Arc::strong_count(s), 1, "shard {shard} kept a thread alive");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Arbitrary layouts over the 4-channel base: no shards, empty
        /// shards, out-of-range and repeated channels, empty or
        /// out-of-range SF sets. Each comes back as a typed error or as a
        /// cluster that runs and finishes with its watermark open, never
        /// as a panic. Draws lean towards valid shards, so that a fair
        /// share of cases gets past validation and builds.
        #[test]
        fn arbitrary_layouts_are_typed_errors_or_run_to_the_end(
            n_shards in prop_oneof![0usize..5, 1usize..3, 1usize..3],
            channels in collection::vec(
                prop_oneof![
                    collection::vec(0usize..4, 1..3),
                    collection::vec(0usize..4, 1..3),
                    collection::vec(0usize..6, 0..6),
                ],
                4,
            ),
            sfs in collection::vec(
                prop_oneof![
                    Just(None),
                    collection::vec(7u8..13, 1..3).prop_map(Some),
                    collection::vec(5u8..14, 0..4).prop_map(Some),
                ],
                4,
            ),
        ) {
            let shards = channels
                .into_iter()
                .zip(sfs)
                .take(n_shards)
                .map(|(channels, sfs)| ShardPlan { channels, sfs })
                .collect();
            let config = ClusterConfig { base: base(), shards };
            if let Ok(mut cluster) = GatewayCluster::new(config) {
                cluster.push(&vec![Cf32::new(0.0, 0.0); 4096]);
                let (_, snap) = cluster.finish();
                prop_assert_eq!(snap.global_watermark, u64::MAX);
            }
        }
    }
}
