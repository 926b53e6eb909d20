//! Cluster acceptance: any sharding of the band across gateways, fed the
//! same wideband capture in ragged chunks, must reproduce the single
//! wide gateway's decode set exactly once, globally time-ordered. Shards
//! with overlapping coverage additionally exercise the cross-gateway
//! dedup in the shared sink; disjoint SF splits over one band must union
//! back to the wide decode set with nothing to deduplicate.

use std::sync::OnceLock;
use std::time::Duration;

use cic::CicConfig;
use lora_channel::wideband::{generate_traffic, BandPlan, TrafficConfig};
use lora_channel::{add_unit_noise, amplitude_for_snr};
use lora_dsp::{Cf32, ChannelizerConfig};
use lora_gateway::{
    ClusterConfig, ClusterSnapshot, Gateway, GatewayCluster, GatewayConfig, GatewayPacket,
    OverloadConfig, ShardPlan,
};
use lora_phy::params::CodeRate;
use proptest::collection;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

const PAYLOAD_LEN: usize = 16;
const SFS: [u8; 2] = [7, 9];
const N_CHANNELS: usize = 4;

fn plan() -> BandPlan {
    BandPlan::uniform(N_CHANNELS, 250e3, 500e3, 4, 4)
}

/// The full-band configuration a single wide gateway would run; shard
/// configurations are derived from it by `ClusterConfig::shard_config`.
fn base_config(plan: &BandPlan) -> GatewayConfig {
    GatewayConfig {
        channelizer: ChannelizerConfig::uniform(
            plan.n_channels(),
            plan.bandwidth_hz,
            500e3,
            plan.bandwidth_hz * plan.oversampling as f64,
            plan.decimation,
        ),
        oversampling: plan.oversampling,
        sfs: SFS.to_vec(),
        code_rate: CodeRate::Cr45,
        payload_len: PAYLOAD_LEN,
        cic: CicConfig::default(),
        // Deep enough that ragged chunkings as small as 1 Ki samples
        // never hit drop-oldest eviction: decode equality against the
        // wide reference requires a lossless queue on both sides.
        queue_capacity: 4096,
        overload: OverloadConfig {
            // Pinned: no wall-clock idle quiesce may fire mid-stream, or
            // decode would depend on CI scheduling.
            idle_timeout: Duration::from_secs(600),
            ..OverloadConfig::drop_oldest()
        },
    }
}

struct Fixture {
    plan: BandPlan,
    samples: Vec<Cf32>,
    /// CRC-ok decode set of the single wide gateway over `samples`.
    reference: Vec<GatewayPacket>,
}

/// One shared capture + wide-gateway reference for every test and every
/// property case: the reference decode is the expensive part, and it is
/// identical across sharding layouts by construction.
fn fixture() -> &'static Fixture {
    static FIX: OnceLock<Fixture> = OnceLock::new();
    FIX.get_or_init(|| {
        let plan = plan();
        let cfg = TrafficConfig {
            n_nodes: 8,
            sfs: SFS.to_vec(),
            code_rate: CodeRate::Cr45,
            rate_pps: 45.0,
            duration_s: 0.2,
            payload_len: PAYLOAD_LEN,
            amplitude_range: (
                amplitude_for_snr(17.0, plan.oversampling),
                amplitude_for_snr(24.0, plan.oversampling),
            ),
            cfo_range_hz: (-2000.0, 2000.0),
        };
        let mut rng = StdRng::seed_from_u64(29);
        let mut cap = generate_traffic(&mut rng, &plan, &cfg);
        add_unit_noise(&mut rng, &mut cap.samples);

        let mut gw = Gateway::new(base_config(&plan)).expect("valid config");
        for chunk in cap.samples.chunks(4096) {
            gw.push(chunk);
        }
        let (packets, _) = gw.finish();
        let reference: Vec<GatewayPacket> = packets.into_iter().filter(|p| p.packet.ok()).collect();
        assert!(
            reference.len() >= 4,
            "reference too small to be meaningful: {}",
            reference.len()
        );
        Fixture {
            plan,
            samples: cap.samples,
            reference,
        }
    })
}

/// Broadcast the fixture capture to a cluster in the given (cycled)
/// ragged chunk sizes, polling as it streams, and return its CRC-ok
/// merged output plus the final snapshot. Checks the global watermark
/// monotonicity invariant along the way.
fn run_cluster(shards: Vec<ShardPlan>, chunks: &[usize]) -> (Vec<GatewayPacket>, ClusterSnapshot) {
    let fix = fixture();
    let mut cluster = GatewayCluster::new(ClusterConfig {
        base: base_config(&fix.plan),
        shards,
    })
    .expect("valid layout");
    let mut got = Vec::new();
    let mut off = 0usize;
    let mut k = 0usize;
    let mut last_watermark = 0u64;
    while off < fix.samples.len() {
        let n = chunks[k % chunks.len()].min(fix.samples.len() - off);
        cluster.push(&fix.samples[off..off + n]);
        off += n;
        k += 1;
        let wm = cluster.global_watermark();
        assert!(
            wm >= last_watermark,
            "global watermark went backwards: {last_watermark} then {wm}"
        );
        last_watermark = wm;
        got.extend(cluster.poll_packets());
    }
    let (rest, snap) = cluster.finish();
    got.extend(rest);
    assert_eq!(
        snap.global_watermark,
        u64::MAX,
        "finish opens the watermark"
    );
    (got.into_iter().filter(|p| p.packet.ok()).collect(), snap)
}

fn assert_ordered(packets: &[GatewayPacket]) {
    for w in packets.windows(2) {
        assert!(
            w[0].start_wideband <= w[1].start_wideband,
            "merged stream out of order: {} then {}",
            w[0].start_wideband,
            w[1].start_wideband
        );
    }
}

/// Every reference packet appears exactly once in `got` (same global
/// channel, SF, payload, and start within half a symbol).
fn assert_exactly_once(plan: &BandPlan, reference: &[GatewayPacket], got: &[GatewayPacket]) {
    for r in reference {
        let tol = (1u64 << r.sf) * (plan.oversampling * plan.decimation) as u64 / 2;
        let matches = got
            .iter()
            .filter(|p| {
                p.channel == r.channel
                    && p.sf == r.sf
                    && p.start_wideband.abs_diff(r.start_wideband) < tol
                    && p.packet.payload == r.packet.payload
            })
            .count();
        assert_eq!(
            matches, 1,
            "reference packet (ch {}, sf {}, start {}) delivered {matches} times",
            r.channel, r.sf, r.start_wideband
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Random shard assignments (any partition of the 4 channels into
    /// 1–3 gateways) under random ragged chunkings must be
    /// indistinguishable from the single wide gateway: exactly once, in
    /// order.
    #[test]
    fn any_sharding_matches_the_wide_gateway(
        assign in collection::vec(0usize..3, N_CHANNELS),
        chunks in collection::vec(1024usize..6144, 2..5),
    ) {
        let fix = fixture();
        // Shards = the distinct assignment labels actually drawn, each
        // taking the channels mapped to it — every shard non-empty by
        // construction.
        let mut labels = assign.clone();
        labels.sort_unstable();
        labels.dedup();
        let shards: Vec<ShardPlan> = labels
            .iter()
            .map(|&l| ShardPlan {
                channels: (0..N_CHANNELS).filter(|&c| assign[c] == l).collect(),
                sfs: None,
            })
            .collect();
        let (got, snap) = run_cluster(shards, &chunks);
        assert_ordered(&got);
        prop_assert_eq!(
            got.len(),
            fix.reference.len(),
            "sharded decode lost or invented packets (assign {:?}, chunks {:?})",
            assign,
            chunks
        );
        assert_exactly_once(&fix.plan, &fix.reference, &got);
        // A partition is disjoint coverage: nothing to dedup across
        // gateways.
        prop_assert_eq!(snap.cross_gateway_duplicates, 0);
    }
}

/// Two shards both covering channel 1: each releases its own copy of
/// every transmission there, and the sink must suppress the extras
/// while still delivering the wide decode set exactly once.
#[test]
fn overlapping_shards_are_deduplicated_exactly_once() {
    let fix = fixture();
    let on_shared = fix.reference.iter().filter(|p| p.channel == 1).count();
    assert!(
        on_shared >= 1,
        "fixture must place traffic on the shared channel"
    );
    let shards = vec![
        ShardPlan {
            channels: vec![0, 1],
            sfs: None,
        },
        ShardPlan {
            channels: vec![1, 2, 3],
            sfs: None,
        },
    ];
    let (got, snap) = run_cluster(shards, &[2048, 3072]);
    assert_ordered(&got);
    assert_eq!(
        got.len(),
        fix.reference.len(),
        "duplicates leaked through the merge, or packets were lost"
    );
    assert_exactly_once(&fix.plan, &fix.reference, &got);
    assert!(
        snap.cross_gateway_duplicates > 0,
        "overlapping coverage must exercise the cross-gateway dedup"
    );
    // Every packet a shard released is either merged or a copy of
    // another shard's.
    assert_eq!(
        snap.merged.packets_released,
        snap.packets_merged + snap.cross_gateway_duplicates
    );
}

/// The same band decoded under a disjoint SF split (one shard per
/// spreading factor over all channels) unions back to the wide decode
/// set; disjoint SF sets mean no transmission decodes twice.
#[test]
fn sf_split_shards_union_to_the_wide_decode_set() {
    let fix = fixture();
    let all: Vec<usize> = (0..N_CHANNELS).collect();
    let shards = vec![
        ShardPlan {
            channels: all.clone(),
            sfs: Some(vec![7]),
        },
        ShardPlan {
            channels: all,
            sfs: Some(vec![9]),
        },
    ];
    let (got, snap) = run_cluster(shards, &[4096]);
    assert_ordered(&got);
    assert_eq!(got.len(), fix.reference.len());
    assert_exactly_once(&fix.plan, &fix.reference, &got);
    assert_eq!(snap.cross_gateway_duplicates, 0);
}
