//! City-scale capacity campaign: drive the full gateway runtime from the
//! streamed scenario engine, far past the paper's 20-node deployments.
//!
//! The paper evaluates CIC on 20 transmitters per deployment (§7.1,
//! Figs 22–31). The ROADMAP's north star is a gateway serving orders of
//! magnitude more devices, which needs two things the batch experiment
//! path cannot give: traffic synthesis whose memory does not grow with
//! node count or capture length
//! ([`lora_channel::stream::StreamedScenario`]), and per-operating-point
//! delivery/latency/overload telemetry from the real runtime
//! ([`lora_gateway::GatewaySnapshot`], including the decode-latency
//! percentiles). [`run_point`] wires the two together: one (deployment,
//! node count) operating point streamed chunk-by-chunk into a fresh
//! [`Gateway`] through the same push path an SDR front end uses,
//! optionally paced against wall clock.

use std::time::Instant;

use cic::CicConfig;
use lora_channel::stream::{StreamConfig, StreamedScenario};
use lora_channel::{BandPlan, Pacer};
use lora_dsp::ChannelizerConfig;
use lora_gateway::{
    ClusterConfig, ClusterSnapshot, Gateway, GatewayCluster, GatewayConfig, GatewaySnapshot,
    OverloadConfig, OverloadPolicy,
};

/// One operating point of the campaign.
#[derive(Debug, Clone)]
pub struct CapacitySpec {
    /// The multi-channel band.
    pub plan: BandPlan,
    /// Streamed traffic model (node count, deployment, duty cycle, …).
    pub stream: StreamConfig,
    /// Push chunk size, wideband samples.
    pub chunk: usize,
    /// Wall-clock pacing: `Some(1.0)` = real time, `None` = as fast as
    /// the machine generates and decodes.
    pub speed: Option<f64>,
    /// Per-worker queue capacity, chunks.
    pub queue_capacity: usize,
    /// Overload policy for the run.
    pub policy: OverloadPolicy,
    /// Gateway count: `1` runs the single wide gateway, `N > 1` splits
    /// the band channel-contiguously across a [`GatewayCluster`] behind
    /// the global merge watermark (broadcast routing — each shard
    /// digitises the whole wideband stream and extracts its slice).
    pub shards: usize,
    /// Unused: shards always run inline on the pushing thread. Kept so
    /// callers written against the former threaded cluster still build.
    pub threaded: bool,
}

/// What one operating point produced.
#[derive(Debug, Clone)]
pub struct CapacityOutcome {
    /// Transmissions the scenario put on the air.
    pub offered: u64,
    /// CRC-passing packets the gateway released.
    pub delivered_ok: u64,
    /// Packet delivery ratio (`delivered_ok / offered`).
    pub pdr: f64,
    /// Delivered application bytes per second of *air time*, bits/s.
    pub goodput_bps: f64,
    /// Wideband samples streamed.
    pub samples: usize,
    /// Wall-clock time of the run, seconds.
    pub wall_s: f64,
    /// Stream-time over wall-time: ≥ 1.0 means the gateway kept up with
    /// real time at this load on this machine.
    pub achieved_x_realtime: f64,
    /// Generator high-water mark ([`StreamedScenario::peak_resident_bytes`]).
    pub generator_peak_bytes: usize,
    /// Full gateway telemetry at the end of the run (latency percentiles,
    /// shed/rung engagement, drop counters, …). For a sharded run this is
    /// the [`GatewaySnapshot::merged`] aggregate over all shards.
    pub snapshot: GatewaySnapshot,
    /// Merge-tier telemetry of a sharded run (`spec.shards > 1`): the
    /// per-shard snapshots plus cross-gateway dedup and global-watermark
    /// counters. `None` for the single wide gateway.
    pub cluster: Option<ClusterSnapshot>,
    /// Per-shard channelizer throughput, Msamples/s of wideband input
    /// per second of channelize time (empty for a single wide gateway).
    /// This is the front-end rate the slice-scoped polyphase channelizer
    /// buys: each shard filters only its own channels.
    pub shard_msamples_s: Vec<f64>,
}

/// The channelizer layout matching a [`BandPlan`] (spacing derived from
/// the plan's uniform channel offsets).
pub(crate) fn channelizer_for(plan: &BandPlan) -> ChannelizerConfig {
    let spacing = if plan.n_channels() > 1 {
        plan.offsets_hz[1] - plan.offsets_hz[0]
    } else {
        plan.bandwidth_hz * 2.0
    };
    ChannelizerConfig::uniform(
        plan.n_channels(),
        plan.bandwidth_hz,
        spacing,
        plan.bandwidth_hz * plan.oversampling as f64,
        plan.decimation,
    )
}

/// The gateway configuration for one operating point.
pub fn gateway_config(spec: &CapacitySpec) -> GatewayConfig {
    GatewayConfig {
        channelizer: channelizer_for(&spec.plan),
        oversampling: spec.plan.oversampling,
        sfs: spec.stream.sfs.clone(),
        code_rate: spec.stream.code_rate,
        payload_len: spec.stream.payload_len,
        cic: CicConfig::default(),
        queue_capacity: spec.queue_capacity,
        overload: OverloadConfig {
            policy: spec.policy,
            ..OverloadConfig::default()
        },
    }
}

/// Run one operating point: stream the scenario into a fresh gateway,
/// drain decodes as they release, and score delivery against the
/// scenario's ground truth count.
pub fn run_point(spec: &CapacitySpec) -> CapacityOutcome {
    let mut scenario = StreamedScenario::new(spec.plan.clone(), spec.stream.clone());
    let mut pacer = Pacer::new(spec.plan.wideband_rate_hz(), spec.speed);

    let t0 = Instant::now();
    let mut delivered_ok = 0u64;
    let mut samples = 0usize;
    let (snapshot, cluster) = if spec.shards > 1 {
        let config = ClusterConfig::channel_sharded(gateway_config(spec), spec.shards);
        let mut cl =
            GatewayCluster::new(config).expect("capacity spec derives a valid cluster config");
        while let Some(chunk) = scenario.next_chunk(spec.chunk) {
            samples += chunk.len();
            cl.push(chunk);
            pacer.wait_until_due(scenario.position());
            delivered_ok += cl.poll_packets().iter().filter(|p| p.packet.ok()).count() as u64;
            // Ground truth must be drained as the stream advances — it is
            // the only generator state that grows with traffic volume.
            scenario.drain_truth();
        }
        let (rest, snap) = cl.finish();
        delivered_ok += rest.iter().filter(|p| p.packet.ok()).count() as u64;
        (snap.merged.clone(), Some(snap))
    } else {
        let mut gw = Gateway::new(gateway_config(spec))
            .expect("capacity spec derives a valid gateway config");
        let rx = gw.subscribe(4096);
        while let Some(chunk) = scenario.next_chunk(spec.chunk) {
            samples += chunk.len();
            gw.push(chunk);
            pacer.wait_until_due(scenario.position());
            delivered_ok += rx.try_iter().filter(|p| p.packet.ok()).count() as u64;
            // Ground truth must be drained as the stream advances — it is
            // the only generator state that grows with traffic volume.
            scenario.drain_truth();
        }
        let (rest, snapshot) = gw.finish();
        delivered_ok += rest.iter().filter(|p| p.packet.ok()).count() as u64;
        delivered_ok += rx.try_iter().filter(|p| p.packet.ok()).count() as u64;
        (snapshot, None)
    };
    let wall_s = t0.elapsed().as_secs_f64();

    let offered = scenario.emitted();
    let air_s = samples as f64 / spec.plan.wideband_rate_hz();
    // Wideband samples through each shard's channelizer per second of
    // channelize time (ns totals → Msamples/s is a factor of 1e3).
    let shard_msamples_s = cluster
        .as_ref()
        .map(|cl| {
            cl.shards
                .iter()
                .map(|s| {
                    if s.channelize.total_ns == 0 {
                        0.0
                    } else {
                        s.samples_in as f64 * 1e3 / s.channelize.total_ns as f64
                    }
                })
                .collect()
        })
        .unwrap_or_default();
    CapacityOutcome {
        offered,
        delivered_ok,
        pdr: delivered_ok as f64 / offered.max(1) as f64,
        goodput_bps: delivered_ok as f64 * spec.stream.payload_len as f64 * 8.0
            / spec.stream.duration_s,
        samples,
        wall_s,
        achieved_x_realtime: air_s / wall_s.max(1e-9),
        generator_peak_bytes: scenario.peak_resident_bytes(),
        snapshot,
        cluster,
        shard_msamples_s,
    }
}

/// Peak resident set size of this process in bytes (`VmHWM` from
/// `/proc/self/status`), `None` where procfs is unavailable. The
/// capacity CI job bounds this to catch any accidental
/// materialise-everything regression.
pub fn process_peak_rss_bytes() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: usize = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lora_channel::DeploymentKind;
    use lora_phy::params::CodeRate;

    fn small_spec() -> CapacitySpec {
        let plan = BandPlan::uniform(2, 250e3, 500e3, 2, 2);
        CapacitySpec {
            stream: StreamConfig {
                n_nodes: 8,
                deployment: DeploymentKind::D1IndoorLos,
                sfs: vec![7, 9],
                code_rate: CodeRate::Cr45,
                payload_len: 8,
                mean_interval_s: 8.0 / 30.0, // aggregate 30 pps
                duration_s: 0.25,
                seed: 21,
                noise: true,
            },
            plan,
            chunk: 1 << 14,
            speed: None,
            queue_capacity: 64,
            policy: OverloadPolicy::DropOldest,
            shards: 1,
            threaded: false,
        }
    }

    #[test]
    fn run_point_delivers_high_snr_traffic() {
        let out = run_point(&small_spec());
        assert!(out.offered > 0, "no traffic generated");
        assert!(
            out.pdr > 0.5,
            "D1 high-SNR light load should mostly decode: PDR {} ({}/{})",
            out.pdr,
            out.delivered_ok,
            out.offered
        );
        assert!(out.samples > 0);
        assert_eq!(out.snapshot.samples_in, out.samples as u64);
        assert!(out.generator_peak_bytes > 0);
        // The campaign's headline telemetry is present.
        assert!(out.snapshot.decode_percentiles.p99_ns >= out.snapshot.decode_percentiles.p50_ns);
    }

    #[test]
    fn sharded_run_point_matches_the_wide_gateway() {
        let mut spec = small_spec();
        let single = run_point(&spec);
        spec.shards = 2;
        let sharded = run_point(&spec);

        let cl = sharded
            .cluster
            .as_ref()
            .expect("sharded run carries cluster telemetry");
        assert_eq!(cl.shards.len(), 2);
        assert_eq!(cl.global_watermark, u64::MAX, "finish opens the watermark");
        // A channel-contiguous split is disjoint coverage: no copy from
        // another shard for the sink to suppress.
        assert_eq!(cl.cross_gateway_duplicates, 0);
        // Identical channelizer slices ⇒ identical decode on a lightly
        // loaded (no-drop) point.
        assert_eq!(
            sharded.delivered_ok, single.delivered_ok,
            "sharding changed the decode set"
        );
        // Broadcast routing: the merged aggregate saw the stream once per
        // shard; the outcome's sample count stays the streamed count.
        assert_eq!(sharded.samples, single.samples);
        assert_eq!(sharded.snapshot.samples_in, 2 * sharded.samples as u64);
        assert!(single.cluster.is_none());
        assert!(single.shard_msamples_s.is_empty());
        // Per-shard front-end throughput is recorded for every shard.
        assert_eq!(sharded.shard_msamples_s.len(), 2);
        assert!(sharded.shard_msamples_s.iter().all(|&r| r > 0.0));
    }

    #[test]
    fn channelizer_layout_matches_plan() {
        let plan = BandPlan::uniform(2, 250e3, 500e3, 2, 2);
        let ch = channelizer_for(&plan);
        assert_eq!(ch.n_channels(), 2);
        assert!((ch.wideband_rate_hz - plan.wideband_rate_hz()).abs() < 1e-6);
    }

    #[test]
    fn peak_rss_readable_on_linux() {
        if let Some(rss) = process_peak_rss_bytes() {
            assert!(rss > 1 << 20, "peak RSS implausibly small: {rss}");
        }
    }
}
