//! The four workloads: their parameters, the capture each one offers,
//! and the open-loop generator that offers it to the system under test and
//! scores what comes back.
//!
//! Every workload shares the base configuration: deployment D1, SF 7 and
//! 9, CR 4/5, 16-byte payloads, one packet per node per 300 s, and
//! [`lora_sim::capacity::gateway_config`]. They differ in what stresses
//! which layer (see the README for the layer → metric → workload map).

use std::collections::HashMap;
use std::sync::mpsc::Receiver;
use std::time::{Duration, Instant};

use cic::SicConfig;
use lora_channel::stream::{FrameSchedule, StreamConfig, StreamedScenario};
use lora_channel::{BandPlan, DeploymentKind};
use lora_dsp::Cf32;
use lora_gateway::{
    ClusterConfig, ClusterSnapshot, Gateway, GatewayCluster, GatewayConfig, GatewayPacket,
    GatewaySnapshot, OverloadPolicy,
};
use lora_ingest::{
    IngestConfig, IngestDriver, NetConfig, PacketSubscription, UdpIqSender, UdpIqSource,
};
use lora_phy::params::CodeRate;
use lora_sim::capacity::CapacitySpec;

use crate::report::process_cpu_s;
use crate::trace::Tracer;
use crate::truth::{Emitted, TruthMatcher, Verdict};

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Real-time operation below the capacity knee.
    SteadyRt,
    /// Dense offered backlog decoded with SIC, lossless.
    BacklogSic,
    /// Eight channels across two threaded cluster shards, lossless.
    Wide8Sharded,
    /// Real-time operation fed over UDP loopback.
    UdpRt,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::SteadyRt,
        Workload::BacklogSic,
        Workload::Wide8Sharded,
        Workload::UdpRt,
    ];

    /// The workload's name on the command line and in results.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SteadyRt => "steady_rt",
            Workload::BacklogSic => "backlog_sic",
            Workload::Wide8Sharded => "wide8_sharded",
            Workload::UdpRt => "udp_rt",
        }
    }

    /// Look a workload up by name.
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's parameters for `seed`, sized so one run measures
    /// about `seconds` of wall time on a 2-CPU host.
    pub fn spec(self, seed: u64, seconds: f64) -> Spec {
        let two = || BandPlan::uniform(2, 250e3, 500e3, 2, 2);
        let point = |plan: BandPlan, n_nodes: usize, air_s: f64, chunk: usize| CapacitySpec {
            plan,
            stream: StreamConfig {
                n_nodes,
                deployment: DeploymentKind::D1IndoorLos,
                sfs: vec![7, 9],
                code_rate: CodeRate::Cr45,
                payload_len: 16,
                mean_interval_s: 300.0,
                duration_s: air_s,
                seed,
                noise: true,
            },
            chunk,
            speed: Some(1.0),
            queue_capacity: 64,
            policy: OverloadPolicy::Adaptive,
            shards: 1,
            threaded: false,
        };
        // Batch workloads offer everything up front and must lose
        // nothing: drop-oldest queues deep enough for the whole capture.
        let lossless = |mut p: CapacitySpec| {
            let total = StreamedScenario::new(p.plan.clone(), p.stream.clone()).total_samples();
            p.speed = None;
            p.policy = OverloadPolicy::DropOldest;
            p.queue_capacity = total.div_ceil(p.chunk) + 1;
            p
        };
        let (point, sic, udp, replay_air_s) = match self {
            Workload::SteadyRt => (point(two(), 3_000, seconds, 1 << 14), false, false, 4.0),
            Workload::BacklogSic => (
                lossless(point(two(), 50_000, seconds * BATCH_AIR_SHARE, 1 << 14)),
                true,
                false,
                1.0,
            ),
            Workload::Wide8Sharded => {
                let mut p = lossless(point(
                    BandPlan::uniform(8, 250e3, 500e3, 2, 8),
                    20_000,
                    seconds * BATCH_AIR_SHARE,
                    1 << 16,
                ));
                p.shards = 2;
                p.threaded = true;
                (p, false, false, 2.0)
            }
            // 2048-sample datagrams, the `udp_gateway` example's size.
            Workload::UdpRt => (point(two(), 6_000, seconds, 2048), false, true, 1.0),
        };
        Spec {
            point,
            sic,
            udp,
            replay_air_s,
        }
    }
}

/// Air time the batch workloads offer per second of `--seconds`. The
/// backlog decodes 0.16–0.3 air seconds per wall second on a 2-CPU host,
/// so its run lasts about `--seconds`; the 8-channel workload runs faster
/// but is held at the same share, since its queued channel streams double
/// a 32 MB-per-air-second capture.
const BATCH_AIR_SHARE: f64 = 0.2;

/// One workload's full parameter set.
#[derive(Debug, Clone)]
pub struct Spec {
    /// Band plan, traffic, push size, pacing, queues, policy and shards.
    pub point: CapacitySpec,
    /// Decode with the hybrid CIC + SIC receiver.
    pub sic: bool,
    /// Offer the capture as IQF1 datagrams over UDP loopback.
    pub udp: bool,
    /// Air time the single-thread replay covers, seconds.
    pub replay_air_s: f64,
}

impl Spec {
    /// Batch workloads (no pacing) must lose no sample.
    pub fn lossless(&self) -> bool {
        self.point.speed.is_none()
    }

    /// The gateway configuration every workload derives from the base.
    pub fn gateway_config(&self) -> GatewayConfig {
        let mut cfg = lora_sim::capacity::gateway_config(&self.point);
        if self.sic {
            cfg.cic.sic = SicConfig::hybrid();
        }
        cfg
    }

    /// Wideband samples per second.
    pub fn rate_hz(&self) -> f64 {
        self.point.plan.wideband_rate_hz()
    }
}

/// A capture generated before timing starts: the program only ever sees
/// the samples; the emissions are the ground truth.
pub struct Capture {
    /// Wideband IQ samples.
    pub samples: Vec<Cf32>,
    /// Every transmission in the capture.
    pub emitted: Vec<Emitted>,
    /// Generation time, seconds.
    pub gen_s: f64,
}

impl Capture {
    /// Synthesise the workload's traffic from its seed.
    pub fn generate(spec: &Spec) -> Capture {
        let t0 = Instant::now();
        let mut scenario =
            StreamedScenario::new(spec.point.plan.clone(), spec.point.stream.clone());
        let mut samples = Vec::with_capacity(scenario.total_samples());
        let mut emitted = Vec::new();
        while let Some(chunk) = scenario.next_chunk(1 << 16) {
            samples.extend_from_slice(chunk);
            emitted.extend(scenario.drain_truth().into_iter().map(|e| Emitted {
                channel: e.packet.channel,
                sf: e.packet.sf,
                start: e.packet.start_sample as u64,
                payload: e.packet.payload,
            }));
        }
        assert_eq!(
            emitted.len() as u64,
            scenario.emitted(),
            "truth fully drained"
        );
        Capture {
            samples,
            emitted,
            gen_s: t0.elapsed().as_secs_f64(),
        }
    }
}

/// The system under test, as one of the three front ends a deployment
/// uses.
enum Sut {
    /// One wide gateway fed by in-process pushes; packets arrive on its
    /// subscription.
    Gateway {
        gw: Gateway,
        rx: Receiver<GatewayPacket>,
    },
    /// A threaded cluster of channel shards behind the merge watermark.
    Cluster { cl: GatewayCluster, pushed: u64 },
    /// A gateway owned by an `IngestDriver` thread, fed over UDP loopback.
    Udp {
        tx: UdpIqSender,
        sub: PacketSubscription,
        sent: u64,
        /// Last `frames_in` seen and when it changed, to stop waiting for
        /// datagrams the kernel dropped.
        frames_seen: (u64, Instant),
    },
}

/// What a finished system hands back.
struct Finished {
    rest: Vec<GatewayPacket>,
    snapshot: GatewaySnapshot,
    cluster: Option<ClusterSnapshot>,
    at: Instant,
}

impl Sut {
    /// Construct the system under test (what `setup_s` times).
    fn build(spec: &Spec) -> Result<Sut, String> {
        let cfg = spec.gateway_config();
        if spec.point.shards > 1 {
            let config = ClusterConfig::channel_sharded(cfg, spec.point.shards);
            let cl = if spec.point.threaded {
                GatewayCluster::new_threaded(config)
            } else {
                GatewayCluster::new(config)
            }
            .map_err(|e| format!("cluster config: {e}"))?;
            return Ok(Sut::Cluster { cl, pushed: 0 });
        }
        if spec.udp {
            let source = UdpIqSource::bind("127.0.0.1:0", NetConfig::default())
                .map_err(|e| format!("bind UDP source: {e}"))?;
            let dest = source.local_addr();
            let gw = Gateway::new(cfg).map_err(|e| format!("gateway config: {e}"))?;
            let sub = IngestDriver::spawn(gw, source, IngestConfig::default());
            let tx = UdpIqSender::connect(dest).map_err(|e| format!("UDP sender: {e}"))?;
            return Ok(Sut::Udp {
                tx,
                sub,
                sent: 0,
                frames_seen: (0, Instant::now()),
            });
        }
        let gw = Gateway::new(cfg).map_err(|e| format!("gateway config: {e}"))?;
        let rx = gw.subscribe(SUBSCRIPTION_CAPACITY);
        Ok(Sut::Gateway { gw, rx })
    }

    /// Offer one chunk of wideband samples.
    fn offer(&mut self, chunk: &[Cf32], tr: &mut Tracer, root: usize) -> Result<(), String> {
        match self {
            Sut::Gateway { gw, .. } => tr.span("push", Some(root), || gw.push(chunk)),
            Sut::Cluster { cl, pushed } => {
                tr.span("push", Some(root), || cl.push(chunk));
                *pushed += chunk.len() as u64;
            }
            Sut::Udp { tx, sent, .. } => {
                tr.span("send", Some(root), || tx.send(chunk, true))
                    .map_err(|e| format!("UDP send: {e}"))?;
                *sent += 1;
            }
        }
        Ok(())
    }

    /// Collect released packets, stamping each with its arrival, waiting
    /// at most until `deadline` (not at all if it has passed).
    fn receive(
        &mut self,
        deadline: Instant,
        tr: &mut Tracer,
        root: usize,
        out: &mut Vec<(Instant, GatewayPacket)>,
    ) {
        let wait = deadline.saturating_duration_since(Instant::now());
        match self {
            Sut::Gateway { rx, .. } => {
                if let Ok(p) = rx.recv_timeout(wait) {
                    out.push((Instant::now(), p));
                }
                out.extend(rx.try_iter().map(|p| (Instant::now(), p)));
            }
            Sut::Cluster { cl, .. } => {
                let got = tr.span("poll", Some(root), || cl.poll_packets());
                let now = Instant::now();
                if got.is_empty() {
                    std::thread::sleep(wait.min(CLUSTER_POLL));
                }
                out.extend(got.into_iter().map(|p| (now, p)));
            }
            Sut::Udp { sub, .. } => {
                if let Some(p) = sub.next_timeout(wait) {
                    out.push((Instant::now(), p));
                }
                while let Some(p) = sub.try_next() {
                    out.push((Instant::now(), p));
                }
            }
        }
    }

    /// Whether everything offered so far has been decoded (every worker
    /// queue empty and every sample accepted).
    fn drained(&mut self) -> bool {
        let queues_empty = |s: &GatewaySnapshot| s.workers.iter().all(|w| w.queue_depth == 0);
        match self {
            Sut::Gateway { gw, .. } => queues_empty(&gw.stats().snapshot()),
            Sut::Cluster { cl, pushed } => {
                let snap = cl.snapshot();
                snap.shards
                    .iter()
                    .all(|s| s.samples_in == *pushed && queues_empty(s))
            }
            Sut::Udp {
                sub,
                sent,
                frames_seen,
                ..
            } => {
                let snap = sub.stats();
                if snap.frames_in != frames_seen.0 {
                    *frames_seen = (snap.frames_in, Instant::now());
                }
                // A datagram the kernel dropped never arrives: stop
                // waiting once arrivals have stalled.
                let arrived = snap.frames_in >= *sent || frames_seen.1.elapsed() > UDP_STALL;
                arrived && queues_empty(&snap)
            }
        }
    }

    /// End of stream: drain and stop every thread.
    fn finish(self, tr: &mut Tracer, root: usize) -> Finished {
        let (rest, snapshot, cluster) = match self {
            Sut::Gateway { gw, rx } => {
                let (mut rest, snapshot) = tr.span("finish", Some(root), || gw.finish());
                rest.extend(rx.try_iter());
                (rest, snapshot, None)
            }
            Sut::Cluster { cl, .. } => {
                let (rest, snap) = tr.span("finish", Some(root), || cl.finish());
                (rest, snap.merged.clone(), Some(snap))
            }
            Sut::Udp { mut tx, sub, .. } => tr.span("finish", Some(root), || {
                // Loopback rarely drops, but an end-of-stream marker is one
                // datagram: repeat it, and stop the ingest thread regardless.
                let _ = tx.send_eos(3);
                sub.stop();
                let (rest, snapshot) = sub.join();
                (rest, snapshot, None)
            }),
        };
        Finished {
            rest,
            snapshot,
            cluster,
            at: Instant::now(),
        }
    }
}

const SUBSCRIPTION_CAPACITY: usize = 4096;
/// Poll period of the cluster, which has no subscription.
const CLUSTER_POLL: Duration = Duration::from_millis(2);
/// How long UDP arrivals may stall before the drain stops waiting.
const UDP_STALL: Duration = Duration::from_millis(500);
/// Longest the drain wait blocks between progress checks.
const DRAIN_POLL: Duration = Duration::from_millis(5);
/// Longest the drain waits before handing over to `finish`.
const DRAIN_LIMIT: Duration = Duration::from_secs(120);

/// Construct and tear down the system `n` times; the construction times,
/// seconds.
pub fn setup_times(spec: &Spec, n: usize) -> Result<Vec<f64>, String> {
    let mut quiet = Tracer::new(false);
    (0..n)
        .map(|_| {
            let t0 = Instant::now();
            let sut = Sut::build(spec)?;
            let dt = t0.elapsed().as_secs_f64();
            sut.finish(&mut quiet, 0);
            Ok(dt)
        })
        .collect()
}

/// Outcome of one run of a workload.
pub struct RunReport {
    /// Air time offered, seconds.
    pub air_s: f64,
    /// First offer until `finish` returned, seconds.
    pub wall_s: f64,
    /// CPU time the whole process used meanwhile, seconds.
    pub cpu_s: f64,
    /// Transmissions in the capture.
    pub offered: usize,
    /// CRC-ok deliveries matching an emission, first time.
    pub delivered: usize,
    /// CRC-ok deliveries of an already delivered emission.
    pub duplicates: usize,
    /// CRC-ok deliveries matching no emission.
    pub phantoms: usize,
    /// Deliveries that failed CRC.
    pub crc_failed: usize,
    /// On-air end → delivery of each matched packet, ms, ascending.
    pub release_ms: Vec<f64>,
    /// How late each paced offer ran against its due time, ms.
    pub late_ms: Vec<f64>,
    /// Offers the transport refused.
    pub io_errors: usize,
    /// Gateway telemetry (the merged aggregate for a cluster).
    pub snapshot: GatewaySnapshot,
    /// Merge-tier telemetry of a cluster run.
    pub cluster: Option<ClusterSnapshot>,
}

/// Offer `cap` to a freshly built system, open loop: paced workloads
/// offer each chunk when its last sample is due on the pacing clock,
/// batch workloads offer everything at once. Packets are stamped as they
/// arrive; the paced loop waits on the packet stream rather than
/// sleeping, so stamps are not rounded to the push period.
pub fn run(spec: &Spec, cap: &Capture, tr: &mut Tracer) -> Result<RunReport, String> {
    let point = &spec.point;
    let rate = spec.rate_hz();
    let chunk = point.chunk;
    let mut sut = Sut::build(spec)?;
    let root = tr.open("run", None);
    let mut got = Vec::new();
    let mut offered_at = Vec::with_capacity(cap.samples.len().div_ceil(chunk));
    let mut late_ms = Vec::new();
    let mut io_errors = 0;
    let cpu0 = process_cpu_s();
    let clock = point.speed.map(|speed| (Instant::now(), rate * speed));
    for (k, c) in cap.samples.chunks(chunk).enumerate() {
        if let Some((t0, paced_rate)) = clock {
            let due = t0 + Duration::from_secs_f64((k * chunk + c.len()) as f64 / paced_rate);
            while Instant::now() < due {
                sut.receive(due, tr, root, &mut got);
            }
            late_ms.push(due.elapsed().as_secs_f64() * 1e3);
        }
        offered_at.push(Instant::now());
        if let Err(e) = sut.offer(c, tr, root) {
            eprintln!("perf_bench: {e}");
            io_errors += 1;
        }
        sut.receive(Instant::now(), tr, root, &mut got);
    }
    // Collect releases while the backlog drains, so their stamps are
    // not deferred to `finish`; `finish` itself drains whatever is left.
    let drain_limit = Instant::now() + DRAIN_LIMIT;
    while !sut.drained() && Instant::now() < drain_limit {
        sut.receive(Instant::now() + DRAIN_POLL, tr, root, &mut got);
    }
    let fin = sut.finish(tr, root);
    let cpu_s = process_cpu_s() - cpu0;
    tr.close(root);
    got.extend(fin.rest.into_iter().map(|p| (fin.at, p)));

    // Score every delivery against the ground truth.
    let plan = &point.plan;
    let schedule = FrameSchedule::new(plan, point.stream.clone());
    let symbol: HashMap<u8, u64> = point
        .stream
        .sfs
        .iter()
        .map(|&sf| (sf, plan.wideband_params(sf).samples_per_symbol() as u64))
        .collect();
    let mut truth = TruthMatcher::new(cap.emitted.clone(), symbol);
    let (mut delivered, mut duplicates, mut phantoms, mut crc_failed) = (0, 0, 0, 0);
    let mut release_ms = Vec::new();
    for (at, p) in &got {
        let Some(payload) = &p.packet.payload else {
            crc_failed += 1;
            continue;
        };
        match truth.classify(p.channel, p.sf, p.start_wideband, payload) {
            Verdict::Matched(i) => {
                delivered += 1;
                let end = truth.emitted()[i].start as usize + schedule.frame_samples(p.sf);
                // When the packet's last sample reached the system: its
                // due time on the pacing clock, or the offer of the chunk
                // holding it in a batch run.
                let available = match clock {
                    Some((t0, paced_rate)) => t0 + Duration::from_secs_f64(end as f64 / paced_rate),
                    None => offered_at[((end.max(1) - 1) / chunk).min(offered_at.len() - 1)],
                };
                release_ms.push(at.saturating_duration_since(available).as_secs_f64() * 1e3);
            }
            Verdict::Duplicate(_) => duplicates += 1,
            Verdict::Phantom => phantoms += 1,
        }
    }
    release_ms.sort_by(f64::total_cmp);
    Ok(RunReport {
        air_s: cap.samples.len() as f64 / rate,
        wall_s: fin.at.duration_since(offered_at[0]).as_secs_f64(),
        cpu_s,
        offered: cap.emitted.len(),
        delivered,
        duplicates,
        phantoms,
        crc_failed,
        release_ms,
        late_ms,
        io_errors,
        snapshot: fin.snapshot,
        cluster: fin.cluster,
    })
}
