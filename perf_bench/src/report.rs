//! Turning one workload's runs into named metrics and a result document.

use std::time::Instant;

use cic::StreamingReceiver;
use lora_ingest::protocol::{decode_frame, encode_frame};
use lora_sim::json_object;
use lora_sim::JsonValue;

use crate::replay::Replay;
use crate::stats::{median, percentile, sorted};
use crate::trace::Tracer;
use crate::workload::{Capture, RunReport, Spec};

/// Named metric values, in computation order.
pub type Metrics = Vec<(&'static str, f64)>;

/// The metrics of the untraced run, which every run reports: what a user
/// of the gateway sees. `BENCHMARK.json` decides which of them are
/// gated end to end; the rest are listed per layer.
pub fn run_metrics(
    spec: &Spec,
    capture: &Capture,
    run: &RunReport,
    setup_s: &[f64],
    mem_peak_mb: f64,
) -> Result<Metrics, String> {
    let s = &run.snapshot;
    let decimation = spec.gateway_config().channelizer.decimation;
    // Channel samples the workers were offered, wideband gaps included.
    let worker_samples = s.workers.len() as f64 * (capture.samples.len() / decimation) as f64;
    let lost = (s.samples_dropped + s.samples_shed) as f64
        + s.workers.len() as f64 * (s.samples_gapped as f64 / decimation as f64);
    Ok(vec![
        ("setup_s", median(setup_s).ok_or("no setup samples")?),
        ("mem_peak_mb", mem_peak_mb),
        ("x_realtime", run.air_s / run.wall_s),
        ("pdr", run.delivered as f64 / run.offered.max(1) as f64),
        ("cpu_per_air_s", run.cpu_s / run.air_s),
        ("release_p50_ms", release_ms(run, 50)),
        ("release_p95_ms", release_ms(run, 95)),
        ("samples_lost_frac", lost / worker_samples.max(1.0)),
    ])
}

/// Everything the traced metrics are computed from.
pub struct LayerInputs<'a> {
    /// The workload.
    pub spec: &'a Spec,
    /// Its capture.
    pub capture: &'a Capture,
    /// The untraced run.
    pub plain: &'a RunReport,
    /// The traced run.
    pub traced: &'a RunReport,
    /// Spans of the traced run (and the replay).
    pub tracer: &'a Tracer,
    /// The single-thread replay.
    pub replay: &'a Replay,
}

/// The metrics only a traced run yields: layer by layer, from the traced
/// run's spans and telemetry and from the replay. Times are normalised
/// per second of air where the work scales with it.
pub fn traced_metrics(x: &LayerInputs) -> Metrics {
    let r = x.traced;
    let s = &r.snapshot;
    let p = x.replay;
    let air = r.air_s;
    let cfg = x.spec.gateway_config();
    let decimation = cfg.channelizer.decimation;
    let ns_per_air = |ns: u64| ns as f64 / 1e9 / air;
    let per_replay_air = |secs: f64| secs / p.air_s;
    let sf_get = |m: &std::collections::BTreeMap<u8, f64>, sf| m.get(&sf).copied().unwrap_or(0.0);

    let holdback = cfg
        .sfs
        .iter()
        .map(|&sf| {
            StreamingReceiver::new(
                cfg.channel_params(sf),
                cfg.code_rate,
                cfg.payload_len,
                cfg.cic.clone(),
            )
            .holdback()
        })
        .max()
        .unwrap_or(0);
    let shards = match &r.cluster {
        Some(c) => c.shards.clone(),
        None => vec![s.clone()],
    };
    let shard_msps = shards
        .iter()
        .map(|g| g.samples_in as f64 * 1e3 / g.channelize.total_ns.max(1) as f64)
        .fold(f64::INFINITY, f64::min);
    let (encode_us, decode_us) = if x.spec.udp {
        frame_codec_us(&x.capture.samples, x.spec.point.chunk)
    } else {
        (0.0, 0.0)
    };
    let attempts = s.packets_decoded + s.crc_failures;
    let cache = p.sic.ref_cache_hits + p.sic.ref_cache_misses;

    vec![
        ("lora_dsp.channelize_self_s", per_replay_air(p.channelize_s)),
        (
            "lora_dsp.channelize_msps",
            p.samples as f64 / p.channelize_s.max(1e-12) / 1e6,
        ),
        (
            "lora_gateway.channelize_busy_s",
            ns_per_air(s.channelize.total_ns),
        ),
        (
            "cic.detect_self_s.sf7",
            per_replay_air(sf_get(&p.detect_s, 7)),
        ),
        (
            "cic.detect_self_s.sf9",
            per_replay_air(sf_get(&p.detect_s, 9)),
        ),
        ("cic.decode_self_s.sf7", per_replay_air(p.decode_s(7))),
        ("cic.decode_self_s.sf9", per_replay_air(p.decode_s(9))),
        ("lora_gateway.decode_busy_s", ns_per_air(s.decode.total_ns)),
        (
            "lora_gateway.decode_p50_ms",
            s.decode_percentiles.p50_ns as f64 / 1e6,
        ),
        (
            "lora_gateway.decode_p99_ms",
            s.decode_percentiles.p99_ns as f64 / 1e6,
        ),
        ("cic.window_per_new_sample.sf7", p.window_per_new_sample(7)),
        ("cic.window_per_new_sample.sf9", p.window_per_new_sample(9)),
        (
            "cic.detections_per_emitted",
            p.detections as f64 / p.emitted.max(1) as f64,
        ),
        (
            "cic.sic_self_s",
            per_replay_air(p.sic_s.values().fold(0.0, |a, b| a + b)),
        ),
        ("cic.sic_passes", s.sic_passes as f64),
        ("cic.sic_recovered", s.sic_packets_recovered as f64),
        ("cic.sic_abandoned", s.sic_residual_abandoned as f64),
        (
            "cic.sic_ref_cache_hit_rate",
            p.sic.ref_cache_hits as f64 / cache.max(1) as f64,
        ),
        (
            "lora_gateway.queue_depth_hwm",
            s.workers
                .iter()
                .map(|w| w.queue_depth_hwm)
                .max()
                .unwrap_or(0) as f64,
        ),
        ("lora_gateway.shed_s", s.shed_seconds / air),
        ("lora_gateway.chunks_shed", s.chunks_shed as f64),
        ("lora_gateway.chunks_dropped", s.chunks_dropped as f64),
        ("lora_gateway.degrade_events", s.degrade_events as f64),
        (
            "lora_gateway.crc_fail_frac",
            s.crc_failures as f64 / attempts.max(1) as f64,
        ),
        (
            "lora_gateway.duplicates_suppressed",
            s.duplicates_suppressed as f64,
        ),
        (
            "lora_gateway.holdback_ms",
            (holdback * decimation) as f64 / x.spec.rate_hz() * 1e3,
        ),
        ("lora_gateway.push_s", x.tracer.total_s("push") / air),
        ("lora_gateway.finish_s", x.tracer.total_s("finish")),
        ("cluster.poll_s", x.tracer.total_s("poll") / air),
        (
            "cluster.packets_merged",
            r.cluster.as_ref().map_or(0, |c| c.packets_merged) as f64,
        ),
        (
            "cluster.cross_gateway_duplicates",
            r.cluster.as_ref().map_or(0, |c| c.cross_gateway_duplicates) as f64,
        ),
        ("cluster.shard_channelize_msps_min", shard_msps),
        ("lora_ingest.send_s", x.tracer.total_s("send") / air),
        ("lora_ingest.frames_in", s.frames_in as f64),
        ("lora_ingest.frames_dropped", s.frames_dropped as f64),
        ("lora_ingest.frames_rejected", s.frames_rejected as f64),
        ("lora_ingest.samples_gapped", s.samples_gapped as f64),
        ("lora_ingest.encode_us_per_frame", encode_us),
        ("lora_ingest.decode_us_per_frame", decode_us),
        ("load.gen_s", x.capture.gen_s),
        ("load.late_p99_ms", late_p99_ms(r)),
        ("trace.sequential_s", per_replay_air(p.wall_s)),
        ("trace.overhead_frac", r.wall_s / x.plain.wall_s - 1.0),
        ("trace.span_coverage", p.coverage),
    ]
}

/// Mean cost of `protocol::encode_frame` and `decode_frame` over the
/// workload's datagrams, microseconds per frame.
fn frame_codec_us(samples: &[lora_dsp::Cf32], frame: usize) -> (f64, f64) {
    let t0 = Instant::now();
    let wire: Vec<Vec<u8>> = samples
        .chunks(frame)
        .enumerate()
        .map(|(seq, c)| encode_frame(seq as u64, (seq * frame) as u64, c))
        .collect();
    let encode_s = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let decoded = wire
        .iter()
        .filter(|b| std::hint::black_box(decode_frame(b)).is_ok())
        .count();
    let decode_s = t1.elapsed().as_secs_f64();
    assert_eq!(decoded, wire.len(), "every encoded frame decodes");
    let n = wire.len().max(1) as f64;
    (encode_s * 1e6 / n, decode_s * 1e6 / n)
}

/// On-air end → delivery latency percentile of the untraced run, or the
/// slowest delivery when too few packets support the percentile.
fn release_ms(run: &RunReport, pct: usize) -> f64 {
    percentile(&run.release_ms, pct)
        .or_else(|| run.release_ms.last().copied())
        .unwrap_or(0.0)
}

/// How late the open-loop load generator ran: p99 of offer lateness, or the
/// worst offer when there are too few for a p99 (0 for batch runs).
pub fn late_p99_ms(run: &RunReport) -> f64 {
    percentile(&sorted(&run.late_ms), 99)
        .or_else(|| run.late_ms.iter().copied().reduce(f64::max))
        .unwrap_or(0.0)
}

/// Peak-memory probe: resets the kernel's high-water mark (`VmHWM`) and
/// reports the peak above the resident size at the reset.
pub struct MemProbe {
    base_kb: u64,
    reset: bool,
}

impl MemProbe {
    /// Reset the high-water mark to the current resident size.
    pub fn start() -> MemProbe {
        let reset = std::fs::write("/proc/self/clear_refs", "5").is_ok();
        if !reset {
            eprintln!("perf_bench: cannot reset VmHWM; mem_peak_mb includes earlier peaks");
        }
        MemProbe {
            base_kb: status_kb("VmRSS:").unwrap_or(0),
            reset,
        }
    }

    /// Whether the reset took effect.
    pub fn reset(&self) -> bool {
        self.reset
    }

    /// Peak resident memory since [`MemProbe::start`] above the resident
    /// size then, MB.
    pub fn peak_mb(&self) -> f64 {
        let peak = status_kb("VmHWM:").unwrap_or(0);
        peak.saturating_sub(self.base_kb) as f64 * 1024.0 / 1e6
    }
}

/// CPU time (user + system, all threads) this process has used, seconds.
pub fn process_cpu_s() -> f64 {
    // /proc reports times in USER_HZ ticks, fixed at 100 on Linux.
    const TICKS_PER_S: f64 = 100.0;
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name: state is the first,
    // utime the 12th and stime the 13th.
    let fields: Vec<&str> = stat
        .rsplit_once(')')
        .map_or(Vec::new(), |(_, rest)| rest.split_whitespace().collect());
    let tick = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (tick(11) + tick(12)) / TICKS_PER_S
}

fn status_kb(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Host and build metadata recorded with every result.
pub fn host() -> JsonValue {
    json_object! {
        "nproc" => std::thread::available_parallelism().map_or(0, |n| n.get()),
        "rustc" => rustc_version().unwrap_or_else(|| "unknown".into()),
        "git_head" => git_head().unwrap_or_else(|| "unknown".into()),
        "os" => format!("{}-{}", std::env::consts::OS, std::env::consts::ARCH),
    }
}

/// `rustc -V` of the toolchain on the `PATH` (the one `cargo run` built
/// the benchmark with).
fn rustc_version() -> Option<String> {
    let out = std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .ok()?;
    let version = String::from_utf8(out.stdout).ok()?;
    Some(version.trim().to_string()).filter(|v| !v.is_empty())
}

/// The checked-out commit, read from `.git` in the working directory
/// (the benchmark reads nothing outside its checkout).
fn git_head() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(id) = std::fs::read_to_string(format!(".git/{reference}")) {
        return Some(id.trim().to_string());
    }
    let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
    packed
        .lines()
        .find(|l| l.ends_with(reference))
        .and_then(|l| l.split_whitespace().next())
        .map(str::to_string)
}

/// The workload's parameters, for the result document.
pub fn params(spec: &Spec) -> JsonValue {
    let p = &spec.point;
    json_object! {
        "n_nodes" => p.stream.n_nodes,
        "mean_interval_s" => p.stream.mean_interval_s,
        "air_s" => p.stream.duration_s,
        "channels" => p.plan.n_channels(),
        "wideband_rate_hz" => p.plan.wideband_rate_hz(),
        "chunk" => p.chunk,
        "paced" => p.speed.is_some(),
        "policy" => format!("{:?}", p.policy),
        "queue_capacity" => p.queue_capacity,
        "shards" => p.shards,
        "threaded" => p.threaded,
        "sic" => spec.sic,
        "udp" => spec.udp,
        "replay_air_s" => spec.replay_air_s,
    }
}
