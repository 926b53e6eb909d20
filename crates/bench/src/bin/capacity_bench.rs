//! City-scale capacity campaign: PDR / goodput / decode-latency
//! percentiles / shed-and-rung telemetry per (deployment, node count)
//! operating point, written to `BENCH_capacity.json`.
//!
//! Each operating point streams Poisson traffic from N nodes of one
//! deployment (D1–D4) through the full gateway runtime via the
//! bounded-memory [`lora_channel::stream::StreamedScenario`] — no capture
//! buffer, no per-node state — which is what lets the sweep run to 1e5
//! nodes and minutes of air time where the batch path would need
//! gigabytes. The per-node duty cycle is held fixed (LoRaWAN-style, one
//! packet per `--interval` seconds on average), so node count is the
//! offered-load axis: 1e3 nodes ≈ 3.3 pps aggregate at the default
//! 300 s interval, 1e5 ≈ 333 pps.
//!
//! Usage: `capacity_bench [--nodes <n,n,…>] [--deployments <D1,D2,…>]
//! [--duration <s>] [--interval <s>] [--speed <x>] [--seed <n>]
//! [--out <path>]` — the default `--speed 1` paces the push at real
//! time, so an operating point's PDR reflects the offered load rather
//! than the machine's generation speed; `--speed 0` pushes unpaced (as
//! fast as the machine goes) and `achieved_x_realtime` records the
//! margin. Pacing only ever *slows* the push: points the machine cannot
//! sustain in real time run at the natural decode rate either way.

use lora_channel::deployment::DeploymentKind;
use lora_channel::stream::StreamConfig;
use lora_channel::BandPlan;
use lora_gateway::OverloadPolicy;
use lora_phy::params::CodeRate;
use lora_sim::capacity::{process_peak_rss_bytes, run_point, CapacitySpec};
use lora_sim::json_object;
use lora_sim::JsonValue;

const PAYLOAD_LEN: usize = 16;
const SFS: [u8; 2] = [7, 9];
const CHUNK: usize = 1 << 14;
const QUEUE_CAPACITY: usize = 64;

struct Opts {
    node_counts: Vec<usize>,
    deployments: Vec<DeploymentKind>,
    duration_s: f64,
    interval_s: f64,
    speed: Option<f64>,
    seed: u64,
    shards: usize,
    channels: usize,
    out: String,
}

fn usage(msg: &str) -> ! {
    eprintln!(
        "error: {msg}\n\
         usage: capacity_bench [--nodes <n,n,...>] [--deployments <D1,D2,...>]\n\
         \x20                     [--duration <s>] [--interval <s>] [--speed <x>]\n\
         \x20                     [--seed <n>] [--shards <n>] [--channels <n>]\n\
         \x20                     [--out <path>]\n\
         defaults: nodes 1000,10000,100000; deployments D1,D2,D3,D4;\n\
         duration 60s; interval 300s; speed 1 (real time; 0 = unpaced);\n\
         seed 17; shards 1 (N>1 = channel-sharded gateway cluster);\n\
         channels 2 (2, 4 or 8; decimation scales with the band);\n\
         out BENCH_capacity.json"
    );
    std::process::exit(2)
}

fn parse_deployment(s: &str) -> DeploymentKind {
    DeploymentKind::ALL
        .into_iter()
        .find(|k| k.label().eq_ignore_ascii_case(s))
        .unwrap_or_else(|| usage(&format!("unknown deployment {s} (want D1..D4)")))
}

fn parse_opts() -> Opts {
    let mut o = Opts {
        node_counts: vec![1_000, 10_000, 100_000],
        deployments: DeploymentKind::ALL.to_vec(),
        duration_s: 60.0,
        interval_s: 300.0,
        speed: Some(1.0),
        seed: 17,
        shards: 1,
        channels: 2,
        out: "BENCH_capacity.json".to_string(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut next = |what: &str| {
            args.next()
                .unwrap_or_else(|| usage(&format!("{what} needs a value")))
        };
        match arg.as_str() {
            "--nodes" => {
                o.node_counts = next("--nodes")
                    .split(',')
                    .map(|s| {
                        s.trim()
                            .parse()
                            .unwrap_or_else(|_| usage("--nodes wants integers"))
                    })
                    .collect();
                if o.node_counts.is_empty() || o.node_counts.contains(&0) {
                    usage("--nodes wants positive counts");
                }
            }
            "--deployments" => {
                o.deployments = next("--deployments")
                    .split(',')
                    .map(|s| parse_deployment(s.trim()))
                    .collect();
            }
            "--duration" => {
                o.duration_s = next("--duration")
                    .parse()
                    .unwrap_or_else(|_| usage("--duration needs a number"));
                if o.duration_s <= 0.0 {
                    usage("--duration must be positive");
                }
            }
            "--interval" => {
                o.interval_s = next("--interval")
                    .parse()
                    .unwrap_or_else(|_| usage("--interval needs a number"));
                if o.interval_s <= 0.0 {
                    usage("--interval must be positive");
                }
            }
            "--speed" => {
                let x: f64 = next("--speed")
                    .parse()
                    .unwrap_or_else(|_| usage("--speed needs a number"));
                o.speed = (x > 0.0).then_some(x);
            }
            "--seed" => {
                o.seed = next("--seed")
                    .parse()
                    .unwrap_or_else(|_| usage("--seed needs an integer"));
            }
            "--shards" => {
                o.shards = next("--shards")
                    .parse()
                    .unwrap_or_else(|_| usage("--shards needs an integer"));
                if o.shards == 0 {
                    usage("--shards must be at least 1");
                }
            }
            "--channels" => {
                o.channels = next("--channels")
                    .parse()
                    .unwrap_or_else(|_| usage("--channels needs an integer"));
                if ![2, 4, 8].contains(&o.channels) {
                    usage("--channels must be 2, 4 or 8");
                }
            }
            "--out" => o.out = next("--out"),
            other => usage(&format!("unknown flag {other}")),
        }
    }
    o
}

fn main() {
    let opts = parse_opts();
    repro_bench::banner(
        "BENCH capacity",
        "city-scale streamed capacity campaign (PDR / goodput / tail latency vs node count)",
    );

    // Decimation scales with the channel count so the wideband rate
    // (500 kHz × D) always covers the outermost channel's passband:
    // 2 ch → 1 MHz, 4 ch → 2 MHz, 8 ch → 4 MHz.
    let plan = BandPlan::uniform(opts.channels, 250e3, 500e3, 2, opts.channels);
    if opts.shards > plan.n_channels() {
        usage(&format!(
            "--shards {} exceeds the band's {} channels",
            opts.shards,
            plan.n_channels()
        ));
    }
    println!(
        "band: {} x {:.0} kHz @ {:.1} MHz wideband, SF {:?}, {} B payload, \
         {:.0} s/node interval, {:.0} s of traffic per point\n",
        plan.n_channels(),
        plan.bandwidth_hz / 1e3,
        plan.wideband_rate_hz() / 1e6,
        SFS,
        PAYLOAD_LEN,
        opts.interval_s,
        opts.duration_s,
    );

    let mut rows = Vec::new();
    for &kind in &opts.deployments {
        for &n_nodes in &opts.node_counts {
            let spec = CapacitySpec {
                plan: plan.clone(),
                stream: StreamConfig {
                    n_nodes,
                    deployment: kind,
                    sfs: SFS.to_vec(),
                    code_rate: CodeRate::Cr45,
                    payload_len: PAYLOAD_LEN,
                    mean_interval_s: opts.interval_s,
                    duration_s: opts.duration_s,
                    seed: opts.seed,
                    noise: true,
                },
                chunk: CHUNK,
                speed: opts.speed,
                queue_capacity: QUEUE_CAPACITY,
                policy: OverloadPolicy::Adaptive,
                shards: opts.shards,
                threaded: false,
            };
            let offered_pps = n_nodes as f64 / opts.interval_s;
            let out = run_point(&spec);
            let s = &out.snapshot;
            println!(
                "{} {:>7} nodes ({:>6.1} pps): PDR {:.3} ({}/{}), goodput {:>8.1} b/s, \
                 p50/p95/p99 {:.2}/{:.2}/{:.2} ms, {:.2}x realtime, \
                 gen peak {:.1} MB, shed {:.2}s, sic +{}",
                kind.label(),
                n_nodes,
                offered_pps,
                out.pdr,
                out.delivered_ok,
                out.offered,
                out.goodput_bps,
                s.decode_percentiles.p50_ns as f64 / 1e6,
                s.decode_percentiles.p95_ns as f64 / 1e6,
                s.decode_percentiles.p99_ns as f64 / 1e6,
                out.achieved_x_realtime,
                out.generator_peak_bytes as f64 / 1e6,
                s.shed_seconds,
                s.sic_packets_recovered,
            );
            if let Some(cl) = &out.cluster {
                println!(
                    "        cluster: {} shards, {} packets merged, \
                     {} cross-gateway duplicates suppressed, shard rates {} Msps",
                    cl.shards.len(),
                    cl.packets_merged,
                    cl.cross_gateway_duplicates,
                    out.shard_msamples_s
                        .iter()
                        .map(|r| format!("{r:.1}"))
                        .collect::<Vec<_>>()
                        .join("/"),
                );
            }
            let mut row = json_object! {
                "deployment" => kind.label(),
                "n_nodes" => n_nodes,
                "offered" => out.offered,
                "offered_pps" => offered_pps,
                "delivered_ok" => out.delivered_ok,
                "crc_failures" => s.crc_failures,
                "pdr" => out.pdr,
                "goodput_bps" => out.goodput_bps,
                "decode_p50_ns" => s.decode_percentiles.p50_ns,
                "decode_p95_ns" => s.decode_percentiles.p95_ns,
                "decode_p99_ns" => s.decode_percentiles.p99_ns,
                "chunks_dropped" => s.chunks_dropped,
                "chunks_shed" => s.chunks_shed,
                "samples_shed" => s.samples_shed,
                "degrade_events" => s.degrade_events,
                "restore_events" => s.restore_events,
                "shed_seconds" => s.shed_seconds,
                "sic_packets_recovered" => s.sic_packets_recovered,
                "rung_engagements" => s.rung_engagements.clone(),
                "generator_peak_bytes" => out.generator_peak_bytes,
                "samples" => out.samples,
                "wall_s" => out.wall_s,
                "achieved_x_realtime" => out.achieved_x_realtime,
            };
            // Sharded rows carry the cluster axis; single-gateway rows
            // stay byte-identical to the historical schema.
            if let Some(cl) = &out.cluster {
                if let JsonValue::Object(pairs) = &mut row {
                    pairs.push(("shards".to_string(), JsonValue::Num(opts.shards as f64)));
                    pairs.push((
                        "n_channels".to_string(),
                        JsonValue::Num(plan.n_channels() as f64),
                    ));
                    pairs.push((
                        "cross_gateway_duplicates".to_string(),
                        JsonValue::Num(cl.cross_gateway_duplicates as f64),
                    ));
                    pairs.push((
                        "packets_merged".to_string(),
                        JsonValue::Num(cl.packets_merged as f64),
                    ));
                    pairs.push((
                        "shard_msamples_s".to_string(),
                        JsonValue::Array(
                            out.shard_msamples_s
                                .iter()
                                .map(|&r| JsonValue::Num(r))
                                .collect(),
                        ),
                    ));
                }
            }
            rows.push(row);
        }
    }

    let mut doc = json_object! {
        "bench" => "capacity",
        "wideband_rate_hz" => plan.wideband_rate_hz(),
        "n_channels" => plan.n_channels(),
        "sfs" => SFS.iter().map(|&s| s as usize).collect::<Vec<_>>(),
        "payload_len" => PAYLOAD_LEN,
        "chunk" => CHUNK,
        "queue_capacity" => QUEUE_CAPACITY,
        "policy" => "adaptive",
        "node_counts" => opts.node_counts.clone(),
        "deployments" => JsonValue::Array(
            opts.deployments.iter().map(|k| JsonValue::Str(k.label().to_string())).collect()
        ),
        "mean_interval_s" => opts.interval_s,
        "duration_s" => opts.duration_s,
        "speed" => opts.speed.unwrap_or(0.0),
        "seed" => opts.seed,
        "peak_rss_bytes" => process_peak_rss_bytes().unwrap_or(0),
        "rows" => JsonValue::Array(rows),
    };
    // The shards axis appears only on sharded runs, keeping the default
    // single-gateway document byte-compatible with earlier versions.
    if opts.shards > 1 {
        if let JsonValue::Object(pairs) = &mut doc {
            let at = pairs
                .iter()
                .position(|(k, _)| k == "rows")
                .unwrap_or(pairs.len());
            pairs.insert(
                at,
                ("shards".to_string(), JsonValue::Num(opts.shards as f64)),
            );
        }
    }
    std::fs::write(&opts.out, doc.pretty() + "\n").expect("write BENCH_capacity.json");
    println!("\nwrote {}", opts.out);
}
