//! `perf_bench`: the gateway's end-to-end and per-layer benchmark.
//!
//! ```text
//! perf_bench [--workload <name|all>] [--seed <n>] [--seconds <s>] [--trace [0|1]] [--out-dir <dir>]
//! perf_bench compare <dirA> <dirB>
//! ```
//!
//! Each workload runs in a child process re-spawned from this executable,
//! so peak memory and threads never carry over between workloads. A
//! child generates its capture from the seed before any timing starts,
//! times 51 constructions of the system under test (`setup_s`), offers
//! the capture once untraced for the metrics a user sees (throughput,
//! delivery, latency, memory), and with `--trace` runs it again with
//! spans plus a single-thread replay for the layer-by-layer metrics.
//! `BENCHMARK.json` decides which metrics are end to end. It checks every
//! delivery against the ground truth, writes `<out-dir>/<workload>.json`
//! (and appends the same document to `<workload>.jsonl`, which `compare`
//! reads), and prints one JSON result as its last line. It exits non-zero
//! when the correctness gate fails.
//! See README.md for the metrics and workloads.

mod catalog;
mod compare;
mod json;
mod replay;
mod report;
mod stats;
mod trace;
mod truth;
mod workload;

use std::io::{BufRead, BufReader, Write};
use std::process::{Command, Stdio};

use lora_sim::json_object;
use lora_sim::JsonValue;

use crate::catalog::{Catalog, MetricDef};
use crate::report::{LayerInputs, MemProbe, Metrics};
use crate::trace::Tracer;
use crate::workload::{Capture, RunReport, Workload};

/// Constructions timed for `setup_s`; the median is reported. Single
/// constructions take tens of microseconds and drift with thread
/// placement, so the median needs many.
const SETUP_SAMPLES: usize = 51;

struct Opts {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out_dir: String,
    /// Run the single workload in this process (set on re-spawned children).
    in_process: bool,
}

fn usage(msg: &str) -> ! {
    eprintln!(
        "error: {msg}\n\
         usage: perf_bench [--workload <name|all>] [--seed <n>] [--seconds <s>]\n\
         \x20                 [--trace [0|1]] [--out-dir <dir>]\n\
         \x20      perf_bench compare <dirA (parent)> <dirB (change)>\n\
         workloads: {}; defaults: all, seed 17, {} s, no trace,\n\
         out-dir target/perf_bench",
        Workload::ALL.map(Workload::name).join(", "),
        Catalog::load().run_seconds
    );
    std::process::exit(2)
}

fn parse_opts(args: &[String]) -> Opts {
    let mut o = Opts {
        workloads: Workload::ALL.to_vec(),
        seed: 17,
        // `run_seconds` from BENCHMARK.json.
        seconds: Catalog::load().run_seconds,
        trace: false,
        out_dir: "target/perf_bench".into(),
        in_process: false,
    };
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .unwrap_or_else(|| usage(&format!("{what} needs a value")))
        };
        match arg.as_str() {
            "--workload" => {
                let name = value("--workload");
                o.workloads = if name == "all" {
                    Workload::ALL.to_vec()
                } else {
                    vec![Workload::from_name(&name)
                        .unwrap_or_else(|| usage(&format!("unknown workload {name}")))]
                };
            }
            "--seed" => {
                o.seed = value("--seed")
                    .parse()
                    .unwrap_or_else(|_| usage("--seed needs an integer"))
            }
            "--seconds" => {
                o.seconds = value("--seconds")
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s >= 1.0 && s.is_finite())
                    .unwrap_or_else(|| usage("--seconds needs a number of at least 1"));
            }
            "--trace" => {
                o.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") | Some("1") => it.next().map(String::as_str) == Some("1"),
                    _ => true,
                };
            }
            "--out-dir" => o.out_dir = value("--out-dir"),
            "--in-process" => o.in_process = true,
            other => usage(&format!("unknown argument {other}")),
        }
    }
    if o.in_process && o.workloads.len() != 1 {
        usage("--in-process runs exactly one workload");
    }
    o
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        std::process::exit(compare::main(&args[1..]));
    }
    let opts = parse_opts(&args);
    let code = if opts.in_process {
        let w = opts.workloads[0];
        run_workload(w, &opts).unwrap_or_else(|e| {
            eprintln!("perf_bench: {}: {e}", w.name());
            2
        })
    } else {
        spawn_workloads(&opts)
    };
    std::process::exit(code);
}

/// Run every selected workload in a child process, echoing its output;
/// with several workloads, end with one combined result line.
fn spawn_workloads(opts: &Opts) -> i32 {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("perf_bench: cannot locate own executable: {e}");
            return 2;
        }
    };
    let mut code = 0;
    let mut results = Vec::new();
    for w in &opts.workloads {
        let mut child = match Command::new(&exe)
            .args(["--in-process", "--workload", w.name()])
            .args(["--seed", &opts.seed.to_string()])
            .args(["--seconds", &opts.seconds.to_string()])
            .args(["--trace", if opts.trace { "1" } else { "0" }])
            .args(["--out-dir", &opts.out_dir])
            .stdout(Stdio::piped())
            .spawn()
        {
            Ok(c) => c,
            Err(e) => {
                eprintln!("perf_bench: cannot spawn {}: {e}", w.name());
                return 2;
            }
        };
        let mut last = None;
        let stdout = child.stdout.take().expect("piped stdout");
        for line in BufReader::new(stdout).lines().map_while(Result::ok) {
            println!("{line}");
            last = Some(line);
        }
        let status = child.wait().map(|s| s.code().unwrap_or(2)).unwrap_or(2);
        if status != 0 {
            code = code.max(status);
        }
        let result = (status <= 1)
            .then(|| last.and_then(|l| json::parse(&l).ok()))
            .flatten();
        results.push((w.name(), result));
    }
    if opts.workloads.len() > 1 && results.iter().all(|(_, r)| r.is_some()) {
        println!("{}", json::compact(&combine(&results)));
    }
    code
}

/// One result line for several workloads: counts summed, metrics
/// prefixed with the workload name.
fn combine(results: &[(&str, Option<JsonValue>)]) -> JsonValue {
    let mut correct = true;
    let (mut attempted, mut failed) = (0.0, 0.0);
    let mut metrics = Vec::new();
    for (name, doc) in results {
        let Some(doc) = doc else { continue };
        correct &= json::get(doc, "correct") == Some(&JsonValue::Bool(true));
        attempted += json::get(doc, "attempted")
            .and_then(json::num)
            .unwrap_or(0.0);
        failed += json::get(doc, "failed").and_then(json::num).unwrap_or(0.0);
        if let Some(JsonValue::Object(fields)) = json::get(doc, "metrics") {
            metrics.extend(
                fields
                    .iter()
                    .map(|(k, v)| (format!("{name}.{k}"), v.clone())),
            );
        }
    }
    json_object! {
        "correct" => correct,
        "attempted" => attempted,
        "failed" => failed,
        "metrics" => JsonValue::Object(metrics),
    }
}

/// Hold the computed metrics to `BENCHMARK.json`: each must be declared,
/// every end-to-end metric computed on every run, and with `traced` every
/// per-layer metric too.
fn check_names(catalog: &Catalog, computed: &Metrics, traced: bool) -> Result<(), String> {
    if let Some((name, _)) = computed.iter().find(|(n, _)| catalog.metric(n).is_none()) {
        return Err(format!("metric {name} is not declared in BENCHMARK.json"));
    }
    let mut required = catalog
        .end_to_end
        .iter()
        .chain(catalog.per_layer.iter().filter(|_| traced));
    match required.find(|m| !computed.iter().any(|(n, _)| *n == m.name)) {
        Some(m) => Err(format!("declared metric {} was not computed", m.name)),
        None => Ok(()),
    }
}

/// `{name: {value, unit}}` for each of `defs` that was computed, in
/// declaration order.
fn metric_object(defs: &[MetricDef], computed: &Metrics) -> JsonValue {
    JsonValue::Object(
        defs.iter()
            .filter_map(|def| {
                let &(_, value) = computed.iter().find(|(n, _)| *n == def.name)?;
                Some((
                    def.name.clone(),
                    json_object! { "value" => value, "unit" => def.unit.as_str() },
                ))
            })
            .collect(),
    )
}

/// Run one workload in this process; returns the exit code.
fn run_workload(w: Workload, opts: &Opts) -> Result<i32, String> {
    let catalog = Catalog::load();
    let spec = w.spec(opts.seed, opts.seconds);
    eprintln!(
        "perf_bench: {}: generating {:.1} s of air from seed {}",
        w.name(),
        spec.point.stream.duration_s,
        opts.seed
    );
    let capture = Capture::generate(&spec);
    let setup = workload::setup_times(&spec, SETUP_SAMPLES)?;

    let mem = MemProbe::start();
    let plain = workload::run(&spec, &capture, &mut Tracer::new(false))?;
    let mem_peak_mb = mem.peak_mb();
    let mut metrics = report::run_metrics(&spec, &capture, &plain, &setup, mem_peak_mb)?;

    let mut runs = vec![&plain];
    let traced_run;
    let mut tracer = Tracer::new(opts.trace);
    if opts.trace {
        traced_run = workload::run(&spec, &capture, &mut tracer)?;
        let replay = replay::replay(&spec, &capture, &mut tracer);
        metrics.extend(report::traced_metrics(&LayerInputs {
            spec: &spec,
            capture: &capture,
            plain: &plain,
            traced: &traced_run,
            tracer: &tracer,
            replay: &replay,
        }));
        runs.push(&traced_run);
    }
    check_names(&catalog, &metrics, opts.trace)?;

    // The correctness gate: no duplicate or phantom delivery, no refused
    // offer, and no dropped or shed sample on a lossless workload.
    let count = |f: fn(&RunReport) -> u64| runs.iter().map(|r| f(r)).sum::<u64>();
    let duplicates = count(|r| r.duplicates as u64);
    let phantoms = count(|r| r.phantoms as u64);
    let io_errors = count(|r| r.io_errors as u64);
    let lost_chunks = if spec.lossless() {
        count(|r| r.snapshot.chunks_dropped + r.snapshot.chunks_shed)
    } else {
        0
    };
    let failed = duplicates + phantoms + io_errors + lost_chunks;
    let correct = failed == 0;

    let e2e_json = metric_object(&catalog.end_to_end, &metrics);
    // Untraced, this holds the per-layer metrics of the run itself
    // (throughput, delivery, latency, memory), so `compare` sees them on
    // every run.
    let layers_json = metric_object(&catalog.per_layer, &metrics);
    let doc = json_object! {
        "workload" => w.name(),
        "seed" => opts.seed,
        "seconds" => opts.seconds,
        "trace" => opts.trace,
        "host" => report::host(),
        "params" => report::params(&spec),
        "correct" => correct,
        "attempted" => plain.offered,
        "failed" => failed,
        "failures" => json_object! {
            "duplicates" => duplicates,
            "phantoms" => phantoms,
            "io_errors" => io_errors,
            "lossless_chunks_lost" => lost_chunks,
        },
        "delivered" => plain.delivered,
        "undelivered" => plain.offered - plain.delivered,
        "crc_failed_deliveries" => plain.crc_failed,
        "release_samples" => plain.release_ms.len(),
        "setup_samples_s" => setup.clone(),
        "late_p99_ms" => report::late_p99_ms(&plain),
        "mem_reset" => mem.reset(),
        "metrics" => e2e_json.clone(),
        "per_layer" => layers_json.clone(),
    };
    write_results(&opts.out_dir, w.name(), &doc, opts.trace.then_some(&tracer))?;

    println!(
        "{}: {} offered, {} delivered, {} failed operations{}",
        w.name(),
        plain.offered,
        plain.delivered,
        failed,
        if correct {
            ""
        } else {
            " — CORRECTNESS GATE FAILED"
        }
    );
    for def in catalog.end_to_end.iter().chain(&catalog.per_layer) {
        if let Some((name, value)) = metrics.iter().find(|(n, _)| *n == def.name) {
            println!("  {name:<36} {value:>14.6} {}", def.unit);
        }
    }
    // The last line is the machine-readable result: end-to-end metrics, or with
    // `--trace` the per-layer ones.
    let result = json_object! {
        "correct" => correct,
        "attempted" => plain.offered,
        "failed" => failed,
        "metrics" => if opts.trace { layers_json } else { e2e_json },
    };
    println!("{}", json::compact(&result));
    std::io::stdout().flush().map_err(|e| e.to_string())?;
    Ok(if correct { 0 } else { 1 })
}

/// Write `<dir>/<workload>.json`, append it to `<dir>/<workload>.jsonl`,
/// and with a tracer write `<dir>/trace_<workload>.json`.
fn write_results(
    dir: &str,
    workload: &str,
    doc: &JsonValue,
    tracer: Option<&Tracer>,
) -> Result<(), String> {
    let io = |e: std::io::Error| format!("{dir}: {e}");
    std::fs::create_dir_all(dir).map_err(io)?;
    std::fs::write(format!("{dir}/{workload}.json"), doc.pretty() + "\n").map_err(io)?;
    let mut log = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(format!("{dir}/{workload}.jsonl"))
        .map_err(io)?;
    writeln!(log, "{}", json::compact(doc)).map_err(io)?;
    if let Some(t) = tracer {
        std::fs::write(
            format!("{dir}/trace_{workload}.json"),
            json::compact(&t.to_json()) + "\n",
        )
        .map_err(io)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A fiftieth of a second of `backlog_sic`, run plain and traced: the
    /// metrics the code computes are exactly those `BENCHMARK.json`
    /// declares.
    #[test]
    fn computed_metrics_equal_the_declared_ones() {
        let catalog = Catalog::load();
        let mut spec = Workload::BacklogSic.spec(1, 0.08);
        spec.replay_air_s = 0.02;
        let capture = Capture::generate(&spec);
        let plain = workload::run(&spec, &capture, &mut Tracer::new(false)).unwrap();
        let mut metrics = report::run_metrics(&spec, &capture, &plain, &[1e-4], 1.0).unwrap();
        check_names(&catalog, &metrics, false).unwrap();
        assert!(check_names(&catalog, &metrics, true).is_err());

        let mut tracer = Tracer::new(true);
        let traced = workload::run(&spec, &capture, &mut tracer).unwrap();
        let replay = replay::replay(&spec, &capture, &mut tracer);
        metrics.extend(report::traced_metrics(&LayerInputs {
            spec: &spec,
            capture: &capture,
            plain: &plain,
            traced: &traced,
            tracer: &tracer,
            replay: &replay,
        }));
        check_names(&catalog, &metrics, true).unwrap();
        match metric_object(&catalog.per_layer, &metrics) {
            JsonValue::Object(fields) => assert_eq!(fields.len(), catalog.per_layer.len()),
            other => panic!("not an object: {other:?}"),
        }

        metrics.push(("undeclared", 0.0));
        assert!(check_names(&catalog, &metrics, true).is_err());
    }
}
