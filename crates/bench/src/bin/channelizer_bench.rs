//! Channelizer front-end throughput: scalar reference vs vectorised
//! production path, in wideband Msamples/s per plan size, written to
//! `BENCH_channelizer.json`.
//!
//! The channelizer runs on the caller thread inside `Gateway::push`, so
//! its throughput bounds the whole gateway's ingest rate. One noise+tone
//! capture is synthesised per plan and replayed through both
//! implementations in SDR-sized chunks; the best of `--reps` passes is
//! reported (the kernels are deterministic — best-of filters scheduler
//! noise). CI smoke-runs this, validates the schema, and fails if the
//! vectorised path regresses below the scalar baseline on any plan.
//!
//! A final sliced-plan row measures what a cluster shard actually runs:
//! the production channelizer built over its 2-channel slice of an
//! 8-channel band, against the same channelizer over the full band, the
//! work a slice-unaware front end would do. Its `scalar_msps` slot holds
//! the full-band baseline and `vectorized_msps` the slice, so the shared
//! speedup gate applies unchanged.
//!
//! Usage: `channelizer_bench [--samples <n>] [--reps <n>] [--chunk <n>]
//! [--out <path>]`

use std::time::Instant;

use lora_dsp::channelizer::{scalar, ChannelizerConfig};
use lora_dsp::{Cf32, Channelizer};
use lora_sim::{json_object, JsonValue};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

struct Opts {
    samples: usize,
    reps: usize,
    chunk: usize,
    out: String,
}

fn usage(msg: &str) -> ! {
    eprintln!(
        "error: {msg}\n\
         usage: channelizer_bench [--samples <n>] [--reps <n>] [--chunk <n>] [--out <path>]\n\
         defaults: samples 1048576, reps 3, chunk 16384, out BENCH_channelizer.json"
    );
    std::process::exit(2)
}

fn parse_opts() -> Opts {
    let mut o = Opts {
        samples: 1 << 20,
        reps: 3,
        chunk: 1 << 14,
        out: "BENCH_channelizer.json".to_string(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut next = |what: &str| {
            args.next()
                .unwrap_or_else(|| usage(&format!("{what} needs a value")))
        };
        let parse_pos = |what: &str, v: String| -> usize {
            let n = v
                .parse()
                .unwrap_or_else(|_| usage(&format!("{what} needs an integer")));
            if n == 0 {
                usage(&format!("{what} must be positive"));
            }
            n
        };
        match arg.as_str() {
            "--samples" => o.samples = parse_pos("--samples", next("--samples")),
            "--reps" => o.reps = parse_pos("--reps", next("--reps")),
            "--chunk" => o.chunk = parse_pos("--chunk", next("--chunk")),
            "--out" => o.out = next("--out"),
            other => usage(&format!("unknown flag {other}")),
        }
    }
    o
}

/// The plan grid: the 4-channel paper plan flanked by a narrower and a
/// denser split, all at the paper's 250 kHz channels / 4× decimation.
fn plans() -> Vec<(&'static str, ChannelizerConfig)> {
    vec![
        ("2ch", ChannelizerConfig::uniform(2, 250e3, 500e3, 1e6, 4)),
        (
            "4ch-paper",
            ChannelizerConfig::uniform(4, 250e3, 500e3, 1e6, 4),
        ),
        ("8ch", ChannelizerConfig::uniform(8, 250e3, 500e3, 1e6, 4)),
    ]
}

/// Noise plus one in-band tone per channel, so the FIR sees realistic
/// (non-sparse) data in both passband and stopband.
fn capture(cfg: &ChannelizerConfig, n: usize) -> Vec<Cf32> {
    let mut rng = StdRng::seed_from_u64(0xBE7C);
    (0..n)
        .map(|i| {
            let mut s = Cf32::new(
                rng.random_range(-0.5f32..0.5),
                rng.random_range(-0.5f32..0.5),
            );
            for &off in &cfg.offsets_hz {
                let ang =
                    (std::f64::consts::TAU * (off + 50e3) * i as f64 / cfg.wideband_rate_hz) as f32;
                s += Cf32::new(ang.cos(), ang.sin()) * 0.3;
            }
            s
        })
        .collect()
}

/// Replay `x` through `process` in `chunk`-sized pieces; returns
/// (seconds, checksum). The checksum defeats dead-code elimination and
/// doubles as a cross-implementation sanity check.
fn run<F>(x: &[Cf32], chunk: usize, mut process: F) -> (f64, f64)
where
    F: FnMut(&[Cf32]) -> Vec<Vec<Cf32>>,
{
    let t0 = Instant::now();
    let mut checksum = 0.0f64;
    for c in x.chunks(chunk) {
        for out in process(c) {
            checksum += out.iter().map(|s| s.norm_sqr() as f64).sum::<f64>();
        }
    }
    (t0.elapsed().as_secs_f64(), checksum)
}

fn main() {
    let opts = parse_opts();
    repro_bench::banner(
        "BENCH channelizer",
        "wideband Msamples/s, scalar vs vectorised, per plan size",
    );

    let mut rows = Vec::new();
    for (name, cfg) in plans() {
        let x = capture(&cfg, opts.samples);
        let msamples = opts.samples as f64 / 1e6;

        let mut best_scalar = f64::INFINITY;
        let mut best_vec = f64::INFINITY;
        let mut sum_scalar = 0.0;
        let mut sum_vec = 0.0;
        for _ in 0..opts.reps {
            let mut s = scalar::Channelizer::new(cfg.clone());
            let (dt, ck) = run(&x, opts.chunk, |c| s.process(c));
            best_scalar = best_scalar.min(dt);
            sum_scalar = ck;

            let mut v = Channelizer::new(cfg.clone());
            let (dt, ck) = run(&x, opts.chunk, |c| v.process(c));
            best_vec = best_vec.min(dt);
            sum_vec = ck;
        }
        let rel = (sum_scalar - sum_vec).abs() / sum_scalar.max(1e-12);
        assert!(
            rel < 1e-4,
            "{name}: implementations disagree (checksums {sum_scalar:.6e} vs {sum_vec:.6e})"
        );

        let scalar_msps = msamples / best_scalar;
        let vectorized_msps = msamples / best_vec;
        let speedup = vectorized_msps / scalar_msps;
        println!(
            "{name:>9} ({} taps, D={}): scalar {scalar_msps:7.2} Msps, \
             vectorised {vectorized_msps:7.2} Msps, speedup {speedup:.2}x",
            cfg.num_taps, cfg.decimation,
        );
        rows.push(json_object! {
            "plan" => name,
            "n_channels" => cfg.n_channels(),
            "num_taps" => cfg.num_taps,
            "decimation" => cfg.decimation,
            "wideband_rate_hz" => cfg.wideband_rate_hz,
            "scalar_msps" => scalar_msps,
            "vectorized_msps" => vectorized_msps,
            "speedup" => speedup,
        });
    }

    // Sliced-plan axis: a shard owning channels {2, 5} of the 8-channel
    // band builds its channelizer over just that slice; the baseline is
    // the same channelizer over the full 8-channel band and the same
    // capture. The slice should win by roughly the coverage ratio — the
    // acceptance floor is 1.5×.
    {
        let full = ChannelizerConfig::uniform(8, 250e3, 500e3, 1e6, 4);
        let slice_idx = [2usize, 5];
        let sliced = ChannelizerConfig {
            offsets_hz: slice_idx.iter().map(|&i| full.offsets_hz[i]).collect(),
            ..full.clone()
        };
        let x = capture(&full, opts.samples);
        let msamples = opts.samples as f64 / 1e6;

        let mut best_full = f64::INFINITY;
        let mut best_slice = f64::INFINITY;
        let mut sum_full = 0.0;
        let mut sum_slice = 0.0;
        for _ in 0..opts.reps {
            let mut f = Channelizer::new(full.clone());
            // Only the slice's channels count toward the checksum, so the
            // two runs compute comparable numbers.
            let (dt, ck) = run(&x, opts.chunk, |c| {
                let mut outs = f.process(c);
                slice_idx
                    .iter()
                    .map(|&i| std::mem::take(&mut outs[i]))
                    .collect()
            });
            best_full = best_full.min(dt);
            sum_full = ck;

            let mut p = Channelizer::new(sliced.clone());
            let (dt, ck) = run(&x, opts.chunk, |c| p.process(c));
            best_slice = best_slice.min(dt);
            sum_slice = ck;
        }
        let rel = (sum_full - sum_slice).abs() / sum_full.max(1e-12);
        assert!(
            rel < 1e-4,
            "slice: full-band and sliced runs disagree (checksums {sum_full:.6e} vs {sum_slice:.6e})"
        );

        let full_msps = msamples / best_full;
        let sliced_msps = msamples / best_slice;
        let speedup = sliced_msps / full_msps;
        println!(
            "{:>9} ({} taps, D={}): full-band {full_msps:7.2} Msps, \
             sliced {sliced_msps:7.2} Msps, speedup {speedup:.2}x",
            "2of8-slice", full.num_taps, full.decimation,
        );
        rows.push(json_object! {
            "plan" => "2of8-slice",
            "n_channels" => sliced.n_channels(),
            "slice_of" => full.n_channels(),
            "num_taps" => full.num_taps,
            "decimation" => full.decimation,
            "wideband_rate_hz" => full.wideband_rate_hz,
            "scalar_msps" => full_msps,
            "vectorized_msps" => sliced_msps,
            "speedup" => speedup,
        });
    }

    let doc = json_object! {
        "bench" => "channelizer",
        "samples" => opts.samples,
        "reps" => opts.reps,
        "chunk" => opts.chunk,
        "rows" => JsonValue::Array(rows),
    };
    std::fs::write(&opts.out, doc.pretty() + "\n").expect("write BENCH_channelizer.json");
    println!("\nwrote {}", opts.out);
}
