//! Demodulator hot-path throughput: the allocating reference vs the
//! scratch-arena production path, in symbols/s per (SF, boundary-count)
//! cell, written to `BENCH_demod.json`.
//!
//! Each cell synthesises a fixed set of collision windows (target symbol
//! plus 0/1/3 interferer boundary crossings, noise, preamble-style
//! `SymbolContext`), de-chirps them once, then replays the set through
//! `demodulate_reference` (the pinned pre-scratch implementation: one
//! FFT per ICSS member plus separate full-window power and amplitude
//! transforms, allocating every intermediate) and through
//! `demodulate_with` (single full-window transform folded three ways,
//! all buffers from a warm [`cic::DemodScratch`]). Best of `--reps`
//! passes is reported; both paths are asserted decision-identical on
//! every window before timing starts. CI smoke-runs this with `--quick`,
//! validates the schema, and fails if the scratch path is slower than
//! the reference on any cell. The reference rate is written under the
//! schema's historical key `wrapper_symbols_per_sec`.
//!
//! Usage: `demod_bench [--windows <n>] [--reps <n>] [--quick] [--out <path>]`

use std::time::Instant;

use cic::{Boundaries, CicConfig, CicDemodulator, DemodScratch, SymbolContext};
use lora_channel::{add_unit_noise, amplitude_for_snr, superpose, Emission};
use lora_dsp::Cf32;
use lora_phy::chirp::symbol_waveform;
use lora_phy::params::LoraParams;
use lora_sim::{json_object, JsonValue};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

struct Opts {
    windows: usize,
    reps: usize,
    out: String,
    quick: bool,
}

fn usage(msg: &str) -> ! {
    eprintln!(
        "error: {msg}\n\
         usage: demod_bench [--windows <n>] [--reps <n>] [--quick] [--out <path>]\n\
         defaults: windows 48, reps 5, out BENCH_demod.json; --quick = windows 6, reps 2"
    );
    std::process::exit(2)
}

fn parse_opts() -> Opts {
    let mut o = Opts {
        windows: 48,
        reps: 5,
        out: "BENCH_demod.json".to_string(),
        quick: false,
    };
    let mut explicit_windows = None;
    let mut explicit_reps = None;
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
            "--windows" => explicit_windows = Some(parse_pos("--windows", next("--windows"))),
            "--reps" => explicit_reps = Some(parse_pos("--reps", next("--reps"))),
            "--quick" => o.quick = true,
            "--out" => o.out = next("--out"),
            other => usage(&format!("unknown flag {other}")),
        }
    }
    if o.quick {
        o.windows = 6;
        o.reps = 2;
    }
    if let Some(w) = explicit_windows {
        o.windows = w;
    }
    if let Some(r) = explicit_reps {
        o.reps = r;
    }
    o
}

/// Full-window peak power of a clean, collision-free target symbol —
/// the preamble-style estimate the receiver's power filter would carry.
fn expected_peak_power(cic: &CicDemodulator, p: &LoraParams, amp: f64) -> f64 {
    let de = cic.inner().dechirp(&superpose(
        p,
        p.samples_per_symbol(),
        &[Emission {
            waveform: symbol_waveform(p, 0),
            amplitude: amp,
            start_sample: 0,
            cfo_hz: 0.0,
        }],
    ));
    let spec = cic.inner().folded_spectrum(&de);
    let (bin, _) = spec.argmax().expect("clean symbol has a peak");
    let n = spec.len();
    // Same ±1-bin lobe the candidate features use.
    spec[(bin + n - 1) % n] + spec[bin] + spec[(bin + 1) % n]
}

/// One cell's window set: target symbol at 15 dB SNR plus
/// `n_interferers` boundary-crossing interferers at mixed amplitudes and
/// small CFOs, with unit-variance noise.
fn windows(
    p: &LoraParams,
    n_interferers: usize,
    count: usize,
    ctx: &SymbolContext,
    seed: u64,
) -> Vec<(Vec<Cf32>, Boundaries, SymbolContext)> {
    let sps = p.samples_per_symbol();
    let n_bins = p.n_bins();
    let mut rng = StdRng::seed_from_u64(seed);
    let amp = amplitude_for_snr(15.0, p.oversampling());
    (0..count)
        .map(|_| {
            let mut emissions = vec![Emission {
                waveform: symbol_waveform(p, rng.random_range(0..n_bins)),
                amplitude: amp,
                start_sample: 0,
                cfo_hz: 0.0,
            }];
            let mut taus = Vec::new();
            for k in 0..n_interferers {
                let tau = rng.random_range(sps / 8..sps - sps / 8);
                taus.push(tau);
                let a = amp * [1.6, 0.7, 2.4][k % 3];
                let cfo = rng.random_range(-400.0..400.0);
                let w_prev = symbol_waveform(p, rng.random_range(0..n_bins));
                let w_next = symbol_waveform(p, rng.random_range(0..n_bins));
                emissions.push(Emission {
                    waveform: w_prev[sps - tau..].to_vec(),
                    amplitude: a,
                    start_sample: 0,
                    cfo_hz: cfo,
                });
                emissions.push(Emission {
                    waveform: w_next[..sps - tau].to_vec(),
                    amplitude: a,
                    start_sample: tau,
                    cfo_hz: cfo,
                });
            }
            let mut win = superpose(p, sps, &emissions);
            add_unit_noise(&mut rng, &mut win);
            (win, Boundaries::new(sps, taus), ctx.clone())
        })
        .collect()
}

fn main() {
    let opts = parse_opts();
    repro_bench::banner(
        "BENCH demod",
        "symbols/s, allocating reference vs scratch hot path, per SF x boundaries",
    );

    let mut rows = Vec::new();
    for sf in [7u8, 9, 12] {
        let p = LoraParams::new(sf, 250e3, 4).expect("valid params");
        let cic = CicDemodulator::new(p, CicConfig::default());
        let amp = amplitude_for_snr(15.0, p.oversampling());
        let ctx = SymbolContext {
            frac_cfo_bins: Some(0.0),
            expected_peak_power: Some(expected_peak_power(&cic, &p, amp)),
            known_interferer_bins: Vec::new(),
        };
        for n_boundaries in [0usize, 1, 3] {
            let seed = 0xD_E40D ^ ((sf as u64) << 8) ^ n_boundaries as u64;
            let cases: Vec<(Vec<Cf32>, Boundaries, SymbolContext)> =
                windows(&p, n_boundaries, opts.windows, &ctx, seed)
                    .into_iter()
                    .map(|(w, b, c)| (cic.inner().dechirp(&w), b, c))
                    .collect();

            // Decision identity on every window, and hot-path warm-up
            // (FFT plans, scratch steady state) before any timing.
            let mut scratch = DemodScratch::new();
            for (de, b, c) in &cases {
                let want = cic.demodulate_reference(de, b, c);
                let (value, selection) = cic.demodulate_with(de, b, c, &mut scratch);
                assert_eq!(
                    (value, selection, scratch.last_candidates()),
                    (want.value, want.selection, &want.candidates[..]),
                    "SF{sf}/{n_boundaries}b: scratch path and reference disagree"
                );
            }

            let mut best_reference = f64::INFINITY;
            let mut best_scratch = f64::INFINITY;
            let mut sum_reference = 0usize;
            let mut sum_scratch = 0usize;
            for _ in 0..opts.reps {
                let t0 = Instant::now();
                let mut acc = 0usize;
                for (de, b, c) in &cases {
                    acc = acc.wrapping_add(std::hint::black_box(
                        cic.demodulate_reference(de, b, c).value,
                    ));
                }
                best_reference = best_reference.min(t0.elapsed().as_secs_f64());
                sum_reference = acc;

                let t0 = Instant::now();
                let mut acc = 0usize;
                for (de, b, c) in &cases {
                    let (value, _) =
                        std::hint::black_box(cic.demodulate_with(de, b, c, &mut scratch));
                    acc = acc.wrapping_add(value);
                }
                best_scratch = best_scratch.min(t0.elapsed().as_secs_f64());
                sum_scratch = acc;
            }
            assert_eq!(
                sum_reference, sum_scratch,
                "SF{sf}/{n_boundaries}b: timed passes decoded different values"
            );

            let reference_sps = opts.windows as f64 / best_reference;
            let scratch_sps = opts.windows as f64 / best_scratch;
            let speedup = scratch_sps / reference_sps;
            println!(
                "SF{sf} {n_boundaries} boundaries: reference {reference_sps:9.0} sym/s, \
                 scratch {scratch_sps:9.0} sym/s, speedup {speedup:.2}x",
            );
            rows.push(json_object! {
                "sf" => sf as usize,
                "boundaries" => n_boundaries,
                "windows" => opts.windows,
                "wrapper_symbols_per_sec" => reference_sps,
                "scratch_symbols_per_sec" => scratch_sps,
                "speedup" => speedup,
            });
        }
    }

    let doc = json_object! {
        "bench" => "demod",
        "windows" => opts.windows,
        "reps" => opts.reps,
        "quick" => opts.quick,
        "rows" => JsonValue::Array(rows),
    };
    std::fs::write(&opts.out, doc.pretty() + "\n").expect("write BENCH_demod.json");
    println!("\nwrote {}", opts.out);
}
