//! Bit-exactness of the allocation-free demod hot path.
//!
//! [`CicDemodulator::demodulate_with`] must produce *exactly* the
//! [`cic::SymbolDecision`] of the pinned allocating reference — value,
//! selection and the full candidate vector
//! ([`DemodScratch::last_candidates`]), compared field-by-field with `==`
//! on the `f64`s — for randomized collision windows at SF 7, 9 and
//! 12 with 0–3 interferer boundaries, noise, CFO residue and every
//! `SymbolContext` shape the receiver produces. The scratch arena is
//! reused across all windows of a sweep, so stale state from any previous
//! window would be caught too.

use cic::{Boundaries, CicConfig, CicDemodulator, DemodScratch, SymbolContext};
use lora_channel::{add_unit_noise, amplitude_for_snr, superpose, Emission};
use lora_dsp::Cf32;
use lora_phy::chirp::symbol_waveform;
use lora_phy::params::LoraParams;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// One randomized collision window plus a randomized symbol context.
fn random_case(
    p: &LoraParams,
    rng: &mut StdRng,
    n_interferers: usize,
) -> (Vec<Cf32>, Boundaries, SymbolContext) {
    let sps = p.samples_per_symbol();
    let n_bins = p.n_bins();
    let amp = amplitude_for_snr(rng.random_range(5.0..25.0), p.oversampling());
    let mut emissions = vec![Emission {
        waveform: symbol_waveform(p, rng.random_range(0..n_bins)),
        amplitude: amp,
        start_sample: 0,
        cfo_hz: rng.random_range(-0.4..0.4) * p.bin_hz(),
    }];
    let mut taus = Vec::new();
    for _ in 0..n_interferers {
        let tau = rng.random_range(sps / 16..sps - sps / 16);
        taus.push(tau);
        let a = amp * rng.random_range(0.25..4.0);
        let cfo = rng.random_range(-0.5..0.5) * p.bin_hz();
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
    add_unit_noise(rng, &mut win);

    let ctx = SymbolContext {
        frac_cfo_bins: if rng.random_bool(0.7) {
            Some(rng.random_range(-0.2..0.2))
        } else {
            None
        },
        expected_peak_power: if rng.random_bool(0.7) {
            Some(rng.random_range(0.1..1e4))
        } else {
            None
        },
        known_interferer_bins: if rng.random_bool(0.3) {
            (0..rng.random_range(1usize..=3))
                .map(|_| rng.random_range(0.0..n_bins as f64))
                .collect()
        } else {
            Vec::new()
        },
    };
    (win, Boundaries::new(sps, taus), ctx)
}

fn sweep(sf: u8, windows_per_shape: usize, seed: u64) {
    let p = LoraParams::new(sf, 250e3, 4).unwrap();
    let cic = CicDemodulator::new(p, CicConfig::default());
    let mut rng = StdRng::seed_from_u64(seed);
    let mut scratch = DemodScratch::new();
    let mut selections = std::collections::HashMap::new();
    for n_interferers in [0usize, 1, 3] {
        for i in 0..windows_per_shape {
            let (win, b, ctx) = random_case(&p, &mut rng, n_interferers);
            let de = cic.inner().dechirp(&win);
            let want = cic.demodulate_reference(&de, &b, &ctx);
            let (value, selection) = cic.demodulate_with(&de, &b, &ctx, &mut scratch);
            assert_eq!(
                (value, selection, scratch.last_candidates()),
                (want.value, want.selection, &want.candidates[..]),
                "SF{sf}, {n_interferers} interferers, window {i}: scratch != reference"
            );
            *selections.entry(want.selection).or_insert(0usize) += 1;
        }
    }
    // The sweep must actually exercise more than one decision branch, or
    // the equivalence claim is hollow.
    assert!(
        selections.len() >= 2,
        "SF{sf}: selection branches hit: {selections:?}"
    );
}

#[test]
fn scratch_matches_reference_sf7() {
    // 3 shapes × 40 windows = 120 windows.
    sweep(7, 40, 0x51C7);
}

#[test]
fn scratch_matches_reference_sf9() {
    sweep(9, 40, 0x51C9);
}

#[test]
fn scratch_matches_reference_sf12() {
    sweep(12, 40, 0x51CC);
}
