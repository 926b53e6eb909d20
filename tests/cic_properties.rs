//! Property-based tests of CIC's core claims (the paper's §5 invariants),
//! exercised on synthesized collisions rather than hand-picked cases.

use cic::demod::{CicDemodulator, SymbolContext};
use cic::subsymbol::Boundaries;
use cic::{CicConfig, DemodScratch};
use cic_repro::lora_channel::{superpose, Emission};
use lora_dsp::Cf32;
use lora_phy::chirp::symbol_waveform;
use lora_phy::params::LoraParams;
use proptest::prelude::*;

fn params() -> LoraParams {
    LoraParams::new(8, 250e3, 4).unwrap()
}

/// Build a single-symbol window: the target sends `s1` for the whole
/// window; each interferer `(prev, next, tau, amp)` crosses its boundary
/// at `tau`.
fn collision(
    p: &LoraParams,
    s1: usize,
    interferers: &[(usize, usize, usize, f64)],
) -> (Vec<Cf32>, Boundaries) {
    let sps = p.samples_per_symbol();
    let mut emissions = vec![Emission {
        waveform: symbol_waveform(p, s1),
        amplitude: 1.0,
        start_sample: 0,
        cfo_hz: 0.0,
    }];
    let mut taus = Vec::new();
    for &(prev, next, tau, amp) in interferers {
        taus.push(tau);
        let w_prev = symbol_waveform(p, prev);
        let w_next = symbol_waveform(p, next);
        emissions.push(Emission {
            waveform: w_prev[sps - tau..].to_vec(),
            amplitude: amp,
            start_sample: 0,
            cfo_hz: 0.0,
        });
        emissions.push(Emission {
            waveform: w_next[..sps - tau].to_vec(),
            amplitude: amp,
            start_sample: tau,
            cfo_hz: 0.0,
        });
    }
    (superpose(p, sps, &emissions), Boundaries::new(sps, taus))
}

/// The interferer's symbols must not alias onto the target's bin (a
/// same-bin interferer is indistinguishable by construction) and the two
/// halves of the interferer must land on different bins (a prev == next
/// tone is continuous and cannot be cancelled — the receiver handles that
/// case with known-tone exclusion, not with the ICSS).
fn valid_interferer(p: &LoraParams, s1: usize, prev: usize, next: usize, tau: usize) -> bool {
    let n = p.n_bins();
    let shift = (n - (tau / p.oversampling()) % n) % n;
    let prev_bin = (prev + shift) % n;
    let next_bin = (next + shift) % n;
    let far = |a: usize, b: usize| {
        let d = a.abs_diff(b) % n;
        d.min(n - d) > 3
    };
    far(prev_bin, s1) && far(next_bin, s1) && far(prev_bin, next_bin)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Paper §5.4: a single equal-power interferer with boundary in the
    /// paper's "safe" zone (Δτ/Ts in [0.15, 0.85]) is cancelled, and the
    /// target symbol is recovered — for arbitrary symbol values.
    #[test]
    fn cancels_random_single_interferer(
        s1 in 0usize..256,
        prev in 0usize..256,
        next in 0usize..256,
        tau_frac in 0.15f64..0.85,
    ) {
        let p = params();
        let sps = p.samples_per_symbol();
        let tau = (tau_frac * sps as f64) as usize;
        prop_assume!(valid_interferer(&p, s1, prev, next, tau));
        let (win, b) = collision(&p, s1, &[(prev, next, tau, 1.0)]);
        let cic = CicDemodulator::new(p, CicConfig::default());
        let de = cic.inner().dechirp(&win);
        let (value, selection) =
            cic.demodulate_with(&de, &b, &SymbolContext::default(), &mut DemodScratch::new());
        prop_assert_eq!(value, s1, "selection {:?}", selection);
    }

    /// Same, with the interferer 6 dB *stronger* — the case where plain
    /// argmax demodulation provably fails but cancellation must not.
    #[test]
    fn cancels_random_stronger_interferer(
        s1 in 0usize..256,
        prev in 0usize..256,
        next in 0usize..256,
        tau_frac in 0.2f64..0.8,
    ) {
        let p = params();
        let sps = p.samples_per_symbol();
        let tau = (tau_frac * sps as f64) as usize;
        prop_assume!(valid_interferer(&p, s1, prev, next, tau));
        let (win, b) = collision(&p, s1, &[(prev, next, tau, 2.0)]);
        let cic = CicDemodulator::new(p, CicConfig::default());
        let de = cic.inner().dechirp(&win);
        let (value, selection) =
            cic.demodulate_with(&de, &b, &SymbolContext::default(), &mut DemodScratch::new());
        prop_assert_eq!(value, s1, "selection {:?}", selection);
    }

    /// The intersected spectrum suppresses the interferer bins relative
    /// to the target bin (the quantitative form of Fig 14).
    #[test]
    fn intersection_suppresses_interferer_bins(
        s1 in 0usize..256,
        prev in 0usize..256,
        next in 0usize..256,
        tau_frac in 0.2f64..0.8,
    ) {
        let p = params();
        let sps = p.samples_per_symbol();
        let n = p.n_bins();
        let tau = (tau_frac * sps as f64) as usize;
        prop_assume!(valid_interferer(&p, s1, prev, next, tau));
        let (win, b) = collision(&p, s1, &[(prev, next, tau, 1.0)]);
        let cic = CicDemodulator::new(p, CicConfig::default());
        let de = cic.inner().dechirp(&win);
        let spec = cic.intersected_spectrum(&de, &b);
        let shift = (n - (tau / p.oversampling()) % n) % n;
        prop_assert!(spec[s1] > 3.0 * spec[(prev + shift) % n]);
        prop_assert!(spec[s1] > 3.0 * spec[(next + shift) % n]);
    }

    /// Without any interferer boundary, CIC degenerates to standard
    /// demodulation for every symbol value — no regression on clean input.
    #[test]
    fn clean_window_any_symbol(s1 in 0usize..256) {
        let p = params();
        let (win, b) = collision(&p, s1, &[]);
        let cic = CicDemodulator::new(p, CicConfig::default());
        let de = cic.inner().dechirp(&win);
        let (value, _) =
            cic.demodulate_with(&de, &b, &SymbolContext::default(), &mut DemodScratch::new());
        prop_assert_eq!(value, s1);
    }
}
