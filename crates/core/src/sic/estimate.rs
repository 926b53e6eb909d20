//! Per-packet parameter refinement against the residual buffer.
//!
//! The preamble detector's frame start and CFO are good enough to
//! *decode* a packet, but not to *subtract* it: a 0.05-bin CFO error
//! drifts more than a full cycle of carrier phase over a 30-symbol
//! frame, which caps the cancellation depth near −10 dB. Reaching the
//! −40 dB the residual pass needs takes three refinements against the
//! regenerated reference:
//!
//! 1. **integer timing**: search ±`timing_search` samples around the
//!    detected start for the offset that maximizes the energy captured
//!    by the least-squares projection;
//! 2. **residual CFO**: split the aligned span into blocks, fit a gain
//!    per block, and read the leftover frequency offset from the phase
//!    slope across consecutive block gains (iterated `refine_iters`
//!    times, applying the correction to the reference each round);
//! 3. **gain**: one final least-squares complex gain over the full span
//!    absorbs amplitude and constant phase.

use lora_dsp::{Cf32, Cf64};
use lora_phy::params::LoraParams;

use crate::sic::subtract::correlate;
use crate::sic::SicConfig;

/// Number of blocks the span is split into for CFO refinement; the
/// integer timing search scores over the same blocks.
const REFINE_BLOCKS: usize = 16;

/// Refined subtraction parameters for one decoded packet.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SicEstimate {
    /// Refined frame start, as a sample index into the residual buffer.
    pub frame_start: usize,
    /// Least-squares complex gain of the reference over the fitted span.
    pub gain: Cf64,
    /// Fraction of the span's energy the scaled reference explains
    /// (`|<r,f>|² / (<f,f>·<r,r>)`). A noise-only fit captures `1/span`
    /// of it in expectation — the cancellation gate compares against
    /// that floor.
    pub match_ratio: f64,
    /// Number of samples fitted (the frame clipped to the buffer end).
    pub span: usize,
}

/// Refine timing, CFO and gain for `reference` (the regenerated
/// unit-amplitude frame with the *coarse* CFO already applied) against
/// `residual`. On return `reference` carries the refined CFO, so
/// `gain · reference` at `frame_start` is the waveform to subtract.
/// Returns `None` when the frame does not overlap the buffer by at
/// least one symbol or the reference is degenerate.
pub(crate) fn refine(
    params: &LoraParams,
    residual: &[Cf32],
    reference: &mut [Cf32],
    coarse_start: usize,
    cfg: &SicConfig,
) -> Option<SicEstimate> {
    let sps = params.samples_per_symbol();
    if residual.is_empty() || reference.is_empty() {
        return None;
    }

    // Integer timing search. The score is the energy the LS projection
    // would capture, |<r,f>|²/<f,f> — invariant to the unknown gain —
    // summed *incoherently* over blocks: the coarse CFO can be off by
    // enough to drift several carrier cycles across the frame, which
    // would null a whole-span correlation, but stays well under half a
    // cycle within one block.
    let t = cfg.timing_search as isize;
    let mut best: Option<(usize, f64)> = None;
    for dt in -t..=t {
        let Some(start) = coarse_start.checked_add_signed(dt) else {
            continue;
        };
        if start >= residual.len() {
            continue;
        }
        let end = (start + reference.len()).min(residual.len());
        let n = end - start;
        if n < sps {
            continue;
        }
        let nb = REFINE_BLOCKS.min(n / sps).max(1);
        let blen = n / nb;
        let mut score = 0.0f64;
        for b in 0..nb {
            let a = b * blen;
            let e = if b + 1 == nb { n } else { a + blen };
            let (num, den) = correlate(&residual[start + a..start + e], &reference[a..e]);
            if den > 0.0 {
                score += num.norm_sqr() / den;
            }
        }
        if best.is_none_or(|(_, s)| score > s) {
            best = Some((start, score));
        }
    }
    let (start, _) = best?;
    let end = (start + reference.len()).min(residual.len());
    let n = end - start;
    let res = &residual[start..end];

    // Residual-CFO refinement from the block-gain phase slope.
    for _ in 0..cfg.refine_iters {
        let nb = REFINE_BLOCKS.min(n / sps);
        if nb < 2 {
            break;
        }
        let blen = n / nb;
        let mut acc = Cf64::new(0.0, 0.0);
        let mut prev: Option<Cf64> = None;
        for b in 0..nb {
            let a = b * blen;
            let e = if b + 1 == nb { n } else { a + blen };
            let (num, den) = correlate(&res[a..e], &reference[a..e]);
            if den <= 0.0 {
                prev = None;
                continue;
            }
            let g = num / den;
            if let Some(p) = prev {
                // g_{b+1}·g_b* rotates by the per-block phase drift;
                // summing before taking the angle weights clean blocks by
                // their energy.
                acc += g * p.conj();
            }
            prev = Some(g);
        }
        if acc.norm_sqr() <= 0.0 {
            break;
        }
        let dphi = acc.im.atan2(acc.re);
        let df_hz = dphi / std::f64::consts::TAU / blen as f64 * params.sample_rate_hz();
        if !df_hz.is_finite() || df_hz == 0.0 {
            break;
        }
        lora_phy::chirp::apply_cfo(params, reference, df_hz, 0);
    }

    // Final least-squares gain over the aligned span.
    let (num, den) = correlate(res, &reference[..n]);
    if den <= 0.0 {
        return None;
    }
    let e_span = lora_dsp::math::energy(res);
    if e_span <= 0.0 {
        return None;
    }
    Some(SicEstimate {
        frame_start: start,
        gain: num / den,
        match_ratio: (num.norm_sqr() / den) / e_span,
        span: n,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use lora_phy::chirp::apply_cfo;
    use lora_phy::modulate::Modulator;

    fn params() -> LoraParams {
        LoraParams::new(8, 250e3, 4).unwrap()
    }

    fn place(wave: &[Cf32], start: usize, amp: f32, extra: usize) -> Vec<Cf32> {
        let mut cap = vec![Cf32::new(0.0, 0.0); start + wave.len() + extra];
        for (c, w) in cap[start..].iter_mut().zip(wave) {
            *c += amp * *w;
        }
        cap
    }

    #[test]
    fn recovers_timing_cfo_and_gain() {
        let p = params();
        let m = Modulator::new(p);
        let symbols: Vec<usize> = (0..30).map(|i| (i * 37) % 256).collect();
        let truth_cfo = 0.73; // bins
        let mut wave = m.frame_waveform(&symbols);
        apply_cfo(&p, &mut wave, truth_cfo * p.bin_hz(), 0);
        let cap = place(&wave, 3000, 0.5, 2000);

        // Hand the estimator a start 5 samples off and a CFO 0.06 bins off.
        let coarse_cfo = truth_cfo - 0.06;
        let mut reference = m.frame_waveform(&symbols);
        apply_cfo(&p, &mut reference, coarse_cfo * p.bin_hz(), 0);
        let cfg = SicConfig {
            depth: 1,
            ..SicConfig::default()
        };
        let est = refine(&p, &cap, &mut reference, 2995, &cfg).unwrap();
        assert_eq!(est.frame_start, 3000);
        // `reference` now carries the refined CFO: against the truth-CFO
        // frame its phase advances by 2π·(CFO error in bins) per symbol.
        let sps = p.samples_per_symbol();
        let drift = (sps..reference.len())
            .step_by(sps)
            .fold(Cf64::new(0.0, 0.0), |acc, i| {
                let now = reference[i] * wave[i].conj();
                let before = reference[i - sps] * wave[i - sps].conj();
                let z = now * before.conj();
                acc + Cf64::new(z.re as f64, z.im as f64)
            });
        let cfo_err = drift.im.atan2(drift.re) / std::f64::consts::TAU;
        assert!(cfo_err.abs() < 2e-3, "cfo error {cfo_err} bins");
        assert!((est.gain.norm() - 0.5).abs() < 1e-3, "gain {:?}", est.gain);
        assert!(est.match_ratio > 0.99, "match {}", est.match_ratio);
    }

    #[test]
    fn noise_only_fit_has_low_match_ratio() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let p = params();
        let m = Modulator::new(p);
        let symbols: Vec<usize> = (0..30).map(|i| (i * 11) % 256).collect();
        let mut reference = m.frame_waveform(&symbols);
        let mut rng = StdRng::seed_from_u64(21);
        let cap = lora_channel::awgn::noise_buffer(&mut rng, reference.len() + 4000);
        let cfg = SicConfig::default();
        let est = refine(&p, &cap, &mut reference, 1000, &cfg).unwrap();
        // Expectation for a noise-only LS fit is 1/span; allow an order
        // of magnitude of slack — still far below any real packet.
        assert!(
            est.match_ratio * est.span as f64 <= 10.0,
            "match {} over {} samples",
            est.match_ratio,
            est.span
        );
    }

    #[test]
    fn no_overlap_returns_none() {
        let p = params();
        let m = Modulator::new(p);
        let mut reference = m.frame_waveform(&[0, 1, 2]);
        let cap = vec![Cf32::new(0.0, 0.0); 100];
        assert!(refine(&p, &cap, &mut reference, 500, &SicConfig::default()).is_none());
    }
}
