//! Spectral Edge Difference (paper §5.6, Eqns 15–17).
//!
//! When cancellation is only partial (interferer close in both time and
//! frequency, §5.5), more than one candidate peak survives the
//! intersection. SED breaks the tie: the wanted frequency `f^1` is present
//! across the *entire* symbol, so its energy in the left half equals its
//! energy in the right half; an interferer's `f_prev`/`f_next` exists in
//! only part of the window and shows an energy imbalance.
//!
//! For robustness the halves are estimated as the spectral intersection of
//! several sliding half-symbol windows from each edge (the paper uses 10).

use lora_dsp::window::SampleRange;
use lora_dsp::{intersect, Cf32, Spectrum};
use lora_phy::{Demodulator, SpectrumScratch};

/// Left- and right-edge intersected spectra of one de-chirped window.
#[derive(Debug, Clone)]
pub(crate) struct EdgeSpectra {
    /// `λ_lh` of Eqn 16.
    pub left: Spectrum,
    /// `λ_rh` of Eqn 17.
    pub right: Spectrum,
}

impl EdgeSpectra {
    /// Compute the edge spectra with `n_windows` sliding half-symbol
    /// windows per side.
    ///
    /// Window `i` on the left covers `[iε, iε + T_s/2)` and on the right
    /// `[T_s/2 - iε, T_s - iε)`, with `ε = T_s/(8 n)` so the total slide
    /// is an eighth of a symbol — enough to decorrelate noise across the
    /// windows, small enough that the halves stay halves (a large slide
    /// would let the intersection suppress partial symbols on *both*
    /// edges and destroy the imbalance SED relies on).
    pub(crate) fn compute(demod: &Demodulator, dechirped: &[Cf32], n_windows: usize) -> Self {
        let mut out = Self::empty();
        Self::compute_scratch(
            demod,
            dechirped,
            n_windows,
            &mut SpectrumScratch::new(),
            &mut Spectrum::from_power(Vec::new()),
            &mut out,
        );
        out
    }

    /// Edge spectra with no bins; a target for
    /// [`EdgeSpectra::compute_scratch`].
    pub(crate) fn empty() -> Self {
        Self {
            left: Spectrum::from_power(Vec::new()),
            right: Spectrum::from_power(Vec::new()),
        }
    }

    /// [`EdgeSpectra::compute`] through reused buffers: each window's
    /// amplitude spectrum lands in `tmp` and is folded into `out`'s
    /// running intersections in place. Allocation-free once warm;
    /// bit-identical results.
    pub(crate) fn compute_scratch(
        demod: &Demodulator,
        dechirped: &[Cf32],
        n_windows: usize,
        scratch: &mut SpectrumScratch,
        tmp: &mut Spectrum,
        out: &mut EdgeSpectra,
    ) {
        assert!(n_windows >= 1);
        let len = dechirped.len();
        let half = len / 2;
        let eps = (half / (4 * n_windows)).max(1);
        let mut n_left = 0usize;
        let mut n_right = 0usize;
        for i in 0..n_windows {
            let off = i * eps;
            let l = SampleRange::new(off.min(len), (off + half).min(len));
            let r_end = len.saturating_sub(off);
            let r = SampleRange::new(r_end.saturating_sub(half), r_end);
            // Raw (non-normalised) intersection: every window spans the
            // same half symbol, so powers are directly comparable;
            // normalising would skew λ by each half's interferer content.
            if !l.is_empty() {
                demod.folded_amplitude_spectrum_scratch(l.slice(dechirped), scratch, tmp);
                if n_left == 0 {
                    out.left.copy_from(tmp);
                } else {
                    intersect::spectral_intersection_into(&mut out.left, tmp);
                }
                n_left += 1;
            }
            if !r.is_empty() {
                demod.folded_amplitude_spectrum_scratch(r.slice(dechirped), scratch, tmp);
                if n_right == 0 {
                    out.right.copy_from(tmp);
                } else {
                    intersect::spectral_intersection_into(&mut out.right, tmp);
                }
                n_right += 1;
            }
        }
        let n_bins = demod.params().n_bins();
        if n_left == 0 {
            out.left.reset_zero(n_bins);
        }
        if n_right == 0 {
            out.right.reset_zero(n_bins);
        }
    }

    /// The SED `Δ(f) = |λ_rh(f) - λ_lh(f)|` at bin `f` (paper Eqn 15,
    /// absolute — a strong interferer's imbalance outweighs a weak but
    /// balanced true peak's noise jitter).
    pub(crate) fn sed(&self, bin: usize) -> f64 {
        let l = self.left[bin];
        let r = self.right[bin];
        if l <= 0.0 && r <= 0.0 {
            // No energy at either edge: this "candidate" is not a real
            // tone anywhere — rank it worst.
            f64::INFINITY
        } else {
            (r - l).abs()
        }
    }

    /// The candidate bin with the smallest SED.
    ///
    /// A candidate must actually be a tone at one of the edges: bins whose
    /// edge energy never rises above a few times the spectra's median are
    /// spectral voids — their `|λ_rh - λ_lh|` is trivially tiny — and are
    /// ranked last rather than first.
    pub(crate) fn best_candidate(&self, bins: &[usize]) -> Option<usize> {
        self.best_candidate_with(bins, &mut Vec::new())
    }

    /// [`EdgeSpectra::best_candidate`] with a reused median scratch.
    pub(crate) fn best_candidate_with(
        &self,
        bins: &[usize],
        median_scratch: &mut Vec<f64>,
    ) -> Option<usize> {
        // Noise floor of the edge spectra, and a relative floor against
        // the strongest candidate: a bin 12 dB below the best candidate's
        // edge energy is residue, and residue is trivially balanced.
        let cand_max = bins
            .iter()
            .map(|&b| self.left[b].max(self.right[b]))
            .fold(0.0f64, f64::max);
        let floor = (4.0
            * self
                .left
                .median_power_with(median_scratch)
                .max(self.right.median_power_with(median_scratch)))
        .max(cand_max / 16.0);
        let score = |b: usize| -> f64 {
            if self.left[b].max(self.right[b]) < floor {
                f64::INFINITY
            } else {
                self.sed(b)
            }
        };
        // `min_by` keeps the first of equal elements, and callers pass
        // bins strongest-first, so an all-void tie resolves to the
        // strongest candidate.
        bins.iter()
            .copied()
            .min_by(|&a, &b| score(a).total_cmp(&score(b)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lora_channel::{superpose, Emission};
    use lora_phy::chirp::symbol_waveform;
    use lora_phy::params::LoraParams;

    fn setup() -> (LoraParams, Demodulator) {
        let p = LoraParams::new(8, 250e3, 4).unwrap();
        (p, Demodulator::new(p))
    }

    /// A window where tx1 sends `s1` for the full symbol and an interferer
    /// switches from `prev` to `next` at offset `tau`.
    fn collided_window(
        p: &LoraParams,
        s1: usize,
        prev: usize,
        next: usize,
        tau: usize,
        amp_i: f64,
    ) -> Vec<Cf32> {
        let sps = p.samples_per_symbol();
        let full = symbol_waveform(p, s1);
        let w_prev = symbol_waveform(p, prev);
        let w_next = symbol_waveform(p, next);
        superpose(
            p,
            sps,
            &[
                Emission {
                    waveform: full,
                    amplitude: 1.0,
                    start_sample: 0,
                    cfo_hz: 0.0,
                },
                // Tail of the interferer's previous symbol occupies [0, tau).
                Emission {
                    waveform: w_prev[sps - tau..].to_vec(),
                    amplitude: amp_i,
                    start_sample: 0,
                    cfo_hz: 0.0,
                },
                // Its next symbol starts at tau.
                Emission {
                    waveform: w_next[..sps - tau].to_vec(),
                    amplitude: amp_i,
                    start_sample: tau,
                    cfo_hz: 0.0,
                },
            ],
        )
    }

    /// A symbol misaligned by `tau` samples de-chirps to its value shifted
    /// by `-tau/os` bins (paper Eqn 10, modulo the band).
    fn drift_bin(p: &LoraParams, value: usize, tau: usize) -> usize {
        let n = p.n_bins();
        (value + n - (tau / p.oversampling()) % n) % n
    }

    #[test]
    fn full_symbol_has_low_sed_partial_has_high() {
        let (p, d) = setup();
        let tau = 700; // interferer boundary
        let win = collided_window(&p, 80, 20, 160, tau, 1.0);
        let edges = EdgeSpectra::compute(&d, &d.dechirp(&win), 10);
        let sed_true = edges.sed(80);
        // prev symbol exists only in the left piece; next mostly right.
        // Both should have higher SED than the full-duration symbol.
        let sed_next = edges.sed(drift_bin(&p, 160, tau));
        assert!(
            sed_true < sed_next,
            "sed(true)={sed_true} sed(next)={sed_next}"
        );
    }

    #[test]
    fn best_candidate_picks_full_duration_symbol() {
        let (p, d) = setup();
        // Interferer much stronger than the symbol of interest.
        let win = collided_window(&p, 100, 30, 200, 512, 3.0);
        let edges = EdgeSpectra::compute(&d, &d.dechirp(&win), 10);
        let cands = vec![100, drift_bin(&p, 200, 512)];
        assert_eq!(edges.best_candidate(&cands), Some(100));
    }

    #[test]
    fn empty_bin_ranks_worst() {
        let (p, d) = setup();
        let win = symbol_waveform(&p, 10);
        let edges = EdgeSpectra::compute(&d, &d.dechirp(&win), 4);
        assert_eq!(edges.best_candidate(&[10, 200]), Some(10));
    }

    #[test]
    fn single_window_degenerates_gracefully() {
        let (p, d) = setup();
        let win = symbol_waveform(&p, 42);
        let edges = EdgeSpectra::compute(&d, &d.dechirp(&win), 1);
        assert!(edges.sed(42).is_finite());
    }
}
