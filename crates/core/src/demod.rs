//! The CIC symbol demodulator (paper §5.4, Eqn 12).
//!
//! Given one de-chirped symbol window and the boundary offsets of all
//! interfering transmissions within it, the demodulator:
//!
//! 1. builds the optimal ICSS and intersects the unit-energy-normalised
//!    spectra of its sub-symbols ([`crate::icss`], [`lora_dsp::intersect`]);
//! 2. extracts candidate peaks from the intersected spectrum;
//! 3. filters candidates by fractional CFO and received power when the
//!    preamble provided estimates (paper §5.7, [`crate::filters`]);
//! 4. breaks remaining ties with the Spectral Edge Difference
//!    (paper §5.6, `crate::sed`).
//!
//! The one decode entry point ([`CicDemodulator::demodulate_with`]) runs
//! through a caller-owned [`DemodScratch`]: one full-window transform
//! feeds the power fold, the amplitude fold *and* the ICSS full-window
//! member, and every intermediate buffer is reused, so a warm decode loop
//! performs no heap allocation. [`CicDemodulator::demodulate_reference`]
//! pins the original allocating implementation as the test and bench
//! oracle; the two are bit-identical (the equivalence suite in
//! `tests/demod_equivalence.rs` asserts that the value, selection and
//! [`DemodScratch::last_candidates`] equal the reference's
//! [`SymbolDecision`] over randomized collisions).

use lora_dsp::window::SampleRange;
use lora_dsp::{intersect, peaks, Cf32, Spectrum};
use lora_phy::{Demodulator, SpectrumScratch};

use crate::config::CicConfig;
use crate::filters::{cfo_filter, cfo_matches, power_filter, power_matches, Candidate};
use crate::icss::{optimal_icss, optimal_icss_into};
use crate::scratch::DemodScratch;
use crate::sed::EdgeSpectra;
use crate::subsymbol::Boundaries;

/// Candidate peaks must exceed this factor times the median power of
/// the intersected spectrum.
const PEAK_THRESHOLD: f64 = 3.0;

/// Minimum cyclic bin separation between reported candidates.
const PEAK_MIN_SEPARATION: usize = 1;

/// Drop candidates more than this many dB below the strongest peak of
/// the intersected spectrum. Sinc sidelobes sit ≥13 dB down, while a
/// partially-cancelled interferer that genuinely threatens the decision
/// is within a few dB (paper Fig 14).
const CANDIDATE_MAX_BELOW_PEAK_DB: f64 = 9.0;

/// Ignore interferer boundaries that would create a sub-symbol shorter
/// than this many samples: such a window is below the time-frequency
/// uncertainty floor and cannot cancel anything (paper §5.1), it only
/// injects a near-flat spectrum into the intersection.
const MIN_SUBSYMBOL_SAMPLES: usize = 16;

/// Maximum fractional-CFO error, in bins, for a candidate to survive the
/// CFO filter (paper §5.7).
const CFO_FILTER_MAX_BINS: f64 = 0.25;

/// Maximum deviation from the preamble power estimate, in dB, for a
/// candidate to survive the power filter (paper §5.7 uses 3 dB).
const POWER_FILTER_MAX_DB: f64 = 3.0;

/// Per-transmission context carried from preamble detection into symbol
/// demodulation (paper §5.7–5.8).
#[derive(Debug, Clone, Default)]
pub struct SymbolContext {
    /// Expected fractional CFO in bins (`[-0.5, 0.5)`), if estimated.
    pub frac_cfo_bins: Option<f64>,
    /// Expected full-window peak power from the preamble, if estimated.
    pub expected_peak_power: Option<f64>,
    /// Predicted tone positions (fractional bins) of interferers whose
    /// *preamble* overlaps this window (see
    /// `crate::tracker::Tracker::known_preamble_bins`). A preamble tone
    /// is continuous across the interferer's symbol boundaries, so
    /// sub-symbol cancellation cannot remove it — but its position is
    /// known and candidates there are excluded.
    pub known_interferer_bins: Vec<f64>,
}

/// How the final symbol value was selected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Selection {
    /// The intersected spectrum had a single surviving candidate.
    Unique,
    /// Feature filters (CFO/power) reduced the set to one.
    Filtered,
    /// The Spectral Edge Difference broke a tie.
    Sed,
    /// Tie remained; the strongest candidate was taken.
    Strongest,
    /// No candidate exceeded the threshold; argmax fallback.
    Fallback,
}

/// Result of demodulating one symbol window, as
/// [`CicDemodulator::demodulate_reference`] reports it.
#[derive(Debug, Clone, PartialEq)]
pub struct SymbolDecision {
    /// Chosen symbol value (FFT bin).
    pub value: usize,
    /// How it was chosen.
    pub selection: Selection,
    /// All candidates that survived peak extraction, strongest first.
    pub candidates: Vec<Candidate>,
}

/// The CIC demodulator for one parameter set.
pub struct CicDemodulator {
    demod: Demodulator,
    config: CicConfig,
}

/// Intersect the unit-energy-normalised spectra of the optimal ICSS into
/// `out`. When `full_padded` is provided it must be the padded transform
/// of the whole `dechirped` window; ICSS members covering the full window
/// then fold it instead of re-transforming.
#[allow(clippy::too_many_arguments)]
fn intersect_icss_into(
    demod: &Demodulator,
    dechirped: &[Cf32],
    boundaries: &Boundaries,
    full_padded: Option<&[Cf32]>,
    spec: &mut SpectrumScratch,
    icss: &mut Vec<SampleRange>,
    sub_spec: &mut Spectrum,
    out: &mut Spectrum,
) {
    let p = demod.params();
    optimal_icss_into(boundaries, MIN_SUBSYMBOL_SAMPLES, icss);
    let mut first = true;
    for r in icss.iter() {
        match full_padded {
            // `r.slice(dechirped)` is the whole window: its transform is
            // already in `full_padded` (3 same-size full-window FFTs → 1).
            Some(buf) if r.start == 0 && r.end >= dechirped.len() => {
                Spectrum::folded_from_complex(buf, p.n_bins(), p.oversampling(), sub_spec);
            }
            _ => demod.folded_spectrum_range_scratch(dechirped, *r, spec, sub_spec),
        }
        sub_spec.normalize_unit_energy();
        if first {
            out.copy_from(sub_spec);
            first = false;
        } else {
            intersect::spectral_intersection_into(out, sub_spec);
        }
    }
    if first {
        out.reset_zero(p.n_bins());
    }
}

impl CicDemodulator {
    /// Build a demodulator.
    pub fn new(params: lora_phy::LoraParams, config: CicConfig) -> Self {
        Self {
            demod: Demodulator::new(params),
            config,
        }
    }

    /// The underlying de-chirping demodulator.
    pub fn inner(&self) -> &Demodulator {
        &self.demod
    }

    /// Compute `Φ_CIC` (Eqn 12): the spectral intersection over the
    /// optimal ICSS of an already de-chirped window.
    pub fn intersected_spectrum(&self, dechirped: &[Cf32], boundaries: &Boundaries) -> Spectrum {
        let mut out = Spectrum::from_power(Vec::new());
        intersect_icss_into(
            &self.demod,
            dechirped,
            boundaries,
            None,
            &mut SpectrumScratch::new(),
            &mut Vec::new(),
            &mut Spectrum::from_power(Vec::new()),
            &mut out,
        );
        out
    }

    /// The Strawman-CIC spectrum (paper Fig 9/13): intersection of only
    /// the first and last consecutive sub-symbols. Kept public for the
    /// baseline comparison and the Fig 13 harness.
    pub fn strawman_spectrum(&self, dechirped: &[Cf32], boundaries: &Boundaries) -> Spectrum {
        let spectra: Vec<Spectrum> = boundaries
            .strawman_icss()
            .iter()
            .filter(|r| !r.is_empty())
            .map(|r| self.demod.folded_spectrum_range(dechirped, *r))
            .collect();
        intersect::intersect_normalized(&spectra)
            .unwrap_or_else(|| Spectrum::from_power(vec![0.0; self.demod.params().n_bins()]))
    }

    /// Demodulate one de-chirped window entirely inside `scratch`,
    /// returning the symbol value and how it was selected. The surviving
    /// candidates, strongest first, are left in
    /// [`DemodScratch::last_candidates`]. Allocation-free once `scratch`
    /// is warm.
    ///
    /// `dechirped` must already be CFO-derotated to the target
    /// transmission (the receiver does this with the preamble estimate),
    /// so the wanted peak sits on an integer bin plus the residual
    /// fractional CFO.
    ///
    /// Bit-identical to [`CicDemodulator::demodulate_reference`].
    pub fn demodulate_with(
        &self,
        dechirped: &[Cf32],
        boundaries: &Boundaries,
        ctx: &SymbolContext,
        scratch: &mut DemodScratch,
    ) -> (usize, Selection) {
        let DemodScratch {
            spec,
            full_padded,
            icss,
            cic_spec,
            sub_spec,
            full_spec,
            full_amp,
            peaks: found,
            median,
            candidates,
            flags,
            sed_bins,
            edges,
            sed_tmp,
            ..
        } = scratch;
        let p = self.demod.params();

        // One full-window transform, consumed three ways: the power fold
        // (power filter), the amplitude fold (fractional positions and
        // decision snapping) and — inside the intersection below — the
        // ICSS full-window member.
        self.demod
            .fft()
            .forward_padded_into(dechirped, p.samples_per_symbol(), full_padded);
        Spectrum::folded_from_complex(full_padded, p.n_bins(), p.oversampling(), full_spec);
        Spectrum::folded_amplitude_from_complex(
            full_padded,
            p.n_bins(),
            p.oversampling(),
            full_amp,
        );

        intersect_icss_into(
            &self.demod,
            dechirped,
            boundaries,
            Some(full_padded),
            spec,
            icss,
            sub_spec,
            cic_spec,
        );

        peaks::find_peaks_into(cic_spec, PEAK_THRESHOLD, PEAK_MIN_SEPARATION, median, found);
        candidates.clear();
        for pk in found.iter().take(self.config.max_candidates) {
            let n = full_spec.len() as f64;
            let amp_pos = peaks::refine_sinc_amp(full_amp, pk.bin);
            let mut frac_part = amp_pos - pk.bin as f64;
            if frac_part > 0.5 {
                frac_part -= n;
            } else if frac_part < -0.5 {
                frac_part += n;
            }
            // Lobe energy over bin ± 1: a peak split by a fractional
            // frequency offset must be credited with its full power,
            // or its weak alias bin slips through the power filter.
            let nb = full_spec.len();
            let lobe = full_spec[pk.bin]
                + full_spec[(pk.bin + 1) % nb]
                + full_spec[(pk.bin + nb - 1) % nb];
            // Final decision value: re-argmax over the candidate's
            // immediate neighbourhood in the amplitude-folded full
            // spectrum. The intersected spectrum's apex shape is
            // dominated by its lowest-resolution member and wanders
            // ±1 bin under dense overlap; the full window has the
            // sharpest apex for a tone that is really there.
            let refined_bin = [(pk.bin + nb - 1) % nb, pk.bin, (pk.bin + 1) % nb]
                .into_iter()
                .max_by(|&a, &b| full_amp[a].total_cmp(&full_amp[b]))
                .unwrap();
            candidates.push(Candidate {
                bin: pk.bin,
                refined_bin,
                intersected_power: pk.power,
                full_power: lobe,
                frac_offset_bins: frac_part,
            });
        }

        // Exclude candidates sitting on a *known* interferer tone
        // (preamble or previously-decoded data), unless that empties the
        // set (the wanted symbol can legitimately coincide with one).
        if !ctx.known_interferer_bins.is_empty() {
            let n = p.n_bins() as f64;
            let keeps = |c: &Candidate| {
                let pos = c.bin as f64 + c.frac_offset_bins;
                !ctx.known_interferer_bins
                    .iter()
                    .any(|&k| lora_dsp::math::cyclic_distance(pos, k, n).abs() <= 1.0)
            };
            if candidates.iter().any(keeps) {
                candidates.retain(keeps);
            }
        }

        // Relative floor, applied *after* known-tone exclusion so that an
        // uncancellable (but known and excluded) strong tone does not set
        // the bar: sidelobes and intersection residue sit well below the
        // strongest genuine candidate, real contenders within a few dB.
        let strongest = candidates
            .iter()
            .map(|c| c.intersected_power)
            .fold(0.0f64, f64::max);
        let rel_floor = strongest / lora_dsp::math::from_db(CANDIDATE_MAX_BELOW_PEAK_DB);
        candidates.retain(|c| c.intersected_power >= rel_floor);

        if candidates.is_empty() {
            // Nothing above threshold: fall back to the argmax of the
            // intersected spectrum (better than dropping the symbol — the
            // decoder's FEC/CRC arbitrates).
            let value = cic_spec.argmax().map(|(b, _)| b).unwrap_or(0);
            return (value, Selection::Fallback);
        }
        if candidates.len() == 1 {
            return (candidates[0].refined_bin, Selection::Unique);
        }

        // Feature filters (paper §5.7): a candidate should be consistent
        // with every enabled feature, so the primary verdict is the
        // intersection of both filters. When they conflict (intersection
        // empty), prefer the power filter alone: the lobe-power
        // measurement is robust, while the fractional-CFO measurement is
        // easily corrupted by a peak on an adjacent bin. CFO-only and
        // finally the unfiltered set are the remaining fallbacks.
        //
        // Implemented as per-candidate verdict bits (bit 0 = CFO pass,
        // bit 1 = power pass) and a cascade of bit masks over them — the
        // same lattice the reference builds with one cloned vector per
        // filter combination, without the clones.
        let cfo_expect = match (self.config.use_cfo_filter, ctx.frac_cfo_bins) {
            (true, Some(e)) => Some(e),
            _ => None,
        };
        let pow_expect = match (self.config.use_power_filter, ctx.expected_peak_power) {
            (true, Some(e)) => Some(e),
            _ => None,
        };
        flags.clear();
        for c in candidates.iter() {
            let mut f = 0u8;
            if cfo_expect.is_some_and(|e| cfo_matches(c, e, CFO_FILTER_MAX_BINS)) {
                f |= 1;
            }
            if pow_expect.is_some_and(|e| power_matches(c, e, POWER_FILTER_MAX_DB)) {
                f |= 2;
            }
            flags.push(f);
        }
        let cascade: &[u8] = match (cfo_expect.is_some(), pow_expect.is_some()) {
            (true, true) => &[3, 2, 1], // both-pass, power-only, CFO-only
            (true, false) => &[1],
            (false, true) => &[2],
            (false, false) => &[],
        };
        // First non-empty filter verdict; mask 0 selects everyone.
        let mask = cascade
            .iter()
            .copied()
            .find(|&m| flags.iter().any(|&f| f & m == m))
            .unwrap_or(0);
        let n_sel = flags.iter().filter(|&&f| f & mask == mask).count();
        if n_sel == 1 {
            let idx = flags.iter().position(|&f| f & mask == mask).unwrap();
            return (candidates[idx].refined_bin, Selection::Filtered);
        }

        EdgeSpectra::compute_scratch(
            &self.demod,
            dechirped,
            self.config.sed_windows,
            spec,
            sed_tmp,
            edges,
        );
        sed_bins.clear();
        for (c, &f) in candidates.iter().zip(flags.iter()) {
            if f & mask == mask {
                sed_bins.push(c.bin);
            }
        }
        if let Some(best) = edges.best_candidate_with(sed_bins, median) {
            let value = candidates
                .iter()
                .zip(flags.iter())
                .find(|&(c, &f)| f & mask == mask && c.bin == best)
                .map(|(c, _)| c.refined_bin)
                .unwrap_or(best);
            return (value, Selection::Sed);
        }

        // Last resort: strongest surviving candidate. `candidates` is
        // already power-descending (peak order, preserved by `retain`),
        // so the strongest survivor is the first one the mask selects —
        // the reference's stable re-sort is an identity permutation here.
        let idx = flags.iter().position(|&f| f & mask == mask).unwrap();
        (candidates[idx].refined_bin, Selection::Strongest)
    }

    /// The original allocating implementation of
    /// [`CicDemodulator::demodulate_with`], pinned verbatim.
    ///
    /// For tests and benches only: it is the oracle of the bit-exactness
    /// suite and the baseline of the `demod_bench` comparison. No
    /// production path calls it.
    pub fn demodulate_reference(
        &self,
        dechirped: &[Cf32],
        boundaries: &Boundaries,
        ctx: &SymbolContext,
    ) -> SymbolDecision {
        let icss = optimal_icss(boundaries, MIN_SUBSYMBOL_SAMPLES);
        let spectra: Vec<Spectrum> = icss
            .iter()
            .map(|r| self.demod.folded_spectrum_range(dechirped, *r))
            .collect();
        let cic_spec = intersect::intersect_normalized(&spectra)
            .unwrap_or_else(|| Spectrum::from_power(vec![0.0; self.demod.params().n_bins()]));
        // The full-window spectrum provides unnormalised power for the
        // power filter; the amplitude-folded variant provides unbiased
        // fractional positions (power-folding skews the sinc-ratio
        // estimator for band-edge-split symbols).
        let full_spec = self.demod.folded_spectrum(dechirped);
        let full_amp = self.demod.folded_amplitude_spectrum(dechirped);

        let peaks_found = peaks::find_peaks(&cic_spec, PEAK_THRESHOLD, PEAK_MIN_SEPARATION);
        let mut candidates: Vec<Candidate> = peaks_found
            .iter()
            .take(self.config.max_candidates)
            .map(|p| {
                let n = full_spec.len() as f64;
                let amp_pos = peaks::refine_sinc_amp(&full_amp, p.bin);
                let mut frac_part = amp_pos - p.bin as f64;
                if frac_part > 0.5 {
                    frac_part -= n;
                } else if frac_part < -0.5 {
                    frac_part += n;
                }
                let nb = full_spec.len();
                let lobe = full_spec[p.bin]
                    + full_spec[(p.bin + 1) % nb]
                    + full_spec[(p.bin + nb - 1) % nb];
                let refined_bin = [(p.bin + nb - 1) % nb, p.bin, (p.bin + 1) % nb]
                    .into_iter()
                    .max_by(|&a, &b| full_amp[a].total_cmp(&full_amp[b]))
                    .unwrap();
                Candidate {
                    bin: p.bin,
                    refined_bin,
                    intersected_power: p.power,
                    full_power: lobe,
                    frac_offset_bins: frac_part,
                }
            })
            .collect();

        if !ctx.known_interferer_bins.is_empty() {
            let n = self.demod.params().n_bins() as f64;
            let kept: Vec<Candidate> = candidates
                .iter()
                .filter(|c| {
                    let pos = c.bin as f64 + c.frac_offset_bins;
                    !ctx.known_interferer_bins
                        .iter()
                        .any(|&k| lora_dsp::math::cyclic_distance(pos, k, n).abs() <= 1.0)
                })
                .copied()
                .collect();
            if !kept.is_empty() {
                candidates = kept;
            }
        }

        let strongest = candidates
            .iter()
            .map(|c| c.intersected_power)
            .fold(0.0f64, f64::max);
        let rel_floor = strongest / lora_dsp::math::from_db(CANDIDATE_MAX_BELOW_PEAK_DB);
        candidates.retain(|c| c.intersected_power >= rel_floor);

        if candidates.is_empty() {
            let value = cic_spec.argmax().map(|(b, _)| b).unwrap_or(0);
            return SymbolDecision {
                value,
                selection: Selection::Fallback,
                candidates: Vec::new(),
            };
        }
        if candidates.len() == 1 {
            return SymbolDecision {
                value: candidates[0].refined_bin,
                selection: Selection::Unique,
                candidates,
            };
        }

        let kept_cfo: Option<Vec<Candidate>> = match (self.config.use_cfo_filter, ctx.frac_cfo_bins)
        {
            (true, Some(expect)) => Some(cfo_filter(&candidates, expect, CFO_FILTER_MAX_BINS)),
            _ => None,
        };
        let kept_pow: Option<Vec<Candidate>> =
            match (self.config.use_power_filter, ctx.expected_peak_power) {
                (true, Some(expect)) => {
                    Some(power_filter(&candidates, expect, POWER_FILTER_MAX_DB))
                }
                _ => None,
            };
        let both: Option<Vec<Candidate>> = match (&kept_cfo, &kept_pow) {
            (Some(c), Some(p)) => Some(
                c.iter()
                    .filter(|x| p.iter().any(|y| y.bin == x.bin))
                    .copied()
                    .collect(),
            ),
            (Some(c), None) => Some(c.clone()),
            (None, Some(p)) => Some(p.clone()),
            (None, None) => None,
        };
        let mut filtered: Vec<Candidate> = [both, kept_pow, kept_cfo]
            .into_iter()
            .flatten()
            .find(|set| !set.is_empty())
            .unwrap_or_else(|| candidates.clone());
        if filtered.len() == 1 {
            return SymbolDecision {
                value: filtered[0].refined_bin,
                selection: Selection::Filtered,
                candidates,
            };
        }

        let edges = EdgeSpectra::compute(&self.demod, dechirped, self.config.sed_windows);
        let bins: Vec<usize> = filtered.iter().map(|c| c.bin).collect();
        if let Some(best) = edges.best_candidate(&bins) {
            let value = filtered
                .iter()
                .find(|c| c.bin == best)
                .map(|c| c.refined_bin)
                .unwrap_or(best);
            return SymbolDecision {
                value,
                selection: Selection::Sed,
                candidates,
            };
        }

        filtered.sort_by(|a, b| b.intersected_power.total_cmp(&a.intersected_power));
        candidates.sort_by(|a, b| b.intersected_power.total_cmp(&a.intersected_power));
        SymbolDecision {
            value: filtered[0].refined_bin,
            selection: Selection::Strongest,
            candidates,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lora_channel::{superpose, Emission};
    use lora_phy::chirp::symbol_waveform;
    use lora_phy::params::LoraParams;

    fn params() -> LoraParams {
        LoraParams::new(8, 250e3, 4).unwrap()
    }

    fn cic() -> CicDemodulator {
        CicDemodulator::new(params(), CicConfig::default())
    }

    /// One window through [`CicDemodulator::demodulate_with`] with a
    /// fresh arena, packaged as a [`SymbolDecision`].
    fn decide(c: &CicDemodulator, de: &[Cf32], b: &Boundaries) -> SymbolDecision {
        let mut scratch = DemodScratch::new();
        let (value, selection) = c.demodulate_with(de, b, &SymbolContext::default(), &mut scratch);
        SymbolDecision {
            value,
            selection,
            candidates: scratch.last_candidates().to_vec(),
        }
    }

    /// Build a window where the target sends `s1` and each interferer `j`
    /// transitions `prev_j -> next_j` at boundary `tau_j`, amplitude `a_j`.
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
            assert!(tau > 0 && tau < sps);
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
        (
            superpose(p, sps, &[emissions, vec![]].concat()),
            Boundaries::new(sps, taus),
        )
    }

    #[test]
    fn clean_symbol_no_interferers() {
        let p = params();
        let c = cic();
        let (win, b) = collision(&p, 123, &[]);
        let d = decide(&c, &c.inner().dechirp(&win), &b);
        assert_eq!(d.value, 123);
    }

    #[test]
    fn cancels_single_equal_power_interferer() {
        let p = params();
        let c = cic();
        let (win, b) = collision(&p, 77, &[(10, 210, 400, 1.0)]);
        let de = c.inner().dechirp(&win);
        let d = decide(&c, &de, &b);
        assert_eq!(d.value, 77, "selection {:?}", d.selection);
    }

    #[test]
    fn cancels_stronger_interferer() {
        // The interferer is 6 dB stronger: standard demodulation picks the
        // wrong peak, CIC must not.
        let p = params();
        let c = cic();
        let (win, b) = collision(&p, 77, &[(10, 210, 400, 2.0)]);
        let de = c.inner().dechirp(&win);
        let std_value = c.inner().folded_spectrum(&de).argmax().unwrap().0;
        assert_ne!(std_value, 77, "interferer should dominate standard demod");
        let d = decide(&c, &de, &b);
        assert_eq!(d.value, 77, "selection {:?}", d.selection);
    }

    #[test]
    fn cancels_three_interferers() {
        let p = params();
        let c = cic();
        let (win, b) = collision(
            &p,
            150,
            &[(5, 99, 200, 1.5), (30, 222, 520, 1.2), (180, 64, 850, 0.8)],
        );
        let de = c.inner().dechirp(&win);
        let d = decide(&c, &de, &b);
        assert_eq!(d.value, 150, "selection {:?}", d.selection);
    }

    #[test]
    fn intersected_spectrum_suppresses_interferer_bins() {
        let p = params();
        let c = cic();
        let tau = 400usize;
        let (win, b) = collision(&p, 77, &[(10, 210, tau, 1.0)]);
        let de = c.inner().dechirp(&win);
        let cic_spec = c.intersected_spectrum(&de, &b).normalized();
        let n = p.n_bins();
        let shift = (n - (tau / p.oversampling()) % n) % n;
        let prev_bin = (10 + shift) % n;
        let next_bin = (210 + shift) % n;
        // Interferer energy must drop well below the wanted peak.
        assert!(cic_spec[77] > 10.0 * cic_spec[prev_bin]);
        assert!(cic_spec[77] > 10.0 * cic_spec[next_bin]);
    }

    #[test]
    fn strawman_weaker_than_cic_near_boundary_edges() {
        // With boundaries close to the window edges, the strawman's two
        // pieces are small and resolution collapses (paper §5.3); optimal
        // CIC keeps the wanted bin dominant. Boundaries sit at 12.5% from
        // each edge — outside the <10% regime where even CIC degrades
        // (paper Fig 38).
        let p = params();
        let c = cic();
        let (win, b) = collision(&p, 60, &[(140, 33, 128, 1.0), (200, 90, 896, 1.0)]);
        let de = c.inner().dechirp(&win);
        let cic_spec = c.intersected_spectrum(&de, &b);
        assert_eq!(cic_spec.argmax().unwrap().0, 60);
    }

    #[test]
    fn strawman_works_with_single_wide_spaced_interferer() {
        let p = params();
        let c = cic();
        let (win, b) = collision(&p, 100, &[(7, 201, 512, 1.0)]);
        let de = c.inner().dechirp(&win);
        assert_eq!(c.strawman_spectrum(&de, &b).argmax().unwrap().0, 100);
    }

    #[test]
    fn strawman_resolution_collapses_with_many_interferers() {
        // Five interferers leave the strawman pieces ~1/6 of a symbol:
        // resolution B/6. Measure the main-lobe width of the strawman
        // spectrum around the wanted bin: it must be several bins wide,
        // while full CIC keeps it narrow.
        let p = params();
        let c = cic();
        let interferers: Vec<(usize, usize, usize, f64)> = vec![
            (10, 60, 170, 1.0),
            (90, 140, 340, 1.0),
            (170, 220, 510, 1.0),
            (250, 30, 680, 1.0),
            (70, 120, 850, 1.0),
        ];
        let (win, b) = collision(&p, 128, &interferers);
        let de = c.inner().dechirp(&win);
        let straw = c.strawman_spectrum(&de, &b).normalized();
        let full = c.intersected_spectrum(&de, &b).normalized();

        // Width at half max around bin 128 (cyclic walk outward).
        let width = |spec: &Spectrum| -> usize {
            let peak = spec[128];
            let mut w = 1usize;
            for d in 1..64 {
                let l = spec[(128 - d) % 256];
                let r = spec[(128 + d) % 256];
                if l < peak / 2.0 && r < peak / 2.0 {
                    break;
                }
                w = 2 * d + 1;
            }
            w
        };
        assert!(
            width(&straw) >= width(&full),
            "strawman lobe {} vs CIC {}",
            width(&straw),
            width(&full)
        );
    }

    #[test]
    fn strawman_without_interferers_degenerates_to_standard() {
        let p = params();
        let c = cic();
        let (win, b) = collision(&p, 42, &[]);
        let de = c.inner().dechirp(&win);
        assert_eq!(c.strawman_spectrum(&de, &b).argmax().unwrap().0, 42);
    }

    #[test]
    fn fallback_when_spectrum_flat() {
        let c = cic();
        let zeros = vec![Cf32::new(0.0, 0.0); 1024];
        let b = Boundaries::new(1024, vec![]);
        let d = decide(&c, &zeros, &b);
        assert_eq!(d.selection, Selection::Fallback);
    }

    #[test]
    fn decision_reports_candidates_strongest_first() {
        let p = params();
        let c = cic();
        let (win, b) = collision(&p, 42, &[(100, 101, 40, 2.5)]);
        let de = c.inner().dechirp(&win);
        let d = decide(&c, &de, &b);
        for w in d.candidates.windows(2) {
            assert!(w[0].intersected_power >= w[1].intersected_power);
        }
    }

    #[test]
    fn scratch_path_matches_reference_exactly() {
        // A handful of hand-picked windows across the selection branches;
        // the randomized 100-windows-per-SF sweep lives in
        // tests/demod_equivalence.rs.
        let p = params();
        let c = cic();
        let mut scratch = DemodScratch::new();
        let cases: Vec<(Vec<Cf32>, Boundaries, SymbolContext)> = vec![
            {
                let (w, b) = collision(&p, 123, &[]);
                (w, b, SymbolContext::default())
            },
            {
                let (w, b) = collision(&p, 77, &[(10, 210, 400, 2.0)]);
                (w, b, SymbolContext::default())
            },
            {
                let (w, b) = collision(
                    &p,
                    150,
                    &[(5, 99, 200, 1.5), (30, 222, 520, 1.2), (180, 64, 850, 0.8)],
                );
                (
                    w,
                    b,
                    SymbolContext {
                        frac_cfo_bins: Some(0.0),
                        expected_peak_power: Some(1.0),
                        known_interferer_bins: vec![99.0],
                    },
                )
            },
            (
                vec![Cf32::new(0.0, 0.0); p.samples_per_symbol()],
                Boundaries::new(p.samples_per_symbol(), vec![]),
                SymbolContext::default(),
            ),
        ];
        for (win, b, ctx) in &cases {
            let de = c.inner().dechirp(win);
            let want = c.demodulate_reference(&de, b, ctx);
            let (value, selection) = c.demodulate_with(&de, b, ctx, &mut scratch);
            assert_eq!(
                (value, selection, scratch.last_candidates()),
                (want.value, want.selection, &want.candidates[..])
            );
            // The intersection built from the shared full-window
            // transform equals the standalone one bit-for-bit.
            assert_eq!(scratch.cic_spec, c.intersected_spectrum(&de, b));
        }
    }
}
