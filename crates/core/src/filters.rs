//! Candidate feature filters (paper §5.7).
//!
//! When cancellation leaves more than one plausible peak, CIC filters the
//! candidate set with per-transmitter features estimated from the
//! preamble: the fractional carrier frequency offset (as in Choir) and the
//! received power (as in CoLoRa). Candidates whose features deviate too
//! far from the preamble estimates cannot belong to this transmitter.

use lora_phy::cfo::fractional_distance;

/// One candidate peak with the features the filters inspect.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Candidate {
    /// Symbol bin of the peak (argmax bin of the intersected spectrum).
    pub bin: usize,
    /// Decision value: the peak's sub-bin position in the intersected
    /// spectrum, rounded. Partial cancellation can skew the raw argmax by
    /// one bin; the fractional estimate recovers the true centre.
    pub refined_bin: usize,
    /// Power in the intersected (normalised) spectrum.
    pub intersected_power: f64,
    /// Power in the full-window (unnormalised) spectrum — comparable with
    /// the preamble peak-height estimate.
    pub full_power: f64,
    /// Measured sub-bin offset of the peak in `[-0.5, 0.5)` bins — the
    /// candidate's apparent fractional CFO.
    pub frac_offset_bins: f64,
}

/// Per-candidate CFO predicate of [`cfo_filter`]: within `max_bins` of the
/// preamble estimate (cyclic distance, so +0.49 and −0.49 are close).
pub(crate) fn cfo_matches(c: &Candidate, expect_frac: f64, max_bins: f64) -> bool {
    fractional_distance(c.frac_offset_bins, expect_frac) <= max_bins
}

/// Per-candidate power predicate of [`power_filter`]: full-window peak
/// power within `max_db` of the preamble estimate. `expect_power <= 0`
/// (no estimate) passes everything; a zero-power candidate fails any
/// positive estimate.
pub(crate) fn power_matches(c: &Candidate, expect_power: f64, max_db: f64) -> bool {
    if expect_power <= 0.0 {
        return true;
    }
    if c.full_power <= 0.0 {
        return false;
    }
    lora_dsp::math::db(c.full_power / expect_power).abs() <= max_db
}

/// Keep candidates whose fractional CFO is within `max_bins` of the
/// transmitter's preamble estimate (cyclic distance, so +0.49 and −0.49
/// are close).
pub(crate) fn cfo_filter(
    candidates: &[Candidate],
    expect_frac: f64,
    max_bins: f64,
) -> Vec<Candidate> {
    candidates
        .iter()
        .copied()
        .filter(|c| cfo_matches(c, expect_frac, max_bins))
        .collect()
}

/// Keep candidates whose full-window peak power is within `max_db` of the
/// transmitter's preamble estimate.
pub(crate) fn power_filter(
    candidates: &[Candidate],
    expect_power: f64,
    max_db: f64,
) -> Vec<Candidate> {
    candidates
        .iter()
        .copied()
        .filter(|c| power_matches(c, expect_power, max_db))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cand(bin: usize, full_power: f64, frac: f64) -> Candidate {
        Candidate {
            bin,
            refined_bin: bin,
            intersected_power: 1.0,
            full_power,
            frac_offset_bins: frac,
        }
    }

    #[test]
    fn cfo_filter_keeps_matching() {
        let cands = vec![cand(1, 1.0, 0.10), cand(2, 1.0, 0.45), cand(3, 1.0, -0.2)];
        let kept = cfo_filter(&cands, 0.12, 0.1);
        assert_eq!(kept.len(), 1);
        assert_eq!(kept[0].bin, 1);
    }

    #[test]
    fn cfo_filter_wraps_at_half_bin() {
        let cands = vec![cand(1, 1.0, 0.48)];
        let kept = cfo_filter(&cands, -0.49, 0.1);
        assert_eq!(kept.len(), 1, "0.48 and -0.49 are 0.03 bins apart");
    }

    #[test]
    fn power_filter_three_db_window() {
        let cands = vec![
            cand(1, 1.0, 0.0), // 0 dB off
            cand(2, 1.9, 0.0), // +2.8 dB
            cand(3, 4.1, 0.0), // +6.1 dB
            cand(4, 0.1, 0.0), // -10 dB
        ];
        let kept = power_filter(&cands, 1.0, 3.0);
        let bins: Vec<usize> = kept.iter().map(|c| c.bin).collect();
        assert_eq!(bins, vec![1, 2]);
    }

    #[test]
    fn power_filter_zero_expectation_passthrough() {
        let cands = vec![cand(1, 123.0, 0.0)];
        assert_eq!(power_filter(&cands, 0.0, 3.0).len(), 1);
    }

    #[test]
    fn power_filter_drops_zero_power_candidates() {
        let cands = vec![cand(1, 0.0, 0.0)];
        assert!(power_filter(&cands, 1.0, 3.0).is_empty());
    }

    #[test]
    fn empty_input_empty_output() {
        assert!(cfo_filter(&[], 0.0, 0.25).is_empty());
        assert!(power_filter(&[], 1.0, 3.0).is_empty());
    }
}
