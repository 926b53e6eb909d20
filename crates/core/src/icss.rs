//! Optimal Interference-Cancelling Sub-Symbol Set construction
//! (paper §5.4, Eqn 12).
//!
//! For every interferer boundary `τ_i`, the pair `r_{1→i} = [0, τ_i)` and
//! `r_{i→N+1} = [τ_i, T_s)` cancels that interferer's two symbols at the
//! best frequency resolution the uncertainty principle allows:
//! `f_prev^i` lives exactly in `[0, τ_i)` and `f_next^i` exactly in
//! `[τ_i, T_s)`, so each appears at full resolution in one spectrum and
//! not at all in the other. The full window `r(t)` is added so the wanted
//! frequency `f^1` is retained at maximum resolution.

use lora_dsp::window::SampleRange;

use crate::subsymbol::Boundaries;

/// Build the optimal ICSS for a window with the given interferer
/// boundaries: `{ [0,τ_i), [τ_i,T_s) : each τ_i } ∪ { [0,T_s) }`.
///
/// Boundaries that would produce a piece shorter than
/// `min_subsymbol_samples` are skipped (both halves of the pair), because
/// a window that short has no usable frequency resolution (paper §5.1) —
/// it cannot separate the interferer from the wanted peak and only
/// flattens the intersection. Duplicate ranges are removed.
pub fn optimal_icss(boundaries: &Boundaries, min_subsymbol_samples: usize) -> Vec<SampleRange> {
    let mut out = Vec::with_capacity(2 * boundaries.n_transitions() + 1);
    optimal_icss_into(boundaries, min_subsymbol_samples, &mut out);
    out
}

/// [`optimal_icss`] into a reused vector (`out` is cleared, not
/// reallocated): boundaries usually repeat across consecutive symbols of
/// the same collision, so the demod loop rebuilds this set every window.
pub(crate) fn optimal_icss_into(
    boundaries: &Boundaries,
    min_subsymbol_samples: usize,
    out: &mut Vec<SampleRange>,
) {
    out.clear();
    let len = boundaries.window_len();
    for &tau in boundaries.offsets() {
        let left = SampleRange::new(0, tau);
        let right = SampleRange::new(tau, len);
        if left.len() < min_subsymbol_samples || right.len() < min_subsymbol_samples {
            continue;
        }
        out.push(left);
        out.push(right);
    }
    out.push(SampleRange::new(0, len));
    // Few, nearly-sorted elements: unstable sort allocates nothing and
    // (start, end) keys are unique after dedup anyway.
    out.sort_unstable_by_key(|r| (r.start, r.end));
    out.dedup();
}

/// Check the defining ICSS property: no *interferer interval* is covered
/// by every sub-symbol in the set. For interferer boundary `τ`, the
/// previous symbol occupies `[0, τ)` and the next `[τ, len)`; the set
/// cancels that interferer iff some member avoids `[0, τ)` entirely and
/// some member avoids `[τ, len)` entirely.
pub fn cancels_all(icss: &[SampleRange], boundaries: &Boundaries) -> bool {
    boundaries.offsets().iter().all(|&tau| {
        let some_avoids_prev = icss.iter().any(|r| r.start >= tau);
        let some_avoids_next = icss.iter().any(|r| r.end <= tau);
        some_avoids_prev && some_avoids_next
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pairs_plus_full_window() {
        let b = Boundaries::new(1000, vec![300, 700]);
        let icss = optimal_icss(&b, 16);
        assert_eq!(
            icss,
            vec![
                SampleRange::new(0, 300),
                SampleRange::new(0, 700),
                SampleRange::new(0, 1000),
                SampleRange::new(300, 1000),
                SampleRange::new(700, 1000),
            ]
        );
        assert!(cancels_all(&icss, &b));
    }

    #[test]
    fn no_interferers_is_just_full_window() {
        let b = Boundaries::new(64, vec![]);
        assert_eq!(optimal_icss(&b, 16), vec![SampleRange::new(0, 64)]);
    }

    #[test]
    fn short_pieces_skipped() {
        let b = Boundaries::new(1000, vec![5, 500]);
        let icss = optimal_icss(&b, 16);
        // τ=5 would create a 5-sample piece: the whole pair is skipped.
        assert!(!icss.contains(&SampleRange::new(0, 5)));
        assert!(!icss.contains(&SampleRange::new(5, 1000)));
        assert!(icss.contains(&SampleRange::new(0, 500)));
    }

    #[test]
    fn strawman_also_cancels_but_at_worse_resolution() {
        // Sanity: both ICSS choices satisfy the set property; the optimal
        // one additionally contains the long pieces (resolution).
        let b = Boundaries::new(1000, vec![200, 400, 800]);
        assert!(cancels_all(&b.strawman_icss(), &b));
        let opt = optimal_icss(&b, 16);
        assert!(cancels_all(&opt, &b));
        let longest = opt.iter().map(|r| r.len()).max().unwrap();
        assert_eq!(longest, 1000);
    }

    #[test]
    fn into_variant_clears_and_matches() {
        let mut out = vec![SampleRange::new(7, 9); 4];
        let b1 = Boundaries::new(1000, vec![300, 700]);
        optimal_icss_into(&b1, 16, &mut out);
        assert_eq!(out, optimal_icss(&b1, 16));
        // Reuse with different boundaries: previous contents must not leak.
        let b2 = Boundaries::new(64, vec![]);
        optimal_icss_into(&b2, 16, &mut out);
        assert_eq!(out, vec![SampleRange::new(0, 64)]);
    }

    #[test]
    fn duplicate_boundaries_deduplicated() {
        let b = Boundaries::new(100, vec![50]);
        let icss = optimal_icss(&b, 10);
        assert_eq!(icss.len(), 3);
    }

    #[test]
    fn cancels_all_detects_missing_coverage() {
        let b = Boundaries::new(100, vec![50]);
        // A set that never avoids [50, 100) (everyone overlaps the next
        // symbol) does not cancel.
        let bad = vec![SampleRange::new(0, 100), SampleRange::new(40, 100)];
        assert!(!cancels_all(&bad, &b));
    }
}
