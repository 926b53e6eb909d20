//! Spectral intersection — the core operator of CIC (paper §5.2).
//!
//! CIC never extracts peaks from individual sub-symbol spectra. Instead it
//! computes the bin-wise **minimum** across all unit-energy-normalised
//! spectra in an ICSS: a frequency survives only if it carries energy in
//! *every* spectrum, which is exactly set intersection over constituent
//! frequencies (the symbol being decoded is the only frequency present in
//! all sub-symbols).
//!
//! The operator inherits two properties the paper relies on:
//!
//! * **P1** — commutative and associative (it is a pointwise `min`), so the
//!   ICSS spectra can be folded in any order;
//! * **P2** — at each frequency it preserves the *best* (highest)
//!   resolution among the inputs: a narrow peak min'd with a wide peak at
//!   the same centre keeps the narrow skirt.

use crate::spectrum::Spectrum;

/// Bin-wise minimum of two spectra (both normalised by the caller when the
/// paper's semantics are wanted). Panics on length mismatch — all CIC
/// spectra live on one shared grid by construction.
pub fn spectral_intersection(a: &Spectrum, b: &Spectrum) -> Spectrum {
    assert_eq!(
        a.len(),
        b.len(),
        "spectral_intersection: grids differ ({} vs {})",
        a.len(),
        b.len()
    );
    Spectrum::from_power(
        a.bins()
            .iter()
            .zip(b.bins())
            .map(|(x, y)| x.min(*y))
            .collect(),
    )
}

/// Fold `src` into the running intersection `acc` in place.
pub fn spectral_intersection_into(acc: &mut Spectrum, src: &Spectrum) {
    assert_eq!(
        acc.len(),
        src.len(),
        "spectral_intersection_into: grids differ ({} vs {})",
        acc.len(),
        src.len()
    );
    for (a, s) in acc.bins_mut().iter_mut().zip(src.bins()) {
        *a = a.min(*s);
    }
}

/// Intersection of many spectra, normalising each to unit energy first
/// (paper §5.2: "prior to computing the intersection, all estimated
/// spectra must be normalized to have unit energy" — required when the
/// windows have different sizes, as in an ICSS).
///
/// Returns `None` when `spectra` is empty.
pub fn intersect_normalized(spectra: &[Spectrum]) -> Option<Spectrum> {
    let mut iter = spectra.iter();
    let mut acc = iter.next()?.normalized();
    for s in iter {
        spectral_intersection_into(&mut acc, &s.normalized());
    }
    Some(acc)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(v: &[f64]) -> Spectrum {
        Spectrum::from_power(v.to_vec())
    }

    #[test]
    fn min_is_pointwise() {
        let a = sp(&[1.0, 5.0, 0.0, 2.0]);
        let b = sp(&[3.0, 1.0, 4.0, 2.0]);
        let c = spectral_intersection(&a, &b);
        assert_eq!(c.bins(), &[1.0, 1.0, 0.0, 2.0]);
    }

    #[test]
    fn commutative_p1() {
        let a = sp(&[1.0, 5.0, 0.5]);
        let b = sp(&[3.0, 1.0, 4.0]);
        assert_eq!(spectral_intersection(&a, &b), spectral_intersection(&b, &a));
    }

    #[test]
    fn associative_p1() {
        let a = sp(&[1.0, 5.0, 0.5, 9.0]);
        let b = sp(&[3.0, 1.0, 4.0, 9.0]);
        let c = sp(&[2.0, 2.0, 2.0, 0.1]);
        let ab_c = spectral_intersection(&spectral_intersection(&a, &b), &c);
        let a_bc = spectral_intersection(&a, &spectral_intersection(&b, &c));
        assert_eq!(ab_c, a_bc);
    }

    #[test]
    fn idempotent() {
        let a = sp(&[1.0, 5.0, 0.5]);
        assert_eq!(spectral_intersection(&a, &a), a);
    }

    #[test]
    fn cancels_disjoint_peaks_keeps_common() {
        // Spectrum 1 has peaks at bins 2 (common) and 5 (interferer A);
        // spectrum 2 has peaks at bins 2 and 7 (interferer B).
        let mut a = vec![0.01; 10];
        a[2] = 1.0;
        a[5] = 1.0;
        let mut b = vec![0.01; 10];
        b[2] = 1.0;
        b[7] = 1.0;
        let i = spectral_intersection(&sp(&a), &sp(&b));
        assert_eq!(i.argmax().unwrap().0, 2);
        assert!(i[5] < 0.02 && i[7] < 0.02);
    }

    #[test]
    fn p2_preserves_higher_resolution() {
        // A wide (low-res) peak centred at bin 4 min'd with a narrow
        // (high-res) peak at bin 4: the result must have the narrow skirt.
        let wide = sp(&[0.0, 0.1, 0.5, 0.9, 1.0, 0.9, 0.5, 0.1, 0.0]);
        let narrow = sp(&[0.0, 0.0, 0.0, 0.2, 1.0, 0.2, 0.0, 0.0, 0.0]);
        let i = spectral_intersection(&wide, &narrow);
        assert_eq!(i.bins(), narrow.bins());
    }

    #[test]
    fn into_matches_functional() {
        let a = sp(&[1.0, 5.0, 0.5]);
        let b = sp(&[3.0, 1.0, 4.0]);
        let mut acc = a.clone();
        spectral_intersection_into(&mut acc, &b);
        assert_eq!(acc, spectral_intersection(&a, &b));
    }

    #[test]
    fn intersect_normalized_unit_energy_inputs() {
        let mut a = vec![0.0; 8];
        a[1] = 3.0; // will normalise to 1 regardless of scale
        let mut b = vec![0.0; 8];
        b[1] = 0.5;
        let i = intersect_normalized(&[sp(&a), sp(&b)]).unwrap();
        assert_eq!(i.argmax().unwrap().0, 1);
        assert!((i[1] - 1.0).abs() < 1e-12, "scale must not matter");
    }

    #[test]
    fn intersect_normalized_empty_is_none() {
        assert!(intersect_normalized(&[]).is_none());
    }

    #[test]
    #[should_panic(expected = "grids differ")]
    fn mismatched_grids_panic() {
        spectral_intersection(&sp(&[1.0]), &sp(&[1.0, 2.0]));
    }
}
