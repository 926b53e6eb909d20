//! Power spectra on a fixed frequency grid.
//!
//! A [`Spectrum`] holds per-bin power. In the LoRa context the grid is the
//! `2^SF`-bin symbol grid: after de-chirping, symbol value `s` produces a
//! tone whose energy lands in bin `s`. With `os`-times oversampling the
//! de-chirped tone aliases into two bins of the raw `2^SF * os`-point FFT
//! (`s` and `2^SF * (os-1) + s`); [`Spectrum::folded`] adds those together
//! so that downstream logic always sees the `2^SF`-bin grid.

/// A non-negative power spectrum on a fixed bin grid.
#[derive(Debug, Clone, PartialEq)]
pub struct Spectrum {
    bins: Vec<f64>,
}

impl Spectrum {
    /// Wrap raw per-bin power values.
    ///
    /// Negative values (which can only arise from caller bugs — power is a
    /// squared magnitude) are clamped to zero so that intersection and
    /// normalisation stay well-defined.
    pub fn from_power(mut bins: Vec<f64>) -> Self {
        for b in &mut bins {
            if *b < 0.0 {
                *b = 0.0;
            }
        }
        Self { bins }
    }

    /// Build a folded spectrum from a raw `n_bins * os`-point power FFT of
    /// an oversampled de-chirped signal.
    ///
    /// Bin `k` of the result accumulates raw bins `k` (the pre-fold alias)
    /// and `n_bins * (os - 1) + k` (the post-fold alias, i.e. the part of
    /// the chirp that wrapped from `+B/2` to `-B/2`).
    pub fn folded(raw: &[f64], n_bins: usize, os: usize) -> Self {
        assert!(os >= 1, "oversampling factor must be >= 1");
        assert_eq!(
            raw.len(),
            n_bins * os,
            "raw spectrum length {} != n_bins {} * os {}",
            raw.len(),
            n_bins,
            os
        );
        if os == 1 {
            return Self::from_power(raw.to_vec());
        }
        let hi = n_bins * (os - 1);
        let bins = (0..n_bins).map(|k| raw[k] + raw[hi + k]).collect();
        Self { bins }
    }

    /// Build an **amplitude-folded** spectrum from a raw power FFT: bin
    /// `k` gets `sqrt(raw[k]) + sqrt(raw[n_bins*(os-1)+k])`.
    ///
    /// A rectangular tone of `M` samples has FFT magnitude `A·M`, so when
    /// the band-edge fold splits a symbol into segments of `M₁` and `M₂`
    /// samples, the amplitude sum is `A·(M₁+M₂)` — invariant to where the
    /// fold lands. Power-domain folding (`M₁² + M₂²`) is not, which would
    /// make a full-duration symbol look edge-imbalanced to SED whenever
    /// its fold sits inside one half.
    pub fn folded_amplitude(raw: &[f64], n_bins: usize, os: usize) -> Self {
        assert!(os >= 1, "oversampling factor must be >= 1");
        assert_eq!(
            raw.len(),
            n_bins * os,
            "raw spectrum length {} != n_bins {} * os {}",
            raw.len(),
            n_bins,
            os
        );
        if os == 1 {
            return Self::from_power(raw.iter().map(|p| p.max(0.0).sqrt()).collect());
        }
        let hi = n_bins * (os - 1);
        let bins = (0..n_bins)
            .map(|k| raw[k].max(0.0).sqrt() + raw[hi + k].max(0.0).sqrt())
            .collect();
        Self { bins }
    }

    /// Power-fold an already-transformed padded complex buffer directly:
    /// bin `k` gets `|X[k]|² + |X[n_bins·(os−1)+k]|²` without
    /// materialising the raw power vector first. Bit-identical to
    /// [`Spectrum::folded`] over `|X|²` (same two `f64` terms, added in
    /// the same order) — the raw vector write/read is pure memory traffic
    /// on the hot path.
    pub fn folded_from_complex(buf: &[crate::Cf32], n_bins: usize, os: usize, out: &mut Spectrum) {
        assert!(os >= 1, "oversampling factor must be >= 1");
        assert_eq!(
            buf.len(),
            n_bins * os,
            "padded buffer length {} != n_bins {} * os {}",
            buf.len(),
            n_bins,
            os
        );
        out.bins.clear();
        if os == 1 {
            // `|X|²` is non-negative (or NaN), matching `from_power`'s
            // clamp behaviour on the raw-vector path.
            out.bins.extend(buf.iter().map(|c| {
                let b = c.norm_sqr() as f64;
                if b < 0.0 {
                    0.0
                } else {
                    b
                }
            }));
            return;
        }
        let hi = n_bins * (os - 1);
        out.bins
            .extend((0..n_bins).map(|k| buf[k].norm_sqr() as f64 + buf[hi + k].norm_sqr() as f64));
    }

    /// Amplitude-fold an already-transformed padded complex buffer:
    /// [`Spectrum::folded_amplitude`] without the raw power vector.
    pub fn folded_amplitude_from_complex(
        buf: &[crate::Cf32],
        n_bins: usize,
        os: usize,
        out: &mut Spectrum,
    ) {
        assert!(os >= 1, "oversampling factor must be >= 1");
        assert_eq!(
            buf.len(),
            n_bins * os,
            "padded buffer length {} != n_bins {} * os {}",
            buf.len(),
            n_bins,
            os
        );
        out.bins.clear();
        if os == 1 {
            out.bins
                .extend(buf.iter().map(|c| (c.norm_sqr() as f64).max(0.0).sqrt()));
            return;
        }
        let hi = n_bins * (os - 1);
        out.bins.extend((0..n_bins).map(|k| {
            (buf[k].norm_sqr() as f64).max(0.0).sqrt()
                + (buf[hi + k].norm_sqr() as f64).max(0.0).sqrt()
        }));
    }

    /// Overwrite this spectrum with the bins of `src`, reusing the
    /// existing allocation (the derived `Clone::clone_from` would
    /// reallocate).
    pub fn copy_from(&mut self, src: &Spectrum) {
        self.bins.clear();
        self.bins.extend_from_slice(&src.bins);
    }

    /// Reset to `n` zero bins, reusing the existing allocation.
    pub fn reset_zero(&mut self, n: usize) {
        self.bins.clear();
        self.bins.resize(n, 0.0);
    }

    /// Number of bins.
    pub fn len(&self) -> usize {
        self.bins.len()
    }

    /// True if the spectrum has no bins.
    pub fn is_empty(&self) -> bool {
        self.bins.is_empty()
    }

    /// Per-bin power values.
    pub(crate) fn bins(&self) -> &[f64] {
        &self.bins
    }

    /// Mutable access to per-bin power values.
    pub(crate) fn bins_mut(&mut self) -> &mut [f64] {
        &mut self.bins
    }

    /// Total energy (sum of all bins).
    pub fn total_energy(&self) -> f64 {
        self.bins.iter().sum()
    }

    /// Scale all bins so that the total energy is 1.
    ///
    /// The paper (§5.2) requires all spectra in an ICSS to be normalised to
    /// unit energy before intersection, to remove scaling effects of
    /// different window sizes. A zero spectrum stays zero.
    pub fn normalize_unit_energy(&mut self) {
        let e = self.total_energy();
        if e > 0.0 {
            let k = 1.0 / e;
            for b in &mut self.bins {
                *b *= k;
            }
        }
    }

    /// Unit-energy-normalised copy.
    pub fn normalized(&self) -> Self {
        let mut s = self.clone();
        s.normalize_unit_energy();
        s
    }

    /// Index and power of the strongest bin. Returns `None` for an empty
    /// spectrum.
    pub fn argmax(&self) -> Option<(usize, f64)> {
        self.bins
            .iter()
            .copied()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(&b.1))
    }

    /// Median bin power: a robust noise-floor estimate that a handful of
    /// signal peaks cannot drag upward.
    pub fn median_power(&self) -> f64 {
        self.median_power_with(&mut Vec::new())
    }

    /// [`Spectrum::median_power`] through a reused scratch vector:
    /// allocation-free once `scratch` has capacity, and O(n) selection
    /// instead of a full sort. The returned value is identical (the median
    /// order statistics do not depend on the algorithm).
    pub fn median_power_with(&self, scratch: &mut Vec<f64>) -> f64 {
        if self.bins.is_empty() {
            return 0.0;
        }
        scratch.clear();
        scratch.extend_from_slice(&self.bins);
        let n = scratch.len();
        let (below, mid, _) = scratch.select_nth_unstable_by(n / 2, |a, b| a.total_cmp(b));
        let mid = *mid;
        if n % 2 == 1 {
            mid
        } else {
            // Total-order max of the lower partition == the sorted
            // `v[n/2 - 1]` of the old full-sort implementation.
            let lower = below.iter().copied().fold(f64::NEG_INFINITY, |a, b| {
                if b.total_cmp(&a).is_gt() {
                    b
                } else {
                    a
                }
            });
            0.5 * (lower + mid)
        }
    }
}

impl std::ops::Index<usize> for Spectrum {
    type Output = f64;
    fn index(&self, i: usize) -> &f64 {
        &self.bins[i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fold_adds_alias_bins() {
        // n_bins = 4, os = 2 -> raw has 8 bins; result[k] = raw[k] + raw[4 + k].
        let raw = vec![1.0, 0.0, 0.0, 0.0, 0.5, 2.0, 0.0, 0.0];
        let s = Spectrum::folded(&raw, 4, 2);
        assert_eq!(s.bins(), &[1.5, 2.0, 0.0, 0.0]);
    }

    #[test]
    fn fold_os1_is_identity() {
        let raw = vec![1.0, 2.0, 3.0];
        let s = Spectrum::folded(&raw, 3, 1);
        assert_eq!(s.bins(), &[1.0, 2.0, 3.0]);
    }

    #[test]
    #[should_panic(expected = "raw spectrum length")]
    fn fold_length_mismatch_panics() {
        Spectrum::folded(&[1.0; 7], 4, 2);
    }

    #[test]
    fn normalize_unit_energy_sums_to_one() {
        let mut s = Spectrum::from_power(vec![1.0, 3.0, 4.0]);
        s.normalize_unit_energy();
        assert!((s.total_energy() - 1.0).abs() < 1e-12);
        assert!((s[2] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn normalize_zero_spectrum_stays_zero() {
        let mut s = Spectrum::from_power(vec![0.0; 8]);
        s.normalize_unit_energy();
        assert_eq!(s.total_energy(), 0.0);
    }

    #[test]
    fn argmax_finds_strongest() {
        let s = Spectrum::from_power(vec![0.1, 5.0, 2.0]);
        assert_eq!(s.argmax(), Some((1, 5.0)));
    }

    #[test]
    fn argmax_empty_is_none() {
        let s = Spectrum::from_power(vec![]);
        assert_eq!(s.argmax(), None);
    }

    #[test]
    fn negative_power_clamped() {
        let s = Spectrum::from_power(vec![-1.0, 2.0]);
        assert_eq!(s.bins(), &[0.0, 2.0]);
    }

    #[test]
    fn folded_amplitude_is_duration_invariant() {
        // A tone split M1/M2 across the two alias bins: amplitude folding
        // gives sqrt(M1^2) + sqrt(M2^2) = M1 + M2 regardless of the split;
        // power folding gives M1^2 + M2^2 which is not invariant.
        let m1 = 700.0f64;
        let m2 = 324.0f64;
        let mut raw_a = vec![0.0; 8];
        raw_a[1] = m1 * m1;
        raw_a[5] = m2 * m2; // alias of bin 1 with n_bins=4, os=2
        let a = Spectrum::folded_amplitude(&raw_a, 4, 2);
        let mut raw_b = vec![0.0; 8];
        raw_b[1] = 512.0 * 512.0;
        raw_b[5] = 512.0 * 512.0;
        let b = Spectrum::folded_amplitude(&raw_b, 4, 2);
        assert!((a[1] - (m1 + m2)).abs() < 1e-9);
        assert!((b[1] - 1024.0).abs() < 1e-9);
    }

    #[test]
    fn folded_amplitude_os1_is_sqrt() {
        let s = Spectrum::folded_amplitude(&[4.0, 9.0, 16.0], 3, 1);
        assert_eq!(s.bins(), &[2.0, 3.0, 4.0]);
    }

    #[test]
    fn copy_from_and_reset_zero_reuse() {
        let src = Spectrum::from_power(vec![1.0, 2.0, 3.0]);
        let mut dst = Spectrum::from_power(vec![9.0; 8]);
        dst.copy_from(&src);
        assert_eq!(dst, src);
        dst.reset_zero(5);
        assert_eq!(dst.bins(), &[0.0; 5]);
    }

    #[test]
    fn median_power_with_matches_sort_oracle() {
        let mut scratch = vec![f64::NAN; 3];
        for bins in [
            vec![5.0, 1.0, 4.0, 2.0, 3.0],
            vec![2.0, 1.0, 4.0, 3.0],
            vec![7.0],
            (0..257).map(|i| ((i * 97) % 113) as f64).collect(),
            (0..64).map(|i| ((i * 31) % 17) as f64).collect(),
        ] {
            let mut v = bins.clone();
            v.sort_by(|a, b| a.total_cmp(b));
            let n = v.len();
            let want = if n % 2 == 1 {
                v[n / 2]
            } else {
                0.5 * (v[n / 2 - 1] + v[n / 2])
            };
            let s = Spectrum::from_power(bins);
            assert_eq!(s.median_power_with(&mut scratch), want);
            assert_eq!(s.median_power(), want);
        }
        assert_eq!(
            Spectrum::from_power(vec![]).median_power_with(&mut scratch),
            0.0
        );
    }

    #[test]
    fn median_ignores_single_peak() {
        let mut bins = vec![1.0; 101];
        bins[50] = 1e9;
        let s = Spectrum::from_power(bins);
        assert!((s.median_power() - 1.0).abs() < 1e-12);
    }
}
