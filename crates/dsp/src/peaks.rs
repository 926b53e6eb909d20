//! Peak detection and fractional peak interpolation.
//!
//! The symbol grid is circular (frequency bin `N-1` neighbours bin `0`
//! because the chirp folds at the band edge), so all neighbourhood logic
//! here wraps around.

use crate::spectrum::Spectrum;

/// A detected spectral peak.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Peak {
    /// Integer bin index of the local maximum.
    pub bin: usize,
    /// Power at the maximum.
    pub power: f64,
    /// Sub-bin refined position (sinc-ratio estimator), in bins, wrapped
    /// to `[0, n_bins)`.
    pub frac_bin: f64,
}

/// Find local maxima whose power exceeds `threshold_factor` times the
/// spectrum's median power, strongest first.
///
/// `min_separation` suppresses secondary maxima within that many bins
/// (cyclically) of an already-accepted stronger peak, so one wide lobe is
/// reported once.
pub fn find_peaks(spec: &Spectrum, threshold_factor: f64, min_separation: usize) -> Vec<Peak> {
    let mut out = Vec::new();
    find_peaks_into(
        spec,
        threshold_factor,
        min_separation,
        &mut Vec::new(),
        &mut out,
    );
    out
}

/// [`find_peaks`] into reused buffers: `median_scratch` backs the
/// noise-floor estimate and `out` receives the peaks. Allocation-free once
/// both have capacity; identical results.
pub fn find_peaks_into(
    spec: &Spectrum,
    threshold_factor: f64,
    min_separation: usize,
    median_scratch: &mut Vec<f64>,
    out: &mut Vec<Peak>,
) {
    out.clear();
    let n = spec.len();
    if n < 3 {
        return;
    }
    let floor = spec.median_power_with(median_scratch);
    let threshold = if floor > 0.0 {
        floor * threshold_factor
    } else {
        0.0
    };

    for i in 0..n {
        let prev = spec[(i + n - 1) % n];
        let next = spec[(i + 1) % n];
        let p = spec[i];
        // Strict on one side so plateaus report a single peak.
        if p > prev && p >= next && p > threshold && p > 0.0 {
            out.push(Peak {
                bin: i,
                power: p,
                frac_bin: refine_sinc(spec, i),
            });
        }
    }
    // Candidates were collected in ascending-bin order, so an unstable
    // sort with a bin tie-break reproduces the stable power-descending
    // order without the stable sort's temp allocation.
    out.sort_unstable_by(|a, b| b.power.total_cmp(&a.power).then(a.bin.cmp(&b.bin)));

    if min_separation == 0 {
        return;
    }
    // In-place greedy suppression: keep a peak iff it clears every
    // already-kept (stronger) peak by more than `min_separation` bins.
    let mut kept = 0usize;
    for i in 0..out.len() {
        let c = out[i];
        let clear = out[..kept]
            .iter()
            .all(|a| cyclic_bin_distance(c.bin, a.bin, n) > min_separation);
        if clear {
            out[kept] = c;
            kept += 1;
        }
    }
    out.truncate(kept);
}

/// Sub-bin peak refinement for **rectangular-window tones** (every LoRa
/// de-chirped window is one): exact amplitude-ratio estimator.
///
/// A tone at bin `k + δ` observed through a rectangular window has
/// `|X[k]| ∝ |sinc(δ)| = sin(πδ)/(πδ)` and
/// `|X[k+1]| ∝ |sinc(δ-1)| = sin(πδ)/(π(1-δ))`, so
/// `|X[k+1]| / |X[k]| = δ/(1-δ)` and `δ = a₁/(a₀+a₁)` with amplitudes
/// `aᵢ = sqrt(power)`. Parabolic interpolation on the *power* spectrum is
/// badly biased for this shape (≈0.14 estimated for a true δ of 0.4),
/// which is fatal for fractional-CFO feature filters.
pub fn refine_sinc(spec: &Spectrum, i: usize) -> f64 {
    let n = spec.len();
    if n < 3 {
        return i as f64;
    }
    let a0 = spec[i].max(0.0).sqrt();
    let a_left = spec[(i + n - 1) % n].max(0.0).sqrt();
    let a_right = spec[(i + 1) % n].max(0.0).sqrt();
    if a0 <= 0.0 {
        return i as f64;
    }
    let (a1, sign) = if a_right >= a_left {
        (a_right, 1.0)
    } else {
        (a_left, -1.0)
    };
    let delta = (a1 / (a0 + a1)).clamp(0.0, 0.5) * sign;
    crate::math::wrap(i as f64 + delta, n as f64)
}

/// [`refine_sinc`] for a spectrum whose bins are **amplitudes** (e.g. an
/// amplitude-folded LoRa spectrum): the ratio estimator applied without
/// the square root.
///
/// This matters for band-edge-folded symbols: the fold splits the tone
/// into two incoherent segments, and their leakage adds as amplitudes in
/// an amplitude-folded spectrum — each segment contributes the *same*
/// `δ/(1-δ)` neighbour ratio, so the estimator stays exact — whereas in a
/// power-folded spectrum the segment powers add and the ratio is biased.
pub fn refine_sinc_amp(spec: &Spectrum, i: usize) -> f64 {
    let n = spec.len();
    if n < 3 {
        return i as f64;
    }
    let a0 = spec[i];
    let a_left = spec[(i + n - 1) % n];
    let a_right = spec[(i + 1) % n];
    if a0 <= 0.0 {
        return i as f64;
    }
    let (a1, sign) = if a_right >= a_left {
        (a_right, 1.0)
    } else {
        (a_left, -1.0)
    };
    let delta = (a1 / (a0 + a1)).clamp(0.0, 0.5) * sign;
    crate::math::wrap(i as f64 + delta, n as f64)
}

/// Cyclic distance between two bin indices on an `n`-bin circle.
pub fn cyclic_bin_distance(a: usize, b: usize, n: usize) -> usize {
    let d = a.abs_diff(b) % n;
    d.min(n - d)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spectrum::Spectrum;

    fn sp(v: &[f64]) -> Spectrum {
        Spectrum::from_power(v.to_vec())
    }

    #[test]
    fn finds_isolated_peaks_strongest_first() {
        let mut v = vec![0.1; 32];
        v[5] = 2.0;
        v[20] = 5.0;
        let peaks = find_peaks(&sp(&v), 3.0, 1);
        assert_eq!(peaks.len(), 2);
        assert_eq!(peaks[0].bin, 20);
        assert_eq!(peaks[1].bin, 5);
    }

    #[test]
    fn threshold_rejects_noise_bumps() {
        let mut v = vec![1.0; 32];
        v[3] = 1.3; // small bump, below 3x median
        v[17] = 9.0;
        let peaks = find_peaks(&sp(&v), 3.0, 1);
        assert_eq!(peaks.len(), 1);
        assert_eq!(peaks[0].bin, 17);
    }

    #[test]
    fn min_separation_merges_wide_lobe() {
        let mut v = vec![0.01; 32];
        v[10] = 8.0;
        v[11] = 7.0; // also a strict local max against v[12]? no: 7 < 8 neighbour
        v[12] = 7.5; // shoulder peak 2 bins away
        let peaks = find_peaks(&sp(&v), 3.0, 3);
        assert_eq!(peaks.len(), 1);
        assert_eq!(peaks[0].bin, 10);
    }

    #[test]
    fn wraps_around_edges() {
        let mut v = vec![0.01; 16];
        v[0] = 5.0;
        v[15] = 4.0; // neighbour of 0 across the wrap: suppressed by separation
        let peaks = find_peaks(&sp(&v), 3.0, 1);
        assert_eq!(peaks.len(), 1);
        assert_eq!(peaks[0].bin, 0);
    }

    #[test]
    fn sinc_estimator_exact_on_rect_tone_powers() {
        // Sample |sinc|^2 of a rectangular-window tone at bin 10 + delta;
        // the amplitude-ratio estimator must recover delta exactly.
        let n = 64usize;
        for delta in [0.0, 0.1, 0.25, 0.41, 0.49] {
            let v: Vec<f64> = (0..n)
                .map(|k| {
                    let x = k as f64 - (10.0 + delta);
                    let s = crate::math::sinc(x);
                    s * s
                })
                .collect();
            let est = refine_sinc(&Spectrum::from_power(v), 10);
            assert!(
                (est - (10.0 + delta)).abs() < 1e-6,
                "delta {delta}: est {est}"
            );
        }
    }

    #[test]
    fn sinc_estimator_negative_offsets() {
        let n = 64usize;
        let delta = -0.3;
        let v: Vec<f64> = (0..n)
            .map(|k| {
                let x = k as f64 - (10.0 + delta);
                let s = crate::math::sinc(x);
                s * s
            })
            .collect();
        let est = refine_sinc(&Spectrum::from_power(v), 10);
        assert!((est - (10.0 + delta)).abs() < 1e-6, "est {est}");
    }

    #[test]
    fn sinc_amp_estimator_on_amplitude_bins() {
        let n = 64usize;
        let delta = 0.37;
        let v: Vec<f64> = (0..n)
            .map(|k| crate::math::sinc(k as f64 - (10.0 + delta)).abs())
            .collect();
        let est = refine_sinc_amp(&Spectrum::from_power(v), 10);
        assert!((est - (10.0 + delta)).abs() < 1e-6, "est {est}");
    }

    #[test]
    fn find_peaks_into_matches_wrapper_with_dirty_buffers() {
        let mut v = vec![0.2; 48];
        v[3] = 4.0;
        v[4] = 4.0; // plateau
        v[19] = 9.0;
        v[21] = 8.5; // inside separation of 19
        v[40] = 6.0;
        let spec = sp(&v);
        for sep in [0usize, 1, 3] {
            let want = find_peaks(&spec, 3.0, sep);
            let mut scratch = vec![f64::NAN; 2];
            let mut out = vec![
                Peak {
                    bin: 999,
                    power: -1.0,
                    frac_bin: 0.0
                };
                7
            ];
            find_peaks_into(&spec, 3.0, sep, &mut scratch, &mut out);
            assert_eq!(out, want, "sep={sep}");
        }
    }

    #[test]
    fn cyclic_distance_examples() {
        assert_eq!(cyclic_bin_distance(1, 255, 256), 2);
        assert_eq!(cyclic_bin_distance(0, 128, 256), 128);
        assert_eq!(cyclic_bin_distance(5, 5, 256), 0);
    }

    #[test]
    fn tiny_spectrum_no_panic() {
        assert!(find_peaks(&sp(&[1.0, 2.0]), 1.0, 0).is_empty());
    }
}
