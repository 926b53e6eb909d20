//! The shared re-modulate/subtract core.
//!
//! Successive interference cancellation removes a decoded packet from a
//! capture by fitting a least-squares complex gain between the buffered
//! samples and the regenerated unit-amplitude reference waveform, then
//! subtracting the scaled reference in place:
//!
//! ```text
//!   g = <r, f> / <f, f>        r <- r - g·f
//! ```
//!
//! The same kernel serves the hybrid CIC+SIC receiver
//! ([`crate::sic::ResidualBuffer`]) and the mLoRa baseline
//! (`lora-baselines`). Accumulation is in `f64` (the spans run to
//! hundreds of thousands of samples at SF 12); the production kernel
//! splits the sum over four accumulators so the compiler can keep the
//! multiply-adds pipelined, and a test-only straight-line oracle pins it.

use lora_dsp::{Cf32, Cf64};

/// Number of parallel accumulators in the production kernel.
const LANES: usize = 4;

/// Cross-correlation `<r, f>` and reference energy `<f, f>` over the
/// common prefix of `residual` and `reference`, accumulated in `f64`.
pub(crate) fn correlate(residual: &[Cf32], reference: &[Cf32]) -> (Cf64, f64) {
    let n = residual.len().min(reference.len());
    let (r, f) = (&residual[..n], &reference[..n]);
    let mut re = [0.0f64; LANES];
    let mut im = [0.0f64; LANES];
    let mut den = [0.0f64; LANES];
    let rc = r.chunks_exact(LANES);
    let fc = f.chunks_exact(LANES);
    let (r_rem, f_rem) = (rc.remainder(), fc.remainder());
    for (rq, fq) in rc.zip(fc) {
        for l in 0..LANES {
            let p = rq[l] * fq[l].conj();
            re[l] += p.re as f64;
            im[l] += p.im as f64;
            den[l] += fq[l].norm_sqr() as f64;
        }
    }
    let mut num = Cf64::new(re.iter().sum(), im.iter().sum());
    let mut d: f64 = den.iter().sum();
    for (rr, ff) in r_rem.iter().zip(f_rem) {
        let p = rr * ff.conj();
        num += Cf64::new(p.re as f64, p.im as f64);
        d += ff.norm_sqr() as f64;
    }
    (num, d)
}

/// Least-squares complex gain `g = <r, f> / <f, f>`, or `None` when the
/// reference carries no energy over the common span.
pub(crate) fn ls_gain(residual: &[Cf32], reference: &[Cf32]) -> Option<Cf64> {
    let (num, den) = correlate(residual, reference);
    (den > 0.0).then(|| num / den)
}

/// Subtract `gain · reference` from `residual` in place over their common
/// prefix. The gain is applied in `f32` — the same precision the samples
/// carry.
pub(crate) fn subtract_scaled(residual: &mut [Cf32], reference: &[Cf32], gain: Cf64) {
    let g = Cf32::new(gain.re as f32, gain.im as f32);
    let n = residual.len().min(reference.len());
    for (r, f) in residual[..n].iter_mut().zip(&reference[..n]) {
        *r -= g * f;
    }
}

/// Fit the least-squares gain for `reference` placed at `frame_start` in
/// `residual` and subtract the scaled reference in place, clipping the
/// span to the capture end. Returns the fitted gain, or `None` when the
/// spans do not overlap or the reference has no energy there (nothing is
/// subtracted in that case).
pub fn project_out(residual: &mut [Cf32], reference: &[Cf32], frame_start: usize) -> Option<Cf64> {
    if frame_start >= residual.len() {
        return None;
    }
    let end = (frame_start + reference.len()).min(residual.len());
    let n = end - frame_start;
    if n == 0 {
        return None;
    }
    let g = ls_gain(&residual[frame_start..end], &reference[..n])?;
    subtract_scaled(&mut residual[frame_start..end], &reference[..n], g);
    Some(g)
}

/// Straight-line reference implementations: one accumulator, strictly
/// sequential summation. The production kernels above must agree with
/// these to within `f64` reassociation error. Test-only: the kernel tests
/// below are their only callers.
#[cfg(test)]
mod scalar {
    use super::{Cf32, Cf64};

    /// Sequential-sum counterpart of [`super::correlate`].
    pub(super) fn correlate(residual: &[Cf32], reference: &[Cf32]) -> (Cf64, f64) {
        let mut num = Cf64::new(0.0, 0.0);
        let mut den = 0.0f64;
        for (r, f) in residual.iter().zip(reference) {
            let p = r * f.conj();
            num += Cf64::new(p.re as f64, p.im as f64);
            den += f.norm_sqr() as f64;
        }
        (num, den)
    }

    /// Element-by-element counterpart of [`super::subtract_scaled`].
    pub(super) fn subtract_scaled(residual: &mut [Cf32], reference: &[Cf32], gain: Cf64) {
        let g = Cf32::new(gain.re as f32, gain.im as f32);
        for (r, f) in residual.iter_mut().zip(reference) {
            *r -= g * f;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    fn noise(rng: &mut StdRng, n: usize) -> Vec<Cf32> {
        (0..n)
            .map(|_| {
                Cf32::new(
                    rng.random_range(-1.0f32..1.0),
                    rng.random_range(-1.0f32..1.0),
                )
            })
            .collect()
    }

    #[test]
    fn kernel_matches_scalar_oracle() {
        let mut rng = StdRng::seed_from_u64(11);
        for n in [0usize, 1, 3, 4, 7, 64, 1023, 4096] {
            let r = noise(&mut rng, n);
            let f = noise(&mut rng, n);
            let (num, den) = correlate(&r, &f);
            let (snum, sden) = scalar::correlate(&r, &f);
            assert!(
                (num - snum).norm() <= 1e-9 * (1.0 + snum.norm()),
                "n={n}: {num} vs {snum}"
            );
            assert!((den - sden).abs() <= 1e-9 * (1.0 + sden), "n={n}");

            let g = Cf64::new(0.8, -0.3);
            let mut a = r.clone();
            let mut b = r.clone();
            subtract_scaled(&mut a, &f, g);
            scalar::subtract_scaled(&mut b, &f, g);
            assert_eq!(a, b, "subtract_scaled is element-wise exact");
        }
    }

    #[test]
    fn ls_gain_recovers_known_scale() {
        let mut rng = StdRng::seed_from_u64(12);
        let f = noise(&mut rng, 2048);
        let g = Cf64::new(1.7, -0.4);
        let r: Vec<Cf32> = f
            .iter()
            .map(|c| Cf32::new(g.re as f32, g.im as f32) * c)
            .collect();
        let est = ls_gain(&r, &f).unwrap();
        assert!((est - g).norm() < 1e-5, "estimated {est}");
    }

    #[test]
    fn project_out_nulls_a_scaled_copy() {
        let mut rng = StdRng::seed_from_u64(13);
        let f = noise(&mut rng, 1024);
        let mut cap = noise(&mut rng, 4096);
        for c in cap.iter_mut() {
            *c *= 1e-3;
        }
        let g = Cf32::new(-0.6, 1.1);
        for (c, w) in cap[500..500 + 1024].iter_mut().zip(&f) {
            *c += g * w;
        }
        let before = lora_dsp::math::energy(&cap[500..500 + 1024]);
        let got = project_out(&mut cap, &f, 500).unwrap();
        let after = lora_dsp::math::energy(&cap[500..500 + 1024]);
        assert!((got - Cf64::new(g.re as f64, g.im as f64)).norm() < 1e-3);
        assert!(after < before / 1e4, "left {after:.3e} of {before:.3e}");
    }

    #[test]
    fn project_out_clips_to_capture_end() {
        let mut rng = StdRng::seed_from_u64(14);
        let f = noise(&mut rng, 1000);
        let mut cap = vec![Cf32::new(0.0, 0.0); 1200];
        for (c, w) in cap[800..].iter_mut().zip(&f) {
            *c += *w;
        }
        assert!(project_out(&mut cap, &f, 800).is_some());
        assert!(lora_dsp::math::energy(&cap) < 1e-9);
        assert!(project_out(&mut cap, &f, 1200).is_none());
        assert!(project_out(&mut cap, &[], 0).is_none());
    }
}
