//! Planar FIR kernels for the channelizer hot loop.
//!
//! The channelizer stores its mixed-down history as separate re/im `f32`
//! planes so the per-output-instant convolution is a pair of straight
//! contiguous dot products the compiler autovectorises on stable Rust
//! (no `std::simd`, no intrinsics). Four independent accumulators per
//! plane break the floating-point add dependency chain, letting the
//! backend keep packed multiply-add pipelines full; `chunks_exact`
//! removes every bounds check from the sweep.

/// Dot products of `taps` against the planar window `(re, im)`:
/// returns `(Σ taps[k]·re[k], Σ taps[k]·im[k])`.
///
/// All three slices must have equal length. The caller passes the taps
/// *pre-reversed*, so this forward sweep over a contiguous window of the
/// history planes evaluates the FIR convolution at one output instant.
#[inline]
pub(crate) fn fir_dot(taps: &[f32], re: &[f32], im: &[f32]) -> (f32, f32) {
    assert_eq!(taps.len(), re.len());
    assert_eq!(taps.len(), im.len());
    let mut ar = [0.0f32; 4];
    let mut ai = [0.0f32; 4];
    let t4 = taps.chunks_exact(4);
    let r4 = re.chunks_exact(4);
    let i4 = im.chunks_exact(4);
    let (tr, rr, ir) = (t4.remainder(), r4.remainder(), i4.remainder());
    for ((t, r), i) in t4.zip(r4).zip(i4) {
        ar[0] += t[0] * r[0];
        ar[1] += t[1] * r[1];
        ar[2] += t[2] * r[2];
        ar[3] += t[3] * r[3];
        ai[0] += t[0] * i[0];
        ai[1] += t[1] * i[1];
        ai[2] += t[2] * i[2];
        ai[3] += t[3] * i[3];
    }
    for ((&t, &r), &i) in tr.iter().zip(rr).zip(ir) {
        ar[0] += t * r;
        ai[0] += t * i;
    }
    (
        (ar[0] + ar[1]) + (ar[2] + ar[3]),
        (ai[0] + ai[1]) + (ai[2] + ai[3]),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive(taps: &[f32], re: &[f32], im: &[f32]) -> (f64, f64) {
        let mut a = (0.0f64, 0.0f64);
        for k in 0..taps.len() {
            a.0 += taps[k] as f64 * re[k] as f64;
            a.1 += taps[k] as f64 * im[k] as f64;
        }
        a
    }

    /// Deterministic pseudo-random f32 in [-1, 1) (no RNG dependency).
    fn lcg_fill(seed: &mut u64, n: usize) -> Vec<f32> {
        (0..n)
            .map(|_| {
                *seed = seed
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((*seed >> 40) as f32 / (1u64 << 23) as f32) - 1.0
            })
            .collect()
    }

    #[test]
    fn matches_naive_for_all_remainder_lengths() {
        let mut seed = 7u64;
        for n in [1usize, 2, 3, 4, 5, 7, 8, 15, 53, 64, 165] {
            let taps = lcg_fill(&mut seed, n);
            let re = lcg_fill(&mut seed, n);
            let im = lcg_fill(&mut seed, n);
            let (gr, gi) = fir_dot(&taps, &re, &im);
            let (wr, wi) = naive(&taps, &re, &im);
            assert!(
                (gr as f64 - wr).abs() < 1e-4 && (gi as f64 - wi).abs() < 1e-4,
                "n={n}: got ({gr}, {gi}), want ({wr}, {wi})"
            );
        }
    }

    #[test]
    fn zero_taps_give_zero() {
        let (r, i) = fir_dot(&[0.0; 9], &[1.0; 9], &[-1.0; 9]);
        assert_eq!((r, i), (0.0, 0.0));
    }
}
