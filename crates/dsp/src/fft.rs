//! FFT engine with cached plans.
//!
//! Every spectrum in CIC is estimated on the same `2^SF * os`-point grid, so
//! the engine keeps per-length plans in a small cache and provides a
//! zero-padding transform so short sub-symbol windows land on that grid.

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::Arc;

use rustfft::{Fft, FftPlanner};

use crate::Cf32;

/// A forward/inverse FFT engine with plan caching.
///
/// Not `Sync`: each worker thread owns its own engine (plans are cheap to
/// create once and the demodulator is parallelised per symbol, so sharing a
/// locked planner would only add contention).
pub struct FftEngine {
    planner: RefCell<FftPlanner<f32>>,
    forward: RefCell<HashMap<usize, Arc<dyn Fft<f32>>>>,
    inverse: RefCell<HashMap<usize, Arc<dyn Fft<f32>>>>,
    /// Per-length rustfft scratch, cached beside the plans so the
    /// steady-state `_into` entry points never allocate (power-of-two
    /// plans need none; Bluestein needs a work buffer).
    scratch: RefCell<HashMap<usize, Vec<Cf32>>>,
}

impl Default for FftEngine {
    fn default() -> Self {
        Self::new()
    }
}

impl FftEngine {
    /// Create an engine with an empty plan cache.
    pub fn new() -> Self {
        Self {
            planner: RefCell::new(FftPlanner::new()),
            forward: RefCell::new(HashMap::new()),
            inverse: RefCell::new(HashMap::new()),
            scratch: RefCell::new(HashMap::new()),
        }
    }

    fn plan_forward(&self, n: usize) -> Arc<dyn Fft<f32>> {
        self.forward
            .borrow_mut()
            .entry(n)
            .or_insert_with(|| self.planner.borrow_mut().plan_fft_forward(n))
            .clone()
    }

    fn plan_inverse(&self, n: usize) -> Arc<dyn Fft<f32>> {
        self.inverse
            .borrow_mut()
            .entry(n)
            .or_insert_with(|| self.planner.borrow_mut().plan_fft_inverse(n))
            .clone()
    }

    /// In-place forward FFT of `buf`.
    pub fn forward(&self, buf: &mut [Cf32]) {
        if buf.is_empty() {
            return;
        }
        self.plan_forward(buf.len()).process(buf);
    }

    /// In-place inverse FFT of `buf`, scaled by `1/N` so that
    /// `inverse(forward(x)) == x`.
    ///
    /// For tests only: it is the oracle of the forward transform's
    /// round-trip tests. No production path calls it.
    pub fn inverse(&self, buf: &mut [Cf32]) {
        let n = buf.len();
        if n == 0 {
            return;
        }
        self.plan_inverse(n).process(buf);
        let k = 1.0 / n as f32;
        for c in buf.iter_mut() {
            *c *= k;
        }
    }

    /// In-place forward FFT of `buf` through the cached per-length scratch
    /// buffer and the optimised kernel: no allocation once the plan and
    /// scratch for this length are warm. Results are numerically identical
    /// to [`FftEngine::forward`] (every element compares `==`).
    pub(crate) fn forward_scratch(&self, buf: &mut [Cf32]) {
        if buf.is_empty() {
            return;
        }
        let plan = self.plan_forward(buf.len());
        let need = plan.get_inplace_scratch_len();
        if need == 0 {
            // Power-of-two plans are scratch-free; this still routes
            // through the optimised hot-path kernel (unlike `forward`,
            // which runs the reference kernel).
            plan.process_with_scratch(buf, &mut []);
            return;
        }
        // Move the scratch out of the cache so no RefCell borrow is held
        // across `process_with_scratch` (a plan length can recursively hit
        // the engine only through caller bugs, but cheap insurance).
        let mut scratch = self
            .scratch
            .borrow_mut()
            .remove(&buf.len())
            .unwrap_or_default();
        if scratch.len() < need {
            scratch.resize(need, Cf32::new(0.0, 0.0));
        }
        plan.process_with_scratch(buf, &mut scratch);
        self.scratch.borrow_mut().insert(buf.len(), scratch);
    }

    /// Forward FFT of `x` zero-padded (or truncated) to `n` points,
    /// returning a fresh buffer. Zero-padding interpolates the spectrum on
    /// a denser grid without changing its resolution — this is how
    /// sub-symbol spectra are placed on the common CIC frequency grid.
    pub(crate) fn forward_padded(&self, x: &[Cf32], n: usize) -> Vec<Cf32> {
        let mut buf = vec![Cf32::new(0.0, 0.0); n];
        let m = x.len().min(n);
        buf[..m].copy_from_slice(&x[..m]);
        self.forward(&mut buf);
        buf
    }

    /// `FftEngine::forward_padded` into a reused buffer: `buf` is
    /// cleared, zero-filled to `n` and transformed in place. Allocation-free
    /// once `buf` has capacity and the plan is warm; bit-identical output.
    pub fn forward_padded_into(&self, x: &[Cf32], n: usize, buf: &mut Vec<Cf32>) {
        buf.clear();
        buf.resize(n, Cf32::new(0.0, 0.0));
        let m = x.len().min(n);
        buf[..m].copy_from_slice(&x[..m]);
        self.forward_scratch(buf);
    }

    /// Power spectrum (`|X[k]|^2`) of `x` zero-padded to `n` points.
    pub fn power_spectrum_padded(&self, x: &[Cf32], n: usize) -> Vec<f64> {
        let buf = self.forward_padded(x, n);
        buf.iter().map(|c| c.norm_sqr() as f64).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f32::consts::TAU;

    fn tone(n: usize, bin: f32) -> Vec<Cf32> {
        (0..n)
            .map(|i| Cf32::from_polar(1.0, TAU * bin * i as f32 / n as f32))
            .collect()
    }

    #[test]
    fn forward_peak_at_tone_bin() {
        let eng = FftEngine::new();
        let mut x = tone(256, 37.0);
        eng.forward(&mut x);
        let max = x
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.norm().total_cmp(&b.1.norm()))
            .unwrap()
            .0;
        assert_eq!(max, 37);
    }

    #[test]
    fn roundtrip_identity() {
        let eng = FftEngine::new();
        let orig = tone(128, 5.5);
        let mut x = orig.clone();
        eng.forward(&mut x);
        eng.inverse(&mut x);
        for (a, b) in x.iter().zip(&orig) {
            assert!((a - b).norm() < 1e-4);
        }
    }

    #[test]
    fn padded_peak_position_scales() {
        // A length-64 tone at bin 8, padded to 256, peaks at bin 32.
        let eng = FftEngine::new();
        let x = tone(64, 8.0);
        let p = eng.power_spectrum_padded(&x, 256);
        let max = p
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .unwrap()
            .0;
        assert_eq!(max, 32);
    }

    #[test]
    fn padded_preserves_energy_parseval() {
        let eng = FftEngine::new();
        let x = tone(100, 3.0);
        let time_energy: f64 = x.iter().map(|c| c.norm_sqr() as f64).sum();
        let n = 256;
        let spec = eng.power_spectrum_padded(&x, n);
        let freq_energy: f64 = spec.iter().sum::<f64>() / n as f64;
        assert!(
            (time_energy - freq_energy).abs() / time_energy < 1e-4,
            "Parseval violated: {time_energy} vs {freq_energy}"
        );
    }

    #[test]
    fn non_power_of_two_lengths_work() {
        let eng = FftEngine::new();
        let mut x = tone(240, 10.0);
        let orig = x.clone();
        eng.forward(&mut x);
        eng.inverse(&mut x);
        for (a, b) in x.iter().zip(&orig) {
            assert!((a - b).norm() < 1e-4);
        }
    }

    #[test]
    fn empty_buffer_is_noop() {
        let eng = FftEngine::new();
        let mut x: Vec<Cf32> = vec![];
        eng.forward(&mut x);
        eng.inverse(&mut x);
        assert!(x.is_empty());
    }

    #[test]
    fn plan_cache_reuse_gives_same_result() {
        let eng = FftEngine::new();
        let x = tone(128, 9.0);
        let a = eng.power_spectrum_padded(&x, 128);
        let b = eng.power_spectrum_padded(&x, 128);
        assert_eq!(a, b);
    }

    #[test]
    fn into_variants_bit_identical_pow2_and_non_pow2() {
        // The scratch path must reproduce the fresh-buffer path exactly —
        // the demod equivalence suite depends on it. Cover the radix-2
        // (power-of-two) and Bluestein (other) kernels, with the reused
        // buffers deliberately left dirty between calls.
        let eng = FftEngine::new();
        let mut buf = vec![Cf32::new(9.0, -9.0); 7];
        for n in [256usize, 1024, 100, 240] {
            let x = tone(60, 8.25);
            let fresh_c = eng.forward_padded(&x, n);
            for _ in 0..2 {
                eng.forward_padded_into(&x, n, &mut buf);
                assert_eq!(buf, fresh_c, "complex mismatch at n={n}");
            }
        }
    }

    #[test]
    fn into_variants_allocation_reuse_shrinks_and_grows() {
        // Switching between lengths must stay correct (buffers resize).
        let eng = FftEngine::new();
        let mut buf = Vec::new();
        let x = tone(64, 8.0);
        for n in [256usize, 64, 240] {
            eng.forward_padded_into(&x, n, &mut buf);
            assert_eq!(buf, eng.forward_padded(&x, n), "mismatch at n={n}");
        }
    }
}
