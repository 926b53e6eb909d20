//! Random distributions used by the channel models.
//!
//! We only need Gaussian and exponential variates; implementing them on
//! top of `rand`'s uniform source keeps the dependency set to the
//! pre-approved crates (see DESIGN.md).

use rand::{Rng, RngExt};

/// Standard normal variate via the Box–Muller transform.
pub(crate) fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    // Avoid ln(0) by sampling the half-open interval away from zero.
    let u1: f64 = loop {
        let u: f64 = rng.random();
        if u > 1e-300 {
            break u;
        }
    };
    let u2: f64 = rng.random();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// Normal variate with the given mean and standard deviation.
pub(crate) fn normal<R: Rng + ?Sized>(rng: &mut R, mean: f64, std_dev: f64) -> f64 {
    mean + std_dev * standard_normal(rng)
}

/// Exponential variate with rate `lambda` (mean `1/lambda`), by inverse
/// CDF. This is the packet inter-arrival law of the paper's traffic model
/// (§7.1: `pdf(ΔT) = µ e^{-µΔT}`).
pub(crate) fn exponential<R: Rng + ?Sized>(rng: &mut R, lambda: f64) -> f64 {
    assert!(lambda > 0.0, "exponential rate must be positive");
    let u: f64 = loop {
        let u: f64 = rng.random();
        if u > 1e-300 {
            break u;
        }
    };
    -u.ln() / lambda
}

/// Uniform variate in `[lo, hi)`.
pub(crate) fn uniform<R: Rng + ?Sized>(rng: &mut R, lo: f64, hi: f64) -> f64 {
    assert!(hi >= lo);
    lo + (hi - lo) * rng.random::<f64>()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0xC1C0)
    }

    #[test]
    fn normal_moments() {
        let mut r = rng();
        let n = 200_000;
        let samples: Vec<f64> = (0..n).map(|_| standard_normal(&mut r)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.01, "mean {mean}");
        assert!((var - 1.0).abs() < 0.02, "var {var}");
    }

    #[test]
    fn normal_shift_scale() {
        let mut r = rng();
        let n = 100_000;
        let mean = (0..n).map(|_| normal(&mut r, 5.0, 2.0)).sum::<f64>() / n as f64;
        assert!((mean - 5.0).abs() < 0.05);
    }

    #[test]
    fn exponential_mean_matches_rate() {
        let mut r = rng();
        let lambda = 4.0;
        let n = 200_000;
        let mean = (0..n).map(|_| exponential(&mut r, lambda)).sum::<f64>() / n as f64;
        assert!((mean - 0.25).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn exponential_nonnegative() {
        let mut r = rng();
        for _ in 0..10_000 {
            assert!(exponential(&mut r, 0.5) >= 0.0);
        }
    }

    #[test]
    fn uniform_bounds() {
        let mut r = rng();
        for _ in 0..10_000 {
            let x = uniform(&mut r, -2.0, 3.0);
            assert!((-2.0..3.0).contains(&x));
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let a: Vec<f64> = {
            let mut r = rng();
            (0..10).map(|_| standard_normal(&mut r)).collect()
        };
        let b: Vec<f64> = {
            let mut r = rng();
            (0..10).map(|_| standard_normal(&mut r)).collect()
        };
        assert_eq!(a, b);
    }
}
