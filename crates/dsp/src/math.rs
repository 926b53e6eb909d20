//! Small numeric helpers shared across the workspace.

use crate::Cf32;

/// Total energy of a complex signal, `sum |x|^2`.
pub fn energy(x: &[Cf32]) -> f64 {
    x.iter().map(|c| c.norm_sqr() as f64).sum()
}

/// Linear power ratio to decibels. Clamps at -300 dB for zero input.
pub fn db(p: f64) -> f64 {
    if p <= 0.0 {
        -300.0
    } else {
        10.0 * p.log10()
    }
}

/// Decibels to linear power ratio.
pub fn from_db(d: f64) -> f64 {
    10f64.powf(d / 10.0)
}

/// Wrap `x` into `[0, m)`. `m` must be positive.
pub fn wrap(x: f64, m: f64) -> f64 {
    debug_assert!(m > 0.0);
    let r = x % m;
    if r < 0.0 {
        r + m
    } else {
        r
    }
}

/// Signed distance from `a` to `b` on a circle of circumference `m`,
/// in `(-m/2, m/2]`. Used for cyclic frequency-bin distances: a peak at
/// bin 255 and a peak at bin 1 of a 256-bin spectrum are 2 bins apart.
pub fn cyclic_distance(a: f64, b: f64, m: f64) -> f64 {
    let mut d = wrap(b - a, m);
    if d > m / 2.0 {
        d -= m;
    }
    d
}

/// Element-wise product `a[i] * b[i]` collected into a new vector.
///
/// Panics if lengths differ; callers mix equal-length windows only.
pub fn multiply(a: &[Cf32], b: &[Cf32]) -> Vec<Cf32> {
    assert_eq!(a.len(), b.len(), "multiply: length mismatch");
    a.iter().zip(b).map(|(x, y)| x * y).collect()
}

/// Element-wise product written into `out`.
pub fn multiply_into(a: &[Cf32], b: &[Cf32], out: &mut Vec<Cf32>) {
    assert_eq!(a.len(), b.len(), "multiply_into: length mismatch");
    out.clear();
    out.extend(a.iter().zip(b).map(|(x, y)| x * y));
}

/// Normalised sinc: `sinc(0) = 1`, zeros at non-zero integers.
///
/// This is the main-lobe shape of a rectangular-windowed tone (paper Eqn 4):
/// a symbol de-chirped over a window of `T` seconds produces
/// `sinc(T (f - f_phi))` in the spectrum. Test-only: the peak-interpolation
/// tests synthesise `|sinc|²` spectra with it; no production path calls it.
#[cfg(test)]
pub(crate) fn sinc(x: f64) -> f64 {
    if x.abs() < 1e-12 {
        1.0
    } else {
        let px = std::f64::consts::PI * x;
        px.sin() / px
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sinc_at_zero_is_one() {
        assert!((sinc(0.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn sinc_zero_crossings_at_integers() {
        for k in 1..10 {
            assert!(sinc(k as f64).abs() < 1e-12, "sinc({k}) not ~0");
            assert!(sinc(-k as f64).abs() < 1e-12);
        }
    }

    #[test]
    fn sinc_symmetric() {
        for x in [0.3, 0.5, 1.7, 2.25] {
            assert!((sinc(x) - sinc(-x)).abs() < 1e-12);
        }
    }

    #[test]
    fn energy_of_unit_samples() {
        let x = vec![Cf32::new(1.0, 0.0); 16];
        assert!((energy(&x) - 16.0).abs() < 1e-9);
    }

    #[test]
    fn db_roundtrip() {
        for d in [-30.0, -3.0, 0.0, 3.0, 20.0] {
            assert!((db(from_db(d)) - d).abs() < 1e-9);
        }
    }

    #[test]
    fn db_of_zero_clamps() {
        assert_eq!(db(0.0), -300.0);
        assert_eq!(db(-1.0), -300.0);
    }

    #[test]
    fn wrap_handles_negative() {
        assert!((wrap(-1.0, 8.0) - 7.0).abs() < 1e-12);
        assert!((wrap(9.5, 8.0) - 1.5).abs() < 1e-12);
        assert!((wrap(8.0, 8.0) - 0.0).abs() < 1e-12);
    }

    #[test]
    fn cyclic_distance_wraps_shortest_way() {
        assert!((cyclic_distance(255.0, 1.0, 256.0) - 2.0).abs() < 1e-12);
        assert!((cyclic_distance(1.0, 255.0, 256.0) + 2.0).abs() < 1e-12);
        assert!((cyclic_distance(0.0, 128.0, 256.0) - 128.0).abs() < 1e-12);
    }

    #[test]
    fn multiply_pointwise() {
        let a = vec![Cf32::new(1.0, 1.0), Cf32::new(2.0, 0.0)];
        let b = vec![Cf32::new(0.0, 1.0), Cf32::new(3.0, 0.0)];
        let c = multiply(&a, &b);
        assert!((c[0] - Cf32::new(-1.0, 1.0)).norm() < 1e-6);
        assert!((c[1] - Cf32::new(6.0, 0.0)).norm() < 1e-6);
    }
}
