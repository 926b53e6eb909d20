//! Log-distance path loss with log-normal shadowing.
//!
//! The deployments (paper Figs 22–27) differ in geometry and propagation:
//! line-of-sight lab, NLoS floors, and a 2 km² outdoor area. We model the
//! received SNR of a node at distance `d` as
//!
//! ```text
//! SNR(d) = SNR(d0) - 10·n·log10(d/d0) + X,   X ~ N(0, σ_shadow)
//! ```
//!
//! with the exponent `n` and `σ_shadow` per environment, plus a smaller
//! per-packet fading term for moving scatterers (pedestrians/traffic in
//! D4).

use rand::Rng;

use crate::rng::normal;

/// A propagation environment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct PathLossModel {
    /// In-band SNR (dB) measured at the reference distance `d0`.
    pub snr_at_d0_db: f64,
    /// Reference distance in metres.
    pub d0_m: f64,
    /// Path-loss exponent (2 free space … 4+ dense indoor).
    pub exponent: f64,
    /// Static (per-node) log-normal shadowing σ in dB.
    pub shadow_sigma_db: f64,
    /// Dynamic (per-packet) fading σ in dB.
    pub fading_sigma_db: f64,
}

impl PathLossModel {
    /// Mean SNR (before shadowing) at distance `d_m`.
    pub(crate) fn mean_snr_db(&self, d_m: f64) -> f64 {
        let d = d_m.max(self.d0_m);
        self.snr_at_d0_db - 10.0 * self.exponent * (d / self.d0_m).log10()
    }

    /// Draw a node's long-term SNR at `d_m` (mean + static shadowing).
    pub(crate) fn node_snr_db<R: Rng + ?Sized>(&self, rng: &mut R, d_m: f64) -> f64 {
        normal(rng, self.mean_snr_db(d_m), self.shadow_sigma_db)
    }

    /// Draw the per-packet SNR around a node's long-term SNR.
    pub(crate) fn packet_snr_db<R: Rng + ?Sized>(&self, rng: &mut R, node_snr_db: f64) -> f64 {
        if self.fading_sigma_db <= 0.0 {
            node_snr_db
        } else {
            normal(rng, node_snr_db, self.fading_sigma_db)
        }
    }

    /// Free-space-like line-of-sight lab (D1). Calibrated so nodes at
    /// 5-16 m land in the paper's 30-40 dB band (Fig 27).
    pub(crate) fn indoor_los() -> Self {
        Self {
            snr_at_d0_db: 54.0,
            d0_m: 1.0,
            exponent: 2.0,
            shadow_sigma_db: 1.5,
            fading_sigma_db: 0.5,
        }
    }

    /// Small NLoS floor (D2). Nodes at 5-12 m land in 30-40 dB.
    pub(crate) fn indoor_nlos() -> Self {
        Self {
            snr_at_d0_db: 60.0,
            d0_m: 1.0,
            exponent: 2.8,
            shadow_sigma_db: 3.0,
            fading_sigma_db: 1.0,
        }
    }

    /// Large NLoS floor (D3). Nodes at 7-40 m land in 5-30 dB.
    pub(crate) fn large_indoor_nlos() -> Self {
        Self {
            snr_at_d0_db: 58.0,
            d0_m: 1.0,
            exponent: 3.3,
            shadow_sigma_db: 4.0,
            fading_sigma_db: 1.5,
        }
    }

    /// Urban outdoor wide-area (D4), with strong per-packet fluctuation
    /// from pedestrians and traffic (paper §7.1). Nodes at 300-800 m land
    /// in -5..10 dB, i.e. frequently below the noise floor.
    pub(crate) fn urban_outdoor() -> Self {
        Self {
            snr_at_d0_db: 97.0,
            d0_m: 1.0,
            exponent: 3.5,
            shadow_sigma_db: 5.0,
            fading_sigma_db: 3.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn snr_decreases_with_distance() {
        let m = PathLossModel::indoor_los();
        assert!(m.mean_snr_db(10.0) < m.mean_snr_db(2.0));
        assert!(m.mean_snr_db(100.0) < m.mean_snr_db(10.0));
    }

    #[test]
    fn below_reference_distance_clamps() {
        let m = PathLossModel::indoor_los();
        assert_eq!(m.mean_snr_db(0.1), m.mean_snr_db(1.0));
    }

    #[test]
    fn exponent_slope_is_10n_per_decade() {
        let m = PathLossModel::indoor_nlos();
        let drop = m.mean_snr_db(10.0) - m.mean_snr_db(100.0);
        // 10 dB * n per decade
        assert!((drop - 28.0).abs() < 1e-9);
    }

    #[test]
    fn shadowing_spreads_node_snrs() {
        let m = PathLossModel::large_indoor_nlos();
        let mut rng = StdRng::seed_from_u64(5);
        let snrs: Vec<f64> = (0..500).map(|_| m.node_snr_db(&mut rng, 30.0)).collect();
        let mean = snrs.iter().sum::<f64>() / snrs.len() as f64;
        let var = snrs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / snrs.len() as f64;
        assert!((var.sqrt() - 4.0).abs() < 0.5, "sigma {}", var.sqrt());
    }

    #[test]
    fn zero_fading_is_deterministic() {
        let mut m = PathLossModel::indoor_los();
        m.fading_sigma_db = 0.0;
        let mut rng = StdRng::seed_from_u64(5);
        assert_eq!(m.packet_snr_db(&mut rng, 20.0), 20.0);
    }

    #[test]
    fn outdoor_reaches_subnoise_at_range() {
        let m = PathLossModel::urban_outdoor();
        // Hundreds of metres in urban NLoS should dip below the noise floor.
        assert!(m.mean_snr_db(700.0) < 0.0);
        // ... while staying decodable-with-spreading-gain, not absurd.
        assert!(m.mean_snr_db(700.0) > -20.0);
    }
}
