//! Additive white Gaussian noise and SNR bookkeeping.
//!
//! Convention used throughout the workspace: the receiver's complex noise
//! has **unit per-sample variance** (0.5 per real/imaginary part), and SNR
//! is quoted **in-band** — signal power over the noise power that falls
//! inside the LoRa bandwidth `B`. With `os`-times oversampling only
//! `1/os` of the white noise lies in band, so a unit-amplitude packet at
//! in-band SNR `γ` (linear) is scaled by `A = sqrt(γ / os)`.
//!
//! This matches how the paper reports SNR (radio SNR over the 250 kHz
//! channel) while sampling at 2 MHz.

use lora_dsp::Cf32;
use rand::Rng;

use crate::rng::standard_normal;

/// Amplitude that yields `snr_db` in-band SNR for a unit-amplitude
/// waveform under unit-variance complex noise and `os`-times oversampling.
pub fn amplitude_for_snr(snr_db: f64, os: usize) -> f64 {
    (lora_dsp::math::from_db(snr_db) / os as f64).sqrt()
}

/// Add unit-variance complex white Gaussian noise to `buf` in place.
pub fn add_unit_noise<R: Rng + ?Sized>(rng: &mut R, buf: &mut [Cf32]) {
    add_noise(rng, buf, 1.0);
}

/// Add complex white Gaussian noise of total per-sample variance
/// `variance` to `buf` in place.
pub(crate) fn add_noise<R: Rng + ?Sized>(rng: &mut R, buf: &mut [Cf32], variance: f64) {
    if variance <= 0.0 {
        return;
    }
    let s = (variance / 2.0).sqrt();
    for c in buf.iter_mut() {
        c.re += (s * standard_normal(rng)) as f32;
        c.im += (s * standard_normal(rng)) as f32;
    }
}

/// Generate a buffer of pure unit-variance complex noise.
pub fn noise_buffer<R: Rng + ?Sized>(rng: &mut R, len: usize) -> Vec<Cf32> {
    let mut buf = vec![Cf32::new(0.0, 0.0); len];
    add_unit_noise(rng, &mut buf);
    buf
}

#[cfg(test)]
mod tests {
    use super::*;
    use lora_dsp::math;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn noise_variance_is_unit() {
        let mut rng = StdRng::seed_from_u64(7);
        let buf = noise_buffer(&mut rng, 100_000);
        let p = math::energy(&buf) / buf.len() as f64;
        assert!((p - 1.0).abs() < 0.02, "noise power {p}");
    }

    #[test]
    fn amplitude_snr_roundtrip() {
        for os in [1usize, 4, 8] {
            for snr in [-10.0, 0.0, 15.0, 35.0] {
                let a = amplitude_for_snr(snr, os);
                assert!((math::db(a * a * os as f64) - snr).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn zero_db_unit_os_is_unit_amplitude() {
        assert!((amplitude_for_snr(0.0, 1) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn oversampling_lowers_required_amplitude() {
        assert!(amplitude_for_snr(10.0, 8) < amplitude_for_snr(10.0, 1));
    }

    #[test]
    fn measured_snr_matches_requested() {
        // Signal: unit tone scaled for 10 dB in-band SNR at os=4. Verify via
        // power measurement that in-band SNR comes out right.
        let os = 4usize;
        let snr_db = 10.0;
        let a = amplitude_for_snr(snr_db, os) as f32;
        let n = 65536;
        let signal: Vec<Cf32> = (0..n)
            .map(|i| Cf32::from_polar(a, 0.01 * i as f32))
            .collect();
        let mut rng = StdRng::seed_from_u64(3);
        let mut rx = signal.clone();
        add_unit_noise(&mut rng, &mut rx);
        let p_total = math::energy(&rx) / n as f64;
        let p_sig = (a * a) as f64;
        let p_noise = p_total - p_sig; // ~1.0
        let inband_snr = math::db(p_sig / (p_noise / os as f64));
        assert!((inband_snr - snr_db).abs() < 0.5, "measured {inband_snr}");
    }

    #[test]
    fn zero_variance_is_noop() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut buf = vec![Cf32::new(1.0, 2.0); 8];
        add_noise(&mut rng, &mut buf, 0.0);
        assert!(buf.iter().all(|c| *c == Cf32::new(1.0, 2.0)));
    }
}
