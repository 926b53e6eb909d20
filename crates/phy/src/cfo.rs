//! Carrier Frequency Offset model (paper §3).
//!
//! CFO is the residual difference between a transmitter's and the
//! receiver's carrier, caused by crystal tolerance. It shifts every
//! de-chirped peak by a constant `δf`. COTS LoRa crystals are specified in
//! parts-per-million of the carrier; at 915 MHz, ±10 ppm is ±9.15 kHz —
//! several symbol bins at SF 8 / 250 kHz (bin = 976.6 Hz).
//!
//! CIC uses the *fractional* part of the CFO (the sub-bin component) as a
//! per-transmitter fingerprint (paper §5.7, following Choir): the integer
//! part is indistinguishable from a symbol shift, the fractional part is
//! not affected by the data.

/// Convert a crystal offset in ppm at `carrier_hz` into Hz.
pub fn ppm_to_hz(ppm: f64, carrier_hz: f64) -> f64 {
    ppm * 1e-6 * carrier_hz
}

/// US 915 MHz ISM carrier used for CFO realism in the simulations.
pub const DEFAULT_CARRIER_HZ: f64 = 915e6;

/// Fractional CFO distance between two estimates, accounting for the
/// wrap at ±0.5 bin (a fractional CFO of 0.49 and one of -0.49 are only
/// 0.02 bins apart).
pub fn fractional_distance(a: f64, b: f64) -> f64 {
    let d = (a - b).rem_euclid(1.0);
    d.min(1.0 - d)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ppm_conversion() {
        assert!((ppm_to_hz(10.0, 915e6) - 9150.0).abs() < 1e-9);
        assert!((ppm_to_hz(-3.0, 915e6) + 2745.0).abs() < 1e-9);
    }

    #[test]
    fn fractional_distance_wraps() {
        assert!((fractional_distance(0.49, -0.49) - 0.02).abs() < 1e-12);
        assert!((fractional_distance(0.1, 0.3) - 0.2).abs() < 1e-12);
        assert_eq!(fractional_distance(0.25, 0.25), 0.0);
    }
}
