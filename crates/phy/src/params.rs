//! LoRa air-interface parameters.

/// Spreading factor, `SF ∈ {7..12}` (paper §3): each symbol carries `SF`
/// bits and there are `2^SF` distinct symbols.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SpreadingFactor(u8);

impl SpreadingFactor {
    /// Construct a spreading factor; valid range is 7..=12.
    pub fn new(sf: u8) -> Result<Self, ParamError> {
        if (7..=12).contains(&sf) {
            Ok(Self(sf))
        } else {
            Err(ParamError::InvalidSpreadingFactor(sf))
        }
    }

    /// The raw SF value.
    pub fn value(&self) -> u8 {
        self.0
    }

    /// Number of distinct symbols / FFT bins, `2^SF`.
    pub(crate) fn n_symbols(&self) -> usize {
        1usize << self.0
    }
}

/// LoRa coding rate `4/(4+cr)` with `cr ∈ {1..4}` (i.e. 4/5 … 4/8).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CodeRate {
    /// 4/5: one parity bit, error detection only.
    Cr45,
    /// 4/6: two parity bits, error detection only.
    Cr46,
    /// 4/7: Hamming(7,4), corrects single-bit errors.
    Cr47,
    /// 4/8: Hamming(8,4), corrects single-bit errors and detects doubles.
    Cr48,
}

impl CodeRate {
    /// Parity bits added per 4-bit nibble (1..=4).
    pub(crate) fn parity_bits(&self) -> usize {
        match self {
            CodeRate::Cr45 => 1,
            CodeRate::Cr46 => 2,
            CodeRate::Cr47 => 3,
            CodeRate::Cr48 => 4,
        }
    }

    /// Total codeword length in bits (5..=8).
    pub fn codeword_bits(&self) -> usize {
        4 + self.parity_bits()
    }
}

/// Errors constructing air-interface parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParamError {
    /// SF outside 7..=12.
    InvalidSpreadingFactor(u8),
    /// Oversampling factor of zero.
    ZeroOversampling,
    /// Non-positive bandwidth.
    InvalidBandwidth,
}

impl std::fmt::Display for ParamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParamError::InvalidSpreadingFactor(sf) => {
                write!(f, "spreading factor {sf} outside 7..=12")
            }
            ParamError::ZeroOversampling => write!(f, "oversampling factor must be >= 1"),
            ParamError::InvalidBandwidth => write!(f, "bandwidth must be positive"),
        }
    }
}

impl std::error::Error for ParamError {}

/// Complete sampled-domain parameter set for one LoRa channel.
///
/// The paper's defaults (§7.1): SF = 8, BW = 250 kHz, 8× oversampling
/// (USRP at 2 MHz). We default to 4× oversampling for compute budget; the
/// code path is identical for any `os >= 1`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoraParams {
    sf: SpreadingFactor,
    bandwidth_hz: f64,
    oversampling: usize,
}

impl LoraParams {
    /// Build a parameter set.
    pub fn new(sf: u8, bandwidth_hz: f64, oversampling: usize) -> Result<Self, ParamError> {
        if oversampling == 0 {
            return Err(ParamError::ZeroOversampling);
        }
        if bandwidth_hz.is_nan() || bandwidth_hz <= 0.0 {
            return Err(ParamError::InvalidBandwidth);
        }
        Ok(Self {
            sf: SpreadingFactor::new(sf)?,
            bandwidth_hz,
            oversampling,
        })
    }

    /// The paper's evaluation configuration at reduced oversampling:
    /// SF 8, 250 kHz, 4×.
    pub fn paper_default() -> Self {
        Self::new(8, 250_000.0, 4).expect("static params are valid")
    }

    /// Spreading factor.
    pub fn sf(&self) -> SpreadingFactor {
        self.sf
    }

    /// Channel bandwidth `B` in Hz.
    pub fn bandwidth_hz(&self) -> f64 {
        self.bandwidth_hz
    }

    /// Oversampling factor (sample rate / bandwidth).
    pub fn oversampling(&self) -> usize {
        self.oversampling
    }

    /// Sample rate in Hz, `os * B`.
    pub fn sample_rate_hz(&self) -> f64 {
        self.bandwidth_hz * self.oversampling as f64
    }

    /// Number of symbol values / folded FFT bins, `2^SF`.
    pub fn n_bins(&self) -> usize {
        self.sf.n_symbols()
    }

    /// Samples per symbol, `2^SF * os`.
    pub fn samples_per_symbol(&self) -> usize {
        self.n_bins() * self.oversampling
    }

    /// Frequency width of one symbol bin, `B / 2^SF`, in Hz.
    pub fn bin_hz(&self) -> f64 {
        self.bandwidth_hz / self.n_bins() as f64
    }

    /// Convert a duration in seconds to (rounded) samples.
    pub fn seconds_to_samples(&self, s: f64) -> usize {
        (s * self.sample_rate_hz()).round().max(0.0) as usize
    }

    /// Convert a sample count to seconds.
    pub(crate) fn samples_to_seconds(&self, n: usize) -> f64 {
        n as f64 / self.sample_rate_hz()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sf_range_enforced() {
        assert!(SpreadingFactor::new(6).is_err());
        assert!(SpreadingFactor::new(13).is_err());
        for sf in 7..=12 {
            assert!(SpreadingFactor::new(sf).is_ok());
        }
    }

    #[test]
    fn n_symbols_is_power_of_two() {
        assert_eq!(SpreadingFactor::new(8).unwrap().n_symbols(), 256);
        assert_eq!(SpreadingFactor::new(12).unwrap().n_symbols(), 4096);
    }

    #[test]
    fn paper_default_dimensions() {
        let p = LoraParams::paper_default();
        assert_eq!(p.n_bins(), 256);
        assert_eq!(p.samples_per_symbol(), 1024);
        assert!((p.sample_rate_hz() - 1_000_000.0).abs() < 1e-9);
        assert!((p.bin_hz() - 976.5625).abs() < 1e-9);
    }

    #[test]
    fn zero_oversampling_rejected() {
        assert_eq!(
            LoraParams::new(8, 250e3, 0).unwrap_err(),
            ParamError::ZeroOversampling
        );
    }

    #[test]
    fn bad_bandwidth_rejected() {
        assert!(LoraParams::new(8, 0.0, 4).is_err());
        assert!(LoraParams::new(8, -1.0, 4).is_err());
        assert!(LoraParams::new(8, f64::NAN, 4).is_err());
    }

    #[test]
    fn code_rate_bits() {
        assert_eq!(CodeRate::Cr45.codeword_bits(), 5);
        assert_eq!(CodeRate::Cr48.codeword_bits(), 8);
    }

    #[test]
    fn sample_time_roundtrip() {
        let p = LoraParams::paper_default();
        let n = p.seconds_to_samples(0.01);
        assert_eq!(n, 10_000);
        assert!((p.samples_to_seconds(n) - 0.01).abs() < 1e-12);
    }

    #[test]
    fn error_display_strings() {
        let e = ParamError::InvalidSpreadingFactor(5);
        assert!(e.to_string().contains('5'));
    }
}
