//! CIC receiver configuration, including the feature switches the paper
//! ablates in §7.4 (Figs 36–37).
//!
//! Only the choices some caller makes are fields. The receiver's fixed
//! thresholds are private constants beside their readers: the candidate
//! peak floors, the sub-symbol minimum and the CFO/power filter windows
//! in `demod`, the preamble thresholds in `preamble`.

/// Tunable parameters of the CIC demodulator and receiver.
#[derive(Debug, Clone, PartialEq)]
pub struct CicConfig {
    /// Keep at most this many candidates for disambiguation.
    pub max_candidates: usize,
    /// Number of sliding half-symbol windows per side for the Spectral
    /// Edge Difference, which breaks the ties the filters leave (paper
    /// §5.6 uses 10).
    pub sed_windows: usize,
    /// Use the fractional-CFO candidate filter (paper §5.7, from Choir).
    pub use_cfo_filter: bool,
    /// Use the received-power candidate filter (paper §5.7, from CoLoRa).
    pub use_power_filter: bool,
    /// Decode passes: after each pass, successfully decoded packets'
    /// data symbols become *known* interferer tones for the packets that
    /// failed, which are then re-decoded (candidate exclusion only — no
    /// waveform subtraction). 1 disables iteration.
    pub decode_passes: usize,
    /// Residual-cancellation stage (hybrid CIC + SIC): after the normal
    /// passes, subtract decoded packets from a retained copy of the
    /// capture and re-run CIC on the residual. Disabled by default
    /// (`sic.depth == 0`); see [`crate::sic`].
    pub sic: crate::sic::SicConfig,
}

impl Default for CicConfig {
    fn default() -> Self {
        Self {
            max_candidates: 8,
            sed_windows: 10,
            use_cfo_filter: true,
            use_power_filter: true,
            decode_passes: 3,
            sic: crate::sic::SicConfig::default(),
        }
    }
}

impl CicConfig {
    /// The paper's ablation variants (§7.4): full CIC, CIC−CFO,
    /// CIC−Power, CIC−(Power, CFO).
    pub fn ablation(use_cfo: bool, use_power: bool) -> Self {
        Self {
            use_cfo_filter: use_cfo,
            use_power_filter: use_power,
            ..Self::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_enables_all_features() {
        let c = CicConfig::default();
        assert!(c.use_cfo_filter && c.use_power_filter);
    }
}
