//! CIC receiver configuration, including the feature switches the paper
//! ablates in §7.4 (Figs 36–37).

/// Tunable parameters of the CIC demodulator and receiver.
#[derive(Debug, Clone, PartialEq)]
pub struct CicConfig {
    /// Candidate peaks must exceed this factor times the median power of
    /// the intersected spectrum.
    pub peak_threshold: f64,
    /// Minimum cyclic bin separation between reported candidates.
    pub peak_min_separation: usize,
    /// Keep at most this many candidates for disambiguation.
    pub max_candidates: usize,
    /// Drop candidates more than this many dB below the strongest peak of
    /// the intersected spectrum. Sinc sidelobes sit ≥13 dB down, while a
    /// partially-cancelled interferer that genuinely threatens the
    /// decision is within a few dB (paper Fig 14).
    pub candidate_max_below_peak_db: f64,
    /// Ignore interferer boundaries that would create a sub-symbol shorter
    /// than this many samples: such a window is below the time-frequency
    /// uncertainty floor and cannot cancel anything (paper §5.1), it only
    /// injects a near-flat spectrum into the intersection.
    pub min_subsymbol_samples: usize,
    /// Use Spectral Edge Difference disambiguation (paper §5.6).
    pub use_sed: bool,
    /// Number of sliding half-symbol windows per side for SED
    /// (paper uses 10).
    pub sed_windows: usize,
    /// Use the fractional-CFO candidate filter (paper §5.7, from Choir).
    pub use_cfo_filter: bool,
    /// Maximum fractional-CFO error, in bins, for a candidate to survive
    /// the CFO filter.
    pub cfo_filter_max_bins: f64,
    /// Zero-padding zoom factor for fractional peak estimation (paper
    /// §5.7 finds 16x as accurate as 256x and cheaper).
    pub cfo_fft_zoom: usize,
    /// Use the received-power candidate filter (paper §5.7, from CoLoRa).
    pub use_power_filter: bool,
    /// Maximum deviation from the preamble power estimate, in dB, for a
    /// candidate to survive the power filter (paper uses 3 dB).
    pub power_filter_max_db: f64,
    /// Detection threshold for the down-chirp preamble scan: the up-
    /// dechirped peak must exceed this factor times the window median.
    pub preamble_peak_threshold: f64,
    /// Minimum number of the 8 preamble up-chirps that must agree on one
    /// bin for a detection to be confirmed.
    pub preamble_min_upchirps: usize,
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
            peak_threshold: 3.0,
            peak_min_separation: 1,
            max_candidates: 8,
            candidate_max_below_peak_db: 9.0,
            min_subsymbol_samples: 16,
            use_sed: true,
            sed_windows: 10,
            use_cfo_filter: true,
            cfo_filter_max_bins: 0.25,
            cfo_fft_zoom: 16,
            use_power_filter: true,
            power_filter_max_db: 3.0,
            preamble_peak_threshold: 8.0,
            preamble_min_upchirps: 5,
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

    /// A reduced-effort variant of this configuration, for load-aware
    /// degradation at an overloaded gateway. Rung 0 is `self` unchanged;
    /// rung 1 disables the SIC residual stage (by far the most expensive
    /// optional work: each pass re-runs the full pipeline) and the
    /// iterative re-decode passes (the next cheapest accuracy to give
    /// back: passes only help failed packets inside collisions); rung 2
    /// additionally narrows the disambiguation search (fewer candidates,
    /// fewer SED windows, coarser CFO zoom). Rungs beyond
    /// [`CicConfig::MAX_EFFORT_RUNG`] clamp.
    pub fn effort_rung(&self, rung: usize) -> Self {
        let mut c = self.clone();
        if rung >= 1 {
            c.decode_passes = 1;
            c.sic.depth = 0;
        }
        if rung >= 2 {
            c.max_candidates = c.max_candidates.min(4);
            c.sed_windows = c.sed_windows.min(4);
            c.cfo_fft_zoom = c.cfo_fft_zoom.min(8);
        }
        c
    }

    /// Highest rung at which [`CicConfig::effort_rung`] still changes
    /// anything; beyond this, the only remaining degradation is shedding
    /// work entirely.
    pub const MAX_EFFORT_RUNG: usize = 2;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_enables_all_features() {
        let c = CicConfig::default();
        assert!(c.use_sed && c.use_cfo_filter && c.use_power_filter);
    }
}
