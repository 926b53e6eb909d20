//! Successive interference cancellation on the CIC residual.
//!
//! CIC resolves collisions by *spectral filtering* — it never touches the
//! time-domain samples, so the energy of every decoded packet stays in
//! the buffer and keeps masking weaker transmissions whose preambles the
//! detector cannot see underneath. This module adds the classic SIC
//! complement as an optional stage behind the normal pipeline:
//!
//! 1. run CIC as usual;
//! 2. for every CRC-clean packet, regenerate its unit-amplitude frame
//!    from the decoded symbols, refine timing/CFO/gain against the
//!    capture, and subtract the scaled reference from a
//!    retained copy ([`ResidualBuffer`], kernel in [`subtract`]);
//! 3. re-run CIC over the residual; packets that now decode are merged
//!    into the result set (tagged with the pass that recovered them) and
//!    are themselves subtracted on the next iteration;
//! 4. stop at [`SicConfig::depth`] passes, when a pass stops removing
//!    residual power, or when no new packet decodes.
//!
//! The stage is off by default ([`SicConfig::depth`] = 0) because it
//! multiplies decode cost: the gateway engages it through a dedicated
//! boost rung of the overload ladder only when it has headroom.

mod estimate;
pub mod residual;
pub mod subtract;

pub use residual::{CancelOutcome, ResidualBuffer};

/// Tunables of the residual-cancellation stage.
#[derive(Debug, Clone, PartialEq)]
pub struct SicConfig {
    /// Maximum number of subtract-and-redecode passes. 0 disables the
    /// stage entirely (the default — plain CIC).
    pub depth: usize,
    /// Reject a packet's subtraction unless its least-squares fit
    /// captures at least this many dB more of the span's energy than a
    /// noise-only fit would (whose expectation is `1/span`).
    pub min_match_db: f64,
    /// Half-width, in samples, of the integer timing search around the
    /// detected frame start.
    pub timing_search: usize,
    /// Iterations of the block-phase-slope residual-CFO refinement.
    pub refine_iters: usize,
}

impl Default for SicConfig {
    fn default() -> Self {
        Self {
            depth: 0,
            min_match_db: 15.0,
            timing_search: 8,
            refine_iters: 2,
        }
    }
}

impl SicConfig {
    /// Whether the stage runs at all.
    pub fn enabled(&self) -> bool {
        self.depth > 0
    }

    /// The hybrid preset: two residual passes with the default stop
    /// conditions. What the gateway's SIC boost rung switches on.
    pub fn hybrid() -> Self {
        Self {
            depth: 2,
            ..Self::default()
        }
    }
}

/// Counters from the residual-cancellation stage of one receive call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SicReport {
    /// Residual passes that actually ran (subtract + re-decode).
    pub passes: u64,
    /// Packets recovered by residual passes that plain CIC missed.
    pub recovered: u64,
    /// Subtractions abandoned because the fit failed the match gate.
    pub abandoned: u64,
    /// Reference regenerations served from the waveform cache (the same
    /// packet re-offered on a later streaming push or pass).
    pub ref_cache_hits: u64,
    /// Reference waveforms that had to be modulated from scratch.
    pub ref_cache_misses: u64,
}

impl SicReport {
    /// Accumulate another report into this one.
    pub fn absorb(&mut self, other: SicReport) {
        self.passes += other.passes;
        self.recovered += other.recovered;
        self.abandoned += other.abandoned;
        self.ref_cache_hits += other.ref_cache_hits;
        self.ref_cache_misses += other.ref_cache_misses;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_by_default() {
        assert!(!SicConfig::default().enabled());
        assert!(SicConfig::hybrid().enabled());
    }

    #[test]
    fn report_absorbs() {
        let mut a = SicReport {
            passes: 1,
            recovered: 2,
            abandoned: 0,
            ref_cache_hits: 4,
            ref_cache_misses: 1,
        };
        a.absorb(SicReport {
            passes: 2,
            recovered: 1,
            abandoned: 3,
            ref_cache_hits: 1,
            ref_cache_misses: 2,
        });
        assert_eq!(
            a,
            SicReport {
                passes: 3,
                recovered: 3,
                abandoned: 3,
                ref_cache_hits: 5,
                ref_cache_misses: 3,
            }
        );
    }
}
