//! Per-worker scratch arena for the CIC demodulation hot path.
//!
//! Every symbol window the receiver demodulates needs the same set of
//! intermediate buffers: padded FFT workspaces, folded spectra,
//! peak/candidate vectors and the SED edge spectra. Allocating them per symbol dominated the profile next
//! to the FFTs themselves; a [`DemodScratch`] owns all of them so a
//! decode loop allocates only while the buffers grow to their
//! steady-state sizes, and never after.
//!
//! One arena per decode loop: nothing here is `Sync`. The receiver builds
//! one per receive call, so the gateway's decode pool, which runs one
//! receiver per stream, never shares an arena across threads.

use lora_dsp::peaks::Peak;
use lora_dsp::window::SampleRange;
use lora_dsp::{Cf32, Spectrum};
use lora_phy::SpectrumScratch;

use crate::filters::Candidate;
use crate::sed::EdgeSpectra;

/// Reusable buffers for [`crate::demod::CicDemodulator::demodulate_with`]
/// and the receiver decode loop. Construct once per decode loop, thread
/// through every call; contents between calls are unspecified.
#[derive(Debug)]
pub struct DemodScratch {
    /// Padded complex FFT buffer + raw power of sub-symbol transforms.
    pub(crate) spec: SpectrumScratch,
    /// Padded complex transform of the full window — computed once per
    /// symbol and folded three ways: the power fold, the amplitude fold
    /// and the ICSS full-window member.
    pub(crate) full_padded: Vec<Cf32>,
    /// Optimal ICSS ranges of the current boundaries.
    pub(crate) icss: Vec<SampleRange>,
    /// Running spectral intersection `Φ_CIC`.
    pub(crate) cic_spec: Spectrum,
    /// One ICSS member's folded, normalised spectrum.
    pub(crate) sub_spec: Spectrum,
    /// Full-window power-folded spectrum.
    pub(crate) full_spec: Spectrum,
    /// Full-window amplitude-folded spectrum.
    pub(crate) full_amp: Spectrum,
    /// Peaks of the intersected spectrum.
    pub(crate) peaks: Vec<Peak>,
    /// Median-selection scratch shared by every `median_power_with` call.
    pub(crate) median: Vec<f64>,
    /// Surviving candidates, strongest first.
    pub(crate) candidates: Vec<Candidate>,
    /// Per-candidate filter verdicts (bit 0 = CFO pass, bit 1 = power
    /// pass) — replaces the clone-per-filter cascade.
    pub(crate) flags: Vec<u8>,
    /// Bins handed to the SED tie-break.
    pub(crate) sed_bins: Vec<usize>,
    /// SED edge spectra.
    pub(crate) edges: EdgeSpectra,
    /// One SED sliding-window spectrum.
    pub(crate) sed_tmp: Spectrum,
    /// CFO-derotated symbol window (receiver loop).
    pub(crate) win: Vec<Cf32>,
    /// De-chirped symbol window (receiver loop).
    pub(crate) de: Vec<Cf32>,
}

impl DemodScratch {
    /// Empty arena; every buffer grows to steady-state size on first use.
    pub fn new() -> Self {
        Self {
            spec: SpectrumScratch::new(),
            full_padded: Vec::new(),
            icss: Vec::new(),
            cic_spec: Spectrum::from_power(Vec::new()),
            sub_spec: Spectrum::from_power(Vec::new()),
            full_spec: Spectrum::from_power(Vec::new()),
            full_amp: Spectrum::from_power(Vec::new()),
            peaks: Vec::new(),
            median: Vec::new(),
            candidates: Vec::new(),
            flags: Vec::new(),
            sed_bins: Vec::new(),
            edges: EdgeSpectra::empty(),
            sed_tmp: Spectrum::from_power(Vec::new()),
            win: Vec::new(),
            de: Vec::new(),
        }
    }

    /// Candidates of the most recent
    /// [`crate::demod::CicDemodulator::demodulate_with`] call, strongest
    /// first (what the reference's
    /// [`crate::demod::SymbolDecision::candidates`] holds).
    pub fn last_candidates(&self) -> &[Candidate] {
        &self.candidates
    }
}

impl Default for DemodScratch {
    fn default() -> Self {
        Self::new()
    }
}
