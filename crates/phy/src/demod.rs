//! De-chirp demodulation (paper Eqns 3–4).
//!
//! The demodulator multiplies a received window with the down-chirp
//! `C_0^*`; a (collision-free) symbol `s` becomes a tone that the FFT
//! concentrates in bin `s`. These helpers are shared by the standard
//! receiver, all baselines, and CIC (which de-chirps once per symbol and
//! then windows *sub-symbols* of the de-chirped signal).

use lora_dsp::{math, window::SampleRange, FftEngine, Spectrum};

use crate::chirp::ChirpTable;
use crate::params::LoraParams;

/// Reusable buffers for one spectrum computation: the zero-padded complex
/// FFT buffer. Owned by whoever runs a demod loop (one per thread — none
/// of this is `Sync`) and threaded through the `_scratch` methods so the
/// steady state never allocates.
#[derive(Debug, Default)]
pub struct SpectrumScratch {
    /// Zero-padded complex transform buffer.
    pub padded: Vec<lora_dsp::Cf32>,
}

impl SpectrumScratch {
    /// Empty scratch; buffers grow to steady-state size on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// A de-chirping demodulator bound to one parameter set.
pub struct Demodulator {
    table: ChirpTable,
    fft: FftEngine,
}

impl Demodulator {
    /// Build a demodulator (pre-computes chirp tables and FFT plans lazily).
    pub fn new(params: LoraParams) -> Self {
        Self {
            table: ChirpTable::new(params),
            fft: FftEngine::new(),
        }
    }

    /// Parameters in use.
    pub fn params(&self) -> &LoraParams {
        self.table.params()
    }

    /// Chirp reference table.
    pub fn table(&self) -> &ChirpTable {
        &self.table
    }

    /// FFT engine (shared plans).
    pub fn fft(&self) -> &FftEngine {
        &self.fft
    }

    /// Multiply one symbol-length window with the down-chirp.
    ///
    /// `samples` may be shorter than a full symbol (trailing window at the
    /// end of a capture); the product is truncated accordingly.
    pub fn dechirp(&self, samples: &[lora_dsp::Cf32]) -> Vec<lora_dsp::Cf32> {
        let n = samples.len().min(self.table.down().len());
        math::multiply(&samples[..n], &self.table.down()[..n])
    }

    /// [`Demodulator::dechirp`] into a reused buffer.
    pub fn dechirp_into(&self, samples: &[lora_dsp::Cf32], out: &mut Vec<lora_dsp::Cf32>) {
        let n = samples.len().min(self.table.down().len());
        math::multiply_into(&samples[..n], &self.table.down()[..n], out);
    }

    /// Multiply a window with the *up*-chirp (used for down-chirp
    /// detection in the preamble: a down-chirp times the up-chirp is a
    /// constant tone, while data up-chirps smear — paper §5.8).
    pub fn updechirp(&self, samples: &[lora_dsp::Cf32]) -> Vec<lora_dsp::Cf32> {
        let n = samples.len().min(self.table.up().len());
        math::multiply(&samples[..n], &self.table.up()[..n])
    }

    /// Folded power spectrum of an already de-chirped signal (or any slice
    /// of it), zero-padded onto the common `2^SF·os`-point grid and folded
    /// to `2^SF` bins.
    pub fn folded_spectrum(&self, dechirped: &[lora_dsp::Cf32]) -> Spectrum {
        let p = self.params();
        let raw = self
            .fft
            .power_spectrum_padded(dechirped, p.samples_per_symbol());
        Spectrum::folded(&raw, p.n_bins(), p.oversampling())
    }

    /// Amplitude-folded spectrum of a slice of a de-chirped signal:
    /// magnitudes instead of powers, with the two fold aliases summed in
    /// the amplitude domain so a tone's value is proportional to its
    /// duration in the window regardless of where the band-edge fold
    /// lands. Used by SED (edge-energy comparisons).
    pub fn folded_amplitude_spectrum(&self, dechirped: &[lora_dsp::Cf32]) -> Spectrum {
        let p = self.params();
        let raw = self
            .fft
            .power_spectrum_padded(dechirped, p.samples_per_symbol());
        Spectrum::folded_amplitude(&raw, p.n_bins(), p.oversampling())
    }

    /// [`Demodulator::folded_spectrum`] through reused buffers: the padded
    /// transform lands in `scratch`, the folded result in `out`. The fold
    /// reads power straight off the complex buffer — the intermediate raw
    /// power vector of the allocating variant is never materialised, but
    /// the float operations (and thus the output) are bit-identical.
    pub(crate) fn folded_spectrum_scratch(
        &self,
        dechirped: &[lora_dsp::Cf32],
        scratch: &mut SpectrumScratch,
        out: &mut Spectrum,
    ) {
        let p = self.params();
        self.fft
            .forward_padded_into(dechirped, p.samples_per_symbol(), &mut scratch.padded);
        Spectrum::folded_from_complex(&scratch.padded, p.n_bins(), p.oversampling(), out);
    }

    /// [`Demodulator::folded_amplitude_spectrum`] through reused buffers.
    pub fn folded_amplitude_spectrum_scratch(
        &self,
        dechirped: &[lora_dsp::Cf32],
        scratch: &mut SpectrumScratch,
        out: &mut Spectrum,
    ) {
        let p = self.params();
        self.fft
            .forward_padded_into(dechirped, p.samples_per_symbol(), &mut scratch.padded);
        Spectrum::folded_amplitude_from_complex(&scratch.padded, p.n_bins(), p.oversampling(), out);
    }

    /// Folded spectrum of a sub-range of a de-chirped symbol.
    pub fn folded_spectrum_range(
        &self,
        dechirped: &[lora_dsp::Cf32],
        range: SampleRange,
    ) -> Spectrum {
        self.folded_spectrum(range.slice(dechirped))
    }

    /// [`Demodulator::folded_spectrum_range`] through reused buffers.
    pub fn folded_spectrum_range_scratch(
        &self,
        dechirped: &[lora_dsp::Cf32],
        range: SampleRange,
        scratch: &mut SpectrumScratch,
        out: &mut Spectrum,
    ) {
        self.folded_spectrum_scratch(range.slice(dechirped), scratch, out);
    }

    /// Folded power spectrum of a raw (not yet de-chirped) symbol window.
    pub fn symbol_spectrum(&self, samples: &[lora_dsp::Cf32]) -> Spectrum {
        self.folded_spectrum(&self.dechirp(samples))
    }

    /// Demodulate one collision-free symbol window to its symbol value
    /// (argmax bin). Returns `None` for an empty window.
    pub fn demodulate_symbol(&self, samples: &[lora_dsp::Cf32]) -> Option<usize> {
        if samples.is_empty() {
            return None;
        }
        self.symbol_spectrum(samples).argmax().map(|(bin, _)| bin)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chirp::symbol_waveform;

    fn demod() -> Demodulator {
        Demodulator::new(LoraParams::new(8, 250e3, 4).unwrap())
    }

    #[test]
    fn roundtrip_all_symbol_values_sparse() {
        let d = demod();
        for s in (0..256).step_by(11) {
            let w = symbol_waveform(d.params(), s);
            assert_eq!(d.demodulate_symbol(&w), Some(s));
        }
    }

    #[test]
    fn empty_window_is_none() {
        assert_eq!(demod().demodulate_symbol(&[]), None);
    }

    #[test]
    fn short_window_still_demodulates() {
        // Half a symbol still peaks at the right bin (wider lobe).
        let d = demod();
        let w = symbol_waveform(d.params(), 99);
        let half = &w[..w.len() / 2];
        assert_eq!(d.demodulate_symbol(half), Some(99));
    }

    #[test]
    fn subrange_spectrum_matches_slice() {
        let d = demod();
        let w = symbol_waveform(d.params(), 42);
        let de = d.dechirp(&w);
        let r = SampleRange::new(100, 700);
        let a = d.folded_spectrum_range(&de, r);
        let b = d.folded_spectrum(&de[100..700]);
        assert_eq!(a, b);
    }

    #[test]
    fn scratch_variants_bit_identical() {
        let d = demod();
        let w = symbol_waveform(d.params(), 171);
        let de = d.dechirp(&w);
        let mut scratch = SpectrumScratch::new();
        let mut out = Spectrum::from_power(vec![3.0; 7]);
        for _ in 0..2 {
            d.folded_spectrum_scratch(&de, &mut scratch, &mut out);
            assert_eq!(out, d.folded_spectrum(&de));
            d.folded_amplitude_spectrum_scratch(&de, &mut scratch, &mut out);
            assert_eq!(out, d.folded_amplitude_spectrum(&de));
            let r = SampleRange::new(100, 700);
            d.folded_spectrum_range_scratch(&de, r, &mut scratch, &mut out);
            assert_eq!(out, d.folded_spectrum_range(&de, r));
        }
        let mut de2 = Vec::new();
        d.dechirp_into(&w, &mut de2);
        assert_eq!(de2, de);
    }

    #[test]
    fn updechirp_turns_downchirp_into_tone() {
        let d = demod();
        let p = *d.params();
        // A down-chirp multiplied by the up-chirp is a pure DC tone:
        // nearly all energy in folded bin 0.
        let down = d.table().down().to_vec();
        let spec = d.folded_spectrum(&d.updechirp(&down));
        let (bin, _) = spec.argmax().unwrap();
        assert_eq!(bin, 0);
        assert!(spec[0] / spec.total_energy() > 0.9);
        // While a data up-chirp through the same path smears: peak carries
        // only a small fraction of total energy.
        let data = symbol_waveform(&p, 123);
        let smear = d.folded_spectrum(&d.updechirp(&data));
        let (_, pk) = smear.argmax().unwrap();
        assert!(pk / smear.total_energy() < 0.2);
    }
}
