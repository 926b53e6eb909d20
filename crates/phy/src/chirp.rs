//! Chirp waveform generation (paper Eqns 1–2).
//!
//! The fundamental symbol `C_0` is an up-chirp sweeping `-B/2 → +B/2` over
//! one symbol time. Data symbol `C_s` starts its sweep at `-B/2 + s·B/2^SF`
//! and *folds* back to `-B/2` when it reaches the band edge, with continuous
//! phase — the physically accurate model of a COTS LoRa transmitter. After
//! de-chirping, the pre-fold part of symbol `s` lands on raw FFT bin `s`
//! and the post-fold part on bin `2^SF·(os−1) + s`; `lora_dsp::Spectrum::folded`
//! recombines them.

use lora_dsp::Cf32;

use crate::params::LoraParams;

/// Generate the waveform of data symbol `s` (`0 <= s < 2^SF`) with
/// continuous phase and band-edge frequency folding.
///
/// The phase is accumulated in `f64` to keep error far below a milliradian
/// over even SF 12 symbols.
pub fn symbol_waveform(params: &LoraParams, s: usize) -> Vec<Cf32> {
    let mut out = Vec::with_capacity(params.samples_per_symbol());
    symbol_waveform_append(params, s, &mut out);
    out
}

/// Append the waveform of data symbol `s` to `out` instead of allocating
/// a fresh buffer. Lets waveform regeneration (the SIC subtraction path)
/// reuse one arena buffer per worker.
pub(crate) fn symbol_waveform_append(params: &LoraParams, s: usize, out: &mut Vec<Cf32>) {
    let n_bins = params.n_bins();
    assert!(
        s < n_bins,
        "symbol value {s} out of range for SF{}",
        params.sf().value()
    );
    let os = params.oversampling() as f64;
    let len = params.samples_per_symbol();
    out.reserve(len);
    let mut phase = 0.0f64;
    // Normalised instantaneous frequency in cycles/sample:
    //   nu(n) = (-1/2 + s/N + n/(N·os)) / os, folded into [-1/(2os), 1/(2os)).
    let base = -0.5 + s as f64 / n_bins as f64;
    let slope = 1.0 / (n_bins as f64 * os);
    for n in 0..len {
        out.push(Cf32::from_polar(1.0, phase as f32));
        let mut f = base + slope * n as f64;
        if f >= 0.5 {
            f -= 1.0; // band-edge fold: +B/2 wraps to -B/2
        }
        phase += std::f64::consts::TAU * (f / os);
        // Keep the accumulator bounded so f64->f32 conversion stays exact.
        if phase > std::f64::consts::TAU {
            phase -= std::f64::consts::TAU;
        } else if phase < -std::f64::consts::TAU {
            phase += std::f64::consts::TAU;
        }
    }
}

/// The fundamental up-chirp `C_0`.
pub fn upchirp(params: &LoraParams) -> Vec<Cf32> {
    symbol_waveform(params, 0)
}

/// The down-chirp `C_0^*` (complex conjugate of the up-chirp), used both in
/// the preamble tail and as the de-chirping reference.
pub fn downchirp(params: &LoraParams) -> Vec<Cf32> {
    upchirp(params).into_iter().map(|c| c.conj()).collect()
}

/// Pre-computed chirp references shared by modulator and demodulators.
#[derive(Debug, Clone)]
pub struct ChirpTable {
    params: LoraParams,
    up: Vec<Cf32>,
    down: Vec<Cf32>,
}

impl ChirpTable {
    /// Build the table for a parameter set.
    pub(crate) fn new(params: LoraParams) -> Self {
        let up = upchirp(&params);
        let down = up.iter().map(|c| c.conj()).collect();
        Self { params, up, down }
    }

    /// The parameter set this table was built for.
    pub(crate) fn params(&self) -> &LoraParams {
        &self.params
    }

    /// The base up-chirp `C_0`.
    pub(crate) fn up(&self) -> &[Cf32] {
        &self.up
    }

    /// The down-chirp `C_0^*`.
    pub fn down(&self) -> &[Cf32] {
        &self.down
    }

    /// A quarter down-chirp (the `0.25` of the preamble's 2.25 down-chirps).
    pub(crate) fn quarter_down(&self) -> &[Cf32] {
        &self.down[..self.params.samples_per_symbol() / 4]
    }
}

/// Apply a carrier frequency offset of `cfo_hz` to a waveform in place
/// (multiply by `e^{j 2π·δf·t}`), starting at sample index `start_sample`
/// of the transmitter's timeline so that concatenated segments stay
/// phase-continuous.
pub fn apply_cfo(params: &LoraParams, samples: &mut [Cf32], cfo_hz: f64, start_sample: usize) {
    let step = std::f64::consts::TAU * cfo_hz / params.sample_rate_hz();
    for (i, c) in samples.iter_mut().enumerate() {
        let phase = step * (start_sample + i) as f64;
        *c *= Cf32::from_polar(1.0, (phase % std::f64::consts::TAU) as f32);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lora_dsp::{math, FftEngine, Spectrum};

    fn params() -> LoraParams {
        LoraParams::new(8, 250e3, 4).unwrap()
    }

    fn demod_bin(params: &LoraParams, wave: &[Cf32]) -> usize {
        let table = ChirpTable::new(*params);
        let dechirped = math::multiply(wave, table.down());
        let eng = FftEngine::new();
        let raw = eng.power_spectrum_padded(&dechirped, params.samples_per_symbol());
        let spec = Spectrum::folded(&raw, params.n_bins(), params.oversampling());
        spec.argmax().unwrap().0
    }

    #[test]
    fn unit_magnitude_everywhere() {
        let p = params();
        for s in [0usize, 1, 100, 255] {
            for c in symbol_waveform(&p, s) {
                assert!((c.norm() - 1.0).abs() < 1e-5);
            }
        }
    }

    #[test]
    fn every_symbol_demodulates_to_itself() {
        let p = params();
        for s in (0..256).step_by(17).chain([0, 255]) {
            let w = symbol_waveform(&p, s);
            assert_eq!(demod_bin(&p, &w), s, "symbol {s}");
        }
    }

    #[test]
    fn works_without_oversampling() {
        let p = LoraParams::new(7, 125e3, 1).unwrap();
        for s in [0usize, 1, 64, 127] {
            let w = symbol_waveform(&p, s);
            assert_eq!(demod_bin(&p, &w), s);
        }
    }

    #[test]
    fn works_at_high_oversampling() {
        let p = LoraParams::new(7, 125e3, 8).unwrap();
        for s in [3usize, 90, 127] {
            let w = symbol_waveform(&p, s);
            assert_eq!(demod_bin(&p, &w), s);
        }
    }

    #[test]
    fn downchirp_is_conjugate() {
        let p = params();
        let up = upchirp(&p);
        let down = downchirp(&p);
        for (u, d) in up.iter().zip(&down) {
            assert!((u.conj() - d).norm() < 1e-7);
        }
    }

    #[test]
    fn dechirped_tone_is_spectrally_concentrated() {
        // The de-chirped symbol is two tone segments (pre- and post-fold)
        // that both land in the same folded bin. The peak bin and its two
        // neighbours must dominate the spectrum; a generation bug (e.g. a
        // phase-discontinuous cyclic shift) smears energy band-wide.
        let p = params();
        for s in [0usize, 77, 128, 255] {
            let table = ChirpTable::new(p);
            let dechirped = math::multiply(&symbol_waveform(&p, s), table.down());
            let eng = FftEngine::new();
            let raw = eng.power_spectrum_padded(&dechirped, p.samples_per_symbol());
            let spec = Spectrum::folded(&raw, p.n_bins(), p.oversampling());
            assert_eq!(spec.argmax().unwrap().0, s);
            let n = p.n_bins();
            let local = spec[s] + spec[(s + 1) % n] + spec[(s + n - 1) % n];
            let frac = local / spec.total_energy();
            assert!(frac > 0.5, "symbol {s}: local energy fraction {frac}");
        }
    }

    #[test]
    fn cfo_shifts_peak_by_expected_bins() {
        let p = params();
        let s = 50usize;
        let shift_bins = 3.0;
        let mut w = symbol_waveform(&p, s);
        apply_cfo(&p, &mut w, shift_bins * p.bin_hz(), 0);
        assert_eq!(demod_bin(&p, &w), s + 3);
    }

    #[test]
    fn cfo_phase_continuity_across_segments() {
        // Applying CFO to two halves with correct start offsets must equal
        // applying it to the whole.
        let p = params();
        let w = symbol_waveform(&p, 10);
        let mut whole = w.clone();
        apply_cfo(&p, &mut whole, 1234.5, 0);
        let half = w.len() / 2;
        let mut a = w[..half].to_vec();
        let mut b = w[half..].to_vec();
        apply_cfo(&p, &mut a, 1234.5, 0);
        apply_cfo(&p, &mut b, 1234.5, half);
        for (x, y) in whole.iter().zip(a.iter().chain(b.iter())) {
            assert!((x - y).norm() < 1e-3);
        }
    }

    #[test]
    fn quarter_downchirp_length() {
        let p = params();
        let t = ChirpTable::new(p);
        assert_eq!(t.quarter_down().len(), p.samples_per_symbol() / 4);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn oversized_symbol_panics() {
        symbol_waveform(&params(), 256);
    }
}
