//! End-to-end packet convenience layer: payload bytes → frame waveform and
//! back, tying together the codec ([`crate::encode`]) and the modulator
//! ([`crate::modulate`]).

use lora_dsp::Cf32;

use crate::encode::Codec;
use crate::modulate::Modulator;
use crate::params::{CodeRate, LoraParams};

/// A full PHY transceiver for one `(params, CR)` configuration —
/// the software equivalent of one COTS LoRa radio.
pub struct Transceiver {
    modulator: Modulator,
    codec: Codec,
}

impl Transceiver {
    /// Build a transceiver.
    pub fn new(params: LoraParams, cr: CodeRate) -> Self {
        Self {
            modulator: Modulator::new(params),
            codec: Codec::new(params.sf(), cr),
        }
    }

    /// Air parameters.
    pub fn params(&self) -> &LoraParams {
        self.modulator.params()
    }

    /// The symbol codec.
    pub fn codec(&self) -> &Codec {
        &self.codec
    }

    /// The frame modulator.
    pub fn modulator(&self) -> &Modulator {
        &self.modulator
    }

    /// Synthesize the unit-amplitude baseband waveform of a payload,
    /// including the full preamble.
    pub fn waveform(&self, payload: &[u8]) -> Vec<Cf32> {
        self.modulator.frame_waveform(&self.codec.encode(payload))
    }

    /// Total frame duration in samples for a `payload_len`-byte payload.
    pub fn frame_samples(&self, payload_len: usize) -> usize {
        self.modulator
            .layout()
            .frame_len(self.codec.n_symbols(payload_len))
    }

    /// Total frame duration in seconds.
    pub fn frame_seconds(&self, payload_len: usize) -> f64 {
        self.params()
            .samples_to_seconds(self.frame_samples(payload_len))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::demod::Demodulator;

    fn xcvr() -> Transceiver {
        Transceiver::new(LoraParams::new(8, 250e3, 4).unwrap(), CodeRate::Cr45)
    }

    #[test]
    fn clean_air_roundtrip() {
        let x = xcvr();
        let payload: Vec<u8> = (0..28).map(|i| (i * 13 + 7) as u8).collect();
        let wave = x.waveform(&payload);
        assert_eq!(wave.len(), x.frame_samples(28));

        // Demodulate each data symbol window and decode.
        let d = Demodulator::new(*x.params());
        let layout = x.modulator().layout();
        let n_sym = x.codec().n_symbols(28);
        let sps = layout.samples_per_symbol;
        let symbols: Vec<usize> = (0..n_sym)
            .map(|k| {
                let a = layout.data_symbol_start(k);
                d.demodulate_symbol(&wave[a..a + sps]).unwrap()
            })
            .collect();
        let (out, stats) = x.codec().decode(&symbols, 28).unwrap();
        assert_eq!(out, payload);
        assert_eq!(stats.corrected, 0);
    }

    #[test]
    fn paper_frame_duration_order_of_magnitude() {
        // 28 B @ SF8/250k/CR45: 12.25 preamble + 40 data symbols = 52.25
        // symbols of 1.024 ms ≈ 53.5 ms (paper quotes 45 ms for its COTS
        // configuration; same order, see DESIGN.md).
        let x = xcvr();
        let dur = x.frame_seconds(28);
        assert!((0.04..0.07).contains(&dur), "duration {dur}");
    }
}
