#![warn(missing_docs)]
//! LoRa PHY substrate: everything a COTS LoRa transmitter and a standard
//! single-packet receiver do, in software.
//!
//! * [`params`] — air-interface parameters (SF, BW, CR, oversampling);
//! * [`chirp`] — CSS chirp synthesis with continuous phase and band-edge
//!   folding (paper Eqns 1–2), plus CFO application;
//! * [`modulate`] — packet framing: 8 preamble up-chirps, 2 sync symbols,
//!   2.25 down-chirps, data symbols (paper Fig 5);
//! * [`demod`] — de-chirp + FFT demodulation (paper Eqns 3–4) and the
//!   up-chirp multiplication used for down-chirp detection (paper §5.8);
//! * [`encode`] — the full coding chain (whitening, Hamming FEC,
//!   diagonal interleaving, Gray mapping, CRC-16);
//! * [`cfo`] — carrier-frequency-offset arithmetic;
//! * [`packet`] — payload-bytes ↔ waveform convenience transceiver.
//!
//! The collision decoders (`cic`, `lora-baselines`) consume this crate;
//! none of them get any information a real gateway would not have.

pub mod cfo;
pub mod chirp;
pub mod demod;
pub mod encode;
pub mod modulate;
pub mod packet;
pub mod params;

pub use chirp::{apply_cfo, downchirp, symbol_waveform, upchirp, ChirpTable};
pub use demod::{Demodulator, SpectrumScratch};
pub use encode::{Codec, DecodeError, DecodeStats};
pub use modulate::{FrameLayout, Modulator};
pub use packet::Transceiver;
pub use params::{CodeRate, LoraParams, ParamError, SpreadingFactor};
