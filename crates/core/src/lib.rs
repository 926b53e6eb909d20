#![warn(missing_docs)]
//! # Concurrent Interference Cancellation (CIC)
//!
//! Rust implementation of the collision decoder from *"Concurrent
//! Interference Cancellation: Decoding Multi-Packet Collisions in LoRa"*
//! (SIGCOMM 2021). CIC decodes **every** packet of a multi-packet LoRa
//! collision by cancelling interfering symbols instead of matching peaks
//! to transmitters:
//!
//! 1. it slices each received symbol into *sub-symbols* at the interferer
//!    boundaries ([`subsymbol`]),
//! 2. selects the optimal *Interference-Cancelling Sub-Symbol Set*
//!    ([`icss`], paper Eqn 12),
//! 3. intersects the sub-symbols' spectra (bin-wise minimum of
//!    unit-energy spectra) so that only the frequency present in *all* of
//!    them — the wanted symbol — survives ([`demod`]),
//! 4. resolves residual ambiguity with the Spectral Edge Difference
//!    (`sed`) and per-transmitter CFO / power filters ([`filters`]),
//! 5. detects packets under collisions with down-chirp preamble search
//!    ([`preamble`]) and tracks the active set (`tracker`).
//!
//! The end-to-end receiver pipeline lives in [`receiver`] and runs
//! sequentially; CIC's per-packet and per-symbol independence is used one
//! level up, where `lora-gateway` decodes its (channel, SF) streams on a
//! thread pool.
//!
//! ## Quick start
//!
//! ```
//! use cic::{CicConfig, CicReceiver};
//! use lora_phy::{CodeRate, LoraParams, Transceiver};
//! use lora_channel::{amplitude_for_snr, superpose, Emission};
//!
//! let params = LoraParams::new(8, 250e3, 4).unwrap();
//! let tx = Transceiver::new(params, CodeRate::Cr45);
//! let payload = b"hello collision".to_vec();
//! let wave = tx.waveform(&payload);
//!
//! // One clean packet through a noiseless channel.
//! let capture = superpose(&params, wave.len() + 4096, &[Emission {
//!     waveform: wave,
//!     amplitude: amplitude_for_snr(20.0, params.oversampling()),
//!     start_sample: 1000,
//!     cfo_hz: 300.0,
//! }]);
//!
//! let rx = CicReceiver::new(params, CodeRate::Cr45, payload.len(), CicConfig::default());
//! let packets = rx.receive(&capture);
//! assert_eq!(packets.len(), 1);
//! assert_eq!(packets[0].payload.as_deref(), Some(&payload[..]));
//! ```

pub mod config;
pub mod demod;
pub mod filters;
pub mod icss;
pub mod preamble;
pub mod receiver;
pub mod scratch;
mod sed;
pub mod sic;
pub mod stream;
pub mod subsymbol;
mod tracker;

pub use config::CicConfig;
pub use demod::{CicDemodulator, Selection, SymbolContext, SymbolDecision};
pub use preamble::Detection;
pub use receiver::{CicReceiver, DecodedPacket};
pub use scratch::DemodScratch;
pub use sic::{ResidualBuffer, SicConfig, SicReport};
pub use stream::StreamingReceiver;
pub use subsymbol::Boundaries;
