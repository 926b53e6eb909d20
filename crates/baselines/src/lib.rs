#![warn(missing_docs)]
//! Comparator receivers for the CIC evaluation (paper §7.1).
//!
//! * [`standard`] — a COTS-like LoRa gateway: conventional up-chirp
//!   preamble detection, one packet at a time, plain argmax demodulation
//!   (the capture effect falls out naturally: the strongest peak wins);
//! * [`choir`] — Choir \[Eletreby et al., SIGCOMM'17\]: multi-packet
//!   tracking, symbols matched to transmitters by fractional CFO;
//! * [`mlora`] — mLoRa \[Wang et al., ICNP'19\]: time-domain successive
//!   interference cancellation (decode strongest, reconstruct, subtract);
//! * [`colora`] — CoLoRa \[Tong et al., INFOCOM'20\]: peaks matched to
//!   transmitters by received power;
//! * [`ftrack`] — FTrack \[Xia et al., SenSys'19\]: sliding-STFT
//!   time–frequency tracks; a symbol belongs to the packet whose symbol
//!   interval its track spans exactly;
//! * [`common`] — the [`common::CollisionReceiver`] trait the network
//!   simulator drives, plus shared frame-alignment helpers.
//!
//! All baselines are clean-room implementations from their papers'
//! published descriptions, driven through the same `lora-phy` substrate
//! as CIC — none of them sees ground truth.

pub mod choir;
pub mod colora;
pub mod common;
pub mod ftrack;
pub mod mlora;
pub mod standard;

pub use choir::ChoirReceiver;
pub use colora::ColoraReceiver;
pub use common::{CollisionReceiver, RxPacket};
pub use ftrack::FtrackReceiver;
pub use mlora::MLoraReceiver;
pub use standard::StandardReceiver;
