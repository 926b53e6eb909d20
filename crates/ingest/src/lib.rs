#![warn(missing_docs)]
//! # lora-ingest — network ingest front end for the gateway
//!
//! `lora-gateway` decodes whatever is pushed at it, but something has to
//! do the pushing: in the paper's deployments that is an SDR on the
//! other side of a network link. This crate is that front end:
//!
//! * [`protocol`] — the framed IQ wire format (magic, sequence number,
//!   stream position, sample count, raw `f32` IQ payload);
//! * [`source`] — the [`IqSource`] pull abstraction the driver reads;
//! * [`net`] — UDP and TCP socket sources with read timeouts, liveness
//!   detection, and reconnect under capped exponential backoff;
//! * [`driver`] — the [`IngestDriver`] thread that owns the `Gateway`,
//!   repairs the sample stream (zero-filled gaps keep wideband time
//!   monotone for the watermark; duplicates and overlaps are trimmed),
//!   counts every fault into `GatewaySnapshot`, and hands decoded
//!   packets out through a non-blocking [`PacketSubscription`].
//!
//! The intended shape of an application:
//!
//! ```text
//! SDR box:   samples ─▶ UdpIqSender ─╌╌ UDP ╌╌▶ UdpIqSource
//! gateway:   UdpIqSource ─▶ IngestDriver(Gateway) ─▶ PacketSubscription
//! ```

pub mod driver;
pub mod net;
pub mod protocol;
pub mod source;

pub use driver::{IngestConfig, IngestDriver, PacketSubscription};
pub use net::{Backoff, NetConfig, TcpIqSource, UdpIqSender, UdpIqSource};
pub use protocol::{decode_frame, encode_frame, FrameError};
pub use source::{IqEvent, IqFrame, IqSource};
