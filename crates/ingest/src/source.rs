//! The [`IqSource`] abstraction: the pull interface the ingest driver
//! reads, implemented by the socket sources in [`crate::net`].

use lora_dsp::Cf32;

use crate::protocol::FrameError;

/// One frame's worth of samples as delivered by a source, already
/// decoded off the wire.
#[derive(Debug, Clone)]
pub struct IqFrame {
    /// Frame sequence number (counts every frame the *sender* emitted).
    pub seq: u64,
    /// Absolute stream index of `samples[0]` at the sender.
    pub first_sample: u64,
    /// The IQ payload.
    pub samples: Vec<Cf32>,
}

/// What a source produced when asked for its next event.
#[derive(Debug, Clone)]
pub enum IqEvent {
    /// A frame of samples.
    Frame(IqFrame),
    /// Nothing arrived within the source's read timeout; the stream is
    /// believed alive. Gives the driver a chance to check for shutdown.
    Idle,
    /// The transport reconnected (socket rebind / TCP re-dial). Frames
    /// may have been lost around the event; sequence accounting covers
    /// them.
    Reconnected,
    /// Bytes arrived but failed to parse as a frame.
    Corrupt(FrameError),
    /// End of stream: the sender said so, or the source is permanently
    /// done (retry budget spent).
    End,
}

/// A pull-based IQ transport. Implementations block for at most their
/// configured read timeout per call, returning [`IqEvent::Idle`] on
/// expiry so the driver thread stays responsive to shutdown.
pub trait IqSource: Send {
    /// Block (bounded) for the next transport event.
    fn next_event(&mut self) -> IqEvent;
}
