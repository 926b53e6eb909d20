//! The framed IQ wire protocol: how wideband samples cross a network
//! boundary between an SDR front end and the gateway.
//!
//! Every frame is a little-endian header followed by raw interleaved
//! `f32` IQ:
//!
//! ```text
//! offset  size  field
//!      0     4  magic         b"IQF1"
//!      4     8  seq           frame sequence number (counts every frame)
//!     12     8  first_sample  absolute stream index of samples[0]
//!     20     4  n_samples     IQ pairs in the payload (0 = end of stream)
//!     24   8·n  payload       n_samples × (f32 re, f32 im)
//! ```
//!
//! `seq` and `first_sample` are deliberately redundant: `seq` makes
//! *frame* loss countable even when frame sizes vary, while
//! `first_sample` pins the payload to the wideband time base so the
//! receiver can zero-fill gaps and reject stale retransmissions without
//! trusting frame sizes. A frame with `n_samples == 0` is the explicit
//! end-of-stream marker; senders repeat it a few times since it is as
//! droppable as any other datagram (receivers also end on liveness
//! timeout). Frames above `MAX_FRAME_SAMPLES` are rejected outright —
//! a corrupt length must not trigger a half-gigabyte allocation.

use lora_dsp::Cf32;

/// `b"IQF1"` little-endian.
pub(crate) const MAGIC: u32 = u32::from_le_bytes(*b"IQF1");
/// Bytes before the payload.
pub(crate) const HEADER_LEN: usize = 24;
/// Upper bound on `n_samples`; larger frames are corrupt by definition.
/// It bounds frames on a byte stream (TCP); a UDP datagram's 16-bit
/// length field stops a frame at 8 185 samples over IPv4 first.
pub(crate) const MAX_FRAME_SAMPLES: u32 = 1 << 16;

/// A decoded frame header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameHeader {
    /// Frame sequence number.
    pub seq: u64,
    /// Absolute stream index of the first payload sample.
    pub first_sample: u64,
    /// IQ pairs in the payload; `0` marks end of stream.
    pub n_samples: u32,
}

impl FrameHeader {
    /// Whether this frame is the end-of-stream marker.
    pub(crate) fn is_eos(&self) -> bool {
        self.n_samples == 0
    }
}

/// Why a buffer failed to parse as a frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameError {
    /// Fewer than `HEADER_LEN` bytes.
    TooShort(usize),
    /// The magic field did not match `MAGIC`.
    BadMagic(u32),
    /// `n_samples` exceeds `MAX_FRAME_SAMPLES`.
    Oversized(u32),
    /// The payload is shorter than the header promised.
    Truncated {
        /// Payload bytes the header announced.
        expected: usize,
        /// Payload bytes actually present.
        got: usize,
    },
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::TooShort(n) => write!(f, "frame too short: {n} < {HEADER_LEN} bytes"),
            FrameError::BadMagic(m) => write!(f, "bad magic {m:#010x}"),
            FrameError::Oversized(n) => {
                write!(f, "oversized frame: {n} > {MAX_FRAME_SAMPLES} samples")
            }
            FrameError::Truncated { expected, got } => {
                write!(f, "truncated payload: expected {expected} bytes, got {got}")
            }
        }
    }
}

impl std::error::Error for FrameError {}

/// Serialize one frame. `samples.len()` must not exceed
/// `MAX_FRAME_SAMPLES`; an empty slice encodes end of stream.
pub fn encode_frame(seq: u64, first_sample: u64, samples: &[Cf32]) -> Vec<u8> {
    assert!(
        samples.len() <= MAX_FRAME_SAMPLES as usize,
        "frame payload over the wire limit"
    );
    let mut buf = Vec::with_capacity(HEADER_LEN + samples.len() * 8);
    buf.extend_from_slice(&MAGIC.to_le_bytes());
    buf.extend_from_slice(&seq.to_le_bytes());
    buf.extend_from_slice(&first_sample.to_le_bytes());
    buf.extend_from_slice(&(samples.len() as u32).to_le_bytes());
    for s in samples {
        buf.extend_from_slice(&s.re.to_le_bytes());
        buf.extend_from_slice(&s.im.to_le_bytes());
    }
    buf
}

/// Parse and validate a header from the front of `buf`. Does not check
/// that the payload is present — datagram sources use
/// [`decode_frame`]; stream sources read the payload separately.
pub(crate) fn decode_header(buf: &[u8]) -> Result<FrameHeader, FrameError> {
    if buf.len() < HEADER_LEN {
        return Err(FrameError::TooShort(buf.len()));
    }
    let word = |a: usize| u32::from_le_bytes(buf[a..a + 4].try_into().expect("4 bytes"));
    let quad = |a: usize| u64::from_le_bytes(buf[a..a + 8].try_into().expect("8 bytes"));
    let magic = word(0);
    if magic != MAGIC {
        return Err(FrameError::BadMagic(magic));
    }
    let n_samples = word(20);
    if n_samples > MAX_FRAME_SAMPLES {
        return Err(FrameError::Oversized(n_samples));
    }
    Ok(FrameHeader {
        seq: quad(4),
        first_sample: quad(12),
        n_samples,
    })
}

/// Parse a complete frame (header + payload) from one buffer, as
/// received in a single datagram. Trailing bytes beyond the announced
/// payload are ignored.
pub fn decode_frame(buf: &[u8]) -> Result<(FrameHeader, Vec<Cf32>), FrameError> {
    let header = decode_header(buf)?;
    let expected = header.n_samples as usize * 8;
    let payload = &buf[HEADER_LEN..];
    if payload.len() < expected {
        return Err(FrameError::Truncated {
            expected,
            got: payload.len(),
        });
    }
    Ok((header, decode_payload(&payload[..expected])))
}

/// Deserialize an exact-length payload (`bytes.len() % 8 == 0`).
pub(crate) fn decode_payload(bytes: &[u8]) -> Vec<Cf32> {
    debug_assert_eq!(bytes.len() % 8, 0);
    bytes
        .chunks_exact(8)
        .map(|c| {
            Cf32::new(
                f32::from_le_bytes(c[0..4].try_into().expect("4 bytes")),
                f32::from_le_bytes(c[4..8].try_into().expect("4 bytes")),
            )
        })
        .collect()
}

/// Samples from raw bit patterns, NaNs and infinities included.
#[cfg(test)]
pub(crate) fn samples_from_bits(bits: &[u32]) -> Vec<Cf32> {
    bits.chunks_exact(2)
        .map(|p| Cf32::new(f32::from_bits(p[0]), f32::from_bits(p[1])))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;

    fn ramp(n: usize) -> Vec<Cf32> {
        (0..n).map(|i| Cf32::new(i as f32, -(i as f32))).collect()
    }

    #[test]
    fn round_trip_preserves_everything() {
        let samples = ramp(37);
        let wire = encode_frame(7, 1_000_000, &samples);
        assert_eq!(wire.len(), HEADER_LEN + 37 * 8);
        let (h, got) = decode_frame(&wire).unwrap();
        assert_eq!(h.seq, 7);
        assert_eq!(h.first_sample, 1_000_000);
        assert_eq!(h.n_samples, 37);
        assert!(!h.is_eos());
        assert_eq!(got.len(), 37);
        assert!(got
            .iter()
            .zip(&samples)
            .all(|(a, b)| a.re == b.re && a.im == b.im));
    }

    #[test]
    fn eos_is_an_empty_frame() {
        let wire = encode_frame(9, 500, &[]);
        assert_eq!(wire.len(), HEADER_LEN);
        let (h, got) = decode_frame(&wire).unwrap();
        assert!(h.is_eos());
        assert!(got.is_empty());
    }

    #[test]
    fn short_buffer_is_rejected() {
        let wire = encode_frame(0, 0, &ramp(4));
        assert_eq!(
            decode_frame(&wire[..HEADER_LEN - 1]),
            Err(FrameError::TooShort(HEADER_LEN - 1))
        );
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut wire = encode_frame(0, 0, &ramp(4));
        wire[0] ^= 0xff;
        assert!(matches!(decode_frame(&wire), Err(FrameError::BadMagic(_))));
    }

    #[test]
    fn truncated_payload_is_rejected() {
        let wire = encode_frame(0, 0, &ramp(4));
        assert_eq!(
            decode_frame(&wire[..wire.len() - 5]),
            Err(FrameError::Truncated {
                expected: 32,
                got: 27
            })
        );
    }

    #[test]
    fn oversized_length_is_rejected_before_allocating() {
        let mut wire = encode_frame(0, 0, &[]);
        wire[20..24].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(decode_frame(&wire), Err(FrameError::Oversized(u32::MAX)));
    }

    /// Decode `wire`; a frame that decodes must re-encode to the bytes it
    /// was decoded from.
    fn decodes_faithfully(wire: &[u8]) {
        if let Ok((h, samples)) = decode_frame(wire) {
            let len = HEADER_LEN + 8 * h.n_samples as usize;
            assert_eq!(encode_frame(h.seq, h.first_sample, &samples), wire[..len]);
        }
    }

    proptest! {
        #[test]
        fn arbitrary_bytes_never_panic_the_decoder(
            bytes in vec(any::<u8>(), 0..160),
            magic in any::<bool>(),
        ) {
            // Half the cases behind a valid magic, to reach the length
            // and payload checks.
            let mut wire = if magic { MAGIC.to_le_bytes().to_vec() } else { Vec::new() };
            wire.extend(bytes);
            decodes_faithfully(&wire);
        }

        #[test]
        fn corrupted_lengths_never_panic_the_decoder(
            seq in any::<u64>(),
            first_sample in any::<u64>(),
            bits in vec(any::<u32>(), 0..96),
            n_samples in prop_oneof![
                any::<u32>(),
                0u32..64,
                Just(MAX_FRAME_SAMPLES),
                Just(MAX_FRAME_SAMPLES + 1),
            ],
            cut in 0usize..512,
        ) {
            // A valid frame whose length field lies, then cut short.
            let mut wire = encode_frame(seq, first_sample, &samples_from_bits(&bits));
            wire[20..24].copy_from_slice(&n_samples.to_le_bytes());
            wire.truncate(cut);
            decodes_faithfully(&wire);
        }
    }
}
