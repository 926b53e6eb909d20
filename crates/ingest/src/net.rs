//! Socket transports for the framed IQ protocol: a UDP datagram source
//! (one frame per datagram) and a TCP stream source (frames
//! back-to-back on a byte stream), both with read timeouts and
//! reconnect under capped exponential backoff.

use std::io::{ErrorKind, Read};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs, UdpSocket};
use std::time::{Duration, Instant};

use lora_dsp::Cf32;

use crate::protocol::{
    decode_frame, decode_header, decode_payload, encode_frame, FrameError, HEADER_LEN,
};
use crate::source::{IqEvent, IqFrame, IqSource};

/// [`UdpIqSource`]'s receive buffer: UDP's 16-bit length field keeps
/// every datagram's payload under 64 KiB, so no IQF1 frame that fits a
/// datagram (at most 8 185 samples over IPv4) is cut short.
const DATAGRAM_BYTES: usize = 64 * 1024;

/// Capped exponential backoff between reconnect attempts.
#[derive(Debug, Clone)]
pub struct Backoff {
    /// First retry delay.
    pub base: Duration,
    /// Ceiling on the delay.
    pub max: Duration,
    next: Duration,
}

impl Backoff {
    /// A backoff starting at `base` and doubling up to `max`.
    pub fn new(base: Duration, max: Duration) -> Self {
        Self {
            base,
            max,
            next: base,
        }
    }

    /// The delay to sleep before the next attempt (doubles, capped).
    pub(crate) fn delay(&mut self) -> Duration {
        let d = self.next;
        self.next = (self.next * 2).min(self.max);
        d
    }

    /// Back to the base delay (call once the link has proven healthy —
    /// NOT merely connected: the sources call it only once frames have
    /// kept arriving for a full liveness window).
    pub(crate) fn reset(&mut self) {
        self.next = self.base;
    }

    /// The delay the next reconnect attempt would sleep (telemetry /
    /// test visibility; does not advance the schedule).
    pub(crate) fn current(&self) -> Duration {
        self.next
    }
}

/// Record one successfully decoded frame towards the link-health gate.
///
/// The backoff must NOT rewind on a successful dial/rebind alone: a
/// flapping peer that accepts and immediately drops connections would
/// then retry at the base delay forever, hammering the network in a
/// tight loop. The link counts as healthy — and the backoff rewinds to
/// base — only once frames have kept arriving for a full liveness
/// window since the last (re)connect.
fn note_frame(healthy_since: &mut Option<Instant>, backoff: &mut Backoff, window: Duration) {
    let now = Instant::now();
    match *healthy_since {
        None => *healthy_since = Some(now),
        Some(t0) if now.duration_since(t0) >= window => backoff.reset(),
        Some(_) => {}
    }
}

impl Default for Backoff {
    fn default() -> Self {
        Self::new(Duration::from_millis(10), Duration::from_secs(1))
    }
}

fn is_timeout(e: &std::io::Error) -> bool {
    matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut)
}

/// Tuning for the socket sources.
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// How long one `next_event` call blocks on the socket before
    /// returning [`IqEvent::Idle`].
    pub read_timeout: Duration,
    /// Silence longer than this is treated as a dead transport: the
    /// source reconnects (UDP rebind / TCP re-dial) and reports
    /// [`IqEvent::Reconnected`].
    pub liveness_timeout: Duration,
    /// Reconnect pacing.
    pub backoff: Backoff,
}

impl Default for NetConfig {
    fn default() -> Self {
        Self {
            read_timeout: Duration::from_millis(20),
            liveness_timeout: Duration::from_millis(500),
            backoff: Backoff::default(),
        }
    }
}

/// UDP source: one protocol frame per datagram, received on a bound
/// local port. Datagram boundaries give framing for free; loss,
/// duplication and reorder are the driver's problem (that is what the
/// sequence numbers are for). A liveness timeout with no datagrams
/// tears the socket down and rebinds the same port.
pub struct UdpIqSource {
    /// `None` while a failed rebind leaves us momentarily socketless.
    sock: Option<UdpSocket>,
    local: SocketAddr,
    cfg: NetConfig,
    buf: Vec<u8>,
    last_rx: Instant,
    /// Start of the current uninterrupted run of decoded frames, `None`
    /// until the first frame after a (re)bind. Gates the backoff reset.
    healthy_since: Option<Instant>,
}

impl UdpIqSource {
    /// Bind `addr` (e.g. `127.0.0.1:0`) and receive frames on it.
    pub fn bind<A: ToSocketAddrs>(addr: A, cfg: NetConfig) -> std::io::Result<Self> {
        let sock = UdpSocket::bind(addr)?;
        sock.set_read_timeout(Some(cfg.read_timeout))?;
        let local = sock.local_addr()?;
        Ok(Self {
            sock: Some(sock),
            local,
            cfg,
            buf: vec![0u8; DATAGRAM_BYTES],
            last_rx: Instant::now(),
            healthy_since: None,
        })
    }

    /// The delay the next rebind would wait — escalates across a flap
    /// and rewinds only after a sustained healthy interval.
    pub fn current_backoff(&self) -> Duration {
        self.cfg.backoff.current()
    }

    /// The bound local address (port resolved), for handing to a sender.
    pub fn local_addr(&self) -> SocketAddr {
        self.local
    }

    /// Tear the socket down and bind the same local port again. The old
    /// socket must drop *before* the new bind — the port is otherwise
    /// still held and the rebind could never succeed.
    fn rebind(&mut self) -> IqEvent {
        self.sock = None;
        std::thread::sleep(self.cfg.backoff.delay());
        match UdpSocket::bind(self.local) {
            Ok(sock) => {
                if sock.set_read_timeout(Some(self.cfg.read_timeout)).is_err() {
                    return IqEvent::Idle;
                }
                self.sock = Some(sock);
                self.last_rx = Instant::now();
                // Deliberately no `backoff.reset()` here: a rebind
                // succeeding proves nothing about the link (the local
                // bind almost always succeeds). The reset is gated on
                // sustained frame arrival — see `note_frame`.
                self.healthy_since = None;
                IqEvent::Reconnected
            }
            // Port grabbed by someone else in the window: report idle and
            // let the next call retry under the growing backoff.
            Err(_) => IqEvent::Idle,
        }
    }
}

impl IqSource for UdpIqSource {
    fn next_event(&mut self) -> IqEvent {
        let Some(sock) = self.sock.as_ref() else {
            return self.rebind();
        };
        match sock.recv(&mut self.buf) {
            Ok(n) => {
                self.last_rx = Instant::now();
                match decode_frame(&self.buf[..n]) {
                    Ok((h, _)) if h.is_eos() => {
                        note_frame(
                            &mut self.healthy_since,
                            &mut self.cfg.backoff,
                            self.cfg.liveness_timeout,
                        );
                        IqEvent::End
                    }
                    Ok((h, samples)) => {
                        note_frame(
                            &mut self.healthy_since,
                            &mut self.cfg.backoff,
                            self.cfg.liveness_timeout,
                        );
                        IqEvent::Frame(IqFrame {
                            seq: h.seq,
                            first_sample: h.first_sample,
                            samples,
                        })
                    }
                    Err(e) => IqEvent::Corrupt(e),
                }
            }
            Err(e) if is_timeout(&e) => {
                if self.last_rx.elapsed() >= self.cfg.liveness_timeout {
                    self.rebind()
                } else {
                    IqEvent::Idle
                }
            }
            Err(_) => self.rebind(),
        }
    }
}

/// Paired sender for [`UdpIqSource`]: frames samples onto datagrams with
/// automatic `seq` / `first_sample` tracking. The explicit
/// `UdpIqSender::send_frame` escape hatch exists for fault-injection
/// tests (duplicate or reordered sequence numbers on purpose).
pub struct UdpIqSender {
    sock: UdpSocket,
    dest: SocketAddr,
    /// Next sequence number.
    pub seq: u64,
    /// Next first-sample position.
    pub pos: u64,
}

impl UdpIqSender {
    /// A sender addressing `dest` from an ephemeral local port.
    pub fn connect(dest: SocketAddr) -> std::io::Result<Self> {
        let sock = UdpSocket::bind("127.0.0.1:0")?;
        Ok(Self {
            sock,
            dest,
            seq: 0,
            pos: 0,
        })
    }

    /// Send one frame with explicit header fields.
    pub(crate) fn send_frame(
        &self,
        seq: u64,
        first_sample: u64,
        samples: &[Cf32],
    ) -> std::io::Result<()> {
        self.sock
            .send_to(&encode_frame(seq, first_sample, samples), self.dest)?;
        Ok(())
    }

    /// Send the next in-order frame, advancing `seq` and `pos`. Pass
    /// `wire: false` to advance the counters *without* sending — a
    /// simulated datagram loss.
    pub fn send(&mut self, samples: &[Cf32], wire: bool) -> std::io::Result<()> {
        if wire {
            self.send_frame(self.seq, self.pos, samples)?;
        }
        self.seq += 1;
        self.pos += samples.len() as u64;
        Ok(())
    }

    /// Send the end-of-stream marker `repeats` times (datagrams drop, so
    /// one EOS is not enough on a lossy link).
    pub fn send_eos(&mut self, repeats: usize) -> std::io::Result<()> {
        for _ in 0..repeats {
            self.send_frame(self.seq, self.pos, &[])?;
            self.seq += 1;
        }
        Ok(())
    }
}

/// `(seq, first_sample, samples)` parsed off the TCP byte stream.
type ParsedFrame = (u64, u64, Vec<Cf32>);

/// TCP source: dials a sender and reads frames back-to-back off the byte
/// stream, preserving partially received frames across read timeouts.
/// EOF or a hard socket error drops the connection and re-dials under
/// backoff; a corrupt header also forces a re-dial, since a byte stream
/// offers no resynchronisation point.
pub struct TcpIqSource {
    peer: SocketAddr,
    cfg: NetConfig,
    stream: Option<TcpStream>,
    /// Bytes received but not yet parsed into a frame.
    pending: Vec<u8>,
    last_rx: Instant,
    /// Whether a connection has ever been established — the first
    /// successful dial is not a *re*connect.
    connected_before: bool,
    /// Start of the current uninterrupted run of decoded frames, `None`
    /// until the first frame after a (re)dial. Gates the backoff reset.
    healthy_since: Option<Instant>,
}

impl TcpIqSource {
    /// A source that will dial `peer` on first use.
    pub fn connect(peer: SocketAddr, cfg: NetConfig) -> Self {
        Self {
            peer,
            cfg,
            stream: None,
            pending: Vec::new(),
            last_rx: Instant::now(),
            connected_before: false,
            healthy_since: None,
        }
    }

    /// The delay the next re-dial would wait — escalates across a flap
    /// and rewinds only after a sustained healthy interval.
    pub fn current_backoff(&self) -> Duration {
        self.cfg.backoff.current()
    }

    /// Drop the connection and dial again. Partial frame bytes cannot
    /// straddle a reconnect — the new connection starts a fresh stream.
    fn redial(&mut self) -> IqEvent {
        self.stream = None;
        self.pending.clear();
        std::thread::sleep(self.cfg.backoff.delay());
        match TcpStream::connect_timeout(&self.peer, self.cfg.liveness_timeout) {
            Ok(s) => {
                if s.set_read_timeout(Some(self.cfg.read_timeout)).is_err() {
                    return IqEvent::Idle;
                }
                self.stream = Some(s);
                self.last_rx = Instant::now();
                // Deliberately no `backoff.reset()` here: a flapping peer
                // that accepts and immediately drops connections would
                // otherwise be re-dialled at the base delay forever. The
                // reset is gated on sustained frame arrival — `note_frame`.
                self.healthy_since = None;
                if std::mem::replace(&mut self.connected_before, true) {
                    IqEvent::Reconnected
                } else {
                    IqEvent::Idle
                }
            }
            Err(_) => IqEvent::Idle,
        }
    }

    /// A complete frame at the front of `pending`, if one has arrived.
    fn try_parse(&mut self) -> Option<Result<ParsedFrame, FrameError>> {
        if self.pending.len() < HEADER_LEN {
            return None;
        }
        let header = match decode_header(&self.pending) {
            Ok(h) => h,
            Err(e) => return Some(Err(e)),
        };
        let total = HEADER_LEN + header.n_samples as usize * 8;
        if self.pending.len() < total {
            return None;
        }
        let samples = decode_payload(&self.pending[HEADER_LEN..total]);
        self.pending.drain(..total);
        Some(Ok((header.seq, header.first_sample, samples)))
    }
}

impl IqSource for TcpIqSource {
    fn next_event(&mut self) -> IqEvent {
        let mut chunk = [0u8; 64 * 1024];
        loop {
            // Parse before reading: the previous read may have delivered
            // more than one frame.
            match self.try_parse() {
                Some(Ok((seq, first_sample, samples))) => {
                    note_frame(
                        &mut self.healthy_since,
                        &mut self.cfg.backoff,
                        self.cfg.liveness_timeout,
                    );
                    return if samples.is_empty() {
                        IqEvent::End
                    } else {
                        IqEvent::Frame(IqFrame {
                            seq,
                            first_sample,
                            samples,
                        })
                    };
                }
                Some(Err(e)) => {
                    // Corrupt header on a stream: no way to find the next
                    // frame boundary, so surface it and re-dial next call.
                    self.stream = None;
                    self.pending.clear();
                    return IqEvent::Corrupt(e);
                }
                None => {}
            }
            let Some(stream) = self.stream.as_mut() else {
                return self.redial();
            };
            match stream.read(&mut chunk) {
                Ok(0) => return self.redial(),
                Ok(n) => {
                    self.last_rx = Instant::now();
                    self.pending.extend_from_slice(&chunk[..n]);
                }
                Err(e) if is_timeout(&e) => {
                    return if self.last_rx.elapsed() >= self.cfg.liveness_timeout {
                        self.redial()
                    } else {
                        IqEvent::Idle
                    };
                }
                Err(_) => return self.redial(),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::samples_from_bits;
    use proptest::collection::vec;
    use proptest::prelude::*;

    /// One wire frame whose samples come from raw bit patterns.
    fn frame(seq: u64, bits: &[u32]) -> Vec<u8> {
        encode_frame(seq, seq.rotate_left(32), &samples_from_bits(bits))
    }

    /// Feed `stream` to a TCP source's reassembler in pieces cut at
    /// `cuts`, parsing after each piece as the source does, until the
    /// stream ends or a header is corrupt (where the source would
    /// re-dial). Every frame parsed must re-encode to the bytes it was
    /// parsed from; returns how many frames parsed.
    fn reassemble(stream: &[u8], mut cuts: Vec<usize>) -> usize {
        // Never dialled: `connect` only records the peer.
        let mut source = TcpIqSource::connect(([127, 0, 0, 1], 9).into(), NetConfig::default());
        cuts.push(stream.len());
        cuts.sort_unstable();
        let (mut fed, mut consumed, mut frames) = (0, 0, 0);
        for cut in cuts {
            let cut = cut.clamp(fed, stream.len());
            source.pending.extend_from_slice(&stream[fed..cut]);
            fed = cut;
            while let Some(parsed) = source.try_parse() {
                let Ok((seq, first_sample, samples)) = parsed else {
                    return frames;
                };
                let wire = encode_frame(seq, first_sample, &samples);
                assert_eq!(wire, stream[consumed..consumed + wire.len()]);
                consumed += wire.len();
                frames += 1;
            }
        }
        frames
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn reassembler_parses_valid_frames_in_any_split(
            payloads in vec(vec(any::<u32>(), 0..48), 0..6),
            seq in any::<u64>(),
            cuts in vec(0usize..1600, 0..8),
        ) {
            let stream: Vec<u8> = (0..)
                .zip(&payloads)
                .flat_map(|(i, bits)| frame(seq.wrapping_add(i), bits))
                .collect();
            prop_assert_eq!(reassemble(&stream, cuts), payloads.len());
        }

        #[test]
        fn reassembler_never_panics_on_corrupt_streams(
            payloads in vec(vec(any::<u32>(), 0..48), 0..6),
            flips in vec(any::<u32>(), 0..4),
            noise in vec(any::<u8>(), 0..96),
            cuts in vec(0usize..1700, 0..8),
        ) {
            // Valid frames with a few bytes flipped (header or payload),
            // then arbitrary bytes.
            let mut stream: Vec<u8> = payloads.iter().flat_map(|bits| frame(7, bits)).collect();
            let len = stream.len();
            for flip in flips {
                if len > 0 {
                    stream[(flip >> 8) as usize % len] ^= flip as u8;
                }
            }
            stream.extend(noise);
            reassemble(&stream, cuts);
        }
    }
}
