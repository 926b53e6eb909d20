//! The ingest driver: a thread that owns the [`Gateway`], pulls events
//! from an [`IqSource`], repairs the sample stream (sequence gaps,
//! duplicates, overlaps), and exposes the decoded packets through a
//! non-blocking [`PacketSubscription`].
//!
//! ## Stream repair
//!
//! The gateway's time base is "samples pushed so far" — the watermark
//! release logic in `lora-gateway` depends on it being monotone. The
//! driver therefore never lets transport faults bend time:
//!
//! * **loss** (sequence jumps forward): the missing span, measured in
//!   samples from `first_sample`, is zero-filled up to
//!   [`IngestConfig::max_zero_fill`] and counted in `samples_gapped`;
//!   the skipped frames are counted in `frames_dropped`, never more of
//!   them than the span has samples (every lost data frame carried at
//!   least one), so a forged sequence number cannot inflate the count.
//!   A gap larger than the fill cap is truncated — the gateway time base
//!   slips relative to the sender's, which is harmless because all
//!   decoding state derives from gateway time.
//! * **duplicates / reorder** (sequence or position steps backward):
//!   position alone decides staleness. A frame ending at or before the
//!   stream head is rejected (`frames_rejected`) and moves no
//!   expectation; a frame partially overlapping samples already pushed
//!   has the overlap trimmed off its head. The expected sequence
//!   re-anchors on every accepted frame, even one behind it, so one
//!   forged sequence number cannot make every later frame look stale.
//! * **corrupt frames**: counted in `frames_rejected`, payload ignored.
//!   A decodable frame whose next sequence number or sample span would
//!   pass `u64::MAX` is corrupt too: it leaves the expected sequence and
//!   position where they were.
//! * **reconnects**: counted in `reconnects`; sample accounting rides on
//!   `first_sample`, so a sender that kept counting through the outage
//!   produces an ordinary gap.

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::mpsc::Receiver;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use lora_dsp::Cf32;
use lora_gateway::{Gateway, GatewayPacket, GatewaySnapshot, GatewayStats};

use crate::source::{IqEvent, IqSource};

/// Driver tuning.
#[derive(Debug, Clone)]
pub struct IngestConfig {
    /// Bound of the packet subscription channel; packets beyond it wait
    /// in the sink backlog (never lost, possibly late).
    pub subscription_capacity: usize,
    /// Largest gap (in samples) repaired by zero-fill; bigger gaps slip
    /// the time base instead of stalling ingest on gigabytes of zeros.
    pub max_zero_fill: u64,
}

impl Default for IngestConfig {
    fn default() -> Self {
        Self {
            subscription_capacity: 1024,
            max_zero_fill: 1 << 22,
        }
    }
}

/// The driver runs until its source ends or its state leaves `RUN`.
const RUN: u8 = 0;
/// End at the next source event and drain through `Gateway::finish`.
const STOP: u8 = 1;
/// End at the next source event and drop the gateway undrained.
const ABANDON: u8 = 2;

/// What the driver thread hands back: the final drain, unless abandoned.
type Drained = Option<(Vec<GatewayPacket>, GatewaySnapshot)>;

/// Handle to a running ingest driver: a non-blocking view of the decoded
/// packet stream, live telemetry, and the final drain.
///
/// Dropped without [`PacketSubscription::join`], the subscription stops
/// the driver at its next source event and joins it; the driver drops
/// its gateway undrained, which stops the gateway's threads too.
pub struct PacketSubscription {
    rx: Receiver<GatewayPacket>,
    stats: Arc<GatewayStats>,
    /// `RUN`, `STOP` or `ABANDON`, shared with the driver thread.
    state: Arc<AtomicU8>,
    /// The driver thread; `None` once joined.
    handle: Option<JoinHandle<Drained>>,
}

impl PacketSubscription {
    /// The next decoded packet if one is already waiting.
    pub fn try_next(&self) -> Option<GatewayPacket> {
        self.rx.try_recv().ok()
    }

    /// Block up to `timeout` for the next decoded packet.
    pub fn next_timeout(&self, timeout: Duration) -> Option<GatewayPacket> {
        self.rx.recv_timeout(timeout).ok()
    }

    /// Live telemetry snapshot (gateway + ingest counters).
    pub fn stats(&self) -> GatewaySnapshot {
        self.stats.snapshot()
    }

    /// Ask the driver to shut down at the next source event; use
    /// [`PacketSubscription::join`] to collect the drain.
    pub fn stop(&self) {
        self.state.store(STOP, Ordering::Release);
    }

    /// Wait for the driver to finish (end of stream or [`stop`]): drains
    /// the channelizer tail through `Gateway::finish` and returns every
    /// not-yet-consumed packet — subscription channel first, then the
    /// final drain, preserving release order — plus the final snapshot.
    ///
    /// [`stop`]: PacketSubscription::stop
    pub fn join(mut self) -> (Vec<GatewayPacket>, GatewaySnapshot) {
        let (tail, snapshot) = self
            .handle
            .take()
            .and_then(|h| h.join().expect("ingest driver panicked"))
            .expect("only a dropped subscription abandons its driver");
        let mut packets: Vec<GatewayPacket> = self.rx.try_iter().collect();
        packets.extend(tail);
        (packets, snapshot)
    }
}

impl Drop for PacketSubscription {
    fn drop(&mut self) {
        if let Some(handle) = self.handle.take() {
            self.state.store(ABANDON, Ordering::Release);
            let _ = handle.join();
        }
    }
}

/// Spawns the driver thread. See the module docs for the fault model.
pub struct IngestDriver;

impl IngestDriver {
    /// Take ownership of `gateway`, feed it from `source` on a dedicated
    /// thread, and return the subscription handle.
    pub fn spawn<S: IqSource + 'static>(
        gateway: Gateway,
        source: S,
        cfg: IngestConfig,
    ) -> PacketSubscription {
        let rx = gateway.subscribe(cfg.subscription_capacity);
        let stats = gateway.stats();
        let state = Arc::new(AtomicU8::new(RUN));
        let thread_stats = stats.clone();
        let thread_state = state.clone();
        let handle = std::thread::Builder::new()
            .name("gw-ingest".into())
            .spawn(move || drive(gateway, source, cfg, thread_stats, thread_state))
            .expect("spawn ingest driver thread");
        PacketSubscription {
            rx,
            stats,
            state,
            handle: Some(handle),
        }
    }
}

/// Zero-fill in bounded slabs so a multi-megasample gap does not become
/// one giant allocation.
fn push_zeros(gw: &mut Gateway, n: u64) {
    const SLAB: u64 = 1 << 16;
    let zeros = vec![Cf32::new(0.0, 0.0); SLAB.min(n) as usize];
    let mut left = n;
    while left > 0 {
        let take = SLAB.min(left) as usize;
        gw.push(&zeros[..take]);
        left -= take as u64;
    }
}

fn drive(
    mut gw: Gateway,
    mut source: impl IqSource,
    cfg: IngestConfig,
    stats: Arc<GatewayStats>,
    state: Arc<AtomicU8>,
) -> Drained {
    // Next expected sequence number / stream position, in the *sender's*
    // coordinates. `None` until the first frame anchors them.
    let mut expected_seq: Option<u64> = None;
    let mut expected_pos: Option<u64> = None;
    loop {
        if state.load(Ordering::Acquire) != RUN {
            break;
        }
        match source.next_event() {
            IqEvent::Frame(f) => {
                stats.frames_in.fetch_add(1, Ordering::Relaxed);
                // A frame whose sequence or span runs past `u64::MAX` is
                // well formed on the wire but cannot continue any stream:
                // reject it before it moves a counter or an expectation.
                let len = f.samples.len() as u64;
                let (Some(next_seq), Some(frame_end)) =
                    (f.seq.checked_add(1), f.first_sample.checked_add(len))
                else {
                    stats.frames_rejected.fetch_add(1, Ordering::Relaxed);
                    continue;
                };
                let exp = expected_pos.unwrap_or(f.first_sample);
                if frame_end <= exp {
                    // Entirely behind the stream head: a duplicate, a late
                    // reordering of a span already resolved (delivered or
                    // zero-filled), or a sender restart re-announcing old
                    // positions. Replaying it would bend time.
                    stats.frames_rejected.fetch_add(1, Ordering::Relaxed);
                    continue;
                }
                let gap = f.first_sample.saturating_sub(exp);
                if let Some(exp_seq) = expected_seq {
                    // Every lost data frame carried at least one sample,
                    // so the position gap bounds how many were lost.
                    let lost = f.seq.saturating_sub(exp_seq).min(gap);
                    if lost > 0 {
                        stats.frames_dropped.fetch_add(lost, Ordering::Relaxed);
                    }
                }
                expected_seq = Some(next_seq);
                if gap > 0 {
                    let fill = gap.min(cfg.max_zero_fill);
                    push_zeros(&mut gw, fill);
                    stats.samples_gapped.fetch_add(fill, Ordering::Relaxed);
                }
                // Overlap with already-pushed samples is trimmed off the
                // head; `skip == 0` in the common contiguous case.
                let skip = exp.saturating_sub(f.first_sample) as usize;
                gw.push(&f.samples[skip..]);
                expected_pos = Some(frame_end);
            }
            IqEvent::Idle => {}
            IqEvent::Reconnected => {
                stats.reconnects.fetch_add(1, Ordering::Relaxed);
            }
            IqEvent::Corrupt(_) => {
                stats.frames_rejected.fetch_add(1, Ordering::Relaxed);
            }
            IqEvent::End => break,
        }
    }
    // Abandoned: dropping the gateway stops its threads without a drain.
    (state.load(Ordering::Acquire) != ABANDON).then(|| gw.finish())
}
