//! Driver-level fault injection through a scripted [`IqSource`]: every
//! transport pathology the wire can produce, with exact counter
//! accounting asserted against `GatewaySnapshot`.

use std::collections::VecDeque;
use std::time::Duration;

use cic::CicConfig;
use lora_dsp::{Cf32, ChannelizerConfig};
use lora_gateway::{Gateway, GatewayConfig, OverloadConfig};
use lora_ingest::{
    Backoff, FrameError, IngestConfig, IngestDriver, IqEvent, IqFrame, IqSource, NetConfig,
    TcpIqSource, UdpIqSender, UdpIqSource,
};
use lora_phy::params::CodeRate;

fn gateway() -> Gateway {
    Gateway::new(GatewayConfig {
        channelizer: ChannelizerConfig::uniform(2, 250e3, 500e3, 1e6, 4),
        oversampling: 4,
        sfs: vec![7],
        code_rate: CodeRate::Cr45,
        payload_len: 16,
        cic: CicConfig::default(),
        queue_capacity: 64,
        overload: OverloadConfig {
            idle_timeout: Duration::from_secs(600),
            ..OverloadConfig::drop_oldest()
        },
    })
    .expect("valid config")
}

/// Replays a fixed event script, then reports end of stream forever.
struct ScriptedSource {
    events: VecDeque<IqEvent>,
}

impl ScriptedSource {
    fn new(events: Vec<IqEvent>) -> Self {
        Self {
            events: events.into(),
        }
    }
}

impl IqSource for ScriptedSource {
    fn next_event(&mut self) -> IqEvent {
        self.events.pop_front().unwrap_or(IqEvent::End)
    }
}

fn frame(seq: u64, first_sample: u64, n: usize) -> IqEvent {
    IqEvent::Frame(IqFrame {
        seq,
        first_sample,
        samples: vec![Cf32::new(0.0, 0.0); n],
    })
}

#[test]
fn every_fault_is_counted_exactly() {
    let script = vec![
        frame(0, 0, 1000),
        frame(1, 1000, 1000),
        // Duplicate datagram (same seq, same span): rejected outright.
        frame(1, 1000, 1000),
        IqEvent::Idle,
        // seq 2 lost: one frame dropped, its 500-sample span zero-filled.
        frame(3, 2500, 1000),
        // Late reordered arrival of the lost frame: its span is already
        // behind the head (zero-filled), so it cannot be replayed.
        frame(2, 2000, 500),
        // A disconnect/reconnect cycle somewhere in between.
        IqEvent::Reconnected,
        // Partial overlap: 500 of these samples were already resolved,
        // only the head is trimmed, the remaining 500 are pushed.
        frame(4, 3000, 1000),
        // Corrupt bytes on the wire.
        IqEvent::Corrupt(FrameError::TooShort(3)),
        IqEvent::End,
    ];
    let sub = IngestDriver::spawn(
        gateway(),
        ScriptedSource::new(script),
        IngestConfig::default(),
    );
    let (_, snap) = sub.join();

    assert_eq!(snap.frames_in, 6, "every Frame event is counted");
    assert_eq!(snap.frames_dropped, 1, "the seq-2 hole");
    // The duplicate, the late reorder, and the corrupt event.
    assert_eq!(snap.frames_rejected, 3);
    assert_eq!(snap.samples_gapped, 500, "the zero-filled span");
    assert_eq!(snap.reconnects, 1);
    // 1000 + 1000 + 500 zeros + 1000 + trimmed 500 = 4000 samples, and
    // the gateway's time base is exactly the sender's: monotone, no
    // double-counted overlap.
    assert_eq!(snap.samples_in, 4000);
}

#[test]
fn one_forged_sequence_number_does_not_poison_the_stream() {
    // A forged frame's sequence number leaps 2^62 ahead, but it starts
    // exactly where the stream head is: no frame can have been lost, and
    // the in-order frames after it continue the stream instead of looking
    // stale — whether the forged span ends where a real frame begins or
    // in the middle of one, whose overlap is then trimmed.
    let on_grid = vec![
        frame(0, 0, 100),
        frame(1 << 62, 100, 100),
        frame(1, 200, 100),
        frame(2, 300, 100),
        IqEvent::End,
    ];
    let off_grid = vec![
        frame(0, 0, 100),
        frame(1, 100, 100),
        frame(1 << 62, 200, 50),
        frame(2, 200, 100),
        frame(3, 300, 100),
        IqEvent::End,
    ];
    for (script, frames) in [(on_grid, 4), (off_grid, 5)] {
        let sub = IngestDriver::spawn(
            gateway(),
            ScriptedSource::new(script),
            IngestConfig::default(),
        );
        let (_, snap) = sub.join();

        assert_eq!(snap.frames_in, frames);
        assert_eq!(snap.frames_dropped, 0, "no position gap, so no lost frame");
        assert_eq!(
            snap.frames_rejected, 0,
            "the stream resumed behind the leap"
        );
        assert_eq!(snap.samples_in, 400);
    }
}

#[test]
fn frames_overflowing_sequence_or_span_are_rejected() {
    // Both frames decode from the wire, but the next sequence number of
    // the first and the span end of the second pass `u64::MAX`: neither
    // may panic the driver, count a hole, or move the stream.
    let script = vec![
        frame(0, 0, 100),
        frame(u64::MAX, 100, 100),
        frame(1, u64::MAX - 10, 100),
        frame(1, 100, 100),
        IqEvent::End,
    ];
    let sub = IngestDriver::spawn(
        gateway(),
        ScriptedSource::new(script),
        IngestConfig::default(),
    );
    let (_, snap) = sub.join();

    assert_eq!(snap.frames_in, 4);
    assert_eq!(snap.frames_rejected, 2, "the two overflowing frames");
    assert_eq!(snap.frames_dropped, 0, "no sequence hole was counted");
    assert_eq!(snap.samples_in, 200, "the stream continued at seq 1");
}

#[test]
fn oversized_gap_is_zero_filled_only_up_to_the_cap() {
    let script = vec![
        frame(0, 0, 100),
        // A ludicrous gap (sender restarted its sample clock far ahead):
        // filling it literally would stall ingest for gigabytes.
        frame(1, 1_000_000, 100),
        // The stream continues contiguously after the jump.
        frame(2, 1_000_100, 100),
        IqEvent::End,
    ];
    let cfg = IngestConfig {
        max_zero_fill: 2048,
        ..IngestConfig::default()
    };
    let sub = IngestDriver::spawn(gateway(), ScriptedSource::new(script), cfg);
    let (_, snap) = sub.join();

    assert_eq!(snap.frames_in, 3);
    assert_eq!(snap.frames_dropped, 0, "no seq holes, just a time jump");
    assert_eq!(snap.samples_gapped, 2048, "fill is capped, not literal");
    // 100 + 2048 + 100 + 100: the time base slipped past the rest of the
    // gap instead of manufacturing a megasample of silence.
    assert_eq!(snap.samples_in, 2348);
}

#[test]
fn stale_stream_restart_is_rejected_not_replayed() {
    let script = vec![
        frame(0, 0, 1000),
        frame(1, 1000, 1000),
        // A sender restart re-announces old positions under fresh seq:
        // time must not rewind, so these are rejected wholesale.
        frame(2, 0, 500),
        frame(3, 500, 500),
        // ...until the restart catches up with the head again.
        frame(4, 2000, 1000),
        IqEvent::End,
    ];
    let sub = IngestDriver::spawn(
        gateway(),
        ScriptedSource::new(script),
        IngestConfig::default(),
    );
    let (_, snap) = sub.join();

    assert_eq!(snap.frames_in, 5);
    assert_eq!(snap.frames_rejected, 2);
    assert_eq!(snap.samples_gapped, 0);
    assert_eq!(snap.samples_in, 3000);
}

/// Regression: the backoff used to rewind to base on every successful
/// TCP dial, so a flapping peer (crash-looping sender behind a
/// supervisor: accepts, then drops immediately) was re-dialled in a
/// tight loop at the base delay forever. A connection that merely
/// *opened* proves nothing — delays must keep escalating until frames
/// have flowed for a full liveness window.
#[test]
fn tcp_flapping_peer_escalates_backoff() {
    use std::io::ErrorKind;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("listen");
    listener.set_nonblocking(true).expect("nonblocking");
    let addr = listener.local_addr().expect("addr");
    let stop = Arc::new(AtomicBool::new(false));
    let flapper = std::thread::spawn({
        let stop = Arc::clone(&stop);
        move || {
            // Accept and instantly drop every connection, never sending
            // a byte: each drop forces the source back into redial.
            while !stop.load(Ordering::Relaxed) {
                match listener.accept() {
                    Ok((conn, _)) => drop(conn),
                    Err(ref e) if e.kind() == ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    Err(_) => break,
                }
            }
        }
    });

    let base = Duration::from_millis(1);
    let mut source = TcpIqSource::connect(
        addr,
        NetConfig {
            read_timeout: Duration::from_millis(5),
            liveness_timeout: Duration::from_millis(200),
            backoff: Backoff::new(base, Duration::from_millis(100)),
        },
    );
    let mut observed = Vec::new();
    for _ in 0..400 {
        if matches!(source.next_event(), IqEvent::Reconnected) {
            observed.push(source.current_backoff());
            if observed.len() >= 5 {
                break;
            }
        }
    }
    assert!(
        observed.len() >= 5,
        "flapping peer produced only {} re-dials",
        observed.len()
    );
    assert!(
        observed.windows(2).all(|w| w[1] >= w[0]),
        "backoff rewound across a flap: {observed:?}"
    );
    assert!(
        *observed.last().unwrap() >= base * 8,
        "backoff never escalated across a flapping peer: {observed:?}"
    );
    drop(source);
    stop.store(true, Ordering::Relaxed);
    flapper.join().expect("flapper thread");
}

/// Regression companion on the UDP side: a silent link (sender gone)
/// drives liveness-timeout rebinds, and since a local rebind virtually
/// always succeeds, the old reset-on-rebind kept the loop at the base
/// delay. Rebind delays must escalate under persistent silence.
#[test]
fn udp_silent_link_escalates_rebind_backoff() {
    let base = Duration::from_millis(1);
    let mut source = UdpIqSource::bind(
        "127.0.0.1:0",
        NetConfig {
            read_timeout: Duration::from_millis(5),
            liveness_timeout: Duration::from_millis(10),
            backoff: Backoff::new(base, Duration::from_millis(100)),
        },
    )
    .expect("bind");
    let mut rebinds = 0;
    for _ in 0..500 {
        if matches!(source.next_event(), IqEvent::Reconnected) {
            rebinds += 1;
            if rebinds >= 5 {
                break;
            }
        }
    }
    assert!(rebinds >= 5, "silence produced only {rebinds} rebinds");
    assert!(
        source.current_backoff() >= base * 8,
        "rebind backoff never escalated under persistent silence: {:?}",
        source.current_backoff()
    );
}

/// The other half of the health gate: once frames keep arriving for a
/// full liveness window, the link has proven itself and the backoff
/// must rewind to base — escalation is for flaps, not forever.
#[test]
fn sustained_healthy_link_rewinds_backoff_to_base() {
    let base = Duration::from_millis(1);
    let mut source = UdpIqSource::bind(
        "127.0.0.1:0",
        NetConfig {
            read_timeout: Duration::from_millis(5),
            liveness_timeout: Duration::from_millis(60),
            backoff: Backoff::new(base, Duration::from_millis(100)),
        },
    )
    .expect("bind");
    let dest = source.local_addr();

    // Escalate first: dead air forces a few liveness rebinds.
    let mut rebinds = 0;
    for _ in 0..500 {
        if matches!(source.next_event(), IqEvent::Reconnected) {
            rebinds += 1;
            if rebinds >= 3 {
                break;
            }
        }
    }
    assert!(
        source.current_backoff() > base,
        "precondition: backoff must be escalated before the link heals"
    );

    // Now a healthy sender: frames keep arriving well past one liveness
    // window, which is what actually earns the reset.
    let sender = std::thread::spawn(move || {
        let mut tx = UdpIqSender::connect(dest).expect("sender");
        let chunk = vec![Cf32::new(0.0, 0.0); 64];
        for _ in 0..60 {
            tx.send(&chunk, true).expect("send");
            std::thread::sleep(Duration::from_millis(5));
        }
    });
    let mut frames = 0u32;
    for _ in 0..2000 {
        if matches!(source.next_event(), IqEvent::Frame(_)) {
            frames += 1;
        }
        if source.current_backoff() == base {
            break;
        }
    }
    sender.join().expect("sender thread");
    assert!(frames > 0, "healthy sender delivered no frames");
    assert_eq!(
        source.current_backoff(),
        base,
        "a sustained healthy interval must rewind the backoff"
    );
}

#[test]
fn stop_interrupts_a_live_source() {
    // An endless source: only PacketSubscription::stop can end this.
    struct Endless;
    impl IqSource for Endless {
        fn next_event(&mut self) -> IqEvent {
            std::thread::sleep(Duration::from_millis(1));
            IqEvent::Idle
        }
    }
    let sub = IngestDriver::spawn(gateway(), Endless, IngestConfig::default());
    assert!(sub.try_next().is_none());
    sub.stop();
    let (packets, snap) = sub.join();
    assert!(packets.is_empty());
    assert_eq!(snap.samples_in, 0);
}

#[test]
fn dropping_a_subscription_stops_every_thread() {
    // Regression: `PacketSubscription` had no `Drop`. Dropped without
    // `stop` + `join`, its driver thread looped on the source forever and
    // kept the gateway's pool threads alive, each holding the stats.
    struct Endless(u64);
    impl IqSource for Endless {
        fn next_event(&mut self) -> IqEvent {
            std::thread::sleep(Duration::from_millis(1));
            self.0 += 1;
            IqEvent::Frame(IqFrame {
                seq: self.0,
                first_sample: self.0 * 4096,
                samples: vec![Cf32::new(0.0, 0.0); 4096],
            })
        }
    }
    let gw = gateway();
    let stats = gw.stats();
    let sub = IngestDriver::spawn(gw, Endless(0), IngestConfig::default());
    drop(sub);
    assert_eq!(
        std::sync::Arc::strong_count(&stats),
        1,
        "an ingest or gateway thread outlived the drop"
    );
}
