//! Socket loopback smoke: a UDP (and TCP) sender on 127.0.0.1 feeding a
//! 2-channel gateway through the ingest driver. On a clean link the
//! network path must deliver exactly the packets the in-process `push`
//! path decodes — exactly once, in order, with zero loss counters.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use cic::CicConfig;
use lora_channel::wideband::{generate_traffic, BandPlan, TrafficConfig};
use lora_channel::{add_unit_noise, amplitude_for_snr, PacedReplay, WidebandCapture};
use lora_dsp::{Cf32, ChannelizerConfig};
use lora_gateway::{Gateway, GatewayConfig, GatewayPacket, OverloadConfig};
use lora_ingest::{
    encode_frame, IngestConfig, IngestDriver, NetConfig, TcpIqSource, UdpIqSender, UdpIqSource,
};
use lora_phy::params::CodeRate;
use rand::rngs::StdRng;
use rand::SeedableRng;

const PAYLOAD_LEN: usize = 16;
const SFS: [u8; 2] = [7, 9];
const FRAME_SAMPLES: usize = 2048;

fn plan() -> BandPlan {
    BandPlan::uniform(2, 250e3, 500e3, 4, 4)
}

fn gateway(plan: &BandPlan) -> Gateway {
    Gateway::new(GatewayConfig {
        channelizer: ChannelizerConfig::uniform(
            plan.n_channels(),
            plan.bandwidth_hz,
            500e3,
            plan.bandwidth_hz * plan.oversampling as f64,
            plan.decimation,
        ),
        oversampling: plan.oversampling,
        sfs: SFS.to_vec(),
        code_rate: CodeRate::Cr45,
        payload_len: PAYLOAD_LEN,
        cic: CicConfig::default(),
        // Deep enough to hold the whole capture: decode equality between
        // the paced network path and a flat-out in-process push requires
        // that neither ever hits the drop-oldest eviction.
        queue_capacity: 1024,
        overload: OverloadConfig {
            // Pinned: decode must be identical on both paths, so no
            // wall-clock-dependent idle quiesce may fire mid-stream.
            idle_timeout: Duration::from_secs(600),
            ..OverloadConfig::drop_oldest()
        },
    })
    .expect("valid config")
}

fn capture(seed: u64) -> (BandPlan, WidebandCapture) {
    let plan = plan();
    let cfg = TrafficConfig {
        n_nodes: 8,
        sfs: SFS.to_vec(),
        code_rate: CodeRate::Cr45,
        rate_pps: 45.0,
        duration_s: 0.2,
        payload_len: PAYLOAD_LEN,
        amplitude_range: (
            amplitude_for_snr(17.0, plan.oversampling),
            amplitude_for_snr(24.0, plan.oversampling),
        ),
        cfo_range_hz: (-2000.0, 2000.0),
    };
    let mut rng = StdRng::seed_from_u64(seed);
    let mut cap = generate_traffic(&mut rng, &plan, &cfg);
    add_unit_noise(&mut rng, &mut cap.samples);
    (plan, cap)
}

/// CRC-ok packets of the in-process push path, same chunking as the
/// network sender frames.
fn reference(plan: &BandPlan, samples: &[Cf32]) -> Vec<GatewayPacket> {
    let mut gw = gateway(plan);
    for chunk in samples.chunks(FRAME_SAMPLES) {
        gw.push(chunk);
    }
    let (packets, _) = gw.finish();
    packets.into_iter().filter(|p| p.packet.ok()).collect()
}

fn assert_ordered(packets: &[GatewayPacket]) {
    for w in packets.windows(2) {
        assert!(
            w[0].start_wideband <= w[1].start_wideband,
            "subscription stream out of order: {} then {}",
            w[0].start_wideband,
            w[1].start_wideband
        );
    }
}

/// Every reference packet appears exactly once in `got` (same channel,
/// SF, payload, and start within half a symbol).
fn assert_exactly_once(plan: &BandPlan, reference: &[GatewayPacket], got: &[GatewayPacket]) {
    for r in reference {
        let tol = (1u64 << r.sf) * (plan.oversampling * plan.decimation) as u64 / 2;
        let matches = got
            .iter()
            .filter(|p| {
                p.channel == r.channel
                    && p.sf == r.sf
                    && p.start_wideband.abs_diff(r.start_wideband) < tol
                    && p.packet.payload == r.packet.payload
            })
            .count();
        assert_eq!(
            matches, 1,
            "reference packet (ch {}, sf {}, start {}) delivered {matches} times",
            r.channel, r.sf, r.start_wideband
        );
    }
}

#[test]
fn udp_clean_link_delivers_exactly_once_in_order() {
    let (plan, cap) = capture(21);
    let expected = reference(&plan, &cap.samples);
    assert!(
        expected.len() >= 4,
        "reference too small to be meaningful: {}",
        expected.len()
    );

    let source = UdpIqSource::bind(
        "127.0.0.1:0",
        NetConfig {
            liveness_timeout: Duration::from_secs(5),
            ..NetConfig::default()
        },
    )
    .expect("bind UDP source");
    let dest = source.local_addr();

    let rate = plan.wideband_rate_hz();
    let samples = cap.samples.clone();
    let sender = std::thread::spawn(move || {
        let mut tx = UdpIqSender::connect(dest).expect("bind UDP sender");
        // Paced well below real time: the default kernel receive buffer
        // only holds ~13 frames, so the clean-link guarantee needs the
        // wire rate low enough that scheduling jitter on a loaded CI
        // machine cannot overflow it.
        let mut replay = PacedReplay::new(samples, FRAME_SAMPLES, rate, Some(0.125));
        while let Some(chunk) = replay.next_chunk() {
            let chunk = chunk.to_vec();
            tx.send(&chunk, true).expect("send frame");
        }
        tx.send_eos(5).expect("send EOS");
    });

    let sub = IngestDriver::spawn(gateway(&plan), source, IngestConfig::default());
    // Stream packets as they decode (the non-blocking consumer shape)…
    let mut got = Vec::new();
    while let Some(p) = sub.next_timeout(Duration::from_millis(500)) {
        got.push(p);
    }
    // …then drain whatever finish() flushed.
    let (rest, snap) = sub.join();
    got.extend(rest);
    sender.join().expect("sender thread");

    // Clean link: all loss counters pinned to zero, every sample arrived.
    assert_eq!(snap.frames_dropped, 0);
    assert_eq!(snap.frames_rejected, 0);
    assert_eq!(snap.samples_gapped, 0);
    assert_eq!(snap.reconnects, 0);
    assert_eq!(snap.samples_in, cap.samples.len() as u64);

    assert_ordered(&got);
    let ok: Vec<GatewayPacket> = got.into_iter().filter(|p| p.packet.ok()).collect();
    assert_eq!(
        ok.len(),
        expected.len(),
        "network path lost or invented packets"
    );
    assert_exactly_once(&plan, &expected, &ok);
}

#[test]
fn udp_truncated_datagram_is_rejected_and_counted() {
    let source = UdpIqSource::bind("127.0.0.1:0", NetConfig::default()).expect("bind");
    let dest = source.local_addr();
    let sender = std::thread::spawn(move || {
        let mut tx = UdpIqSender::connect(dest).expect("sender");
        let chunk = vec![Cf32::new(0.0, 0.0); 256];
        tx.send(&chunk, true).expect("send");
        // A datagram cut off mid-payload (lossy serial bridge, say).
        let wire = encode_frame(tx.seq, tx.pos, &chunk);
        let sock = std::net::UdpSocket::bind("127.0.0.1:0").expect("bind raw");
        sock.send_to(&wire[..wire.len() / 2], dest)
            .expect("send truncated");
        tx.seq += 1;
        tx.pos += chunk.len() as u64;
        tx.send(&chunk, true).expect("send");
        tx.send_eos(3).expect("eos");
    });
    let sub = IngestDriver::spawn(gateway(&plan()), source, IngestConfig::default());
    let (_, snap) = sub.join();
    sender.join().expect("sender thread");

    assert_eq!(
        snap.frames_rejected, 1,
        "truncated datagram must be rejected"
    );
    // The rejected frame's span is repaired by zero-fill when the next
    // good frame arrives, so the stream stays whole.
    assert_eq!(snap.frames_in, 2);
    assert_eq!(snap.samples_gapped, 256);
    assert_eq!(snap.samples_in, 3 * 256);
}

#[test]
fn udp_liveness_timeout_rebinds_and_stream_continues() {
    // Every wait below is bounded: a missed deadline fails the test with
    // a message instead of hanging it.
    const DEADLINE: Duration = Duration::from_secs(30);
    let source = UdpIqSource::bind(
        "127.0.0.1:0",
        NetConfig {
            read_timeout: Duration::from_millis(10),
            liveness_timeout: Duration::from_millis(150),
            ..NetConfig::default()
        },
    )
    .expect("bind");
    let dest = source.local_addr();
    // `rebound` tells the sender the source is listening again; `ended`
    // tells it the driver has returned, so it can stop repeating EOS.
    let (rebound_tx, rebound_rx) = mpsc::channel::<()>();
    let ended = Arc::new(AtomicBool::new(false));
    let sender_ended = ended.clone();
    let sender = std::thread::spawn(move || {
        let mut tx = UdpIqSender::connect(dest).expect("sender");
        let chunk = vec![Cf32::new(0.0, 0.0); 1024];
        for _ in 0..10 {
            tx.send(&chunk, true).expect("send");
            std::thread::sleep(Duration::from_millis(2));
        }
        // Dead air until the liveness timeout fires: the source must tear
        // the socket down and rebind the same port. While it sleeps out
        // its backoff no socket is bound and every datagram is lost, so
        // the second batch goes out as soon as the rebind is reported,
        // well inside the fresh socket's liveness window.
        rebound_rx
            .recv_timeout(DEADLINE)
            .expect("no rebind reported within the deadline");
        for _ in 0..10 {
            tx.send(&chunk, true).expect("send");
            std::thread::sleep(Duration::from_millis(2));
        }
        // An EOS landing in a later unbound window is lost too: repeat it
        // until the driver has seen one.
        let t0 = Instant::now();
        while !sender_ended.load(Ordering::Acquire) {
            assert!(
                t0.elapsed() < DEADLINE,
                "driver did not end the stream within {DEADLINE:?} of EOS"
            );
            tx.send_eos(1).expect("eos");
            std::thread::sleep(Duration::from_millis(20));
        }
    });
    let sub = IngestDriver::spawn(gateway(&plan()), source, IngestConfig::default());
    let t0 = Instant::now();
    while sub.stats().reconnects == 0 {
        assert!(
            t0.elapsed() < DEADLINE,
            "liveness timeout did not trigger a rebind within {DEADLINE:?}"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    rebound_tx.send(()).expect("sender thread alive");
    // `join` has no timeout of its own: run it on a helper thread and
    // bound the wait for its result.
    let (done_tx, done_rx) = mpsc::channel();
    let joiner = std::thread::spawn(move || {
        let drained = sub.join();
        ended.store(true, Ordering::Release);
        let _ = done_tx.send(drained);
    });
    let (_, snap) = done_rx
        .recv_timeout(DEADLINE)
        .expect("ingest driver did not return within the deadline");
    joiner.join().expect("join thread");
    sender.join().expect("sender thread");

    assert!(
        snap.reconnects >= 1,
        "liveness timeout must trigger a rebind"
    );
    // Everything sent eventually lands (gap repair covers any datagram
    // racing the rebind window).
    assert_eq!(snap.samples_in, 20 * 1024);
}

#[test]
fn tcp_disconnect_redials_and_stream_continues() {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("listen");
    let addr = listener.local_addr().expect("addr");
    let sender = std::thread::spawn(move || {
        use std::io::Write;
        let chunk = vec![Cf32::new(0.0, 0.0); 1024];
        // First connection: five frames, then a hard drop mid-stream.
        let (mut conn, _) = listener.accept().expect("accept 1");
        for i in 0..5u64 {
            conn.write_all(&encode_frame(i, i * 1024, &chunk))
                .expect("write");
        }
        drop(conn);
        // The source re-dials; the sender resumes where it left off.
        let (mut conn, _) = listener.accept().expect("accept 2");
        for i in 5..10u64 {
            conn.write_all(&encode_frame(i, i * 1024, &chunk))
                .expect("write");
        }
        conn.write_all(&encode_frame(10, 10 * 1024, &[]))
            .expect("write EOS");
    });

    let source = TcpIqSource::connect(
        addr,
        NetConfig {
            read_timeout: Duration::from_millis(10),
            liveness_timeout: Duration::from_millis(500),
            ..NetConfig::default()
        },
    );
    let sub = IngestDriver::spawn(gateway(&plan()), source, IngestConfig::default());
    let (_, snap) = sub.join();
    sender.join().expect("sender thread");

    assert_eq!(snap.reconnects, 1, "one drop, one re-dial");
    assert_eq!(snap.frames_in, 10);
    assert_eq!(snap.frames_dropped, 0);
    assert_eq!(snap.samples_gapped, 0);
    assert_eq!(snap.samples_in, 10 * 1024);
}
