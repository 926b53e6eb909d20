//! End-to-end gateway acceptance: Poisson traffic across 4 channels ×
//! {SF7, SF9} with intra-channel collisions, synthesised into one
//! wideband stream, pushed through the gateway in ragged chunk sizes.
//! Every packet the per-channel *batch* receiver decodes must be emitted
//! exactly once, time-ordered, by the gateway, and the telemetry must be
//! consistent with the sink.

use std::time::{Duration, Instant};

use cic::{CicConfig, CicReceiver};
use lora_channel::wideband::{
    generate_traffic, synthesize, BandPlan, TrafficConfig, WidebandPacket,
};
use lora_channel::{add_unit_noise, amplitude_for_snr};
use lora_dsp::{Cf32, Channelizer, ChannelizerConfig};
use lora_gateway::{rung_slot, Gateway, GatewayConfig, OverloadConfig, OverloadPolicy, SIC_RUNG};
use lora_phy::packet::Transceiver;
use lora_phy::params::CodeRate;
use rand::rngs::StdRng;
use rand::SeedableRng;

const PAYLOAD_LEN: usize = 16;
const SFS: [u8; 2] = [7, 9];

fn plan() -> BandPlan {
    BandPlan::uniform(4, 250e3, 500e3, 4, 4)
}

fn channelizer_config(plan: &BandPlan) -> ChannelizerConfig {
    ChannelizerConfig::uniform(
        plan.n_channels(),
        plan.bandwidth_hz,
        500e3,
        plan.bandwidth_hz * plan.oversampling as f64,
        plan.decimation,
    )
}

/// The legacy policy with the idle watermark effectively disabled: these
/// acceptance tests compare against a batch reference, so no timer may
/// quiesce a receiver mid-stream on a slow CI machine.
fn pinned_drop_oldest() -> OverloadConfig {
    OverloadConfig {
        idle_timeout: Duration::from_secs(600),
        ..OverloadConfig::drop_oldest()
    }
}

fn gateway_config(
    plan: &BandPlan,
    queue_capacity: usize,
    overload: OverloadConfig,
) -> GatewayConfig {
    GatewayConfig {
        channelizer: channelizer_config(plan),
        oversampling: plan.oversampling,
        sfs: SFS.to_vec(),
        code_rate: CodeRate::Cr45,
        payload_len: PAYLOAD_LEN,
        cic: CicConfig::default(),
        queue_capacity,
        overload,
    }
}

/// Deterministic Poisson capture over the band, with noise.
fn capture(seed: u64) -> (BandPlan, lora_channel::WidebandCapture) {
    let plan = plan();
    let cfg = TrafficConfig {
        n_nodes: 8,
        sfs: SFS.to_vec(),
        code_rate: CodeRate::Cr45,
        rate_pps: 45.0,
        duration_s: 0.22,
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

/// Does the truth contain two transmissions overlapping on one channel?
fn has_intra_channel_collision(plan: &BandPlan, cap: &lora_channel::WidebandCapture) -> bool {
    let frame = |sf: u8| {
        Transceiver::new(plan.wideband_params(sf), CodeRate::Cr45).frame_samples(PAYLOAD_LEN)
    };
    cap.truth.iter().enumerate().any(|(i, a)| {
        cap.truth.iter().skip(i + 1).any(|b| {
            a.channel == b.channel
                && a.start_sample < b.start_sample + frame(b.sf)
                && b.start_sample < a.start_sample + frame(a.sf)
        })
    })
}

/// (channel, sf, start_wideband, payload) of every CRC-passing packet the
/// per-channel batch receiver finds, on the same time base the gateway
/// reports.
fn batch_reference(plan: &BandPlan, samples: &[Cf32]) -> Vec<(usize, u8, u64, Vec<u8>)> {
    let mut chz = Channelizer::new(channelizer_config(plan));
    let delay = chz.group_delay_wideband() as u64;
    let outs = chz.process_all(samples);
    let d = plan.decimation as u64;
    let mut expected = Vec::new();
    for (channel, out) in outs.iter().enumerate() {
        for &sf in &SFS {
            let rx = CicReceiver::new(
                plan.channel_params(sf),
                CodeRate::Cr45,
                PAYLOAD_LEN,
                CicConfig::default(),
            );
            for p in rx.receive(out) {
                if let Some(payload) = p.payload {
                    let start = (p.detection.frame_start as u64 * d).saturating_sub(delay);
                    expected.push((channel, sf, start, payload));
                }
            }
        }
    }
    expected
}

#[test]
fn gateway_matches_batch_exactly_once_in_order() {
    let (plan, cap) = capture(11);
    assert!(
        has_intra_channel_collision(&plan, &cap),
        "seed must produce an intra-channel collision; truth: {:?}",
        cap.truth
            .iter()
            .map(|t| (t.channel, t.sf, t.start_sample))
            .collect::<Vec<_>>()
    );

    let expected = batch_reference(&plan, &cap.samples);
    assert!(
        expected.len() >= 4,
        "batch reference too small to be meaningful: {expected:?}"
    );

    let mut gw =
        Gateway::new(gateway_config(&plan, 256, pinned_drop_oldest())).expect("valid config");
    // Ragged, arbitrary chunk sizes (some below the decimation factor).
    let sizes = [4096usize, 9973, 1, 16384, 1000, 3, 32768, 777];
    let mut pos = 0;
    let mut si = 0;
    while pos < cap.samples.len() {
        let n = sizes[si % sizes.len()].min(cap.samples.len() - pos);
        si += 1;
        gw.push(&cap.samples[pos..pos + n]);
        pos += n;
    }
    let (packets, snap) = gw.finish();

    // Time-ordered.
    for w in packets.windows(2) {
        assert!(
            w[0].start_wideband <= w[1].start_wideband,
            "sink emitted out of order: {} then {}",
            w[0].start_wideband,
            w[1].start_wideband
        );
    }

    // Every batch-decoded packet appears exactly once.
    for (channel, sf, start, payload) in &expected {
        let tol = (1u64 << sf) * (plan.oversampling * plan.decimation) as u64 / 2;
        let matches = packets
            .iter()
            .filter(|p| {
                p.channel == *channel
                    && p.sf == *sf
                    && p.start_wideband.abs_diff(*start) < tol
                    && p.packet.payload.as_deref() == Some(&payload[..])
            })
            .count();
        assert_eq!(
            matches, 1,
            "batch packet (ch {channel}, sf {sf}, start {start}) emitted {matches} times"
        );
    }

    // Telemetry is consistent with the sink.
    assert_eq!(snap.samples_in, cap.samples.len() as u64);
    assert_eq!(snap.chunks_dropped, 0, "no drops at nominal rate");
    assert_eq!(snap.samples_dropped, 0);
    assert_eq!(snap.packets_released, packets.len() as u64);
    assert_eq!(
        snap.packets_decoded + snap.crc_failures,
        snap.packets_released + snap.duplicates_suppressed,
        "every demodulated packet is either released or suppressed"
    );
    let ok = packets.iter().filter(|p| p.packet.ok()).count() as u64;
    let failed = packets.len() as u64 - ok;
    assert!(snap.packets_decoded >= ok);
    assert!(snap.crc_failures >= failed);
    assert!(snap.channelize.count > 0 && snap.decode.count > 0);
    assert!(snap.workers.iter().all(|w| w.queue_depth_hwm > 0));
}

#[test]
fn overloaded_gateway_sheds_load_and_stays_consistent() {
    let (plan, cap) = capture(11);
    // Queue depth 1 with a producer pushing flat out: decode cannot keep
    // up, so the drop-oldest policy must engage and the workers must
    // resynchronise across the gaps instead of wedging or panicking.
    let mut gw =
        Gateway::new(gateway_config(&plan, 1, pinned_drop_oldest())).expect("valid config");
    for chunk in cap.samples.chunks(2048) {
        gw.push(chunk);
    }
    let (packets, snap) = gw.finish();
    assert!(
        snap.chunks_dropped > 0,
        "queue depth 1 at full push rate must shed load"
    );
    assert!(snap.samples_dropped > 0);
    for w in packets.windows(2) {
        assert!(w[0].start_wideband <= w[1].start_wideband);
    }
    assert_eq!(
        snap.packets_decoded + snap.crc_failures,
        snap.packets_released + snap.duplicates_suppressed
    );
    assert_eq!(snap.packets_released, packets.len() as u64);
}

#[test]
fn idle_workers_release_decoded_packets_without_more_samples() {
    // Regression (watermark liveness): a worker with an empty queue used
    // to block in `pop` forever, never advancing its watermark, so a
    // packet another worker had already decoded sat in the sink until
    // either more samples arrived or the gateway was torn down. With the
    // idle timeout, every caught-up worker publishes a watermark at its
    // full stream position and the packet comes out while the gateway is
    // still running.
    let plan = BandPlan::uniform(2, 250e3, 500e3, 4, 4);
    let sps_wide = 128 * plan.oversampling * plan.decimation; // SF7 symbol
    let tx = Transceiver::new(plan.wideband_params(7), CodeRate::Cr45);
    let frame = tx.frame_samples(PAYLOAD_LEN);
    let start = 4 * sps_wide;
    // Enough tail that the frame clears the edge-hold margin, but far
    // less than the receiver holdback: without the idle watermark this
    // packet is decoded yet unreleasable.
    let len = start + frame + 8 * sps_wide;
    let payload: Vec<u8> = (0..PAYLOAD_LEN as u8).collect();
    let samples = synthesize(
        &plan,
        len,
        &[WidebandPacket {
            channel: 0,
            sf: 7,
            code_rate: CodeRate::Cr45,
            payload: payload.clone(),
            amplitude: 1.0,
            start_sample: start,
            cfo_hz: 300.0,
        }],
    );

    let mut overload = OverloadConfig::drop_oldest();
    overload.idle_timeout = Duration::from_millis(50);
    let mut gw = Gateway::new(gateway_config(&plan, 64, overload)).expect("valid config");
    gw.push(&samples);

    // No further pushes and no finish(): only the idle watermark can
    // release the packet now. The subscription blocks on the release
    // instead of sleep-polling `poll_packets`.
    let rx = gw.subscribe(8);
    let got = rx
        .recv_timeout(Duration::from_secs(20))
        .expect("idle watermark must release the decoded packet while the gateway is live");
    assert_eq!(got.channel, 0);
    assert_eq!(got.sf, 7);
    assert_eq!(got.packet.payload.as_deref(), Some(&payload[..]));
    let (rest, _) = gw.finish();
    assert!(rest.is_empty(), "the packet must not be emitted twice");
    assert!(
        rx.try_recv().is_err(),
        "the packet must not be emitted twice"
    );
}

#[test]
fn packet_ending_at_capture_end_decodes_through_flush() {
    // Regression (channelizer tail flush): the channel filter's group
    // delay means the last `(num_taps-1)/2` wideband samples of content
    // never left the channelizer — `Gateway::finish` closed the queues
    // without flushing it, so a packet ending within the delay window of
    // capture end lost its final symbols (truncated frames are never
    // emitted by the streaming receiver) and vanished.
    let plan = BandPlan::uniform(2, 250e3, 500e3, 4, 4);
    let sps_wide = 128 * plan.oversampling * plan.decimation; // SF7 symbol
    let tx = Transceiver::new(plan.wideband_params(7), CodeRate::Cr45);
    let frame = tx.frame_samples(PAYLOAD_LEN);
    let start = 4 * sps_wide;
    // The capture ends 16 wideband samples after the frame does — well
    // inside the filter's group delay (tens of samples for this plan), so
    // without the flush the tail of the last symbol is unrecoverable.
    let len = start + frame + 16;
    let payload: Vec<u8> = (0..PAYLOAD_LEN as u8).map(|i| i.wrapping_mul(5)).collect();
    let samples = synthesize(
        &plan,
        len,
        &[WidebandPacket {
            channel: 0,
            sf: 7,
            code_rate: CodeRate::Cr45,
            payload: payload.clone(),
            amplitude: 1.0,
            start_sample: start,
            cfo_hz: 0.0,
        }],
    );

    let mut gw =
        Gateway::new(gateway_config(&plan, 64, pinned_drop_oldest())).expect("valid config");
    gw.push(&samples);
    let (packets, _) = gw.finish();
    assert_eq!(
        packets.len(),
        1,
        "packet ending at capture end must survive the channelizer flush"
    );
    assert_eq!(packets[0].channel, 0);
    assert_eq!(packets[0].sf, 7);
    assert_eq!(packets[0].packet.payload.as_deref(), Some(&payload[..]));
}

#[test]
fn sic_boost_recovers_buried_packet_when_cool() {
    // A strong and a much weaker SF8 packet collide on one channel. The
    // primary CIC pass cannot decode the weak one, but a gateway with a
    // configured SIC stage and headroom must: the cool ladder promotes
    // the worker to the SIC boost rung, the residual pass subtracts the
    // strong packet and recovers the weak one — exactly once, in order.
    let plan = BandPlan::uniform(2, 250e3, 500e3, 4, 4);
    let sps_wide = 256 * plan.oversampling * plan.decimation; // SF8 symbol
    let tx = Transceiver::new(plan.wideband_params(8), CodeRate::Cr45);
    let frame = tx.frame_samples(PAYLOAD_LEN);
    let strong_start = 4 * sps_wide;
    let weak_start = strong_start + 6 * sps_wide + 1652;
    // Enough tail that the collision clears the streaming receiver's
    // edge-hold margin while samples are still arriving. The decode may
    // well lag the paced pushes and run during `finish`'s drain — that is
    // fine: a granted boost survives the drain by design.
    let len = weak_start + frame + 40 * sps_wide;
    let strong_payload: Vec<u8> = (0..PAYLOAD_LEN as u8)
        .map(|i| i.wrapping_mul(3) + 1)
        .collect();
    let weak_payload: Vec<u8> = (0..PAYLOAD_LEN as u8)
        .map(|i| i.wrapping_mul(7) + 2)
        .collect();
    let mut samples = synthesize(
        &plan,
        len,
        &[
            WidebandPacket {
                channel: 0,
                sf: 8,
                code_rate: CodeRate::Cr45,
                payload: strong_payload.clone(),
                // Unit noise is added at the wideband rate; the channel
                // filter rejects most of it, so channel-domain SNR runs
                // well above these wideband figures. −9 dB for the weak
                // packet is the empirically pinned point where the
                // primary CIC pass fails on every tested seed and the
                // residual pass recovers it on every tested seed.
                amplitude: amplitude_for_snr(9.0, plan.oversampling),
                start_sample: strong_start,
                cfo_hz: 300.0,
            },
            WidebandPacket {
                channel: 0,
                sf: 8,
                code_rate: CodeRate::Cr45,
                payload: weak_payload.clone(),
                amplitude: amplitude_for_snr(-9.0, plan.oversampling),
                start_sample: weak_start,
                cfo_hz: -800.0,
            },
        ],
    );
    let mut rng = StdRng::seed_from_u64(6);
    add_unit_noise(&mut rng, &mut samples);

    let cic_cfg = CicConfig {
        sic: cic::SicConfig::hybrid(),
        ..CicConfig::default()
    };
    let config = GatewayConfig {
        channelizer: channelizer_config(&plan),
        oversampling: plan.oversampling,
        sfs: vec![8],
        code_rate: CodeRate::Cr45,
        payload_len: PAYLOAD_LEN,
        cic: cic_cfg,
        queue_capacity: 256,
        overload: OverloadConfig {
            tick: Duration::from_millis(1),
            recover_ticks: 3,
            idle_timeout: Duration::from_secs(600),
            ..OverloadConfig::default()
        },
    };
    let mut gw = Gateway::new(config).expect("valid config");
    // The first `recover_ticks` cool ticks grant the SIC boost. Each push
    // runs one tick per 1 ms elapsed since the previous ones, so the
    // first push counts this sleep as a full recovery dwell.
    std::thread::sleep(Duration::from_millis(50));
    for chunk in samples.chunks(16_384) {
        gw.push(chunk);
        std::thread::sleep(Duration::from_millis(1));
    }
    let (packets, snap) = gw.finish();

    let ok: Vec<_> = packets.iter().filter(|p| p.packet.ok()).collect();
    assert_eq!(
        ok.iter()
            .filter(|p| p.packet.payload.as_deref() == Some(&strong_payload[..]))
            .count(),
        1,
        "strong packet must decode exactly once: {ok:?}"
    );
    let weak: Vec<_> = ok
        .iter()
        .filter(|p| p.packet.payload.as_deref() == Some(&weak_payload[..]))
        .collect();
    assert_eq!(
        weak.len(),
        1,
        "buried packet must be recovered exactly once (sic {:?}): {ok:?}",
        (snap.sic_passes, snap.sic_packets_recovered)
    );
    assert!(
        weak[0].packet.sic_pass >= 1,
        "the weak packet must come from a residual pass, not the primary decode"
    );
    for w in packets.windows(2) {
        assert!(w[0].start_wideband <= w[1].start_wideband);
    }
    assert!(snap.rung_engagements[rung_slot(SIC_RUNG)] >= 1);
    assert!(snap.sic_passes >= 1);
    assert!(snap.sic_packets_recovered >= 1);
    assert_eq!(snap.chunks_dropped, 0);
}

#[test]
fn overloaded_gateway_never_engages_sic_boost() {
    // Same SIC-enabled configuration, but hammered flat out through
    // capacity-1 queues: the ladder walks *down* and the boost rung —
    // which only a sustained-cool recovery step can grant — must never
    // engage. This is the headroom contract: residual passes may not
    // steal cycles from a gateway that is already dropping samples.
    let (plan, cap) = capture(11);
    let mut config = gateway_config(
        &plan,
        1,
        OverloadConfig {
            tick: Duration::from_millis(1),
            idle_timeout: Duration::from_secs(600),
            ..OverloadConfig::default()
        },
    );
    config.cic.sic = cic::SicConfig::hybrid();
    let mut gw = Gateway::new(config).expect("valid config");
    for chunk in cap.samples.chunks(2048) {
        gw.push(chunk);
    }
    let (_, snap) = gw.finish();
    assert!(
        snap.chunks_dropped > 0 || snap.degrade_events > 0,
        "offered load did not stress the gateway; the assertion is vacuous"
    );
    assert_eq!(
        snap.rung_engagements[rung_slot(SIC_RUNG)],
        0,
        "SIC boost engaged on a hot gateway"
    );
    assert_eq!(snap.sic_passes, 0);
    assert_eq!(snap.sic_packets_recovered, 0);
}

/// Dense two-SF traffic on a two-channel band: SF7 packets chained on
/// both channels plus an overlapping SF9 chain, each payload unique.
/// Returns the capture and the number of SF7 packets placed.
fn overload_capture(plan: &BandPlan) -> (Vec<Cf32>, usize, usize) {
    let frame7 =
        Transceiver::new(plan.wideband_params(7), CodeRate::Cr45).frame_samples(PAYLOAD_LEN);
    let frame9 =
        Transceiver::new(plan.wideband_params(9), CodeRate::Cr45).frame_samples(PAYLOAD_LEN);
    let len = 5 * frame9;
    let mut packets = Vec::new();
    let mut n7 = 0;
    let mut n9 = 0;
    let amp = amplitude_for_snr(20.0, plan.oversampling);
    for ch in 0..plan.n_channels() {
        let mut pos = 2048 + ch * 4999;
        while pos + frame7 + frame7 / 2 < len {
            let mut payload = vec![0u8; PAYLOAD_LEN];
            payload[0] = 7;
            payload[1] = ch as u8;
            payload[2] = n7 as u8;
            payload[3] = (n7 >> 8) as u8;
            packets.push(WidebandPacket {
                channel: ch,
                sf: 7,
                code_rate: CodeRate::Cr45,
                payload,
                amplitude: amp,
                start_sample: pos,
                cfo_hz: 250.0 * (ch as f64 + 1.0),
            });
            n7 += 1;
            pos += frame7 + frame7 / 4;
        }
        let mut pos = 30_000 + ch * 7919;
        while pos + frame9 + frame9 / 2 < len {
            let mut payload = vec![0u8; PAYLOAD_LEN];
            payload[0] = 9;
            payload[1] = ch as u8;
            payload[2] = n9 as u8;
            packets.push(WidebandPacket {
                channel: ch,
                sf: 9,
                code_rate: CodeRate::Cr45,
                payload,
                amplitude: amp * 1.2,
                start_sample: pos,
                cfo_hz: -400.0 * (ch as f64 + 1.0),
            });
            n9 += 1;
            pos += frame9 + frame9 / 4;
        }
    }
    let mut rng = StdRng::seed_from_u64(77);
    let mut samples = synthesize(plan, len, &packets);
    add_unit_noise(&mut rng, &mut samples);
    (samples, n7, n9)
}

/// Samples per push in the overload runs.
const OVERLOAD_CHUNK: usize = 32_768;

/// Push `samples` through a queue-capacity-1 gateway under `overload`,
/// pacing pushes on a fixed wall-clock schedule so both policies see the
/// same offered load. Returns (CRC-ok packets delivered, snapshot).
fn run_overloaded(
    plan: &BandPlan,
    samples: &[Cf32],
    overload: OverloadConfig,
    pace: Duration,
) -> (usize, lora_gateway::GatewaySnapshot) {
    let mut gw = Gateway::new(gateway_config(plan, 1, overload)).expect("valid config");
    let rx = gw.subscribe(4096);
    let mut ok = 0usize;
    for chunk in samples.chunks(OVERLOAD_CHUNK) {
        gw.push(chunk);
        std::thread::sleep(pace);
        ok += rx.try_iter().filter(|p| p.packet.ok()).count();
    }
    let (rest, snap) = gw.finish();
    ok += rest.iter().filter(|p| p.packet.ok()).count();
    ok += rx.try_iter().filter(|p| p.packet.ok()).count();
    (ok, snap)
}

#[test]
fn adaptive_policy_beats_drop_oldest_under_overload() {
    // The tentpole's proof: at the same offered load (identical capture,
    // identical paced push schedule, queue capacity 1), the adaptive
    // degradation ladder must deliver strictly more packets than blind
    // drop-oldest. Drop-oldest lets every worker shed random sample gaps
    // — losing packets on all SFs — while the ladder first cuts decoder
    // effort and then sacrifices the expensive SF9 workers wholesale so
    // the SF7 streams decode gap-free.
    let plan = BandPlan::uniform(2, 250e3, 500e3, 4, 4);
    let (samples, n7, n9) = overload_capture(&plan);
    assert!(
        n7 >= 8 && n9 >= 4,
        "capture too sparse: {n7} SF7 / {n9} SF9"
    );

    // Pace the pushes at 4× the rate this host decodes the capture now,
    // unpaced, lossless and at full effort (which also warms the
    // decoder): the worker pool cannot keep up on every SF, but a
    // post-shed SF7-only pool can. A fixed pace would set the overload
    // by whatever speed the host happens to have.
    let chunks = samples.chunks(OVERLOAD_CHUNK).len();
    let lossless = gateway_config(&plan, chunks + 1, pinned_drop_oldest());
    let mut gw = Gateway::new(lossless).expect("valid config");
    let t0 = Instant::now();
    samples.chunks(OVERLOAD_CHUNK).for_each(|c| gw.push(c));
    gw.finish();
    let pace = t0.elapsed() / (4 * chunks as u32);

    let adaptive = OverloadConfig {
        policy: OverloadPolicy::Adaptive,
        tick: Duration::from_millis(2),
        high_occupancy: 0.5,
        low_occupancy: 0.1,
        ewma_alpha: 0.4,
        escalate_ticks: 2,
        // Effectively no recovery inside this short run: the point here
        // is the downward ladder, not flapping.
        recover_ticks: 100_000,
        min_active_sfs: 1,
        idle_timeout: Duration::from_secs(600),
        hot_decode: Duration::from_secs(1),
    };

    let (ok_adaptive, snap_adaptive) = run_overloaded(&plan, &samples, adaptive, pace);
    let (ok_drop, snap_drop) = run_overloaded(&plan, &samples, pinned_drop_oldest(), pace);

    eprintln!(
        "pace {pace:?}; offered: {n7} SF7 + {n9} SF9; adaptive delivered {ok_adaptive} \
         (degrades {}, shed chunks {}, shed {:.2}s, dropped {}), \
         drop-oldest delivered {ok_drop} (dropped {})",
        snap_adaptive.degrade_events,
        snap_adaptive.chunks_shed,
        snap_adaptive.shed_seconds,
        snap_adaptive.chunks_dropped,
        snap_drop.chunks_dropped,
    );

    // The schedule must genuinely overload the legacy policy…
    assert!(
        snap_drop.chunks_dropped > 0,
        "offered load did not overload drop-oldest; the comparison is vacuous"
    );
    // …the ladder must have engaged…
    assert!(
        snap_adaptive.degrade_events > 0,
        "adaptive policy never degraded under overload"
    );
    // …and adaptive must deliver strictly more.
    assert!(
        ok_adaptive > ok_drop,
        "adaptive ({ok_adaptive}) must beat drop-oldest ({ok_drop}) at the same offered load"
    );
}
