//! The gateway runtime end to end, in the root test suite: a 2-channel
//! capture pushed through `Gateway::new` → `push` → `finish` must yield
//! the per-channel batch decode set exactly once and in time order, and
//! a gateway dropped without `finish` must stop every thread it started.

use std::sync::Arc;
use std::time::Duration;

use cic::{CicConfig, CicReceiver};
use lora_channel::wideband::{synthesize, BandPlan, WidebandPacket};
use lora_channel::{add_unit_noise, amplitude_for_snr};
use lora_dsp::{Cf32, Channelizer, ChannelizerConfig};
use lora_gateway::{Gateway, GatewayConfig, OverloadConfig};
use lora_phy::packet::Transceiver;
use lora_phy::params::CodeRate;
use rand::rngs::StdRng;
use rand::SeedableRng;

const PAYLOAD_LEN: usize = 16;
const SFS: [u8; 2] = [7, 9];

fn plan() -> BandPlan {
    BandPlan::uniform(2, 250e3, 500e3, 4, 4)
}

fn config(plan: &BandPlan) -> GatewayConfig {
    GatewayConfig {
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
        queue_capacity: 1024,
        overload: OverloadConfig {
            // The result is compared with a batch decode: no idle timer
            // may quiesce a receiver mid-stream on a slow machine.
            idle_timeout: Duration::from_secs(600),
            ..OverloadConfig::drop_oldest()
        },
    }
}

/// Packets on both channels and both SFs, one SF7 pair colliding, unit
/// noise.
fn capture(plan: &BandPlan) -> Vec<Cf32> {
    let sym = |sf: u8| (1usize << sf) * plan.oversampling * plan.decimation;
    let frame = |sf: u8| {
        Transceiver::new(plan.wideband_params(sf), CodeRate::Cr45).frame_samples(PAYLOAD_LEN)
    };
    let packet = |channel: usize, sf: u8, start: usize, snr: f64, tag: u8| WidebandPacket {
        channel,
        sf,
        code_rate: CodeRate::Cr45,
        payload: (0..PAYLOAD_LEN as u8)
            .map(|i| i.wrapping_mul(tag) ^ tag)
            .collect(),
        amplitude: amplitude_for_snr(snr, plan.oversampling),
        start_sample: start,
        cfo_hz: 200.0 * f64::from(tag % 4) - 300.0,
    };
    let collider = 13 * sym(7) + 900;
    let ch0_sf9 = collider + frame(7) + 2 * sym(9);
    let ch1_sf7 = sym(9) + 777 + frame(9) + sym(9);
    let packets = [
        packet(0, 7, 4 * sym(7), 20.0, 3),
        packet(0, 7, collider, 14.0, 5),
        packet(0, 9, ch0_sf9, 18.0, 7),
        packet(1, 9, sym(9) + 777, 20.0, 11),
        packet(1, 7, ch1_sf7, 20.0, 13),
    ];
    let len = (ch0_sf9 + frame(9)).max(ch1_sf7 + frame(7)) + 4 * sym(9);
    let mut samples = synthesize(plan, len, &packets);
    add_unit_noise(&mut StdRng::seed_from_u64(9), &mut samples);
    samples
}

/// (channel, sf, start_wideband, payload) of every CRC-passing packet
/// the per-channel batch receiver finds.
fn batch_reference(
    plan: &BandPlan,
    cfg: &GatewayConfig,
    samples: &[Cf32],
) -> Vec<(usize, u8, u64, Vec<u8>)> {
    let mut chz = Channelizer::new(cfg.channelizer.clone());
    let delay = chz.group_delay_wideband() as u64;
    let mut expected = Vec::new();
    for (channel, out) in chz.process_all(samples).iter().enumerate() {
        for &sf in &SFS {
            let rx = CicReceiver::new(
                plan.channel_params(sf),
                CodeRate::Cr45,
                PAYLOAD_LEN,
                CicConfig::default(),
            );
            for p in rx.receive(out) {
                if let Some(payload) = p.payload {
                    let start = (p.detection.frame_start as u64 * plan.decimation as u64)
                        .saturating_sub(delay);
                    expected.push((channel, sf, start, payload));
                }
            }
        }
    }
    expected
}

#[test]
fn gateway_equals_batch_decode_exactly_once_in_order() {
    let plan = plan();
    let cfg = config(&plan);
    let samples = capture(&plan);
    let expected = batch_reference(&plan, &cfg, &samples);
    assert!(expected.len() >= 4, "reference too small: {expected:?}");

    let mut gw = Gateway::new(cfg).expect("valid config");
    let sizes = [8192usize, 1, 12_345, 4096, 777];
    let mut pos = 0;
    for n in sizes.iter().cycle() {
        if pos == samples.len() {
            break;
        }
        let end = (pos + n).min(samples.len());
        gw.push(&samples[pos..end]);
        pos = end;
    }
    let (packets, snap) = gw.finish();

    for w in packets.windows(2) {
        assert!(
            w[0].start_wideband <= w[1].start_wideband,
            "released out of order: {} then {}",
            w[0].start_wideband,
            w[1].start_wideband
        );
    }
    for (channel, sf, start, payload) in &expected {
        let tol = (1u64 << sf) * (plan.oversampling * plan.decimation) as u64 / 2;
        let hits = packets
            .iter()
            .filter(|p| {
                p.channel == *channel
                    && p.sf == *sf
                    && p.start_wideband.abs_diff(*start) < tol
                    && p.packet.payload.as_deref() == Some(&payload[..])
            })
            .count();
        assert_eq!(
            hits, 1,
            "batch packet (ch {channel}, sf {sf}, {start}) released {hits} times"
        );
    }
    let ok = packets.iter().filter(|p| p.packet.ok()).count();
    assert_eq!(
        ok,
        expected.len(),
        "gateway decoded packets the batch did not"
    );
    assert_eq!(snap.samples_in, samples.len() as u64);
    assert_eq!(snap.chunks_dropped, 0);
    assert_eq!(snap.packets_released, packets.len() as u64);
}

#[test]
fn gateway_dropped_without_finish_frees_every_thread() {
    let plan = plan();
    let samples = capture(&plan);
    // The adaptive ladder adds the policy thread to the decode pool.
    let cfg = GatewayConfig {
        overload: OverloadConfig::default(),
        ..config(&plan)
    };
    let mut gw = Gateway::new(cfg).expect("valid config");
    for chunk in samples.chunks(16_384).take(8) {
        gw.push(chunk);
    }
    let stats = gw.stats();
    drop(gw);
    // Every thread held the telemetry; only this handle may remain.
    assert_eq!(
        Arc::strong_count(&stats),
        1,
        "a gateway thread outlived the drop"
    );
}
