//! Robustness: every receiver must survive degenerate and adversarial
//! inputs without panicking — and without inventing packets.

use cic::{CicConfig, CicReceiver, SicConfig, StreamingReceiver};
use cic_repro::lora_baselines::{
    ChoirReceiver, CollisionReceiver, ColoraReceiver, FtrackReceiver, MLoraReceiver,
    StandardReceiver,
};
use cic_repro::lora_channel::{add_unit_noise, amplitude_for_snr, superpose, Emission};
use lora_dsp::{Cf32, Channelizer, ChannelizerConfig};
use lora_phy::{CodeRate, LoraParams};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn params() -> LoraParams {
    LoraParams::paper_default()
}

fn all_receivers() -> Vec<Box<dyn CollisionReceiver>> {
    let p = params();
    vec![
        Box::new(StandardReceiver::new(p, CodeRate::Cr45, 16)),
        Box::new(ChoirReceiver::new(p, CodeRate::Cr45, 16)),
        Box::new(FtrackReceiver::new(p, CodeRate::Cr45, 16)),
        Box::new(MLoraReceiver::new(p, CodeRate::Cr45, 16)),
        Box::new(ColoraReceiver::new(p, CodeRate::Cr45, 16)),
    ]
}

fn cic_rx() -> CicReceiver {
    CicReceiver::new(params(), CodeRate::Cr45, 16, CicConfig::default())
}

/// The same receiver with the SIC residual stage on, so hostile samples
/// also reach waveform subtraction and the residual passes.
fn hybrid_rx() -> CicReceiver {
    let cfg = CicConfig {
        sic: SicConfig::hybrid(),
        ..CicConfig::default()
    };
    CicReceiver::new(params(), CodeRate::Cr45, 16, cfg)
}

/// Non-finite front-end output: all-NaN, all +inf and all −inf
/// captures, and noise with a NaN or ±inf sample every 997 samples.
fn non_finite_captures(len: usize, seed: u64) -> Vec<(&'static str, Vec<Cf32>)> {
    let (nan, inf) = (f32::NAN, f32::INFINITY);
    let bad = [
        Cf32::new(nan, 0.0),
        Cf32::new(inf, 0.0),
        Cf32::new(0.0, -inf),
    ];
    let mut rng = StdRng::seed_from_u64(seed);
    let mut sprinkled = cic_repro::lora_channel::awgn::noise_buffer(&mut rng, len);
    for (i, c) in sprinkled.iter_mut().enumerate().step_by(997) {
        *c = bad[i % bad.len()];
    }
    vec![
        ("nan", vec![Cf32::new(nan, nan); len]),
        ("+inf", vec![Cf32::new(inf, inf); len]),
        ("-inf", vec![Cf32::new(-inf, -inf); len]),
        ("sprinkled", sprinkled),
    ]
}

#[test]
fn empty_capture() {
    assert!(cic_rx().receive(&[]).is_empty());
    for rx in all_receivers() {
        assert!(rx.receive(&[]).is_empty(), "{}", rx.name());
        assert!(rx.detect_starts(&[]).is_empty(), "{}", rx.name());
    }
}

#[test]
fn capture_shorter_than_one_symbol() {
    let tiny = vec![Cf32::new(0.3, -0.1); 100];
    assert!(cic_rx().receive(&tiny).is_empty());
    for rx in all_receivers() {
        assert!(rx.receive(&tiny).is_empty(), "{}", rx.name());
    }
}

#[test]
fn all_zero_capture() {
    let zeros = vec![Cf32::new(0.0, 0.0); 200_000];
    assert!(cic_rx().receive(&zeros).is_empty());
    for rx in all_receivers() {
        assert!(rx.receive(&zeros).is_empty(), "{}", rx.name());
    }
}

#[test]
fn dc_only_capture() {
    // A constant carrier is not a LoRa packet.
    let dc = vec![Cf32::new(5.0, 5.0); 150_000];
    assert!(cic_rx().receive(&dc).is_empty());
    for rx in all_receivers() {
        assert!(rx.receive(&dc).is_empty(), "{}", rx.name());
    }
}

#[test]
fn strong_tone_capture() {
    // A pure strong sinusoid (e.g. a co-channel FSK interferer).
    let p = params();
    let tone: Vec<Cf32> = (0..150_000)
        .map(|i| {
            Cf32::from_polar(
                10.0,
                (std::f32::consts::TAU * 40_000.0 * i as f32 / p.sample_rate_hz() as f32)
                    % std::f32::consts::TAU,
            )
        })
        .collect();
    assert!(cic_rx().receive(&tone).is_empty());
    for rx in all_receivers() {
        assert!(rx.receive(&tone).is_empty(), "{}", rx.name());
    }
}

#[test]
fn pure_noise_yields_no_false_decodes() {
    let mut rng = StdRng::seed_from_u64(1234);
    let noise = cic_repro::lora_channel::awgn::noise_buffer(&mut rng, 400_000);
    let pkts = cic_rx().receive(&noise);
    assert!(
        pkts.iter().all(|p| !p.ok()),
        "CRC-valid packet decoded from pure noise"
    );
    for rx in all_receivers() {
        let pkts = rx.receive(&noise);
        assert!(
            pkts.iter().all(|p| !p.ok()),
            "{}: decoded a packet from noise",
            rx.name()
        );
    }
}

#[test]
fn saturated_noise_no_panic() {
    // Clipped front-end: extreme amplitudes with hard sign structure.
    let mut rng = StdRng::seed_from_u64(5);
    let mut buf = cic_repro::lora_channel::awgn::noise_buffer(&mut rng, 120_000);
    for c in &mut buf {
        c.re = c.re.signum() * 1e6;
        c.im = c.im.signum() * 1e6;
    }
    let mut captures = vec![("saturated", buf)];
    // A broken front end: NaN and ±inf samples.
    captures.extend(non_finite_captures(120_000, 5));
    for (name, buf) in &captures {
        for rx in [cic_rx(), hybrid_rx()] {
            let pkts = rx.receive(buf);
            assert!(pkts.iter().all(|p| !p.ok()), "{name}: decoded garbage");
        }
        for rx in all_receivers() {
            let _ = rx.receive(buf);
        }
    }

    // A clean packet flanked by non-finite samples: it decodes, so the
    // SIC stage loads the hostile capture, subtracts the packet and
    // re-runs CIC on a residual that still holds NaN and inf.
    let p = params();
    let payload = [9u8; 16];
    let wave = lora_phy::Transceiver::new(p, CodeRate::Cr45).waveform(&payload);
    let mut cap = superpose(
        &p,
        wave.len() + 40_000,
        &[Emission {
            waveform: wave,
            amplitude: amplitude_for_snr(20.0, p.oversampling()),
            start_sample: 20_000,
            cfo_hz: 300.0,
        }],
    );
    add_unit_noise(&mut rng, &mut cap);
    let n = cap.len();
    for i in (0..5_000).chain(n - 5_000..n).step_by(7) {
        cap[i] = Cf32::new(f32::NAN, f32::INFINITY);
    }
    for rx in [cic_rx(), hybrid_rx()] {
        let pkts = rx.receive(&cap);
        assert_eq!(pkts.len(), 1, "{pkts:?}");
        assert_eq!(pkts[0].payload.as_deref(), Some(&payload[..]));
    }
}

#[test]
fn streaming_garbage_chunks_no_panic() {
    let mut s = StreamingReceiver::new(params(), CodeRate::Cr45, 16, CicConfig::default());
    let mut rng = StdRng::seed_from_u64(6);
    for len in [0usize, 1, 7, 1000, 50_000, 3] {
        let chunk = cic_repro::lora_channel::awgn::noise_buffer(&mut rng, len);
        for p in s.push(&chunk) {
            assert!(!p.ok(), "decoded a packet from streamed noise");
        }
    }
    let _ = s.flush();

    // Non-finite chunks through the streaming receiver and the wideband
    // channelizer in front of it, at ragged chunk sizes.
    for (name, buf) in non_finite_captures(60_000, 6) {
        let mut s = StreamingReceiver::new(params(), CodeRate::Cr45, 16, CicConfig::default());
        let mut ch = Channelizer::new(ChannelizerConfig::uniform(4, 250e3, 500e3, 1e6, 4));
        let mut pos = 0;
        for len in [0usize, 1, 7, 1000, 50_000, 8_992] {
            let chunk = &buf[pos..pos + len];
            pos += len;
            for p in s.push(chunk) {
                assert!(!p.ok(), "{name}: decoded a packet from a streamed chunk");
            }
            let _ = ch.process(chunk);
        }
        assert!(s.flush().iter().all(|p| !p.ok()), "{name}: flush decoded");
        let _ = ch.flush();
    }
}

#[test]
fn truncated_packet_mid_preamble_no_panic() {
    let p = params();
    let tx = lora_phy::Transceiver::new(p, CodeRate::Cr45);
    let wave = tx.waveform(&[9u8; 16]);
    // Cut inside the preamble's down-chirps.
    let cut = 11 * p.samples_per_symbol();
    let capture = &wave[..cut];
    let _ = cic_rx().receive(capture);
    for rx in all_receivers() {
        let _ = rx.receive(capture);
    }
}
