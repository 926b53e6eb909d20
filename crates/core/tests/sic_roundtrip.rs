//! Round-trip fidelity of the SIC subtraction path (ISSUE 6 satellite):
//! modulate a packet, push it through the channel model with amplitude,
//! CFO and timing offset, then cancel it with parameters *estimated* by
//! the SIC refinement stage — starting from deliberately-off coarse
//! values, as a preamble detection would supply. The residual left in
//! the packet's span must be at or below −40 dB of the original signal
//! energy across spreading factors, or waveform subtraction would smear
//! more interference onto buried packets than it removes.
//!
//! The property test at the end pins the other side of that trade: a
//! hybrid CIC+SIC receiver whose estimates are wrong must still return
//! every packet plain CIC decoded from the same capture.

use cic::sic::{CancelOutcome, ResidualBuffer, SicConfig};
use cic::{CicConfig, CicReceiver};
use lora_channel::{add_unit_noise, amplitude_for_snr, superpose, Emission};
use lora_dsp::Cf32;
use lora_phy::modulate::Modulator;
use lora_phy::packet::Transceiver;
use lora_phy::params::{CodeRate, LoraParams};
use proptest::collection::vec;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn roundtrip(sf: u8, bw: f64, os: usize, cfo_bins: f64, amplitude: f64) {
    let p = LoraParams::new(sf, bw, os).unwrap();
    let x = Transceiver::new(p, CodeRate::Cr45);
    let payload: Vec<u8> = (0..10u8)
        .map(|i| i.wrapping_mul(29).wrapping_add(sf))
        .collect();
    let symbols = x.codec().encode(&payload);
    let start = 3 * p.samples_per_symbol() + 137;
    let wave = x.waveform(&payload);
    let frame_len = wave.len();
    let cap = superpose(
        &p,
        start + frame_len + 2 * p.samples_per_symbol(),
        &[Emission {
            waveform: wave,
            amplitude,
            start_sample: start,
            cfo_hz: cfo_bins * p.bin_hz(),
        }],
    );

    let before = lora_dsp::math::energy(&cap[start..start + frame_len]);
    assert!(before > 0.0);

    let mut buf = ResidualBuffer::new();
    buf.load(&cap);
    let cfg = SicConfig::hybrid();
    // Coarse inputs off by 5 samples of timing and 0.06 bins of CFO —
    // about the worst a confirmed preamble detection delivers.
    let outcome = buf.cancel(
        &Modulator::new(p),
        &symbols,
        start.saturating_sub(5),
        cfo_bins - 0.06,
        &cfg,
    );
    let reduction_db = match outcome {
        CancelOutcome::Cancelled { reduction_db } => reduction_db,
        CancelOutcome::Abandoned => panic!("SF{sf}: cancellation abandoned"),
    };
    let after = lora_dsp::math::energy(&buf.samples()[start..start + frame_len]);
    assert!(
        after <= before * 1e-4,
        "SF{sf}: residual {:.1} dB (reported {reduction_db:.1} dB)",
        lora_dsp::math::db(after / before)
    );
    assert!(
        reduction_db >= 40.0,
        "SF{sf}: reported reduction only {reduction_db:.1} dB"
    );
}

#[test]
fn sf7_subtracts_below_minus_40_db() {
    roundtrip(7, 125e3, 4, 0.37, 0.8);
}

#[test]
fn sf9_subtracts_below_minus_40_db() {
    roundtrip(9, 250e3, 4, -0.52, 1.6);
}

#[test]
fn sf12_subtracts_below_minus_40_db() {
    roundtrip(12, 125e3, 2, 0.18, 0.25);
}

/// One random SF7 collision of `n` packets: packet `i` starts
/// `starts[i]` of a 20-symbol spread into the capture, at `snrs[i]` dB
/// with a CFO of `cfos[i]` bins, carrying a payload unique to it.
fn collision(n: usize, starts: &[f64], snrs: &[f64], cfos: &[f64], seed: u64) -> Vec<Cf32> {
    let p = sf7();
    let x = Transceiver::new(p, CodeRate::Cr45);
    let sps = p.samples_per_symbol();
    let emissions: Vec<Emission> = (0..n)
        .map(|i| {
            let payload: Vec<u8> = (0..PAYLOAD_LEN as u8)
                .map(|k| k.wrapping_mul(31) ^ (i as u8).wrapping_mul(67) ^ seed as u8)
                .collect();
            Emission {
                waveform: x.waveform(&payload),
                amplitude: amplitude_for_snr(snrs[i], p.oversampling()),
                start_sample: 2 * sps + (starts[i] * 20.0 * sps as f64) as usize,
                cfo_hz: cfos[i] * p.bin_hz(),
            }
        })
        .collect();
    let len = emissions
        .iter()
        .map(|e| e.start_sample + e.waveform.len())
        .max()
        .unwrap()
        + 2 * sps;
    let mut cap = superpose(&p, len, &emissions);
    add_unit_noise(&mut StdRng::seed_from_u64(seed), &mut cap);
    cap
}

fn sf7() -> LoraParams {
    LoraParams::new(7, 125e3, 2).unwrap()
}

const PAYLOAD_LEN: usize = 8;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Hybrid SIC never loses a packet that CIC alone decoded, even when
    /// its estimates are poor: no timing search, no CFO refinement, and
    /// every fit subtracted whatever it matches. Serial cancellation
    /// propagates a bad subtraction into every later decode (Tesfay et
    /// al., arXiv 2103.03146); the residual passes may add packets, but
    /// each CRC-clean packet of the plain run must come out of the hybrid
    /// run with the same frame start and payload.
    #[test]
    fn poorly_estimated_sic_keeps_every_cic_packet(
        n in 2usize..=4,
        starts in vec(0.0f64..1.0, 4),
        snrs in vec(0.0f64..25.0, 4),
        cfos in vec(-2.0f64..2.0, 4),
        depth in 1usize..=2,
        seed in any::<u64>(),
    ) {
        let cap = collision(n, &starts, &snrs, &cfos, seed);
        let receiver = |sic: SicConfig| {
            let config = CicConfig { sic, ..CicConfig::default() };
            CicReceiver::new(sf7(), CodeRate::Cr45, PAYLOAD_LEN, config).receive(&cap)
        };
        let plain = receiver(SicConfig::default());
        let hybrid = receiver(SicConfig {
            depth,
            timing_search: 0,
            refine_iters: 0,
            min_match_db: f64::NEG_INFINITY,
        });
        for kept in plain.iter().filter(|p| p.ok()) {
            let start = kept.detection.frame_start;
            prop_assert!(
                hybrid
                    .iter()
                    .any(|h| h.detection.frame_start == start && h.payload == kept.payload),
                "hybrid run (depth {depth}) lost the CIC packet at sample {start}"
            );
        }
    }
}
