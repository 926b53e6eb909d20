//! Wideband multi-channel synthesis: the stimulus for the gateway runtime.
//!
//! A real gateway front end digitises one wide swath of spectrum holding
//! several LoRa channels at once. This module builds that capture in
//! software: each packet's chirp waveform is generated *directly at the
//! wideband sample rate* (same continuous-time signal, `os × D` samples
//! per chip instead of `os`), then frequency-shifted onto its channel's
//! carrier by `superpose_into`'s CFO rotation and summed. No resampling
//! step, so the synthesis is exact up to float rounding.
//!
//! [`generate_traffic`] layers Poisson arrivals from [`crate::traffic`]
//! on top: nodes are statically assigned a (channel, SF) — as configured
//! LoRa devices are — and their transmissions land across the band,
//! colliding within a channel exactly as in the paper's single-channel
//! captures.

use lora_phy::packet::Transceiver;
use lora_phy::params::{CodeRate, LoraParams};
use rand::{Rng, RngExt};

use crate::mix::{superpose_into, Emission};
use crate::traffic::poisson_schedule;
use lora_dsp::Cf32;

/// The static layout of a multi-channel band.
#[derive(Debug, Clone)]
pub struct BandPlan {
    /// Carrier offset of each channel from the wideband centre, Hz.
    pub offsets_hz: Vec<f64>,
    /// Channel bandwidth `B`, shared by all channels, Hz.
    pub bandwidth_hz: f64,
    /// Oversampling at the *channel* rate (sample rate after decimation
    /// is `os * B`).
    pub oversampling: usize,
    /// Wideband-to-channel rate ratio; the wideband sample rate is
    /// `os * B * decimation`.
    pub decimation: usize,
}

impl BandPlan {
    /// Uniformly spaced plan centred on the band: `n_channels` channels,
    /// `spacing_hz` apart.
    pub fn uniform(
        n_channels: usize,
        bandwidth_hz: f64,
        spacing_hz: f64,
        oversampling: usize,
        decimation: usize,
    ) -> Self {
        let offsets_hz = (0..n_channels)
            .map(|i| (i as f64 - (n_channels as f64 - 1.0) / 2.0) * spacing_hz)
            .collect();
        Self {
            offsets_hz,
            bandwidth_hz,
            oversampling,
            decimation,
        }
    }

    /// Number of channels.
    pub fn n_channels(&self) -> usize {
        self.offsets_hz.len()
    }

    /// Wideband sample rate, Hz.
    pub fn wideband_rate_hz(&self) -> f64 {
        self.bandwidth_hz * (self.oversampling * self.decimation) as f64
    }

    /// Channel-rate parameter set for a spreading factor.
    pub fn channel_params(&self, sf: u8) -> LoraParams {
        LoraParams::new(sf, self.bandwidth_hz, self.oversampling)
            .expect("band plan holds valid LoRa parameters")
    }

    /// Wideband-rate parameter set for a spreading factor (same chirps,
    /// `decimation` times more samples each).
    pub fn wideband_params(&self, sf: u8) -> LoraParams {
        LoraParams::new(sf, self.bandwidth_hz, self.oversampling * self.decimation)
            .expect("band plan holds valid LoRa parameters")
    }
}

/// One packet to place on the wideband capture.
#[derive(Debug, Clone)]
pub struct WidebandPacket {
    /// Index into [`BandPlan::offsets_hz`].
    pub channel: usize,
    /// Spreading factor of this transmission.
    pub sf: u8,
    /// Coding rate.
    pub code_rate: CodeRate,
    /// Payload bytes.
    pub payload: Vec<u8>,
    /// Linear amplitude (see `awgn::amplitude_for_snr`).
    pub amplitude: f64,
    /// Start position in *wideband* samples.
    pub start_sample: usize,
    /// Node oscillator offset, Hz (the channel carrier is added on top).
    pub cfo_hz: f64,
}

/// Synthesise `packets` into a zeroed wideband capture of `len` samples.
pub fn synthesize(plan: &BandPlan, len: usize, packets: &[WidebandPacket]) -> Vec<Cf32> {
    let mut buf = vec![Cf32::new(0.0, 0.0); len];
    synthesize_into(plan, &mut buf, packets);
    buf
}

/// Synthesise `packets` into an existing wideband buffer (adds).
pub(crate) fn synthesize_into(plan: &BandPlan, buf: &mut [Cf32], packets: &[WidebandPacket]) {
    for p in packets {
        assert!(p.channel < plan.n_channels(), "channel index out of plan");
        let params = plan.wideband_params(p.sf);
        let tx = Transceiver::new(params, p.code_rate);
        let emission = Emission {
            waveform: tx.waveform(&p.payload),
            amplitude: p.amplitude,
            start_sample: p.start_sample,
            // The channel carrier is just a large, known "CFO": the same
            // rotation superpose applies for oscillator error.
            cfo_hz: plan.offsets_hz[p.channel] + p.cfo_hz,
        };
        superpose_into(&params, buf, &[emission]);
    }
}

/// Traffic generation knobs for [`generate_traffic`].
#[derive(Debug, Clone)]
pub struct TrafficConfig {
    /// Number of transmitting nodes, assigned round-robin to channels and
    /// then to spreading factors.
    pub n_nodes: usize,
    /// Spreading factors in use across the band.
    pub sfs: Vec<u8>,
    /// Coding rate (shared).
    pub code_rate: CodeRate,
    /// Aggregate arrival rate over the whole band, packets/second.
    pub rate_pps: f64,
    /// Capture duration, seconds.
    pub duration_s: f64,
    /// Payload length, bytes.
    pub payload_len: usize,
    /// Per-node amplitude range (linear, sampled uniformly).
    pub amplitude_range: (f64, f64),
    /// Per-node CFO range, Hz (sampled uniformly, fixed per node).
    pub cfo_range_hz: (f64, f64),
}

/// Ground truth for one wideband transmission.
#[derive(Debug, Clone)]
pub struct WidebandTruth {
    /// Transmitting node.
    pub node: usize,
    /// Channel index.
    pub channel: usize,
    /// Spreading factor.
    pub sf: u8,
    /// Start position in wideband samples.
    pub start_sample: usize,
    /// Payload bytes.
    pub payload: Vec<u8>,
    /// Node CFO, Hz.
    pub cfo_hz: f64,
}

/// A generated wideband capture with its truth.
#[derive(Debug, Clone)]
pub struct WidebandCapture {
    /// The wideband IQ samples.
    pub samples: Vec<Cf32>,
    /// One entry per transmission placed on the air.
    pub truth: Vec<WidebandTruth>,
}

/// Node `i`'s static channel assignment under round-robin.
pub(crate) fn node_channel(plan: &BandPlan, node: usize) -> usize {
    node % plan.n_channels()
}

/// Node `i`'s static spreading factor under round-robin.
pub(crate) fn node_sf(plan: &BandPlan, cfg: &TrafficConfig, node: usize) -> u8 {
    cfg.sfs[(node / plan.n_channels()) % cfg.sfs.len()]
}

/// Poisson traffic over the band: schedule arrivals, assign each node its
/// (channel, SF), synthesise everything into one wideband capture.
///
/// The capture is sized to hold the last arrival's full frame plus a
/// settling margin of one symbol at the largest SF.
pub fn generate_traffic<R: Rng + ?Sized>(
    rng: &mut R,
    plan: &BandPlan,
    cfg: &TrafficConfig,
) -> WidebandCapture {
    assert!(!cfg.sfs.is_empty(), "need at least one spreading factor");
    let arrivals = poisson_schedule(rng, cfg.n_nodes, cfg.rate_pps, cfg.duration_s);
    let wb_rate = plan.wideband_rate_hz();

    // Fixed per-node impairments.
    let amps: Vec<f64> = (0..cfg.n_nodes)
        .map(|_| rng.random_range(cfg.amplitude_range.0..cfg.amplitude_range.1))
        .collect();
    let cfos: Vec<f64> = (0..cfg.n_nodes)
        .map(|_| rng.random_range(cfg.cfo_range_hz.0..cfg.cfo_range_hz.1))
        .collect();

    let mut packets = Vec::with_capacity(arrivals.len());
    let mut truth = Vec::with_capacity(arrivals.len());
    let mut end = 0usize;
    for a in &arrivals {
        let channel = node_channel(plan, a.node);
        let sf = node_sf(plan, cfg, a.node);
        let payload: Vec<u8> = (0..cfg.payload_len).map(|_| rng.random()).collect();
        let start = (a.time_s * wb_rate).round() as usize;
        let frame = Transceiver::new(plan.wideband_params(sf), cfg.code_rate)
            .frame_samples(cfg.payload_len);
        end = end.max(start + frame);
        packets.push(WidebandPacket {
            channel,
            sf,
            code_rate: cfg.code_rate,
            payload: payload.clone(),
            amplitude: amps[a.node],
            start_sample: start,
            cfo_hz: cfos[a.node],
        });
        truth.push(WidebandTruth {
            node: a.node,
            channel,
            sf,
            start_sample: start,
            payload,
            cfo_hz: cfos[a.node],
        });
    }
    let max_sf = *cfg.sfs.iter().max().expect("non-empty sfs");
    let margin = plan.wideband_params(max_sf).samples_per_symbol();
    let samples = synthesize(plan, end + margin, &packets);
    WidebandCapture { samples, truth }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lora_dsp::math;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn plan() -> BandPlan {
        BandPlan::uniform(4, 250e3, 500e3, 4, 4)
    }

    #[test]
    fn uniform_plan_geometry() {
        let p = plan();
        assert_eq!(p.offsets_hz, vec![-750e3, -250e3, 250e3, 750e3]);
        assert!((p.wideband_rate_hz() - 4e6).abs() < 1e-6);
        assert_eq!(p.wideband_params(8).samples_per_symbol(), 4096);
        assert_eq!(p.channel_params(8).samples_per_symbol(), 1024);
    }

    #[test]
    fn wideband_waveform_is_decimation_times_longer() {
        let p = plan();
        let tx_wb = Transceiver::new(p.wideband_params(7), CodeRate::Cr45);
        let tx_ch = Transceiver::new(p.channel_params(7), CodeRate::Cr45);
        assert_eq!(
            tx_wb.waveform(&[1, 2, 3]).len(),
            p.decimation * tx_ch.waveform(&[1, 2, 3]).len()
        );
    }

    #[test]
    fn packet_occupies_its_channel_band() {
        // FFT the synthesised capture: energy concentrates around the
        // assigned carrier, not the others.
        let p = plan();
        let pkt = WidebandPacket {
            channel: 3,
            sf: 7,
            code_rate: CodeRate::Cr45,
            payload: vec![0xA5; 8],
            amplitude: 1.0,
            start_sample: 0,
            cfo_hz: 0.0,
        };
        let n = 1 << 15;
        let cap = synthesize(&p, n, &[pkt]);
        let engine = lora_dsp::FftEngine::new();
        let mut spec = cap.clone();
        engine.forward(&mut spec);
        let wb = p.wideband_rate_hz();
        let band_energy = |centre_hz: f64| -> f64 {
            let half = (p.bandwidth_hz / 2.0 / wb * n as f64) as i64;
            let c = (centre_hz / wb * n as f64).round() as i64;
            (c - half..=c + half)
                .map(|b| spec[b.rem_euclid(n as i64) as usize].norm_sqr() as f64)
                .sum()
        };
        let own = band_energy(p.offsets_hz[3]);
        for ch in 0..3 {
            let other = band_energy(p.offsets_hz[ch]);
            assert!(
                own > 100.0 * other,
                "channel 3 energy {own:.1} vs channel {ch} {other:.1}"
            );
        }
    }

    #[test]
    fn synthesis_is_additive_across_channels() {
        let p = plan();
        let mk = |ch: usize, tag: u8| WidebandPacket {
            channel: ch,
            sf: 7,
            code_rate: CodeRate::Cr45,
            payload: vec![tag; 4],
            amplitude: 0.7,
            start_sample: 100 * ch,
            cfo_hz: 50.0,
        };
        let a = synthesize(&p, 20_000, &[mk(0, 1)]);
        let b = synthesize(&p, 20_000, &[mk(2, 9)]);
        let both = synthesize(&p, 20_000, &[mk(0, 1), mk(2, 9)]);
        for i in 0..both.len() {
            assert!((both[i] - (a[i] + b[i])).norm() < 1e-5);
        }
    }

    #[test]
    fn traffic_respects_static_assignment() {
        let p = plan();
        let cfg = TrafficConfig {
            n_nodes: 16,
            sfs: vec![7, 9],
            code_rate: CodeRate::Cr45,
            rate_pps: 40.0,
            duration_s: 0.5,
            payload_len: 8,
            amplitude_range: (0.5, 1.0),
            cfo_range_hz: (-500.0, 500.0),
        };
        let mut rng = StdRng::seed_from_u64(7);
        let cap = generate_traffic(&mut rng, &p, &cfg);
        assert!(!cap.truth.is_empty());
        assert!(math::energy(&cap.samples) > 0.0);
        for t in &cap.truth {
            assert_eq!(t.channel, node_channel(&p, t.node));
            assert_eq!(t.sf, node_sf(&p, &cfg, t.node));
            assert_eq!(t.payload.len(), 8);
            // Frame fits inside the capture.
            let frame = Transceiver::new(p.wideband_params(t.sf), cfg.code_rate).frame_samples(8);
            assert!(t.start_sample + frame <= cap.samples.len());
        }
        // Both SFs and several channels actually occur.
        assert!(cap.truth.iter().any(|t| t.sf == 7));
        assert!(cap.truth.iter().any(|t| t.sf == 9));
        assert!((0..4).all(|c| cap.truth.iter().any(|t| t.channel == c)));
    }

    #[test]
    fn truth_sorted_by_arrival_time() {
        let p = plan();
        let cfg = TrafficConfig {
            n_nodes: 8,
            sfs: vec![7],
            code_rate: CodeRate::Cr45,
            rate_pps: 30.0,
            duration_s: 0.4,
            payload_len: 4,
            amplitude_range: (0.9, 1.0),
            cfo_range_hz: (-100.0, 100.0),
        };
        let mut rng = StdRng::seed_from_u64(3);
        let cap = generate_traffic(&mut rng, &p, &cfg);
        for w in cap.truth.windows(2) {
            assert!(w[0].start_sample <= w[1].start_sample);
        }
    }
}
