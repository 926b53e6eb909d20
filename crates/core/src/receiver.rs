//! The complete CIC gateway receiver: raw IQ capture in, decoded packets
//! out (paper §6, Fig 21).
//!
//! Pipeline per capture:
//!
//! 1. down-chirp preamble detection ([`crate::preamble`]) finds every
//!    frame start and estimates its CFO and preamble peak power;
//! 2. a `crate::tracker::Tracker` derives, for each symbol window of
//!    each packet, the boundary offsets of all interfering transmissions;
//! 3. each window is CFO-derotated, de-chirped and demodulated with the
//!    CIC spectral intersection ([`crate::demod`]);
//! 4. the per-packet symbol streams are decoded independently through the
//!    LoRa coding chain (de-Gray, deinterleave, Hamming, de-whiten, CRC).
//!
//! Steps 3–4 are independent per packet (and step 3 even per symbol) —
//! the property that makes CIC "extremely parallelizable" (paper §1).
//! The receiver itself is sequential: parallelism lives in the gateway's
//! decode pool, which runs one receiver per (channel, SF) stream.

use lora_dsp::Cf32;
use lora_phy::encode::Codec;
use lora_phy::params::{CodeRate, LoraParams};

use crate::config::CicConfig;
use crate::demod::{CicDemodulator, Selection, SymbolContext};
use crate::preamble::{Detection, PreambleDetector};
use crate::scratch::DemodScratch;
use crate::sic::{CancelOutcome, ResidualBuffer, SicReport};
use crate::tracker::{ActiveTx, Tracker};

/// Stop the SIC residual passes when a pass's subtractions lowered the
/// total residual power by less than this many dB: re-running CIC on an
/// unchanged buffer can only re-find the same packets.
const MIN_PASS_REDUCTION_DB: f64 = 0.05;

/// One packet recovered (or attempted) from a capture.
#[derive(Debug, Clone)]
pub struct DecodedPacket {
    /// The detection this packet was built from.
    pub detection: Detection,
    /// Demodulated data symbol values.
    pub symbols: Vec<usize>,
    /// Decoded payload when FEC and CRC passed.
    pub payload: Option<Vec<u8>>,
    /// Number of symbols whose window ran past the capture end.
    pub truncated_symbols: usize,
    /// How many symbol decisions needed SED or a strongest-pick tie-break
    /// (a congestion indicator used by the evaluation).
    pub contested_symbols: usize,
    /// Which SIC residual pass produced this decode: 0 for the primary
    /// CIC pipeline, `n >= 1` for a packet recovered after `n` rounds of
    /// waveform subtraction ([`crate::sic`]).
    pub sic_pass: usize,
}

impl DecodedPacket {
    /// True if the payload decoded and passed CRC.
    pub fn ok(&self) -> bool {
        self.payload.is_some()
    }
}

/// The CIC multi-packet receiver.
pub struct CicReceiver {
    params: LoraParams,
    config: CicConfig,
    codec: Codec,
    payload_len: usize,
}

impl CicReceiver {
    /// Build a receiver for fixed-length packets (implicit header mode,
    /// as in the paper's 28-byte experiments).
    pub fn new(params: LoraParams, cr: CodeRate, payload_len: usize, config: CicConfig) -> Self {
        Self {
            params,
            codec: Codec::new(params.sf(), cr),
            payload_len,
            config,
        }
    }

    /// Parameters in use.
    pub(crate) fn params(&self) -> &LoraParams {
        &self.params
    }

    /// Replace the configuration at runtime. Effort knobs
    /// (`decode_passes`, candidate limits, SED windows, SIC depth) take
    /// effect on the next `receive*` call; parameters and payload length
    /// are fixed at construction and unaffected.
    pub(crate) fn set_config(&mut self, config: CicConfig) {
        self.config = config;
    }

    /// Expected number of data symbols per packet.
    pub(crate) fn n_data_symbols(&self) -> usize {
        self.codec.n_symbols(self.payload_len)
    }

    /// Detect all packets in a capture (step 1 only). Useful for the
    /// detection-rate evaluation (paper Figs 32–35).
    pub fn detect(&self, capture: &[Cf32]) -> Vec<Detection> {
        PreambleDetector::new(self.params).detect(capture)
    }

    /// Build the tracker for a set of detections.
    fn tracker(&self, detections: &[Detection]) -> Tracker {
        let n_data = self.n_data_symbols();
        let txs = detections
            .iter()
            .enumerate()
            .map(|(id, d)| ActiveTx {
                id,
                frame_start: d.frame_start,
                n_data_symbols: n_data,
                cfo_bins: d.cfo_bins,
            })
            .collect();
        Tracker::new(&self.params, txs)
    }

    /// Full receive pipeline, sequential.
    ///
    /// Decoding runs in passes: packets that decode (CRC-clean) in one
    /// pass have *known* data symbols, so their per-window tones become
    /// predictable for everyone else — failed packets are then re-decoded
    /// with those tones excluded from their candidate sets (the same
    /// mechanism as the known-preamble exclusion, extended to data).
    /// Unlike successive interference cancellation, no waveform is
    /// reconstructed or subtracted; only candidate selection changes —
    /// unless the optional SIC residual stage is enabled
    /// ([`crate::sic::SicConfig::depth`] > 0), which runs *after* these
    /// passes and does subtract waveforms.
    pub fn receive(&self, capture: &[Cf32]) -> Vec<DecodedPacket> {
        self.receive_hybrid(capture, &mut ResidualBuffer::new()).0
    }

    /// The pure-CIC pipeline (detection, per-packet decode, candidate
    /// exclusion passes) with no residual cancellation. The SIC stage
    /// re-enters here for each residual pass.
    fn receive_cic(&self, capture: &[Cf32]) -> Vec<DecodedPacket> {
        let detections = self.detect(capture);
        let tracker = self.tracker(&detections);
        let demod = CicDemodulator::new(self.params, self.config.clone());
        let mut scratch = DemodScratch::new();
        // Data symbols of CRC-clean packets, by detection index: empty for
        // the first pass, then the known tones of each re-decode pass
        // (see `receive`).
        let mut known = std::collections::HashMap::new();
        let mut packets: Vec<DecodedPacket> = detections
            .iter()
            .map(|d| self.decode_one(capture, &tracker, &demod, d, &known, &mut scratch))
            .collect();
        for _pass in 1..self.config.decode_passes.max(1) {
            for (id, pkt) in packets.iter().enumerate() {
                if pkt.ok() {
                    known.entry(id).or_insert_with(|| pkt.symbols.clone());
                }
            }
            if known.is_empty() || known.len() == packets.len() {
                break;
            }
            let mut progressed = false;
            for (id, det) in detections.iter().enumerate() {
                if packets[id].ok() {
                    continue;
                }
                let retry = self.decode_one(capture, &tracker, &demod, det, &known, &mut scratch);
                if retry.ok() {
                    progressed = true;
                    packets[id] = retry;
                }
            }
            if !progressed {
                break;
            }
        }
        packets
    }

    /// Full receive pipeline reusing the caller's residual arena, and
    /// reporting what the SIC stage did. This is the entry point the
    /// streaming receiver uses: a long-lived [`ResidualBuffer`] avoids
    /// re-allocating the capture copy on every chunk, and the
    /// [`SicReport`] feeds the gateway's telemetry.
    /// [`CicReceiver::receive`] is this with a fresh arena and the report
    /// dropped; with `sic.depth == 0` the report is empty.
    pub(crate) fn receive_hybrid(
        &self,
        capture: &[Cf32],
        residual: &mut ResidualBuffer,
    ) -> (Vec<DecodedPacket>, SicReport) {
        let mut packets = self.receive_cic(capture);
        let report = self.sic_stage(capture, &mut packets, residual);
        (packets, report)
    }

    /// The SIC residual stage (no-op unless `config.sic.depth > 0`):
    /// subtract CRC-clean packets from a retained copy of `capture` and
    /// re-run CIC on the residual, merging newly recovered packets into
    /// `packets`. See [`crate::sic`] for the pipeline description.
    fn sic_stage(
        &self,
        capture: &[Cf32],
        packets: &mut Vec<DecodedPacket>,
        residual: &mut ResidualBuffer,
    ) -> SicReport {
        let cfg = &self.config.sic;
        let mut report = SicReport::default();
        // Nothing decoded means nothing to subtract: skip the capture
        // copy entirely so idle/noise-only calls stay allocation-free.
        if !cfg.enabled() || !packets.iter().any(|p| p.ok()) {
            return report;
        }
        let sps = self.params.samples_per_symbol();
        let modulator = lora_phy::modulate::Modulator::new(self.params);
        residual.load(capture);
        // The buffer's cache counters are cumulative across its
        // lifetime; this call's report carries only the delta.
        let (hits_before, misses_before) = residual.cache_counters();
        // Which packets have already been offered for subtraction
        // (index-parallel with `packets`; order is only normalized after
        // the loop).
        let mut offered = vec![false; packets.len()];
        for pass in 1..=cfg.depth {
            let e_before = residual.energy();
            let mut any_cancelled = false;
            for i in 0..packets.len() {
                if offered[i] || !packets[i].ok() {
                    continue;
                }
                offered[i] = true;
                match residual.cancel(
                    &modulator,
                    &packets[i].symbols,
                    packets[i].detection.frame_start,
                    packets[i].detection.cfo_bins,
                    cfg,
                ) {
                    CancelOutcome::Cancelled { .. } => any_cancelled = true,
                    CancelOutcome::Abandoned => report.abandoned += 1,
                }
            }
            if !any_cancelled {
                break;
            }
            let e_after = residual.energy();
            if e_after <= f64::MIN_POSITIVE {
                break;
            }
            // Residual-power stop: re-running CIC on a buffer this pass
            // barely changed can only re-find the same packets.
            if lora_dsp::math::db(e_before / e_after) < MIN_PASS_REDUCTION_DB {
                break;
            }
            report.passes += 1;
            let mut progressed = false;
            for mut pkt in self.receive_cic(residual.samples()) {
                let near = packets.iter().position(|p| {
                    p.detection.frame_start.abs_diff(pkt.detection.frame_start) < sps / 2
                });
                match near {
                    // A detection at a known frame start: either the
                    // partially-cancelled ghost of a packet we already
                    // have (ignore), or a failed packet that now decodes
                    // in the cleaner residual (replace and mark it for
                    // subtraction next pass).
                    Some(j) => {
                        if !packets[j].ok() && pkt.ok() {
                            pkt.sic_pass = pass;
                            packets[j] = pkt;
                            offered[j] = false;
                            report.recovered += 1;
                            progressed = true;
                        }
                    }
                    // A brand-new frame start — a packet whose preamble
                    // was buried until now. Only trust it if it decodes:
                    // residual artifacts can trigger spurious detections.
                    None => {
                        if pkt.ok() {
                            pkt.sic_pass = pass;
                            packets.push(pkt);
                            offered.push(false);
                            report.recovered += 1;
                            progressed = true;
                        }
                    }
                }
            }
            if !progressed {
                break;
            }
        }
        let (hits, misses) = residual.cache_counters();
        report.ref_cache_hits = hits - hits_before;
        report.ref_cache_misses = misses - misses_before;
        packets.sort_by_key(|p| p.detection.frame_start);
        report
    }

    /// Demodulate and decode one detected packet. `decoded_symbols` holds
    /// the data symbols of packets already decoded in earlier passes;
    /// `scratch` is the caller's demod arena.
    fn decode_one(
        &self,
        capture: &[Cf32],
        tracker: &Tracker,
        demod: &CicDemodulator,
        detection: &Detection,
        decoded_symbols: &std::collections::HashMap<usize, Vec<usize>>,
        scratch: &mut DemodScratch,
    ) -> DecodedPacket {
        let sps = self.params.samples_per_symbol();
        let layout = tracker.layout();
        let n_data = self.n_data_symbols();
        let cfo_hz = detection.cfo_bins * self.params.bin_hz();

        let my_id = tracker
            .txs()
            .iter()
            .find(|t| t.frame_start == detection.frame_start)
            .map(|t| t.id)
            .unwrap_or(usize::MAX);

        let mut symbols = Vec::with_capacity(n_data);
        let mut truncated = 0usize;
        let mut contested = 0usize;
        let derot_step = -std::f64::consts::TAU * cfo_hz / self.params.sample_rate_hz();
        // The window/de-chirp buffers live in the arena between packets,
        // but `demodulate_with` needs the arena too — take them out for
        // the duration of the loop (no allocation either way).
        let mut win = std::mem::take(&mut scratch.win);
        let mut de = std::mem::take(&mut scratch.de);
        for k in 0..n_data {
            let start = detection.frame_start + layout.data_symbol_start(k);
            if start + sps > capture.len() {
                truncated += 1;
                symbols.push(0);
                continue;
            }
            // Derotate the window by the estimated CFO, then de-chirp.
            win.clear();
            win.extend_from_slice(&capture[start..start + sps]);
            for (i, c) in win.iter_mut().enumerate() {
                let ph = (derot_step * i as f64) % std::f64::consts::TAU;
                *c *= Cf32::from_polar(1.0, ph as f32);
            }
            demod.inner().dechirp_into(&win, &mut de);
            let boundaries = tracker.interferer_boundaries(my_id, start, sps);
            let ctx = SymbolContext {
                // After derotating by the preamble CFO estimate, this
                // transmitter's residual fractional offset is ~0;
                // interferers keep their own (different) offsets.
                frac_cfo_bins: Some(0.0),
                expected_peak_power: Some(detection.peak_power),
                known_interferer_bins: {
                    let mut bins =
                        tracker.known_preamble_bins(my_id, detection.cfo_bins, start, sps);
                    bins.extend(tracker.known_data_bins(
                        my_id,
                        detection.cfo_bins,
                        start,
                        sps,
                        decoded_symbols,
                    ));
                    bins
                },
            };
            let (value, selection) = demod.demodulate_with(&de, &boundaries, &ctx, scratch);
            if matches!(selection, Selection::Sed | Selection::Strongest) {
                contested += 1;
            }
            symbols.push(value);
        }
        scratch.win = win;
        scratch.de = de;

        let payload = if truncated == 0 {
            self.codec
                .decode(&symbols, self.payload_len)
                .ok()
                .map(|(p, _)| p)
        } else {
            None
        };
        DecodedPacket {
            detection: *detection,
            symbols,
            payload,
            truncated_symbols: truncated,
            contested_symbols: contested,
            sic_pass: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lora_channel::{add_unit_noise, amplitude_for_snr, superpose, Emission};
    use lora_phy::packet::Transceiver;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn params() -> LoraParams {
        LoraParams::new(8, 250e3, 4).unwrap()
    }

    fn receiver() -> CicReceiver {
        CicReceiver::new(params(), CodeRate::Cr45, 16, CicConfig::default())
    }

    fn payload(tag: u8) -> Vec<u8> {
        (0..16).map(|i| i * 3 + tag).collect()
    }

    fn emission(p: &LoraParams, tag: u8, snr_db: f64, start: usize, cfo_hz: f64) -> Emission {
        let x = Transceiver::new(*p, CodeRate::Cr45);
        Emission {
            waveform: x.waveform(&payload(tag)),
            amplitude: amplitude_for_snr(snr_db, p.oversampling()),
            start_sample: start,
            cfo_hz,
        }
    }

    fn run(emissions: &[Emission], extra: usize, seed: u64) -> Vec<DecodedPacket> {
        let p = params();
        let len = emissions
            .iter()
            .map(|e| e.start_sample + e.waveform.len())
            .max()
            .unwrap()
            + extra;
        let mut cap = superpose(&p, len, emissions);
        let mut rng = StdRng::seed_from_u64(seed);
        add_unit_noise(&mut rng, &mut cap);
        receiver().receive(&cap)
    }

    #[test]
    fn decodes_single_clean_packet() {
        let p = params();
        let pkts = run(&[emission(&p, 1, 20.0, 2000, 300.0)], 1000, 1);
        assert_eq!(pkts.len(), 1);
        assert_eq!(pkts[0].payload.as_deref(), Some(&payload(1)[..]));
    }

    #[test]
    fn decodes_two_colliding_packets() {
        let p = params();
        let sps = p.samples_per_symbol();
        // Packet 2 starts while packet 1 is in its data section; boundary
        // offset is 40% of a symbol.
        let s2 = 14 * sps + (2 * sps) / 5;
        let pkts = run(
            &[
                emission(&p, 1, 22.0, 0, 400.0),
                emission(&p, 2, 20.0, s2, -700.0),
            ],
            1000,
            2,
        );
        assert_eq!(pkts.len(), 2, "detections: {pkts:?}");
        assert_eq!(pkts[0].payload.as_deref(), Some(&payload(1)[..]));
        assert_eq!(pkts[1].payload.as_deref(), Some(&payload(2)[..]));
    }

    #[test]
    fn decodes_collision_with_power_disparity() {
        // Boundary offset 40% of a symbol: a representative draw. (A
        // boundary below ~10% puts every symbol of the packet in the
        // hard regime of paper Fig 38, where even CIC loses symbols.)
        let p = params();
        let sps = p.samples_per_symbol();
        let s2 = 10 * sps + (2 * sps) / 5;
        let pkts = run(
            &[
                emission(&p, 3, 15.0, 0, 250.0),
                emission(&p, 4, 25.0, s2, -300.0), // 10 dB stronger
            ],
            1000,
            3,
        );
        assert_eq!(pkts.len(), 2);
        // The strong packet must decode outright. For the 10 dB weaker
        // one, CIC must recover nearly every symbol despite the stronger
        // interferer (an occasional ±1-bin error from an adjacent
        // interferer peak is physical; at CR 4/5 it costs the CRC).
        assert!(pkts[1].ok());
        let x = Transceiver::new(p, CodeRate::Cr45);
        let truth = x.codec().encode(&payload(3));
        let errors = pkts[0]
            .symbols
            .iter()
            .zip(&truth)
            .filter(|(a, b)| a != b)
            .count();
        assert!(
            errors <= 2,
            "weak packet symbol errors {errors}: {:?}",
            pkts[0]
        );
    }

    #[test]
    fn four_packet_collision_all_detected() {
        // Four packets piled into one collision window: every frame
        // overlaps at least one other, so the re-decode passes all get
        // exercised.
        let p = params();
        let sps = p.samples_per_symbol();
        let emissions = [
            emission(&p, 11, 24.0, 0, 300.0),
            emission(&p, 12, 21.0, 12 * sps + 409, -900.0),
            emission(&p, 13, 23.0, 24 * sps + 811, 1500.0),
            emission(&p, 14, 20.0, 36 * sps + 173, -2100.0),
        ];
        let pkts = run(&emissions, 1000, 9);
        assert_eq!(pkts.len(), 4, "all four collisions detected");
    }

    #[test]
    fn hybrid_sic_recovers_buried_packet() {
        // The scenario CIC cannot solve alone: a weak packet fully
        // overlapped by one 18 dB stronger. Its preamble never clears
        // the detection threshold, so candidate exclusion has nothing to
        // work with — only subtracting the strong waveform exposes it.
        let p = params();
        let sps = p.samples_per_symbol();
        let emissions = [
            emission(&p, 1, 30.0, 0, 300.0),
            emission(&p, 2, 12.0, 6 * sps + 413, -800.0),
        ];
        let len = emissions[1].start_sample + emissions[1].waveform.len() + 2000;
        let mut cap = superpose(&p, len, &emissions);
        let mut rng = StdRng::seed_from_u64(6);
        add_unit_noise(&mut rng, &mut cap);

        let cic_only = receiver().receive(&cap);
        assert!(
            !cic_only
                .iter()
                .any(|q| q.payload.as_deref() == Some(&payload(2)[..])),
            "plain CIC should not see the buried packet in this scenario"
        );

        let cfg = CicConfig {
            sic: crate::sic::SicConfig::hybrid(),
            ..CicConfig::default()
        };
        let rx = CicReceiver::new(p, CodeRate::Cr45, 16, cfg);
        let mut residual = crate::sic::ResidualBuffer::new();
        let (pkts, report) = rx.receive_hybrid(&cap, &mut residual);
        let strong = pkts
            .iter()
            .find(|q| q.payload.as_deref() == Some(&payload(1)[..]))
            .expect("strong packet decodes");
        let weak = pkts
            .iter()
            .find(|q| q.payload.as_deref() == Some(&payload(2)[..]))
            .expect("hybrid recovers the buried packet");
        assert_eq!(strong.sic_pass, 0);
        assert!(weak.sic_pass >= 1, "recovered on a residual pass");
        assert!(weak.detection.frame_start.abs_diff(6 * sps + 413) < sps / 2);
        assert!(report.passes >= 1 && report.recovered >= 1, "{report:?}");
        // Output is sorted by frame start in hybrid mode.
        for w in pkts.windows(2) {
            assert!(w[0].detection.frame_start <= w[1].detection.frame_start);
        }
    }

    #[test]
    fn truncated_packet_reported_not_decoded() {
        let p = params();
        let x = Transceiver::new(p, CodeRate::Cr45);
        let wave = x.waveform(&payload(8));
        // Cut the capture in the middle of the data section.
        let cut = wave.len() - 5 * p.samples_per_symbol();
        let mut cap = wave[..cut].to_vec();
        let a = amplitude_for_snr(25.0, p.oversampling()) as f32;
        for c in cap.iter_mut() {
            *c *= a;
        }
        let mut rng = StdRng::seed_from_u64(5);
        add_unit_noise(&mut rng, &mut cap);
        let pkts = receiver().receive(&cap);
        assert_eq!(pkts.len(), 1);
        assert!(!pkts[0].ok());
        assert!(pkts[0].truncated_symbols > 0);
    }

    #[test]
    fn empty_capture_no_packets() {
        assert!(receiver().receive(&[]).is_empty());
    }
}
