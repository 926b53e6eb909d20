//! Streaming (chunked) CIC reception.
//!
//! The paper deploys CIC as a GNU Radio block at an SDR gateway or as a
//! C-RAN module in the cloud (§6): samples arrive continuously, not as a
//! finished capture. [`StreamingReceiver`] wraps [`crate::CicReceiver`]
//! with a bounded internal buffer:
//!
//! * `push(chunk)` appends samples, decodes every packet whose frame is
//!   now complete, and evicts samples that can no longer contribute to
//!   any future packet;
//! * memory stays bounded by `frame length + margin + chunk length`
//!   regardless of stream duration;
//! * the emitted packet sequence is identical to running the batch
//!   receiver over the whole recording, for any chunking.

use lora_dsp::Cf32;
use lora_phy::params::{CodeRate, LoraParams};

use crate::config::CicConfig;
use crate::receiver::{CicReceiver, DecodedPacket};
use crate::sic::{ResidualBuffer, SicReport};

/// A chunk-at-a-time CIC receiver with bounded memory.
pub struct StreamingReceiver {
    rx: CicReceiver,
    buffer: Vec<Cf32>,
    /// Absolute sample index of `buffer[0]` in the stream.
    origin: usize,
    /// Absolute frame starts already emitted (recent ones only).
    emitted: Vec<usize>,
    /// Long-lived arena for the SIC residual stage (empty and untouched
    /// while `config.sic.depth == 0`).
    residual: ResidualBuffer,
    /// Cumulative SIC counters across all pushes.
    sic: SicReport,
}

impl StreamingReceiver {
    /// Wrap a configured receiver.
    pub fn new(params: LoraParams, cr: CodeRate, payload_len: usize, config: CicConfig) -> Self {
        Self {
            rx: CicReceiver::new(params, cr, payload_len, config),
            buffer: Vec::new(),
            origin: 0,
            emitted: Vec::new(),
            residual: ResidualBuffer::new(),
            sic: SicReport::default(),
        }
    }

    /// Cumulative counters of the SIC residual stage over the stream so
    /// far. All zero while the stage is disabled. Emission of
    /// SIC-recovered packets goes through the same suppressions as every
    /// other packet, so [`Self::holdback`] and the watermark contract
    /// are unchanged by the residual pass: a recovered packet's frame
    /// lies inside the buffered window it was subtracted from, hence
    /// `frame_start >= position() - holdback()` still holds.
    pub fn sic_report(&self) -> SicReport {
        self.sic
    }

    /// Swap the decoder configuration at runtime (e.g. a gateway lowering
    /// `decode_passes` under load). Applies from the next push; buffered
    /// samples, position and the emission history are untouched. The
    /// memory bound and [`Self::holdback`] depend only on the fixed
    /// parameters, so they are unaffected.
    pub fn set_config(&mut self, config: CicConfig) {
        self.rx.set_config(config);
    }

    /// Total samples consumed so far.
    pub fn position(&self) -> usize {
        self.origin + self.buffer.len()
    }

    /// Current internal buffer length (bounded; see module docs).
    pub fn buffered(&self) -> usize {
        self.buffer.len()
    }

    /// How far behind [`Self::position`] a future packet can still start:
    /// every packet emitted by a later `push` has
    /// `frame_start >= position() - holdback()`. Lets a merger of several
    /// streams compute a safe release watermark.
    pub fn holdback(&self) -> usize {
        self.keep_len()
    }

    /// Frame length in samples for the configured payload size.
    fn frame_len(&self) -> usize {
        let layout = lora_phy::modulate::FrameLayout::new(self.rx.params());
        layout.frame_len(self.rx.n_data_symbols())
    }

    /// Samples kept behind the stream head after processing: one full
    /// frame (a packet not yet complete may have started this long ago)
    /// plus a preamble's worth of history and two symbols of margin. The
    /// extra preamble span pairs with the front-margin suppression in
    /// `process_inner`: any eviction point slices through *some* packet's
    /// frame, and a truncated preamble at the buffer front can confirm as
    /// a symbol-shifted alias of an already-emitted packet.
    fn keep_len(&self) -> usize {
        // frame + preamble + 4 symbols: the extra slack guarantees the
        // emission window (frame end + 2 sps inside the buffer) never
        // collides with the front-margin suppression (preamble + 1 sps
        // from the evicted edge), for any chunk size.
        let layout = lora_phy::modulate::FrameLayout::new(self.rx.params());
        self.frame_len() + layout.data_start + 4 * self.rx.params().samples_per_symbol()
    }

    /// Append a chunk and return every packet completed by it, in frame
    /// order. Packets whose frames extend past the current stream head
    /// are held until a later push completes them.
    pub fn push(&mut self, chunk: &[Cf32]) -> Vec<DecodedPacket> {
        self.buffer.extend_from_slice(chunk);
        let out = self.process();
        // Evict everything that cannot matter to a future packet.
        if self.buffer.len() > self.keep_len() {
            let drop = self.buffer.len() - self.keep_len();
            self.buffer.drain(..drop);
            self.origin += drop;
        }
        let horizon = self.origin;
        self.emitted.retain(|&s| s >= horizon.saturating_sub(1));
        out
    }

    /// Decode what the buffer holds and reset it. `draining` selects the
    /// end-of-stream semantics of [`Self::flush`]; `false` keeps the
    /// edge-hold and front-margin suppressions of `push`, for resets
    /// mid-stream where an edge detection has no later context to be
    /// re-evaluated against and must not be trusted.
    fn flush_with(&mut self, draining: bool) -> Vec<DecodedPacket> {
        let out = self.process_inner(draining);
        self.origin += self.buffer.len();
        self.buffer.clear();
        self.emitted.clear();
        out
    }

    /// Drain: decode anything decodable in the remaining buffer, even if
    /// that means giving up on packets that would have needed more
    /// samples. Call once at end of stream.
    pub fn flush(&mut self) -> Vec<DecodedPacket> {
        self.flush_with(true)
    }

    /// Quiesce an idle stream: emit every packet that already passed the
    /// normal `push` suppressions, then reset the buffer so that no
    /// future packet can start before [`Self::position`]. Lets a merger
    /// release everything up to `position()` instead of holding the
    /// [`Self::holdback`] margin while the stream is silent. A packet
    /// only partially received when `quiesce` is called is given up, so
    /// call it on sustained inactivity, not between routine chunks.
    pub fn quiesce(&mut self) -> Vec<DecodedPacket> {
        self.flush_with(false)
    }

    /// Jump the stream head forward to absolute sample `position`:
    /// samples in between were lost upstream (e.g. an overloaded queue
    /// dropped them). Whatever the current buffer still holds is decoded
    /// and returned; the receiver then continues cleanly from `position`,
    /// with packets straddling the gap given up. Unlike [`Self::flush`],
    /// the edge-hold and front-margin suppressions of `push` stay active:
    /// a detection at the buffer edge may be an artifact of the partial
    /// view (or a shifted alias of an already-emitted packet whose
    /// preamble was evicted), and with the following samples lost there
    /// will never be context to re-evaluate it — emitting here would turn
    /// every queue-overflow gap into a source of alias packets.
    /// Positions at or behind the current head are a no-op.
    pub fn seek_to(&mut self, position: usize) -> Vec<DecodedPacket> {
        if position <= self.position() {
            return Vec::new();
        }
        let out = self.flush_with(false);
        self.origin = position;
        out
    }

    fn process(&mut self) -> Vec<DecodedPacket> {
        self.process_inner(false)
    }

    fn process_inner(&mut self, draining: bool) -> Vec<DecodedPacket> {
        if self.buffer.len() < self.rx.params().samples_per_symbol() {
            return Vec::new();
        }
        let sps = self.rx.params().samples_per_symbol();
        let frame = self.frame_len();
        let mut out = Vec::new();
        let (packets, report) = self.rx.receive_hybrid(&self.buffer, &mut self.residual);
        self.sic.absorb(report);
        for mut pkt in packets {
            // Hold packets that ran off the end of the buffer — the next
            // push will complete them. Also hold packets whose frame ends
            // within two symbols of the stream head: a detection made at
            // the very edge of the buffer can be an artifact of the
            // partial view (the next push re-evaluates it with context).
            if pkt.truncated_symbols > 0 {
                continue;
            }
            if !draining && pkt.detection.frame_start + frame + 2 * sps > self.buffer.len() {
                continue;
            }
            // Front margin: a detection starting this close to the evicted
            // edge lacks full preamble context and can be a shifted alias
            // of a packet already emitted. Any *real* packet completes
            // (and is emitted) before its start drifts into this margin,
            // because keep_len exceeds frame + margin by construction.
            let layout = lora_phy::modulate::FrameLayout::new(self.rx.params());
            if !draining && self.origin > 0 && pkt.detection.frame_start < layout.data_start + sps {
                continue;
            }
            let absolute = self.origin + pkt.detection.frame_start;
            if self.emitted.iter().any(|&s| s.abs_diff(absolute) < sps / 2) {
                continue;
            }
            self.emitted.push(absolute);
            pkt.detection.frame_start = absolute;
            out.push(pkt);
        }
        out.sort_by_key(|p| p.detection.frame_start);
        out
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

    fn payload(tag: u8) -> Vec<u8> {
        (0..14).map(|i| i * 5 + tag).collect()
    }

    /// Three packets, two of them colliding, with noise.
    fn capture() -> (Vec<Cf32>, Vec<(usize, Vec<u8>)>) {
        let p = params();
        let x = Transceiver::new(p, CodeRate::Cr45);
        let sps = p.samples_per_symbol();
        let a = amplitude_for_snr(22.0, p.oversampling());
        let truth = vec![
            (3000usize, payload(1)),
            (3000 + 14 * sps + 500, payload(2)),
            (3000 + 90 * sps, payload(3)),
        ];
        let emissions: Vec<Emission> = truth
            .iter()
            .enumerate()
            .map(|(i, (start, pl))| Emission {
                waveform: x.waveform(pl),
                amplitude: a,
                start_sample: *start,
                cfo_hz: [700.0, -1500.0, 2400.0][i],
            })
            .collect();
        let len = truth.last().unwrap().0 + x.frame_samples(14) + 4096;
        let mut cap = superpose(&p, len, &emissions);
        let mut rng = StdRng::seed_from_u64(77);
        add_unit_noise(&mut rng, &mut cap);
        (cap, truth)
    }

    fn run_streaming(cap: &[Cf32], chunk: usize) -> Vec<(usize, Option<Vec<u8>>)> {
        let mut s = StreamingReceiver::new(params(), CodeRate::Cr45, 14, CicConfig::default());
        let mut got = Vec::new();
        for c in cap.chunks(chunk) {
            for pkt in s.push(c) {
                got.push((pkt.detection.frame_start, pkt.payload));
            }
        }
        for pkt in s.flush() {
            got.push((pkt.detection.frame_start, pkt.payload));
        }
        got.sort_by_key(|g| g.0);
        got
    }

    #[test]
    fn matches_batch_for_various_chunk_sizes() {
        let (cap, _) = capture();
        let batch = CicReceiver::new(params(), CodeRate::Cr45, 14, CicConfig::default());
        let mut expect: Vec<(usize, Option<Vec<u8>>)> = batch
            .receive(&cap)
            .into_iter()
            .map(|p| (p.detection.frame_start, p.payload))
            .collect();
        expect.sort_by_key(|g| g.0);

        for chunk in [1024usize, 10_000, 100_000, cap.len()] {
            let got = run_streaming(&cap, chunk);
            assert_eq!(got.len(), expect.len(), "chunk {chunk}");
            for ((gs, gp), (es, ep)) in got.iter().zip(&expect) {
                assert!(gs.abs_diff(*es) <= 4, "chunk {chunk}: {gs} vs {es}");
                assert_eq!(gp, ep, "chunk {chunk}");
            }
        }
    }

    #[test]
    fn decodes_all_three_packets() {
        let (cap, truth) = capture();
        let got = run_streaming(&cap, 8192);
        assert_eq!(got.len(), 3);
        for ((start, pl), (ts, tp)) in got.iter().zip(&truth) {
            assert!(start.abs_diff(*ts) <= 4);
            assert_eq!(pl.as_deref(), Some(&tp[..]));
        }
    }

    #[test]
    fn memory_stays_bounded() {
        let (cap, _) = capture();
        let mut s = StreamingReceiver::new(params(), CodeRate::Cr45, 14, CicConfig::default());
        let chunk = 4096;
        let bound = s.keep_len() + chunk;
        for c in cap.chunks(chunk) {
            s.push(c);
            assert!(
                s.buffered() <= bound,
                "buffer {} > bound {bound}",
                s.buffered()
            );
        }
        assert_eq!(s.position(), cap.len());
    }

    #[test]
    fn no_duplicate_emissions() {
        let (cap, _) = capture();
        let got = run_streaming(&cap, 2048);
        for w in got.windows(2) {
            assert!(
                w[1].0 - w[0].0 > 512,
                "duplicate at {} / {}",
                w[0].0,
                w[1].0
            );
        }
    }

    #[test]
    fn seek_skips_a_gap_and_keeps_positions_absolute() {
        let (cap, truth) = capture();
        let p = params();
        let frame = Transceiver::new(p, CodeRate::Cr45).frame_samples(14);
        let mut s = StreamingReceiver::new(p, CodeRate::Cr45, 14, CicConfig::default());
        let mut got = Vec::new();
        // Feed until the second packet's frame is complete (plus the
        // emission margin), then simulate losing everything up to just
        // before the third packet and continue from there.
        let fed = truth[1].0 + frame + 4 * p.samples_per_symbol();
        let cut_resume = truth[2].0 - 2 * p.samples_per_symbol();
        for c in cap[..fed].chunks(8192) {
            got.extend(s.push(c));
        }
        got.extend(s.seek_to(cut_resume));
        assert_eq!(s.position(), cut_resume);
        for c in cap[cut_resume..].chunks(8192) {
            got.extend(s.push(c));
        }
        got.extend(s.flush());
        // Packets 1, 2 and 3 all arrive, with absolute stream positions.
        assert_eq!(got.len(), 3);
        got.sort_by_key(|p| p.detection.frame_start);
        for (pkt, (ts, tp)) in got.iter().zip(&truth) {
            assert!(pkt.detection.frame_start.abs_diff(*ts) <= 4);
            assert_eq!(pkt.payload.as_deref(), Some(&tp[..]));
        }
    }

    #[test]
    fn seek_gap_keeps_push_suppressions() {
        // Regression: `seek_to` used to flush with full drain semantics,
        // bypassing the edge-hold (and front-margin) suppressions `push`
        // applies. A complete frame sitting inside the edge-hold margin at
        // the moment of an upstream gap is exactly the detection `push`
        // refuses to trust without later context — and across a gap that
        // context never comes, so the seek must not emit it either.
        let (cap, truth) = capture();
        let p = params();
        let frame = Transceiver::new(p, CodeRate::Cr45).frame_samples(14);
        let mut s = StreamingReceiver::new(p, CodeRate::Cr45, 14, CicConfig::default());
        // Feed to exactly the end of packet 1's frame: complete in the
        // buffer, but held back by the two-symbol emission margin.
        let cut = truth[0].0 + frame;
        let mut emitted = Vec::new();
        for c in cap[..cut].chunks(4096) {
            emitted.extend(s.push(c));
        }
        assert!(
            emitted.is_empty(),
            "edge-held packet must not have been emitted by push yet"
        );
        // An overloaded queue drops everything up to mid-capture.
        let resume = truth[2].0 - 2 * p.samples_per_symbol();
        let at_seek = s.seek_to(resume);
        assert!(
            at_seek.is_empty(),
            "seek flush must keep the edge-hold suppression, got {:?}",
            at_seek
                .iter()
                .map(|pk| pk.detection.frame_start)
                .collect::<Vec<_>>()
        );
        assert_eq!(s.position(), resume);
        // The stream continues cleanly: the packet after the gap decodes
        // at its absolute position.
        let mut rest = Vec::new();
        for c in cap[resume..].chunks(4096) {
            rest.extend(s.push(c));
        }
        rest.extend(s.flush());
        assert_eq!(rest.len(), 1);
        assert!(rest[0].detection.frame_start.abs_diff(truth[2].0) <= 4);
        assert_eq!(rest[0].payload.as_deref(), Some(&truth[2].1[..]));
    }

    #[test]
    fn quiesce_releases_holdback_and_resumes() {
        // After a quiesce the receiver owes nothing before `position()`:
        // an emitted packet plus a cleared buffer, and the next pushes
        // decode later packets at absolute positions as usual.
        let (cap, truth) = capture();
        let p = params();
        let frame = Transceiver::new(p, CodeRate::Cr45).frame_samples(14);
        let mut s = StreamingReceiver::new(p, CodeRate::Cr45, 14, CicConfig::default());
        // Feed far enough that packets 1 and 2 are emitted by push.
        let fed = truth[1].0 + frame + 4 * p.samples_per_symbol();
        let mut got = Vec::new();
        for c in cap[..fed].chunks(8192) {
            got.extend(s.push(c));
        }
        assert_eq!(got.len(), 2);
        let pos = s.position();
        assert!(s.quiesce().is_empty(), "no edge detections in the lull");
        assert_eq!(s.position(), pos, "quiesce never moves the stream head");
        assert_eq!(s.buffered(), 0);
        // The stream resumes contiguously.
        for c in cap[fed..].chunks(8192) {
            got.extend(s.push(c));
        }
        got.extend(s.flush());
        assert_eq!(got.len(), 3);
        assert!(got[2].detection.frame_start.abs_diff(truth[2].0) <= 4);
        assert_eq!(got[2].payload.as_deref(), Some(&truth[2].1[..]));
    }

    #[test]
    fn set_config_applies_to_later_pushes() {
        let (cap, truth) = capture();
        let mut s = StreamingReceiver::new(params(), CodeRate::Cr45, 14, CicConfig::default());
        let mut got = Vec::new();
        for (i, c) in cap.chunks(8192).enumerate() {
            if i == 4 {
                s.set_config(CicConfig {
                    decode_passes: 1,
                    max_candidates: 4,
                    sed_windows: 4,
                    ..CicConfig::default()
                });
            }
            got.extend(s.push(c));
        }
        got.extend(s.flush());
        // This capture's packets are clean enough to decode at the least
        // effort a gateway asks for; the swap itself must not disturb the
        // stream state.
        assert_eq!(got.len(), 3);
        got.sort_by_key(|p| p.detection.frame_start);
        for (pkt, (ts, tp)) in got.iter().zip(&truth) {
            assert!(pkt.detection.frame_start.abs_diff(*ts) <= 4);
            assert_eq!(pkt.payload.as_deref(), Some(&tp[..]));
        }
    }

    #[test]
    fn streaming_sic_emits_recovered_packet_exactly_once() {
        // A buried packet is recovered by the residual pass of *every*
        // push whose window still contains it — the emission dedup must
        // collapse those into one packet, and the cumulative report
        // still counts each raw recovery.
        let p = params();
        let x = Transceiver::new(p, CodeRate::Cr45);
        let sps = p.samples_per_symbol();
        let truth = vec![(3000usize, payload(1)), (3000 + 6 * sps + 413, payload(2))];
        let emissions = [
            Emission {
                waveform: x.waveform(&truth[0].1),
                amplitude: amplitude_for_snr(30.0, p.oversampling()),
                start_sample: truth[0].0,
                cfo_hz: 300.0,
            },
            Emission {
                waveform: x.waveform(&truth[1].1),
                amplitude: amplitude_for_snr(12.0, p.oversampling()),
                start_sample: truth[1].0,
                cfo_hz: -800.0,
            },
        ];
        let len = truth[1].0 + x.frame_samples(14) + 40_000;
        let mut cap = superpose(&p, len, &emissions);
        let mut rng = StdRng::seed_from_u64(91);
        add_unit_noise(&mut rng, &mut cap);

        let cfg = CicConfig {
            sic: crate::sic::SicConfig::hybrid(),
            ..CicConfig::default()
        };
        let mut s = StreamingReceiver::new(p, CodeRate::Cr45, 14, cfg);
        let mut got = Vec::new();
        for c in cap.chunks(8192) {
            got.extend(s.push(c));
        }
        got.extend(s.flush());
        got.sort_by_key(|pk| pk.detection.frame_start);
        assert_eq!(got.len(), 2, "strong + recovered weak, no duplicates");
        for (pkt, (ts, tp)) in got.iter().zip(&truth) {
            assert!(pkt.detection.frame_start.abs_diff(*ts) <= 8);
            assert_eq!(pkt.payload.as_deref(), Some(&tp[..]));
        }
        assert!(
            got[1].sic_pass >= 1,
            "weak packet came from a residual pass"
        );
        let report = s.sic_report();
        assert!(report.passes >= 1 && report.recovered >= 1, "{report:?}");
        // The strong packet sits in the retained window across several
        // pushes, so all but its first subtraction must reuse the cached
        // reference waveform instead of re-modulating the frame.
        assert!(
            report.ref_cache_hits >= 1,
            "repeat offers across pushes should hit the cache: {report:?}"
        );
        assert!(report.ref_cache_misses >= 1, "{report:?}");
    }

    #[test]
    fn seek_backwards_is_a_no_op() {
        let mut s = StreamingReceiver::new(params(), CodeRate::Cr45, 14, CicConfig::default());
        s.push(&vec![Cf32::new(0.0, 0.0); 5000]);
        assert!(s.seek_to(100).is_empty());
        assert_eq!(s.position(), 5000);
    }

    #[test]
    fn empty_and_tiny_pushes_are_safe() {
        let mut s = StreamingReceiver::new(params(), CodeRate::Cr45, 14, CicConfig::default());
        assert!(s.push(&[]).is_empty());
        assert!(s.push(&[Cf32::new(0.0, 0.0); 10]).is_empty());
        assert!(s.flush().is_empty());
    }
}
