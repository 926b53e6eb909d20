//! Merging the per-(channel, SF) decoder outputs into one time-ordered
//! packet stream with duplicate suppression.
//!
//! Workers run at different speeds, so a packet arriving from worker A
//! may precede — in air time — one already reported by worker B. The
//! sink therefore buffers reported packets and only *releases* those at
//! or below the **release watermark**: the minimum over all workers of
//! "no future packet from this worker can start earlier than here"
//! (each worker derives its bound from
//! [`cic::StreamingReceiver::holdback`]). Watermarks only move forward
//! and every reported packet starts at or after its worker's watermark
//! at report time, so the released stream is globally non-decreasing in
//! start time — time-ordered without ever stalling a worker.
//!
//! A runtime has one sink for all its shards, which report on global
//! channel indices. A due duplicate of its own shard's packet counts in
//! that shard's `duplicates_suppressed`; any other due packet counts in
//! its shard's `packets_released`, and is merged unless it duplicates
//! another shard's (a cross-gateway duplicate).

use std::collections::VecDeque;
use std::sync::atomic::Ordering;
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{Arc, Mutex};

use cic::DecodedPacket;

use crate::dedup::{DedupEntry, DedupWindow};
use crate::stats::GatewayStats;

/// A decoded packet with its gateway-level provenance.
#[derive(Debug, Clone)]
pub struct GatewayPacket {
    /// Channel the packet was received on (an index into the full band
    /// plan in a cluster).
    pub channel: usize,
    /// Spreading factor it was decoded at.
    pub sf: u8,
    /// Estimated frame start in *wideband* samples (group-delay
    /// corrected), the common time base across all workers.
    pub start_wideband: u64,
    /// The demodulated packet (payload is `Some` iff CRC passed).
    pub packet: DecodedPacket,
}

struct SinkInner {
    /// Per-worker release bound, wideband samples.
    watermarks: Vec<u64>,
    /// Reported but not yet releasable, each with its shard.
    pending: Vec<(usize, GatewayPacket)>,
    /// Recently accepted packets, kept for duplicate suppression.
    recent: DedupWindow,
    /// Released, time-ordered, awaiting collection by the poll path.
    released: VecDeque<GatewayPacket>,
    /// Live subscription, if any: released packets are forwarded here in
    /// release order instead of waiting to be polled.
    subscriber: Option<Sender<GatewayPacket>>,
    /// Each shard's telemetry, by shard index.
    stats: Vec<Arc<GatewayStats>>,
    /// Packets released into the stream.
    packets_merged: u64,
    /// Due packets that duplicated another shard's packet.
    cross_gateway_duplicates: u64,
}

/// The merge point of all worker outputs. See the module docs.
pub(crate) struct PacketSink {
    inner: Mutex<SinkInner>,
}

impl PacketSink {
    /// A sink merging `n_workers` streams, with `chip_wideband` wideband
    /// samples per chip (`oversampling × decimation`). Each shard joins
    /// with [`PacketSink::add_shard`] before its workers report.
    pub(crate) fn new(n_workers: usize, chip_wideband: usize) -> Self {
        Self {
            inner: Mutex::new(SinkInner {
                watermarks: vec![0; n_workers],
                pending: Vec::new(),
                recent: DedupWindow::new(chip_wideband),
                released: VecDeque::new(),
                subscriber: None,
                stats: Vec::new(),
                packets_merged: 0,
                cross_gateway_duplicates: 0,
            }),
        }
    }

    /// Add a shard whose telemetry is `stats` and whose workers decode up
    /// to `max_sf`, returning the index its workers report under.
    ///
    /// `release_slack` is how far behind the release watermark the
    /// shard's immediate-release path can legitimately reach, in wideband
    /// samples: a worker's below-watermark report (a SIC residual pass
    /// re-reading buffered history, or the laggard defining the minimum)
    /// starts at most its receiver holdback behind its own watermark, so
    /// the shard passes its largest worker holdback here. The
    /// duplicate-suppression window retains releases over the largest
    /// such span — pruning tighter would let an old laggard's duplicate
    /// be re-emitted after its original was forgotten.
    pub(crate) fn add_shard(
        &self,
        stats: Arc<GatewayStats>,
        max_sf: u8,
        release_slack: u64,
    ) -> usize {
        let mut inner = self.inner.lock().expect("packet sink poisoned");
        inner.recent.cover(max_sf, release_slack);
        inner.stats.push(stats);
        inner.stats.len() - 1
    }

    /// The current release horizon: the minimum over per-worker
    /// watermarks, i.e. the wideband position below which the released
    /// stream is complete.
    pub(crate) fn horizon(&self) -> u64 {
        let inner = self.inner.lock().unwrap();
        inner.watermarks.iter().min().copied().unwrap_or(u64::MAX)
    }

    /// `(packets_merged, cross_gateway_duplicates)` so far.
    pub(crate) fn merge_counts(&self) -> (u64, u64) {
        let inner = self.inner.lock().expect("packet sink poisoned");
        (inner.packets_merged, inner.cross_gateway_duplicates)
    }

    /// Report packets newly decoded by a worker of shard `shard`.
    /// Packets already covered by the current global watermark (possible
    /// when the reporting worker is the laggard that defines the minimum)
    /// are released immediately — they must not wait for some *other*
    /// worker's next watermark move.
    pub(crate) fn report(&self, shard: usize, packets: Vec<GatewayPacket>) {
        if packets.is_empty() {
            return;
        }
        let mut inner = self.inner.lock().unwrap();
        inner
            .pending
            .extend(packets.into_iter().map(|p| (shard, p)));
        self.drain(&mut inner);
    }

    /// Advance worker `worker`'s watermark (monotone; lower values are
    /// ignored) and release every pending packet the new global minimum
    /// covers.
    pub(crate) fn set_watermark(&self, worker: usize, watermark: u64) {
        let mut inner = self.inner.lock().unwrap();
        if watermark <= inner.watermarks[worker] {
            return;
        }
        inner.watermarks[worker] = watermark;
        self.drain(&mut inner);
    }

    /// Mark worker `worker` as finished: it will never report again, so
    /// it no longer constrains the release watermark.
    pub(crate) fn finish_worker(&self, worker: usize) {
        self.set_watermark(worker, u64::MAX);
    }

    /// Take every packet released since the last call (time-ordered).
    /// With a live subscription this is empty: every release goes to the
    /// subscriber's channel.
    pub(crate) fn take_released(&self) -> Vec<GatewayPacket> {
        std::mem::take(&mut self.inner.lock().unwrap().released)
            .into_iter()
            .collect()
    }

    /// Attach the single subscription: released packets are forwarded
    /// into the returned unbounded channel in release order, starting
    /// with anything already waiting in the poll buffer. The sink never
    /// blocks on a slow consumer; what it has not read waits in the
    /// channel, which allocates only as packets arrive. `_capacity` is
    /// unused; it mirrors [`Gateway::subscribe`](crate::Gateway::subscribe).
    ///
    /// # Panics
    /// If a subscription is already attached.
    pub(crate) fn subscribe(&self, _capacity: usize) -> Receiver<GatewayPacket> {
        let (tx, rx) = std::sync::mpsc::channel();
        let mut inner = self.inner.lock().unwrap();
        assert!(
            inner.subscriber.is_none(),
            "packet sink already has a subscriber"
        );
        inner.subscriber = Some(tx);
        self.forward(&mut inner);
        rx
    }

    /// Move the poll buffer into the subscriber's channel, in order. A
    /// disconnected receiver detaches the subscription and reverts to the
    /// poll path, with the packet it refused back at the buffer's head.
    fn forward(&self, inner: &mut SinkInner) {
        let Some(tx) = &inner.subscriber else {
            return;
        };
        while let Some(p) = inner.released.pop_front() {
            if let Err(refused) = tx.send(p) {
                inner.released.push_front(refused.0);
                inner.subscriber = None;
                return;
            }
        }
    }

    fn drain(&self, inner: &mut SinkInner) {
        // A sink whose every worker has been detached (shed gateways can
        // reach zero attached workers) has nothing left to wait for: the
        // horizon opens fully and already-reported packets keep flowing
        // instead of panicking on the empty minimum.
        let horizon = inner.watermarks.iter().min().copied().unwrap_or(u64::MAX);
        let (mut due, keep): (Vec<_>, Vec<_>) = inner
            .pending
            .drain(..)
            .partition(|(_, p)| p.start_wideband <= horizon);
        inner.pending = keep;
        if due.is_empty() {
            self.forward(inner);
            return;
        }
        due.sort_by_key(|(_, p)| (p.start_wideband, p.channel, p.sf));
        for (shard, p) in due {
            let stats = &inner.stats[shard];
            let entry = DedupEntry {
                shard,
                channel: p.channel,
                sf: p.sf,
                start_wideband: p.start_wideband,
                payload: p.packet.payload.clone(),
            };
            let duplicate_of = inner.recent.duplicate_of(&entry);
            if duplicate_of == Some(shard) {
                stats.duplicates_suppressed.fetch_add(1, Ordering::Relaxed);
                continue;
            }
            inner.recent.accept(entry);
            stats.packets_released.fetch_add(1, Ordering::Relaxed);
            if duplicate_of.is_some() {
                inner.cross_gateway_duplicates += 1;
                continue;
            }
            inner.packets_merged += 1;
            // Insert keeping `released` sorted: the immediate release of a
            // laggard's below-watermark report can arrive *after* packets
            // with later start times were already released, and the
            // collected stream must stay globally non-decreasing. Almost
            // always an append (partition_point hits the end), so the
            // common case costs a binary search and no memmove.
            let key = (p.start_wideband, p.channel, p.sf);
            let at = inner
                .released
                .partition_point(|q| (q.start_wideband, q.channel, q.sf) <= key);
            inner.released.insert(at, p);
        }
        // The dedup window prunes itself against the watermark; its
        // retention covers the immediate-release slack, so no live
        // duplicate candidate is ever forgotten (see `PacketSink::add_shard`).
        inner.recent.prune(horizon);
        self.forward(inner);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cic::Detection;

    fn stats() -> Arc<GatewayStats> {
        Arc::new(GatewayStats::new(&[(0, 7), (1, 7)]))
    }

    /// A sink over the `n_workers` workers of one shard.
    fn one_shard(n_workers: usize, max_sf: u8, slack: u64, s: Arc<GatewayStats>) -> PacketSink {
        let sink = PacketSink::new(n_workers, 16);
        sink.add_shard(s, max_sf, slack);
        sink
    }

    fn pkt(channel: usize, sf: u8, start: u64, payload: &[u8]) -> GatewayPacket {
        GatewayPacket {
            channel,
            sf,
            start_wideband: start,
            packet: DecodedPacket {
                detection: Detection {
                    frame_start: start as usize,
                    cfo_bins: 0.0,
                    peak_power: 1.0,
                    score: 10.0,
                },
                symbols: vec![],
                payload: Some(payload.to_vec()),
                truncated_symbols: 0,
                contested_symbols: 0,
                sic_pass: 0,
            },
        }
    }

    #[test]
    fn holds_until_all_watermarks_cover() {
        let sink = one_shard(2, 9, 0, stats());
        sink.report(0, vec![pkt(0, 7, 1000, b"a")]);
        sink.set_watermark(0, 50_000);
        // Worker 1 still at 0: nothing may be released yet.
        assert!(sink.take_released().is_empty());
        sink.set_watermark(1, 2_000);
        let got = sink.take_released();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].start_wideband, 1000);
    }

    #[test]
    fn releases_in_time_order_across_workers() {
        let s = stats();
        let sink = one_shard(2, 9, 0, s.clone());
        sink.report(0, vec![pkt(0, 7, 9000, b"b")]);
        sink.report(0, vec![pkt(1, 7, 4000, b"a"), pkt(1, 7, 12_000, b"c")]);
        sink.finish_worker(0);
        sink.finish_worker(1);
        let got = sink.take_released();
        let starts: Vec<u64> = got.iter().map(|p| p.start_wideband).collect();
        assert_eq!(starts, vec![4000, 9000, 12_000]);
        assert_eq!(s.snapshot().packets_released, 3);
    }

    #[test]
    fn suppresses_same_payload_duplicate_on_channel() {
        let s = stats();
        let sink = one_shard(2, 9, 0, s.clone());
        // Same channel, same payload, one symbol apart: one transmission.
        sink.report(0, vec![pkt(0, 7, 10_000, b"dup")]);
        sink.report(0, vec![pkt(0, 9, 10_500, b"dup")]);
        // Different channel, same payload: NOT a duplicate.
        sink.report(0, vec![pkt(1, 7, 10_200, b"dup")]);
        sink.finish_worker(0);
        sink.finish_worker(1);
        let got = sink.take_released();
        assert_eq!(got.len(), 2);
        assert_eq!(s.snapshot().duplicates_suppressed, 1);
    }

    #[test]
    fn report_below_watermark_releases_immediately() {
        // Regression: `report` used to only append to `pending`, so a
        // packet already covered by the global watermark sat there until
        // some worker next moved its watermark — a full chunk late, or
        // forever if no further samples arrived before `finish`.
        let sink = one_shard(2, 9, 0, stats());
        sink.set_watermark(0, 10_000);
        sink.set_watermark(1, 8_000);
        // Worker 1 (the laggard defining the minimum) now reports a
        // packet below the watermark: it must come out without any
        // further watermark movement.
        sink.report(0, vec![pkt(1, 7, 5_000, b"late")]);
        let got = sink.take_released();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].start_wideband, 5_000);
    }

    #[test]
    fn laggard_release_keeps_released_stream_sorted() {
        // Regression: the immediate release of a below-watermark report
        // used to *append* to `released`, so a laggard reporting a packet
        // that starts before packets already sitting there broke the
        // "globally non-decreasing start time" invariant. Due packets must
        // be inserted in (start_wideband, channel, sf) order instead.
        let sink = one_shard(2, 9, 0, stats());
        sink.set_watermark(0, 10_000);
        sink.set_watermark(1, 8_000);
        // Worker 0 reports a packet below the global watermark (8 000):
        // released immediately.
        sink.report(0, vec![pkt(0, 7, 7_000, b"later")]);
        // The laggard (worker 1) then reports an *earlier* packet, also
        // below the watermark: it must slot in before the first one.
        sink.report(0, vec![pkt(1, 7, 5_000, b"early")]);
        let got = sink.take_released();
        let starts: Vec<u64> = got.iter().map(|p| p.start_wideband).collect();
        assert_eq!(starts, vec![5_000, 7_000], "released buffer out of order");
    }

    #[test]
    fn sic_redecode_of_released_packet_is_suppressed() {
        // A SIC residual pass can re-detect a transmission the primary
        // pass already reported (a neighbouring subtraction sharpens its
        // ghost). The payload dedup must suppress the ghost, while a
        // genuinely new recovered packet — reported below the watermark,
        // because the residual pass re-reads buffered history — is
        // released immediately and in time order.
        let s = stats();
        let sink = one_shard(2, 9, 0, s.clone());
        sink.report(0, vec![pkt(0, 7, 10_000, b"strong")]);
        sink.set_watermark(0, 20_000);
        sink.set_watermark(1, 20_000);
        assert_eq!(sink.take_released().len(), 1);
        let mut ghost = pkt(0, 7, 10_128, b"strong");
        ghost.packet.sic_pass = 1;
        let mut weak = pkt(0, 7, 6_000, b"weak");
        weak.packet.sic_pass = 1;
        sink.report(0, vec![ghost, weak]);
        let got = sink.take_released();
        assert_eq!(got.len(), 1, "ghost must be suppressed: {got:?}");
        assert_eq!(got[0].start_wideband, 6_000);
        assert_eq!(got[0].packet.sic_pass, 1);
        assert_eq!(s.snapshot().duplicates_suppressed, 1);
    }

    #[test]
    fn laggard_duplicate_beyond_old_prune_window_is_still_suppressed() {
        // Regression: `drain` pruned the dedup set to a fixed
        // `4 × symbol_len(max_sf)` behind the horizon, ignoring how far
        // behind the watermark the immediate-release path can reach (the
        // receiver holdback, passed as `release_slack`). A SIC residual
        // pass re-reporting a transmission older than the four-symbol
        // window was compared against a `recent` set that had already
        // forgotten its original and was emitted twice.
        let s = stats();
        // Workers whose receivers hold back up to 100 000 wideband
        // samples of history.
        let sink = one_shard(2, 9, 100_000, s.clone());
        sink.report(0, vec![pkt(0, 7, 10_000, b"dup")]);
        sink.set_watermark(0, 20_000);
        sink.set_watermark(1, 20_000);
        assert_eq!(sink.take_released().len(), 1);
        // Advance far past the old four-symbol prune window
        // (4 × 512 × 16 = 32 768 wideband samples) but within the
        // declared release slack.
        sink.set_watermark(0, 60_000);
        sink.set_watermark(1, 60_000);
        // The residual pass re-detects the released transmission from
        // buffered history: below the watermark, so the immediate-release
        // path runs — and must still find the original in the window.
        let mut ghost = pkt(0, 7, 10_200, b"dup");
        ghost.packet.sic_pass = 1;
        sink.report(0, vec![ghost]);
        let got = sink.take_released();
        assert!(got.is_empty(), "stale duplicate re-emitted: {got:?}");
        assert_eq!(s.snapshot().duplicates_suppressed, 1);
    }

    #[test]
    fn sink_with_no_workers_releases_instead_of_panicking() {
        // Regression: `drain` computed the horizon with
        // `watermarks.iter().min().expect("at least one worker")`, so a
        // sink whose attached-worker set is empty — the fully-shed /
        // fully-detached configuration — panicked on the first report
        // instead of releasing. With nobody left to wait for, the horizon
        // must open fully and reported packets flow straight through.
        let sink = one_shard(0, 9, 0, stats());
        sink.report(0, vec![pkt(0, 7, 9_000, b"b"), pkt(0, 7, 1_000, b"a")]);
        let got = sink.take_released();
        let starts: Vec<u64> = got.iter().map(|p| p.start_wideband).collect();
        assert_eq!(starts, vec![1_000, 9_000]);
    }

    #[test]
    fn subscriber_receives_releases_in_order() {
        let sink = one_shard(1, 9, 0, stats());
        // A packet already released before the subscription attaches is
        // handed over first.
        sink.set_watermark(0, 100_000);
        sink.report(0, vec![pkt(0, 7, 10_000, b"a")]);
        let rx = sink.subscribe(8);
        sink.report(0, vec![pkt(0, 7, 20_000, b"b"), pkt(0, 7, 30_000, b"c")]);
        let starts: Vec<u64> = rx.try_iter().map(|p| p.start_wideband).collect();
        assert_eq!(starts, vec![10_000, 20_000, 30_000]);
        assert!(sink.take_released().is_empty(), "nothing left to poll");
    }

    #[test]
    fn unread_subscriber_receives_every_release_in_order() {
        // The capacity argument bounds nothing: a subscriber that has not
        // read yet finds every release waiting in its channel, in release
        // order, and nothing is left behind for the poll path while it is
        // attached.
        for capacity in [0, 2] {
            let sink = one_shard(1, 9, 0, stats());
            let rx = sink.subscribe(capacity);
            sink.set_watermark(0, 1_000_000);
            sink.report(
                0,
                vec![
                    pkt(0, 7, 40_000, b"d"),
                    pkt(0, 7, 10_000, b"a"),
                    pkt(0, 7, 30_000, b"c"),
                    pkt(0, 7, 20_000, b"b"),
                ],
            );
            assert!(sink.take_released().is_empty(), "capacity {capacity}");
            sink.report(0, vec![pkt(0, 7, 50_000, b"e")]);
            assert!(sink.take_released().is_empty(), "capacity {capacity}");
            let starts: Vec<u64> = rx.try_iter().map(|p| p.start_wideband).collect();
            assert_eq!(
                starts,
                vec![10_000, 20_000, 30_000, 40_000, 50_000],
                "capacity {capacity}"
            );
        }
    }

    #[test]
    fn dropped_subscriber_reverts_to_polling() {
        let sink = one_shard(1, 9, 0, stats());
        let rx = sink.subscribe(4);
        drop(rx);
        sink.set_watermark(0, 100_000);
        sink.report(0, vec![pkt(0, 7, 1_000, b"a")]);
        let got = sink.take_released();
        assert_eq!(got.len(), 1, "poll path must recover the packet");
    }

    #[test]
    fn watermarks_are_monotone() {
        let sink = one_shard(1, 7, 0, stats());
        sink.set_watermark(0, 5000);
        sink.report(0, vec![pkt(0, 7, 4000, b"x")]);
        // A stale lower watermark must not rewind the release bound.
        sink.set_watermark(0, 1000);
        sink.set_watermark(0, 5001);
        assert_eq!(sink.take_released().len(), 1);
    }

    #[test]
    fn attributes_each_due_packet_to_its_shard() {
        // Two shards with one worker each, both covering global channel 0:
        // overlapping coverage, so both decode the same transmission.
        let (s0, s1) = (stats(), stats());
        let sink = PacketSink::new(2, 16);
        assert_eq!(sink.add_shard(s0.clone(), 9, 0), 0);
        assert_eq!(sink.add_shard(s1.clone(), 9, 0), 1);
        sink.set_watermark(0, 20_000);
        sink.set_watermark(1, 20_000);
        sink.report(0, vec![pkt(0, 7, 10_000, b"both")]);
        assert_eq!(sink.take_released().len(), 1);
        // Shard 1's copy is released by its shard but merged only once.
        sink.report(1, vec![pkt(0, 7, 10_000, b"both")]);
        assert!(sink.take_released().is_empty(), "cross-shard copy leaked");
        assert_eq!(sink.merge_counts(), (1, 1), "(merged, cross-gateway)");
        for s in [&s0, &s1] {
            assert_eq!(s.snapshot().packets_released, 1);
            assert_eq!(s.snapshot().duplicates_suppressed, 0);
        }
        // A SIC ghost of shard 0's own packet is an in-shard duplicate.
        let mut ghost = pkt(0, 7, 10_128, b"both");
        ghost.packet.sic_pass = 1;
        sink.report(0, vec![ghost]);
        assert!(sink.take_released().is_empty(), "ghost leaked");
        assert_eq!(s0.snapshot().duplicates_suppressed, 1);
        assert_eq!(s0.snapshot().packets_released, 1);
        assert_eq!(sink.merge_counts(), (1, 1));
    }
}
