//! Gateway telemetry: lock-free counters and latency histograms that can
//! be snapshotted at any moment while the gateway is running.
//!
//! Everything is plain atomics with relaxed ordering — each value is an
//! independent monotone counter, so a snapshot is a consistent-enough
//! view for monitoring (it may straddle an in-flight update by one
//! count, never tear a value).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crate::load::{MAX_EFFORT_RUNG, SHED_RUNG, SIC_RUNG};

/// Number of ladder-engagement counter slots: one per CIC effort rung
/// (`0..=MAX_EFFORT_RUNG`), plus the SIC boost rung, plus the shed
/// pseudo-rung.
pub(crate) const RUNG_SLOTS: usize = MAX_EFFORT_RUNG + 3;

/// Map an effort rung (including [`SIC_RUNG`] and `SHED_RUNG`) to its
/// engagement-counter slot: effort rungs occupy `0..=MAX_EFFORT_RUNG`,
/// then the SIC boost rung, then shed.
pub fn rung_slot(rung: usize) -> usize {
    match rung {
        SHED_RUNG => MAX_EFFORT_RUNG + 2,
        SIC_RUNG => MAX_EFFORT_RUNG + 1,
        r => r.min(MAX_EFFORT_RUNG),
    }
}

/// Number of log2 latency buckets: bucket `i` holds durations in
/// `[2^i, 2^{i+1})` nanoseconds, the last bucket absorbs the tail
/// (`2^39` ns ≈ 9 minutes).
pub(crate) const HISTOGRAM_BUCKETS: usize = 40;

/// A fixed-size log2 histogram of durations, safe to record into from
/// many threads.
pub struct LatencyHistogram {
    counts: [AtomicU64; HISTOGRAM_BUCKETS],
    total_ns: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub(crate) fn new() -> Self {
        Self {
            counts: std::array::from_fn(|_| AtomicU64::new(0)),
            total_ns: AtomicU64::new(0),
        }
    }

    /// Record one duration. A zero-length sample — coarse clocks can
    /// return equal `Instant`s — lands in bucket 0 and adds nothing to
    /// the total, instead of panicking in `ilog2` (or being silently
    /// inflated to 1 ns).
    pub(crate) fn record(&self, d: Duration) {
        let ns = d.as_nanos() as u64;
        let bucket = match ns.checked_ilog2() {
            Some(b) => (b as usize).min(HISTOGRAM_BUCKETS - 1),
            None => 0,
        };
        self.counts[bucket].fetch_add(1, Ordering::Relaxed);
        self.total_ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// Copy the current contents.
    pub(crate) fn snapshot(&self) -> HistogramSnapshot {
        let buckets: Vec<u64> = self
            .counts
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect();
        HistogramSnapshot {
            count: buckets.iter().sum(),
            total_ns: self.total_ns.load(Ordering::Relaxed),
            buckets,
        }
    }
}

/// Point-in-time copy of a [`LatencyHistogram`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Total number of recorded durations.
    pub count: u64,
    /// Sum of all recorded durations, nanoseconds.
    pub total_ns: u64,
    /// Per-bucket counts; bucket `i` covers `[2^i, 2^{i+1})` ns.
    pub buckets: Vec<u64>,
}

impl HistogramSnapshot {
    /// Mean recorded duration in nanoseconds (0 when empty).
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64
        }
    }

    /// Lower bound (ns) of the highest non-empty bucket — a cheap
    /// worst-case latency indicator.
    pub(crate) fn max_bucket_ns(&self) -> u64 {
        match self.buckets.iter().rposition(|&c| c > 0) {
            Some(i) => 1u64 << i,
            None => 0,
        }
    }

    /// Estimate the `q`-quantile (`0 < q <= 1`) in nanoseconds.
    ///
    /// The log2 buckets only bound each sample, so the estimate
    /// interpolates linearly inside the bucket holding the quantile rank:
    /// bucket 0 spans `[0, 2)` ns (zero-length samples land there too),
    /// bucket `i >= 1` spans `[2^i, 2^{i+1})`. The error is at most the
    /// width of one bucket — a factor of 2 — which is what a latency SLO
    /// over microseconds-to-seconds needs. Returns 0 for an empty
    /// histogram.
    pub(crate) fn percentile_ns(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        // Rank of the quantile sample, 1-based (nearest-rank definition).
        let need = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if cum + c >= need {
                let (lower, width) = if i == 0 {
                    (0u64, 2u64)
                } else {
                    (1 << i, 1 << i)
                };
                let frac = (need - cum) as f64 / c as f64;
                return lower + (width as f64 * frac).round() as u64;
            }
            cum += c;
        }
        self.max_bucket_ns()
    }

    /// Fold another histogram into this one (elementwise bucket sums;
    /// the shorter bucket vector is padded). Log2 buckets over the same
    /// nanosecond grid sum exactly, so a cluster's merged latency
    /// distribution is as faithful as any single gateway's.
    pub(crate) fn merge(&mut self, other: &HistogramSnapshot) {
        if other.buckets.len() > self.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (b, &o) in self.buckets.iter_mut().zip(&other.buckets) {
            *b += o;
        }
        self.count += other.count;
        self.total_ns += other.total_ns;
    }

    /// The p50/p95/p99 summary the capacity campaign records per
    /// operating point.
    pub(crate) fn percentiles(&self) -> LatencyPercentiles {
        LatencyPercentiles {
            p50_ns: self.percentile_ns(0.50),
            p95_ns: self.percentile_ns(0.95),
            p99_ns: self.percentile_ns(0.99),
        }
    }
}

/// Tail-latency summary of a [`HistogramSnapshot`] (interpolated from the
/// log2 buckets, see `HistogramSnapshot::percentile_ns`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LatencyPercentiles {
    /// Median, nanoseconds.
    pub p50_ns: u64,
    /// 95th percentile, nanoseconds.
    pub p95_ns: u64,
    /// 99th percentile, nanoseconds.
    pub p99_ns: u64,
}

/// Per-worker counters and load gauges. A worker owns one
/// (channel, spreading factor) stream; its queue records overload here,
/// its decode loop records outcomes and latency, and the overload
/// ladder records degradation activity and sets the worker's rung.
pub struct WorkerStats {
    /// Channel index this worker consumes.
    pub channel: usize,
    /// Spreading factor this worker decodes.
    pub sf: u8,
    /// Chunks evicted by the drop-oldest policy, plus chunks discarded by
    /// a closed queue during shutdown.
    pub chunks_dropped: AtomicU64,
    /// Samples inside those evicted/discarded chunks.
    pub samples_dropped: AtomicU64,
    /// Highest queue depth (chunks) ever observed.
    pub queue_depth_hwm: AtomicU64,
    /// Live queue depth (chunks) — a gauge, maintained by the queue.
    pub queue_depth: AtomicU64,
    /// Packets decoded with a passing CRC.
    pub packets_decoded: AtomicU64,
    /// Packets demodulated but failing FEC/CRC.
    pub crc_failures: AtomicU64,
    /// EWMA of per-push decode latency, nanoseconds — a gauge, maintained
    /// by the decode loop (single writer).
    pub decode_ewma_ns: AtomicU64,
    /// The effort rung this worker decodes its next chunk at — a gauge
    /// the overload ladder writes and the worker reads before each chunk;
    /// 0 = full effort, [`crate::load::SIC_RUNG`] = full effort plus the
    /// SIC stage, `crate::load::SHED_RUNG` = shed. End of input resets
    /// it to 0 for the drain, unless the SIC boost was granted, so after
    /// `finish` it reads 0 or [`crate::load::SIC_RUNG`], not the rung the
    /// ladder last set.
    pub effort_rung: AtomicU64,
    /// Chunks discarded while this worker was shed by the overload
    /// policy (distinct from queue-overflow drops).
    pub chunks_shed: AtomicU64,
    /// Samples inside those shed chunks.
    pub samples_shed: AtomicU64,
    /// Downward ladder transitions applied to this worker (effort
    /// reductions and sheds).
    pub degrade_events: AtomicU64,
    /// Upward ladder transitions (effort restores and un-sheds).
    pub restore_events: AtomicU64,
    /// Accumulated time spent shed, microseconds.
    pub shed_micros: AtomicU64,
    /// SIC residual passes run — a gauge mirroring the streaming
    /// receiver's cumulative [`cic::SicReport`] (single writer).
    pub sic_passes: AtomicU64,
    /// Packets recovered from SIC residual passes (same source).
    pub sic_packets_recovered: AtomicU64,
    /// Packet subtractions abandoned by the SIC match gate (same source).
    pub sic_residual_abandoned: AtomicU64,
}

impl WorkerStats {
    /// Fresh counters for one worker.
    pub(crate) fn new(channel: usize, sf: u8) -> Self {
        Self {
            channel,
            sf,
            chunks_dropped: AtomicU64::new(0),
            samples_dropped: AtomicU64::new(0),
            queue_depth_hwm: AtomicU64::new(0),
            queue_depth: AtomicU64::new(0),
            packets_decoded: AtomicU64::new(0),
            crc_failures: AtomicU64::new(0),
            decode_ewma_ns: AtomicU64::new(0),
            effort_rung: AtomicU64::new(0),
            chunks_shed: AtomicU64::new(0),
            samples_shed: AtomicU64::new(0),
            degrade_events: AtomicU64::new(0),
            restore_events: AtomicU64::new(0),
            shed_micros: AtomicU64::new(0),
            sic_passes: AtomicU64::new(0),
            sic_packets_recovered: AtomicU64::new(0),
            sic_residual_abandoned: AtomicU64::new(0),
        }
    }

    /// Mirror the streaming receiver's cumulative SIC report into the
    /// gauges (single-writer: only the owning worker calls this).
    pub(crate) fn store_sic_report(&self, report: &cic::SicReport) {
        self.sic_passes.store(report.passes, Ordering::Relaxed);
        self.sic_packets_recovered
            .store(report.recovered, Ordering::Relaxed);
        self.sic_residual_abandoned
            .store(report.abandoned, Ordering::Relaxed);
    }

    /// Fold one decode latency into the EWMA gauge (single-writer:
    /// only the owning worker calls this).
    pub(crate) fn record_decode_ewma(&self, d: Duration) {
        let ns = d.as_nanos() as u64;
        let old = self.decode_ewma_ns.load(Ordering::Relaxed);
        // EWMA with alpha = 1/4, seeded by the first sample.
        let new = if old == 0 {
            ns
        } else {
            old + (ns / 4) - (old / 4)
        };
        self.decode_ewma_ns.store(new, Ordering::Relaxed);
    }

    fn snapshot(&self) -> WorkerSnapshot {
        WorkerSnapshot {
            channel: self.channel,
            sf: self.sf,
            chunks_dropped: self.chunks_dropped.load(Ordering::Relaxed),
            samples_dropped: self.samples_dropped.load(Ordering::Relaxed),
            queue_depth_hwm: self.queue_depth_hwm.load(Ordering::Relaxed),
            queue_depth: self.queue_depth.load(Ordering::Relaxed),
            packets_decoded: self.packets_decoded.load(Ordering::Relaxed),
            crc_failures: self.crc_failures.load(Ordering::Relaxed),
            decode_ewma_ns: self.decode_ewma_ns.load(Ordering::Relaxed),
            effort_rung: self.effort_rung.load(Ordering::Relaxed),
            chunks_shed: self.chunks_shed.load(Ordering::Relaxed),
            samples_shed: self.samples_shed.load(Ordering::Relaxed),
            degrade_events: self.degrade_events.load(Ordering::Relaxed),
            restore_events: self.restore_events.load(Ordering::Relaxed),
            shed_micros: self.shed_micros.load(Ordering::Relaxed),
            sic_passes: self.sic_passes.load(Ordering::Relaxed),
            sic_packets_recovered: self.sic_packets_recovered.load(Ordering::Relaxed),
            sic_residual_abandoned: self.sic_residual_abandoned.load(Ordering::Relaxed),
        }
    }
}

/// Point-in-time copy of one worker's counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerSnapshot {
    /// Channel index.
    pub channel: usize,
    /// Spreading factor.
    pub sf: u8,
    /// Chunks evicted by drop-oldest (incl. closed-queue discards).
    pub chunks_dropped: u64,
    /// Samples inside evicted chunks.
    pub samples_dropped: u64,
    /// Queue depth high-water mark, chunks.
    pub queue_depth_hwm: u64,
    /// Live queue depth at snapshot time, chunks.
    pub queue_depth: u64,
    /// CRC-passing packets.
    pub packets_decoded: u64,
    /// CRC-failing packets.
    pub crc_failures: u64,
    /// Decode latency EWMA, nanoseconds.
    pub decode_ewma_ns: u64,
    /// Effort rung at snapshot time (0 = full effort); see
    /// [`WorkerStats::effort_rung`] for its value after `finish`.
    pub effort_rung: u64,
    /// Chunks discarded while shed.
    pub chunks_shed: u64,
    /// Samples discarded while shed.
    pub samples_shed: u64,
    /// Downward ladder transitions.
    pub degrade_events: u64,
    /// Upward ladder transitions.
    pub restore_events: u64,
    /// Time spent shed, microseconds.
    pub shed_micros: u64,
    /// SIC residual passes run by this worker's streaming receiver.
    pub sic_passes: u64,
    /// Packets recovered from those passes.
    pub sic_packets_recovered: u64,
    /// Subtractions abandoned by the SIC match gate.
    pub sic_residual_abandoned: u64,
}

/// All gateway telemetry, shared between the front end, the workers and
/// the sink.
pub struct GatewayStats {
    /// Wideband samples accepted by [`crate::Gateway::push`].
    pub samples_in: AtomicU64,
    /// Calls to [`crate::Gateway::push`].
    pub chunks_in: AtomicU64,
    /// IQ frames accepted from a network/file/sim ingest source
    /// (maintained by `lora-ingest`'s driver; 0 for in-process `push`).
    pub frames_in: AtomicU64,
    /// Ingest frames lost in transit (sequence-number jumps observed by
    /// the ingest driver — the frames themselves never arrived).
    pub frames_dropped: AtomicU64,
    /// Ingest frames that arrived but were discarded: truncated or
    /// corrupt datagrams, duplicates, and frames behind positions
    /// already written off.
    pub frames_rejected: AtomicU64,
    /// Zero samples inserted by the ingest driver to bridge bounded
    /// sequence gaps, keeping the wideband time base monotone.
    pub samples_gapped: AtomicU64,
    /// Transport reconnects (socket rebinds / TCP re-establishments)
    /// performed by an ingest source.
    pub reconnects: AtomicU64,
    /// Packets released by the time-ordered sink.
    pub packets_released: AtomicU64,
    /// Packets the sink suppressed as duplicates.
    pub duplicates_suppressed: AtomicU64,
    /// Latency of one channelizer pass over a pushed chunk.
    pub channelize: LatencyHistogram,
    /// Latency of one streaming-receiver push (detection + decode).
    pub decode: LatencyHistogram,
    /// Ladder engagements per rung slot (see [`rung_slot`]): how many
    /// times the overload ladder moved some worker *onto* that rung.
    rung_engagements: [AtomicU64; RUNG_SLOTS],
    per_worker: Vec<Arc<WorkerStats>>,
}

impl GatewayStats {
    /// Stats for a gateway with the given worker layout.
    pub(crate) fn new(workers: &[(usize, u8)]) -> Self {
        Self {
            samples_in: AtomicU64::new(0),
            chunks_in: AtomicU64::new(0),
            frames_in: AtomicU64::new(0),
            frames_dropped: AtomicU64::new(0),
            frames_rejected: AtomicU64::new(0),
            samples_gapped: AtomicU64::new(0),
            reconnects: AtomicU64::new(0),
            packets_released: AtomicU64::new(0),
            duplicates_suppressed: AtomicU64::new(0),
            channelize: LatencyHistogram::new(),
            decode: LatencyHistogram::new(),
            rung_engagements: std::array::from_fn(|_| AtomicU64::new(0)),
            per_worker: workers
                .iter()
                .map(|&(ch, sf)| Arc::new(WorkerStats::new(ch, sf)))
                .collect(),
        }
    }

    /// The counters of worker `idx` (shared handle).
    pub(crate) fn worker(&self, idx: usize) -> Arc<WorkerStats> {
        self.per_worker[idx].clone()
    }

    /// Count one worker being moved onto `rung` (any ladder transition,
    /// including [`SIC_RUNG`] and [`SHED_RUNG`]).
    pub(crate) fn record_rung_engagement(&self, rung: usize) {
        self.rung_engagements[rung_slot(rung)].fetch_add(1, Ordering::Relaxed);
    }

    /// Copy every counter at this instant. Callable from any thread while
    /// the gateway runs.
    pub fn snapshot(&self) -> GatewaySnapshot {
        let workers: Vec<WorkerSnapshot> = self.per_worker.iter().map(|w| w.snapshot()).collect();
        let decode = self.decode.snapshot();
        let decode_percentiles = decode.percentiles();
        GatewaySnapshot {
            samples_in: self.samples_in.load(Ordering::Relaxed),
            chunks_in: self.chunks_in.load(Ordering::Relaxed),
            frames_in: self.frames_in.load(Ordering::Relaxed),
            frames_dropped: self.frames_dropped.load(Ordering::Relaxed),
            frames_rejected: self.frames_rejected.load(Ordering::Relaxed),
            samples_gapped: self.samples_gapped.load(Ordering::Relaxed),
            reconnects: self.reconnects.load(Ordering::Relaxed),
            packets_released: self.packets_released.load(Ordering::Relaxed),
            duplicates_suppressed: self.duplicates_suppressed.load(Ordering::Relaxed),
            packets_decoded: workers.iter().map(|w| w.packets_decoded).sum(),
            crc_failures: workers.iter().map(|w| w.crc_failures).sum(),
            chunks_dropped: workers.iter().map(|w| w.chunks_dropped).sum(),
            samples_dropped: workers.iter().map(|w| w.samples_dropped).sum(),
            chunks_shed: workers.iter().map(|w| w.chunks_shed).sum(),
            samples_shed: workers.iter().map(|w| w.samples_shed).sum(),
            degrade_events: workers.iter().map(|w| w.degrade_events).sum(),
            restore_events: workers.iter().map(|w| w.restore_events).sum(),
            shed_seconds: workers.iter().map(|w| w.shed_micros).sum::<u64>() as f64 / 1e6,
            sic_passes: workers.iter().map(|w| w.sic_passes).sum(),
            sic_packets_recovered: workers.iter().map(|w| w.sic_packets_recovered).sum(),
            sic_residual_abandoned: workers.iter().map(|w| w.sic_residual_abandoned).sum(),
            rung_engagements: self
                .rung_engagements
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .collect(),
            channelize: self.channelize.snapshot(),
            decode,
            decode_percentiles,
            workers,
        }
    }
}

/// Point-in-time copy of all gateway telemetry.
#[derive(Debug, Clone)]
pub struct GatewaySnapshot {
    /// Wideband samples accepted.
    pub samples_in: u64,
    /// Push calls accepted.
    pub chunks_in: u64,
    /// IQ frames accepted from an ingest source (0 without `lora-ingest`).
    pub frames_in: u64,
    /// Ingest frames lost in transit (observed sequence jumps).
    pub frames_dropped: u64,
    /// Ingest frames that arrived but were discarded (corrupt/stale).
    pub frames_rejected: u64,
    /// Zero samples inserted to bridge bounded ingest sequence gaps.
    pub samples_gapped: u64,
    /// Transport reconnects performed by an ingest source.
    pub reconnects: u64,
    /// Packets released by the sink.
    pub packets_released: u64,
    /// Duplicates the sink suppressed.
    pub duplicates_suppressed: u64,
    /// CRC-passing packets, summed over workers.
    pub packets_decoded: u64,
    /// CRC-failing packets, summed over workers.
    pub crc_failures: u64,
    /// Dropped chunks, summed over workers.
    pub chunks_dropped: u64,
    /// Dropped samples, summed over workers.
    pub samples_dropped: u64,
    /// Chunks discarded by shed workers, summed over workers.
    pub chunks_shed: u64,
    /// Samples discarded by shed workers, summed over workers.
    pub samples_shed: u64,
    /// Downward degradation-ladder transitions (effort cuts + sheds),
    /// summed over workers.
    pub degrade_events: u64,
    /// Upward ladder transitions (restores), summed over workers.
    pub restore_events: u64,
    /// Total worker-time spent shed, seconds (summed over workers: two
    /// workers shed for 1 s each count 2 s).
    pub shed_seconds: f64,
    /// SIC residual passes, summed over workers.
    pub sic_passes: u64,
    /// Packets recovered by SIC residual passes, summed over workers.
    pub sic_packets_recovered: u64,
    /// SIC subtractions abandoned by the match gate, summed over workers.
    pub sic_residual_abandoned: u64,
    /// Ladder engagements per rung slot (see [`rung_slot`]); length
    /// `RUNG_SLOTS`.
    pub rung_engagements: Vec<u64>,
    /// Channelizer latency histogram.
    pub channelize: HistogramSnapshot,
    /// Decode latency histogram.
    pub decode: HistogramSnapshot,
    /// Decode tail latency (p50/p95/p99) interpolated from the histogram
    /// at snapshot time — what capacity campaigns report per operating
    /// point (EWMAs hide the tail).
    pub decode_percentiles: LatencyPercentiles,
    /// Per-worker counters.
    pub workers: Vec<WorkerSnapshot>,
}

impl GatewaySnapshot {
    /// Aggregate several per-gateway snapshots into one cluster-level
    /// view: counters sum, latency histograms merge bucketwise (with the
    /// tail percentiles recomputed from the merged distribution), rung
    /// engagements sum per slot, and the worker lists concatenate in
    /// shard order. Note that `packets_released` counts per-shard
    /// releases — under overlapping coverage the cluster's *deduplicated*
    /// stream is smaller; see `ClusterSnapshot::packets_merged`.
    pub(crate) fn merged(shards: &[GatewaySnapshot]) -> GatewaySnapshot {
        let mut channelize = HistogramSnapshot {
            count: 0,
            total_ns: 0,
            buckets: vec![0; HISTOGRAM_BUCKETS],
        };
        let mut decode = channelize.clone();
        let mut rung_engagements = vec![0u64; RUNG_SLOTS];
        let mut workers = Vec::new();
        for s in shards {
            channelize.merge(&s.channelize);
            decode.merge(&s.decode);
            if s.rung_engagements.len() > rung_engagements.len() {
                rung_engagements.resize(s.rung_engagements.len(), 0);
            }
            for (r, &o) in rung_engagements.iter_mut().zip(&s.rung_engagements) {
                *r += o;
            }
            workers.extend(s.workers.iter().cloned());
        }
        let sum = |f: fn(&GatewaySnapshot) -> u64| shards.iter().map(f).sum::<u64>();
        let decode_percentiles = decode.percentiles();
        GatewaySnapshot {
            samples_in: sum(|s| s.samples_in),
            chunks_in: sum(|s| s.chunks_in),
            frames_in: sum(|s| s.frames_in),
            frames_dropped: sum(|s| s.frames_dropped),
            frames_rejected: sum(|s| s.frames_rejected),
            samples_gapped: sum(|s| s.samples_gapped),
            reconnects: sum(|s| s.reconnects),
            packets_released: sum(|s| s.packets_released),
            duplicates_suppressed: sum(|s| s.duplicates_suppressed),
            packets_decoded: sum(|s| s.packets_decoded),
            crc_failures: sum(|s| s.crc_failures),
            chunks_dropped: sum(|s| s.chunks_dropped),
            samples_dropped: sum(|s| s.samples_dropped),
            chunks_shed: sum(|s| s.chunks_shed),
            samples_shed: sum(|s| s.samples_shed),
            degrade_events: sum(|s| s.degrade_events),
            restore_events: sum(|s| s.restore_events),
            shed_seconds: shards.iter().map(|s| s.shed_seconds).sum(),
            sic_passes: sum(|s| s.sic_passes),
            sic_packets_recovered: sum(|s| s.sic_packets_recovered),
            sic_residual_abandoned: sum(|s| s.sic_residual_abandoned),
            rung_engagements,
            channelize,
            decode,
            decode_percentiles,
            workers,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_are_log2() {
        let h = LatencyHistogram::new();
        h.record(Duration::from_nanos(1)); // bucket 0
        h.record(Duration::from_nanos(3)); // bucket 1
        h.record(Duration::from_nanos(1024)); // bucket 10
        h.record(Duration::from_secs(3600)); // clamped to last bucket
        let s = h.snapshot();
        assert_eq!(s.count, 4);
        assert_eq!(s.buckets[0], 1);
        assert_eq!(s.buckets[1], 1);
        assert_eq!(s.buckets[10], 1);
        assert_eq!(s.buckets[HISTOGRAM_BUCKETS - 1], 1);
        assert_eq!(s.max_bucket_ns(), 1 << (HISTOGRAM_BUCKETS - 1));
    }

    #[test]
    fn zero_duration_sample_lands_in_bucket_zero() {
        // Regression: `record` computed `ns.ilog2()` after clamping the
        // sample to at least 1 ns — a zero-length sample (coarse clocks
        // return equal `Instant`s, so `elapsed()` can be exactly zero)
        // was silently inflated to 1 ns in `total_ns`, and without the
        // clamp `ilog2()` panics outright on zero. A zero sample must
        // count in bucket 0 and contribute nothing to the total.
        let h = LatencyHistogram::new();
        h.record(Duration::ZERO);
        let s = h.snapshot();
        assert_eq!(s.count, 1);
        assert_eq!(s.buckets[0], 1);
        assert_eq!(s.total_ns, 0, "zero sample must not inflate the total");
        assert_eq!(s.mean_ns(), 0.0);
        // And mixing with real samples keeps the accounting exact.
        h.record(Duration::from_nanos(8));
        let s = h.snapshot();
        assert_eq!(s.count, 2);
        assert_eq!(s.total_ns, 8);
    }

    #[test]
    fn histogram_mean() {
        let h = LatencyHistogram::new();
        h.record(Duration::from_nanos(100));
        h.record(Duration::from_nanos(300));
        let s = h.snapshot();
        assert_eq!(s.total_ns, 400);
        assert!((s.mean_ns() - 200.0).abs() < 1e-9);
        assert_eq!(
            HistogramSnapshot {
                count: 0,
                total_ns: 0,
                buckets: vec![]
            }
            .mean_ns(),
            0.0
        );
    }

    #[test]
    fn percentiles_over_known_samples() {
        // 90 samples in [16, 32) at exactly 16 ns, 9 at 1024 ns, 1 at
        // 1 048 576 ns: ranks are fully known, so each percentile's bucket
        // is too.
        let h = LatencyHistogram::new();
        for _ in 0..90 {
            h.record(Duration::from_nanos(16));
        }
        for _ in 0..9 {
            h.record(Duration::from_nanos(1024));
        }
        h.record(Duration::from_nanos(1 << 20));
        let s = h.snapshot();
        assert_eq!(s.count, 100);
        // p50 rank = 50 of 90 in bucket 4 ([16, 32), width 16):
        // 16 + 16 * 50/90 ≈ 25.
        assert_eq!(
            s.percentile_ns(0.50),
            16 + ((16.0 * 50.0 / 90.0f64).round() as u64)
        );
        // p95 rank = 95 → 5th of the 9 samples in bucket 10 ([1024, 2048)).
        assert_eq!(
            s.percentile_ns(0.95),
            1024 + ((1024.0 * 5.0 / 9.0f64).round() as u64)
        );
        // p99 rank = 99 → last of bucket 10.
        assert_eq!(s.percentile_ns(0.99), 1024 + 1024);
        // p100 rank = 100 → the lone tail sample in bucket 20.
        let p100 = s.percentile_ns(1.0);
        assert!((1 << 20..=1 << 21).contains(&p100), "{p100}");
        let p = s.percentiles();
        assert!(p.p50_ns <= p.p95_ns && p.p95_ns <= p.p99_ns);
        assert_eq!(p.p50_ns, s.percentile_ns(0.50));
        assert_eq!(p.p99_ns, s.percentile_ns(0.99));
    }

    #[test]
    fn percentile_edge_cases() {
        let empty = HistogramSnapshot {
            count: 0,
            total_ns: 0,
            buckets: vec![0; HISTOGRAM_BUCKETS],
        };
        assert_eq!(empty.percentile_ns(0.5), 0);
        assert_eq!(empty.percentiles(), LatencyPercentiles::default());

        // A single sample: every percentile lands in its bucket.
        let h = LatencyHistogram::new();
        h.record(Duration::from_nanos(100)); // bucket 6: [64, 128)
        let s = h.snapshot();
        for q in [0.01, 0.5, 0.99, 1.0] {
            let v = s.percentile_ns(q);
            assert!((64..=128).contains(&v), "q={q} → {v}");
        }
        // Zero-duration samples resolve inside bucket 0's [0, 2) span.
        let h = LatencyHistogram::new();
        h.record(Duration::ZERO);
        assert!(h.snapshot().percentile_ns(0.5) <= 2);
    }

    #[test]
    fn snapshot_carries_decode_percentiles() {
        let stats = GatewayStats::new(&[(0, 7)]);
        for _ in 0..100 {
            stats.decode.record(Duration::from_micros(10)); // bucket 13
        }
        stats.decode.record(Duration::from_millis(50)); // tail
        let s = stats.snapshot();
        assert_eq!(s.decode_percentiles, s.decode.percentiles());
        assert!(s.decode_percentiles.p50_ns >= 8_192 && s.decode_percentiles.p50_ns <= 16_384);
        assert!(s.decode_percentiles.p99_ns <= s.decode.max_bucket_ns() * 2);
    }

    #[test]
    fn decode_ewma_tracks_latency() {
        let w = WorkerStats::new(0, 7);
        w.record_decode_ewma(Duration::from_nanos(1000));
        assert_eq!(w.decode_ewma_ns.load(Ordering::Relaxed), 1000);
        for _ in 0..32 {
            w.record_decode_ewma(Duration::from_nanos(5000));
        }
        let ewma = w.decode_ewma_ns.load(Ordering::Relaxed);
        assert!(
            (4500..=5000).contains(&ewma),
            "EWMA should converge towards the new level, got {ewma}"
        );
    }

    #[test]
    fn snapshot_aggregates_ladder_telemetry() {
        let stats = GatewayStats::new(&[(0, 7), (0, 9)]);
        stats
            .worker(0)
            .degrade_events
            .fetch_add(2, Ordering::Relaxed);
        stats
            .worker(1)
            .degrade_events
            .fetch_add(1, Ordering::Relaxed);
        stats
            .worker(1)
            .restore_events
            .fetch_add(1, Ordering::Relaxed);
        stats
            .worker(1)
            .shed_micros
            .fetch_add(2_500_000, Ordering::Relaxed);
        stats.worker(1).chunks_shed.fetch_add(7, Ordering::Relaxed);
        stats
            .worker(1)
            .samples_shed
            .fetch_add(700, Ordering::Relaxed);
        let s = stats.snapshot();
        assert_eq!(s.degrade_events, 3);
        assert_eq!(s.restore_events, 1);
        assert!((s.shed_seconds - 2.5).abs() < 1e-9);
        assert_eq!(s.chunks_shed, 7);
        assert_eq!(s.samples_shed, 700);
        assert_eq!(s.workers[1].shed_micros, 2_500_000);
    }

    #[test]
    fn snapshot_aggregates_sic_telemetry() {
        let stats = GatewayStats::new(&[(0, 7), (0, 9)]);
        stats.worker(0).store_sic_report(&cic::SicReport {
            passes: 4,
            recovered: 2,
            abandoned: 1,
            ..Default::default()
        });
        stats.worker(1).store_sic_report(&cic::SicReport {
            passes: 1,
            recovered: 1,
            abandoned: 0,
            ..Default::default()
        });
        stats.record_rung_engagement(SIC_RUNG);
        stats.record_rung_engagement(SIC_RUNG);
        stats.record_rung_engagement(1);
        stats.record_rung_engagement(SHED_RUNG);
        let s = stats.snapshot();
        assert_eq!(s.sic_passes, 5);
        assert_eq!(s.sic_packets_recovered, 3);
        assert_eq!(s.sic_residual_abandoned, 1);
        assert_eq!(s.workers[0].sic_passes, 4);
        assert_eq!(s.workers[1].sic_packets_recovered, 1);
        assert_eq!(s.rung_engagements.len(), RUNG_SLOTS);
        assert_eq!(s.rung_engagements[rung_slot(SIC_RUNG)], 2);
        assert_eq!(s.rung_engagements[rung_slot(1)], 1);
        assert_eq!(s.rung_engagements[rung_slot(SHED_RUNG)], 1);
        assert_eq!(s.rung_engagements[rung_slot(0)], 0);
    }

    #[test]
    fn snapshot_carries_ingest_counters() {
        let stats = GatewayStats::new(&[(0, 7)]);
        stats.frames_in.fetch_add(120, Ordering::Relaxed);
        stats.frames_dropped.fetch_add(3, Ordering::Relaxed);
        stats.frames_rejected.fetch_add(2, Ordering::Relaxed);
        stats.samples_gapped.fetch_add(12_288, Ordering::Relaxed);
        stats.reconnects.fetch_add(1, Ordering::Relaxed);
        let s = stats.snapshot();
        assert_eq!(s.frames_in, 120);
        assert_eq!(s.frames_dropped, 3);
        assert_eq!(s.frames_rejected, 2);
        assert_eq!(s.samples_gapped, 12_288);
        assert_eq!(s.reconnects, 1);
    }

    #[test]
    fn histogram_merge_sums_buckets_and_percentiles_follow() {
        let a = LatencyHistogram::new();
        let b = LatencyHistogram::new();
        for _ in 0..50 {
            a.record(Duration::from_nanos(16));
            b.record(Duration::from_nanos(1024));
        }
        let mut m = a.snapshot();
        m.merge(&b.snapshot());
        assert_eq!(m.count, 100);
        assert_eq!(m.total_ns, 50 * 16 + 50 * 1024);
        assert_eq!(m.buckets[4], 50);
        assert_eq!(m.buckets[10], 50);
        // The merged distribution's median sits between the two modes.
        let p50 = m.percentile_ns(0.50);
        assert!((16..=32).contains(&p50), "{p50}");
        let p99 = m.percentile_ns(0.99);
        assert!((1024..=2048).contains(&p99), "{p99}");
    }

    #[test]
    fn merged_snapshot_aggregates_shards() {
        let a = GatewayStats::new(&[(0, 7)]);
        let b = GatewayStats::new(&[(0, 9), (1, 9)]);
        a.worker(0).packets_decoded.fetch_add(3, Ordering::Relaxed);
        b.worker(1).packets_decoded.fetch_add(4, Ordering::Relaxed);
        a.samples_in.fetch_add(100, Ordering::Relaxed);
        b.samples_in.fetch_add(200, Ordering::Relaxed);
        a.duplicates_suppressed.fetch_add(1, Ordering::Relaxed);
        a.decode.record(Duration::from_micros(10));
        b.decode.record(Duration::from_micros(10));
        a.record_rung_engagement(SHED_RUNG);
        b.record_rung_engagement(SHED_RUNG);
        let m = GatewaySnapshot::merged(&[a.snapshot(), b.snapshot()]);
        assert_eq!(m.packets_decoded, 7);
        assert_eq!(m.samples_in, 300);
        assert_eq!(m.duplicates_suppressed, 1);
        assert_eq!(m.decode.count, 2);
        assert_eq!(m.decode_percentiles, m.decode.percentiles());
        assert_eq!(m.rung_engagements[rung_slot(SHED_RUNG)], 2);
        // Workers concatenate in shard order.
        assert_eq!(m.workers.len(), 3);
        assert_eq!((m.workers[0].channel, m.workers[0].sf), (0, 7));
        assert_eq!((m.workers[2].channel, m.workers[2].sf), (1, 9));
        // Merging nothing is the empty snapshot.
        let empty = GatewaySnapshot::merged(&[]);
        assert_eq!(empty.samples_in, 0);
        assert_eq!(empty.decode.count, 0);
    }

    #[test]
    fn snapshot_aggregates_workers() {
        let stats = GatewayStats::new(&[(0, 7), (1, 9)]);
        stats
            .worker(0)
            .packets_decoded
            .fetch_add(3, Ordering::Relaxed);
        stats
            .worker(1)
            .packets_decoded
            .fetch_add(2, Ordering::Relaxed);
        stats.worker(1).crc_failures.fetch_add(1, Ordering::Relaxed);
        stats
            .worker(0)
            .chunks_dropped
            .fetch_add(4, Ordering::Relaxed);
        let s = stats.snapshot();
        assert_eq!(s.packets_decoded, 5);
        assert_eq!(s.crc_failures, 1);
        assert_eq!(s.chunks_dropped, 4);
        assert_eq!(s.workers[1].sf, 9);
        assert_eq!(s.workers[1].packets_decoded, 2);
    }
}
