//! Bounded sample-chunk queue with a counted drop-oldest overload policy.
//!
//! The producer (the channelizer thread) must never block on a slow
//! decoder: a real gateway's ADC does not pause. When a worker falls
//! behind and its queue fills, the *oldest* queued chunk is discarded —
//! the freshest samples are the ones that can still complete a packet —
//! and the loss is counted. Chunks carry their absolute stream position,
//! so the consumer sees the gap explicitly and can resynchronise with
//! [`cic::StreamingReceiver::seek_to`]. The queue also integrates its
//! length over time, so the overload ladder reads the mean depth across
//! any interval, however seldom it looks.

use std::collections::VecDeque;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use lora_dsp::Cf32;

use crate::stats::WorkerStats;

/// A contiguous run of channel-rate samples with its absolute position.
#[derive(Clone)]
pub(crate) struct Chunk {
    /// Absolute index (in the channel's decimated stream) of `samples[0]`.
    pub(crate) start: usize,
    /// The samples; shared so one channelizer output feeds several
    /// spreading-factor workers without copies.
    pub(crate) samples: Arc<Vec<Cf32>>,
}

struct Inner {
    queue: VecDeque<Chunk>,
    closed: bool,
    /// Queue length integrated over time up to `since`, chunk-nanoseconds.
    depth_time: u128,
    since: Instant,
}

impl Inner {
    /// Integrate the queue length held since `since` up to `now`. Call
    /// it before every change of the length.
    fn accrue(&mut self, now: Instant) {
        let held = now.saturating_duration_since(self.since).as_nanos();
        self.depth_time += self.queue.len() as u128 * held;
        self.since = now;
    }
}

/// Outcome of a [`ChunkQueue::try_pop`].
pub(crate) enum Pop {
    /// The next chunk, in order.
    Chunk(Chunk),
    /// The queue is empty and still open.
    Idle,
    /// The queue is closed and fully drained.
    Closed,
}

/// Bounded MPSC chunk queue (in practice SPSC: one channelizer feeding
/// one decode stream) with drop-oldest overload behaviour. It never
/// blocks: the decode pool pops without waiting and learns of new
/// chunks from the producer's wake.
pub(crate) struct ChunkQueue {
    capacity: usize,
    inner: Mutex<Inner>,
    stats: Arc<WorkerStats>,
}

impl ChunkQueue {
    /// A queue holding at most `capacity` chunks; drops are recorded in
    /// `stats`.
    pub(crate) fn new(capacity: usize, stats: Arc<WorkerStats>) -> Self {
        assert!(capacity >= 1, "queue needs room for at least one chunk");
        Self {
            capacity,
            inner: Mutex::new(Inner {
                queue: VecDeque::new(),
                closed: false,
                depth_time: 0,
                since: Instant::now(),
            }),
            stats,
        }
    }

    /// Enqueue a chunk, evicting the oldest entries if the queue is full.
    /// Returns the number of chunks dropped to make room (0 in normal
    /// operation). Pushing to a closed queue discards the chunk — and
    /// counts it: losses in the shutdown window are real losses and must
    /// show up in telemetry, not vanish.
    pub(crate) fn push(&self, chunk: Chunk) -> usize {
        let mut inner = self.inner.lock().unwrap();
        if inner.closed {
            self.stats
                .samples_dropped
                .fetch_add(chunk.samples.len() as u64, Ordering::Relaxed);
            self.stats.chunks_dropped.fetch_add(1, Ordering::Relaxed);
            return 1;
        }
        inner.accrue(Instant::now());
        let mut dropped = 0;
        while inner.queue.len() >= self.capacity {
            let old = inner.queue.pop_front().expect("non-empty when full");
            self.stats
                .samples_dropped
                .fetch_add(old.samples.len() as u64, Ordering::Relaxed);
            self.stats.chunks_dropped.fetch_add(1, Ordering::Relaxed);
            dropped += 1;
        }
        inner.queue.push_back(chunk);
        self.stats
            .queue_depth_hwm
            .fetch_max(inner.queue.len() as u64, Ordering::Relaxed);
        self.stats
            .queue_depth
            .store(inner.queue.len() as u64, Ordering::Relaxed);
        dropped
    }

    /// Dequeue the next chunk without waiting: [`Pop::Idle`] if the
    /// queue is empty and open, [`Pop::Closed`] once it is closed and
    /// drained.
    pub(crate) fn try_pop(&self) -> Pop {
        let mut inner = self.inner.lock().unwrap();
        if !inner.queue.is_empty() {
            inner.accrue(Instant::now());
        }
        if let Some(chunk) = inner.queue.pop_front() {
            self.stats
                .queue_depth
                .store(inner.queue.len() as u64, Ordering::Relaxed);
            return Pop::Chunk(chunk);
        }
        if inner.closed {
            Pop::Closed
        } else {
            Pop::Idle
        }
    }

    /// Whether [`ChunkQueue::try_pop`] would return [`Pop::Idle`]: the
    /// queue is empty and still open.
    pub(crate) fn is_idle(&self) -> bool {
        let inner = self.inner.lock().unwrap();
        inner.queue.is_empty() && !inner.closed
    }

    /// Queue length integrated over time up to now, chunk-nanoseconds:
    /// its growth across an interval, divided by the interval, is the
    /// mean depth over it.
    pub(crate) fn depth_time(&self) -> u128 {
        let mut inner = self.inner.lock().unwrap();
        inner.accrue(Instant::now());
        inner.depth_time
    }

    /// Close the queue: producers become no-ops, consumers drain the
    /// backlog and then see [`Pop::Closed`].
    pub(crate) fn close(&self) {
        self.inner.lock().unwrap().closed = true;
    }

    /// Current queue depth, in chunks.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.inner.lock().unwrap().queue.len()
    }

    /// Whether the queue is currently empty.
    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chunk(start: usize, n: usize) -> Chunk {
        Chunk {
            start,
            samples: Arc::new(vec![Cf32::new(0.0, 0.0); n]),
        }
    }

    fn queue(capacity: usize) -> (ChunkQueue, Arc<WorkerStats>) {
        let stats = Arc::new(WorkerStats::new(0, 7));
        (ChunkQueue::new(capacity, stats.clone()), stats)
    }

    /// Start of the chunk [`ChunkQueue::try_pop`] returns; `None` once
    /// the queue is closed and drained.
    fn next_start(q: &ChunkQueue) -> Option<usize> {
        match q.try_pop() {
            Pop::Chunk(c) => Some(c.start),
            Pop::Closed => None,
            Pop::Idle => panic!("queue empty but open"),
        }
    }

    #[test]
    fn fifo_order_within_capacity() {
        let (q, stats) = queue(8);
        for i in 0..5 {
            assert_eq!(q.push(chunk(i * 100, 100)), 0);
        }
        for i in 0..5 {
            assert_eq!(next_start(&q), Some(i * 100));
        }
        assert_eq!(stats.chunks_dropped.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn overload_drops_oldest_and_counts() {
        let (q, stats) = queue(3);
        for i in 0..5 {
            q.push(chunk(i * 10, 10));
        }
        // Chunks 0 and 10 were evicted; 20, 30, 40 remain in order.
        assert_eq!(next_start(&q), Some(20));
        assert_eq!(next_start(&q), Some(30));
        assert_eq!(next_start(&q), Some(40));
        assert_eq!(stats.chunks_dropped.load(Ordering::Relaxed), 2);
        assert_eq!(stats.samples_dropped.load(Ordering::Relaxed), 20);
        assert_eq!(stats.queue_depth_hwm.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn close_drains_then_ends() {
        let (q, _) = queue(4);
        q.push(chunk(0, 4));
        q.push(chunk(4, 4));
        q.close();
        assert_eq!(q.push(chunk(8, 4)), 1); // discarded, counted
        assert_eq!(next_start(&q), Some(0));
        assert_eq!(next_start(&q), Some(4));
        assert_eq!(next_start(&q), None);
        assert_eq!(next_start(&q), None);
    }

    #[test]
    fn closed_queue_push_counts_the_loss() {
        // Regression: pushing to a closed queue silently discarded the
        // chunk without touching `samples_dropped`/`chunks_dropped`, so
        // samples lost in the shutdown window were invisible in telemetry.
        let (q, stats) = queue(4);
        q.push(chunk(0, 10));
        q.close();
        assert_eq!(q.push(chunk(10, 25)), 1);
        assert_eq!(q.push(chunk(35, 5)), 1);
        assert_eq!(stats.chunks_dropped.load(Ordering::Relaxed), 2);
        assert_eq!(stats.samples_dropped.load(Ordering::Relaxed), 30);
        // The chunk enqueued before the close still drains normally.
        assert_eq!(next_start(&q), Some(0));
        assert_eq!(next_start(&q), None);
    }

    #[test]
    fn try_pop_never_waits() {
        let (q, _) = queue(4);
        assert!(matches!(q.try_pop(), Pop::Idle));
        assert!(q.is_idle());
        q.push(chunk(0, 4));
        assert!(!q.is_idle());
        assert!(matches!(q.try_pop(), Pop::Chunk(c) if c.start == 0));
        q.close();
        assert!(!q.is_idle(), "a closed queue still has its end to report");
        assert!(matches!(q.try_pop(), Pop::Closed));
    }

    #[test]
    fn depth_time_integrates_the_length_held() {
        let (q, _) = queue(8);
        q.push(chunk(0, 1));
        q.push(chunk(1, 1));
        let held = q.depth_time();
        std::thread::sleep(std::time::Duration::from_millis(20));
        // Two chunks held for at least 20 ms.
        assert!(q.depth_time() - held >= 2 * 20_000_000);
        q.try_pop();
        q.try_pop();
        let drained = q.depth_time();
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert_eq!(q.depth_time(), drained, "an empty queue accrues nothing");
    }

    #[test]
    fn depth_gauge_follows_push_and_pop() {
        let (q, stats) = queue(8);
        let depth = || stats.queue_depth.load(Ordering::Relaxed);
        q.push(chunk(0, 1));
        q.push(chunk(1, 1));
        assert_eq!(depth(), 2);
        q.try_pop();
        assert_eq!(depth(), 1);
        q.try_pop();
        assert_eq!(depth(), 0);
    }
}
