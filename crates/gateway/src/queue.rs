//! Bounded sample-chunk queue with a counted drop-oldest overload policy.
//!
//! The producer (the channelizer thread) must never block on a slow
//! decoder: a real gateway's ADC does not pause. When a worker falls
//! behind and its queue fills, the *oldest* queued chunk is discarded —
//! the freshest samples are the ones that can still complete a packet —
//! and the loss is counted. Chunks carry their absolute stream position,
//! so the consumer sees the gap explicitly and can resynchronise with
//! [`cic::StreamingReceiver::seek_to`].

use std::collections::VecDeque;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use lora_dsp::Cf32;

use crate::stats::WorkerStats;

/// A contiguous run of channel-rate samples with its absolute position.
#[derive(Clone)]
pub struct Chunk {
    /// Absolute index (in the channel's decimated stream) of `samples[0]`.
    pub start: usize,
    /// The samples; shared so one channelizer output feeds several
    /// spreading-factor workers without copies.
    pub samples: Arc<Vec<Cf32>>,
}

struct Inner {
    queue: VecDeque<Chunk>,
    closed: bool,
}

/// Outcome of a [`ChunkQueue::pop_timeout`] or [`ChunkQueue::try_pop`].
pub enum Pop {
    /// The next chunk, in order.
    Chunk(Chunk),
    /// The queue stayed empty (and open) for the whole timeout; from
    /// `try_pop`, it is empty and open now.
    Idle,
    /// The queue is closed and fully drained.
    Closed,
}

/// Bounded MPSC chunk queue (in practice SPSC: one channelizer feeding
/// one decode stream) with drop-oldest overload behaviour.
pub struct ChunkQueue {
    capacity: usize,
    inner: Mutex<Inner>,
    ready: Condvar,
    /// Signalled when a pop (or close) frees room, for [`ChunkQueue::push_wait`].
    space: Condvar,
    stats: Arc<WorkerStats>,
}

impl ChunkQueue {
    /// A queue holding at most `capacity` chunks; drops are recorded in
    /// `stats`.
    pub fn new(capacity: usize, stats: Arc<WorkerStats>) -> Self {
        assert!(capacity >= 1, "queue needs room for at least one chunk");
        Self {
            capacity,
            inner: Mutex::new(Inner {
                queue: VecDeque::new(),
                closed: false,
            }),
            ready: Condvar::new(),
            space: Condvar::new(),
            stats,
        }
    }

    /// Enqueue a chunk, evicting the oldest entries if the queue is full.
    /// Returns the number of chunks dropped to make room (0 in normal
    /// operation). Pushing to a closed queue discards the chunk — and
    /// counts it: losses in the shutdown window are real losses and must
    /// show up in telemetry, not vanish.
    pub fn push(&self, chunk: Chunk) -> usize {
        let mut inner = self.inner.lock().unwrap();
        if inner.closed {
            self.stats
                .samples_dropped
                .fetch_add(chunk.samples.len() as u64, Ordering::Relaxed);
            self.stats.chunks_dropped.fetch_add(1, Ordering::Relaxed);
            return 1;
        }
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
        drop(inner);
        self.ready.notify_one();
        dropped
    }

    /// Enqueue a chunk, blocking while the queue is full and open — the
    /// *lossless* variant. A gateway's own worker queues must never
    /// block the front end (drop-oldest, [`ChunkQueue::push`]), but the
    /// cluster's broadcast stage is different: every shard must see the
    /// exact same sample stream or the merged decode set stops being
    /// deterministic, so a slow shard exerts backpressure instead of
    /// losing samples. Returns `true` if the chunk was enqueued; pushing
    /// to a closed queue discards the chunk, counts it (shutdown-window
    /// losses must show up in telemetry) and returns `false`.
    pub fn push_wait(&self, chunk: Chunk) -> bool {
        let mut inner = self.inner.lock().unwrap();
        loop {
            if inner.closed {
                self.stats
                    .samples_dropped
                    .fetch_add(chunk.samples.len() as u64, Ordering::Relaxed);
                self.stats.chunks_dropped.fetch_add(1, Ordering::Relaxed);
                return false;
            }
            if inner.queue.len() < self.capacity {
                break;
            }
            inner = self.space.wait(inner).unwrap();
        }
        inner.queue.push_back(chunk);
        self.stats
            .queue_depth_hwm
            .fetch_max(inner.queue.len() as u64, Ordering::Relaxed);
        self.stats
            .queue_depth
            .store(inner.queue.len() as u64, Ordering::Relaxed);
        drop(inner);
        self.ready.notify_one();
        true
    }

    /// Dequeue the next chunk, blocking while the queue is empty and
    /// open. Returns `None` once the queue is closed *and* drained.
    pub fn pop(&self) -> Option<Chunk> {
        loop {
            match self.pop_timeout(Duration::from_secs(3600)) {
                Pop::Chunk(c) => return Some(c),
                Pop::Idle => continue,
                Pop::Closed => return None,
            }
        }
    }

    /// Dequeue the next chunk, waiting at most `timeout` while the queue
    /// is empty and open. [`Pop::Idle`] means the queue stayed empty for
    /// the whole timeout — the consumer has caught up with everything
    /// produced so far and can publish a caught-up watermark instead of
    /// silently stalling downstream release.
    pub fn pop_timeout(&self, timeout: Duration) -> Pop {
        let mut inner = self.inner.lock().unwrap();
        loop {
            if let Some(pop) = self.take_front(&mut inner) {
                return pop;
            }
            let (guard, res) = self.ready.wait_timeout(inner, timeout).unwrap();
            inner = guard;
            if res.timed_out() && inner.queue.is_empty() && !inner.closed {
                return Pop::Idle;
            }
        }
    }

    /// Dequeue the next chunk without waiting: [`Pop::Idle`] if the
    /// queue is empty and open.
    pub fn try_pop(&self) -> Pop {
        let mut inner = self.inner.lock().unwrap();
        self.take_front(&mut inner).unwrap_or(Pop::Idle)
    }

    /// The front chunk, or [`Pop::Closed`] once closed and drained;
    /// `None` while empty and open.
    fn take_front(&self, inner: &mut Inner) -> Option<Pop> {
        if let Some(chunk) = inner.queue.pop_front() {
            self.stats
                .queue_depth
                .store(inner.queue.len() as u64, Ordering::Relaxed);
            self.space.notify_one();
            return Some(Pop::Chunk(chunk));
        }
        inner.closed.then_some(Pop::Closed)
    }

    /// Whether [`ChunkQueue::try_pop`] would return [`Pop::Idle`]: the
    /// queue is empty and still open.
    pub fn is_idle(&self) -> bool {
        let inner = self.inner.lock().unwrap();
        inner.queue.is_empty() && !inner.closed
    }

    /// Close the queue: producers become no-ops, consumers drain the
    /// backlog and then see `None`.
    pub fn close(&self) {
        self.inner.lock().unwrap().closed = true;
        self.ready.notify_all();
        self.space.notify_all();
    }

    /// Current queue depth, in chunks.
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().queue.len()
    }

    /// Whether the queue is currently empty.
    pub fn is_empty(&self) -> bool {
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

    #[test]
    fn fifo_order_within_capacity() {
        let (q, stats) = queue(8);
        for i in 0..5 {
            assert_eq!(q.push(chunk(i * 100, 100)), 0);
        }
        for i in 0..5 {
            assert_eq!(q.pop().unwrap().start, i * 100);
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
        assert_eq!(q.pop().unwrap().start, 20);
        assert_eq!(q.pop().unwrap().start, 30);
        assert_eq!(q.pop().unwrap().start, 40);
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
        assert_eq!(q.pop().unwrap().start, 0);
        assert_eq!(q.pop().unwrap().start, 4);
        assert!(q.pop().is_none());
        assert!(q.pop().is_none());
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
        assert_eq!(q.pop().unwrap().start, 0);
        assert!(q.pop().is_none());
    }

    #[test]
    fn pop_timeout_reports_idle_then_data_then_close() {
        let (q, _) = queue(4);
        assert!(matches!(q.pop_timeout(Duration::from_millis(5)), Pop::Idle));
        q.push(chunk(0, 4));
        match q.pop_timeout(Duration::from_millis(5)) {
            Pop::Chunk(c) => assert_eq!(c.start, 0),
            _ => panic!("expected the queued chunk"),
        }
        q.close();
        assert!(matches!(
            q.pop_timeout(Duration::from_millis(5)),
            Pop::Closed
        ));
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
    fn depth_gauge_follows_push_and_pop() {
        let (q, stats) = queue(8);
        let depth = || stats.queue_depth.load(Ordering::Relaxed);
        q.push(chunk(0, 1));
        q.push(chunk(1, 1));
        assert_eq!(depth(), 2);
        q.pop();
        assert_eq!(depth(), 1);
        q.pop();
        assert_eq!(depth(), 0);
    }

    #[test]
    fn push_wait_blocks_for_space_instead_of_dropping() {
        let (q, stats) = queue(2);
        let q = Arc::new(q);
        assert!(q.push_wait(chunk(0, 4)));
        assert!(q.push_wait(chunk(4, 4)));
        // Queue full: the third push must wait for the consumer, not
        // evict chunk 0.
        let qp = q.clone();
        let producer = std::thread::spawn(move || qp.push_wait(chunk(8, 4)));
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(q.len(), 2, "producer should still be parked");
        assert_eq!(q.pop().unwrap().start, 0);
        assert!(producer.join().unwrap());
        assert_eq!(q.pop().unwrap().start, 4);
        assert_eq!(q.pop().unwrap().start, 8);
        assert_eq!(stats.chunks_dropped.load(Ordering::Relaxed), 0);
        assert_eq!(stats.samples_dropped.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn push_wait_on_closed_queue_counts_the_loss() {
        let (q, stats) = queue(2);
        assert!(q.push_wait(chunk(0, 4)));
        q.close();
        assert!(!q.push_wait(chunk(4, 6)));
        assert_eq!(stats.chunks_dropped.load(Ordering::Relaxed), 1);
        assert_eq!(stats.samples_dropped.load(Ordering::Relaxed), 6);
        assert_eq!(q.pop().unwrap().start, 0);
        assert!(q.pop().is_none());
    }

    #[test]
    fn close_unparks_a_blocked_push_wait() {
        let (q, _) = queue(1);
        let q = Arc::new(q);
        assert!(q.push_wait(chunk(0, 1)));
        let qp = q.clone();
        let producer = std::thread::spawn(move || qp.push_wait(chunk(1, 1)));
        std::thread::sleep(Duration::from_millis(20));
        q.close();
        assert!(
            !producer.join().unwrap(),
            "close must reject the parked push"
        );
    }

    #[test]
    fn blocking_pop_wakes_on_push_and_close() {
        let (q, _) = queue(4);
        let q = Arc::new(q);
        let qc = q.clone();
        let consumer = std::thread::spawn(move || {
            let mut starts = Vec::new();
            while let Some(c) = qc.pop() {
                starts.push(c.start);
            }
            starts
        });
        for i in 0..10 {
            q.push(chunk(i, 1));
        }
        q.close();
        let got = consumer.join().unwrap();
        // Drop-oldest may fire depending on scheduling, but whatever
        // arrives is in order and ends cleanly.
        assert!(got.windows(2).all(|w| w[0] < w[1]));
        assert!(!got.is_empty());
    }
}
