//! The decode pool: a fixed set of threads serving every (channel, SF)
//! stream of one gateway, or of every shard of one cluster.
//!
//! A gateway decodes `channels × SFs` streams, but a host has only so
//! many cores. A thread per stream oversubscribes the CPU and costs one
//! spawn per stream at construction. The pool instead runs a fixed
//! number of threads (the gateway sizes it `min(streams, cores)`), the
//! shape of a gateway with a fixed set of decoders serving however many
//! channels and SFs it listens on.
//!
//! Every stream keeps its own queue and decoder state; the pool only
//! decides who runs next:
//!
//! * a stream runs on at most one thread at a time, one [`Turn`] (one
//!   chunk, the idle action, or the final flush) per scheduling;
//! * ready streams are served first come, first served, and a stream
//!   with more work re-joins the back of the line after its turn, so a
//!   deep backlog on one stream cannot starve another;
//! * idle liveness is a per-stream deadline: a stream whose queue ran
//!   empty after a turn is due for its idle turn `idle_timeout` later,
//!   unless new work arrives first. Due streams join the ready line
//!   even while other streams keep every thread busy. Threads with
//!   nothing ready sleep on a condvar until the earliest deadline or the
//!   next wake — there is no fixed polling period.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// What one turn of a [`Task`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Turn {
    /// Consumed one unit of queued work.
    Worked,
    /// Ran the idle action: nothing was queued when the turn came.
    Idled,
    /// Flushed for the last time; the task is never served again.
    Finished,
}

/// A stream the pool serves.
pub(crate) trait Task: Send + 'static {
    /// Serve one turn.
    fn turn(&mut self) -> Turn;
    /// Whether a turn would find work: queued input, or the end of input
    /// still to flush.
    fn has_work(&self) -> bool;
}

/// Where a task is between turns. The task itself lives in its slot
/// except while a thread runs it.
enum Slot<T> {
    /// Nothing queued, no deadline: waits for a wake.
    Parked(T),
    /// Ran empty after a turn; due for its idle turn at the instant.
    Waiting(T, Instant),
    /// In the ready line.
    Ready(T),
    /// Out on a pool thread.
    Running,
    /// Finished.
    Done,
}

struct Sched<T> {
    slots: Vec<Slot<T>>,
    /// Ready task indices, served front first.
    ready: VecDeque<usize>,
    /// Tasks not yet finished; threads exit when it reaches zero.
    live: usize,
    /// Threads blocked on the condvar.
    sleepers: usize,
    /// Stop serving: threads exit after their current turn.
    abort: bool,
}

impl<T> Sched<T> {
    /// Move task `idx` into the ready line if it is between turns.
    /// Returns whether it was moved.
    fn make_ready(&mut self, idx: usize) -> bool {
        let slot = &mut self.slots[idx];
        match std::mem::replace(slot, Slot::Running) {
            Slot::Parked(t) | Slot::Waiting(t, _) => {
                *slot = Slot::Ready(t);
                self.ready.push_back(idx);
                true
            }
            other => {
                *slot = other;
                false
            }
        }
    }

    /// Move every task whose idle deadline has passed into the ready
    /// line, in index order.
    fn promote_due(&mut self, now: Instant) {
        for idx in 0..self.slots.len() {
            if matches!(self.slots[idx], Slot::Waiting(_, due) if due <= now) {
                self.make_ready(idx);
            }
        }
    }

    fn earliest_deadline(&self) -> Option<Instant> {
        self.slots
            .iter()
            .filter_map(|s| match s {
                Slot::Waiting(_, due) => Some(*due),
                _ => None,
            })
            .min()
    }
}

struct Shared<T> {
    sched: Mutex<Sched<T>>,
    cv: Condvar,
    idle_timeout: Duration,
}

impl<T> Shared<T> {
    /// The scheduler lock. A panicking turn runs outside it, so the state
    /// is consistent even if another thread poisoned it.
    fn lock(&self) -> MutexGuard<'_, Sched<T>> {
        self.sched.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Wake one sleeping thread, if any (skips the syscall otherwise).
    fn nudge(&self, sched: &Sched<T>) {
        if sched.sleepers > 0 {
            self.cv.notify_one();
        }
    }
}

/// A fixed set of threads serving a fixed set of tasks. See the module
/// docs.
pub(crate) struct DecodePool<T: Task> {
    shared: Arc<Shared<T>>,
    handles: Vec<JoinHandle<()>>,
}

impl<T: Task> DecodePool<T> {
    /// Spawn `threads` (at least one) threads named `{name}-{i}` serving
    /// `tasks`. Every task starts parked; [`DecodePool::wake`] hands it
    /// work.
    pub(crate) fn spawn(tasks: Vec<T>, threads: usize, idle_timeout: Duration, name: &str) -> Self {
        let live = tasks.len();
        let shared = Arc::new(Shared {
            sched: Mutex::new(Sched {
                slots: tasks.into_iter().map(Slot::Parked).collect(),
                ready: VecDeque::with_capacity(live),
                live,
                sleepers: 0,
                abort: false,
            }),
            cv: Condvar::new(),
            idle_timeout,
        });
        let handles = (0..threads.max(1))
            .map(|i| {
                let shared = shared.clone();
                std::thread::Builder::new()
                    .name(format!("{name}-{i}"))
                    .spawn(move || serve(&shared))
                    .expect("spawn decode pool thread")
            })
            .collect();
        Self { shared, handles }
    }

    /// Number of pool threads (zero once joined).
    #[cfg(test)]
    pub(crate) fn threads(&self) -> usize {
        self.handles.len()
    }

    /// Tell the pool that tasks `idxs` have new work. A task between
    /// turns is readied only if it still has work: a running turn may
    /// already have consumed what the wake announces, and readying the
    /// task then would serve its idle turn early.
    pub(crate) fn wake(&self, idxs: impl IntoIterator<Item = usize>) {
        let mut sched = self.shared.lock();
        let mut woken = 0;
        for idx in idxs {
            let has_work = match &sched.slots[idx] {
                Slot::Parked(t) | Slot::Waiting(t, _) => t.has_work(),
                _ => false,
            };
            woken += usize::from(has_work && sched.make_ready(idx));
        }
        for _ in 0..woken.min(sched.sleepers) {
            self.shared.cv.notify_one();
        }
    }

    /// Serve every task to its end and join the threads. The caller must
    /// first end every task's input, so each one's next turn finds work
    /// and eventually reports [`Turn::Finished`].
    ///
    /// # Panics
    /// If a pool thread panicked.
    pub(crate) fn finish(&mut self) {
        {
            let mut sched = self.shared.lock();
            for idx in 0..sched.slots.len() {
                sched.make_ready(idx);
            }
            self.shared.cv.notify_all();
        }
        for h in std::mem::take(&mut self.handles) {
            h.join().expect("decode pool thread panicked");
        }
    }

    /// Stop serving and join the threads without finishing the tasks:
    /// each thread completes the turn it is in and exits. Join errors
    /// are ignored, so this is safe to call from `Drop`.
    pub(crate) fn abort(&mut self) {
        self.shared.lock().abort = true;
        self.shared.cv.notify_all();
        for h in std::mem::take(&mut self.handles) {
            let _ = h.join();
        }
    }
}

impl<T: Task> Drop for DecodePool<T> {
    fn drop(&mut self) {
        self.abort();
    }
}

/// Stops the whole pool if a turn panics, so the remaining threads exit
/// instead of waiting forever for the lost task, and the panic surfaces
/// at [`DecodePool::finish`]'s join.
struct AbortOnPanic<'a, T>(&'a Shared<T>);

impl<T> Drop for AbortOnPanic<'_, T> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.lock().abort = true;
            self.0.cv.notify_all();
        }
    }
}

/// Body of one pool thread.
fn serve<T: Task>(shared: &Shared<T>) {
    let _guard = AbortOnPanic(shared);
    let mut sched = shared.lock();
    loop {
        if sched.abort || sched.live == 0 {
            return;
        }
        let now = Instant::now();
        sched.promote_due(now);
        let Some(idx) = sched.ready.pop_front() else {
            sched.sleepers += 1;
            sched = match sched.earliest_deadline() {
                Some(due) => {
                    let wait = due.saturating_duration_since(now);
                    shared
                        .cv
                        .wait_timeout(sched, wait)
                        .unwrap_or_else(PoisonError::into_inner)
                        .0
                }
                None => shared
                    .cv
                    .wait(sched)
                    .unwrap_or_else(PoisonError::into_inner),
            };
            sched.sleepers -= 1;
            continue;
        };
        let Slot::Ready(mut task) = std::mem::replace(&mut sched.slots[idx], Slot::Running) else {
            unreachable!("the ready line holds only ready tasks");
        };
        drop(sched);
        let turn = task.turn();
        if turn == Turn::Finished {
            // Release the task's state outside the scheduler lock.
            drop(task);
            sched = shared.lock();
            sched.slots[idx] = Slot::Done;
            sched.live -= 1;
            if sched.live == 0 {
                shared.cv.notify_all();
            }
            continue;
        }
        sched = shared.lock();
        // `has_work` under the scheduler lock: a producer that queued
        // work after this check wakes the task once it is parked, and
        // one that queued before is seen here — no wake is lost.
        if task.has_work() {
            sched.slots[idx] = Slot::Ready(task);
            sched.ready.push_back(idx);
        } else if turn == Turn::Worked {
            let due = Instant::now() + shared.idle_timeout;
            // Sleepers wake by the earliest deadline already set; only a
            // sooner one (in practice: the first) needs to wake one.
            let sooner = sched.earliest_deadline().is_none_or(|d| due < d);
            sched.slots[idx] = Slot::Waiting(task, due);
            if sooner {
                shared.nudge(&sched);
            }
        } else {
            sched.slots[idx] = Slot::Parked(task);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::mpsc;

    /// A scripted task: `queued` units of work, a log of its turns.
    struct Fake {
        id: usize,
        queued: Arc<AtomicUsize>,
        closed: Arc<std::sync::atomic::AtomicBool>,
        log: mpsc::Sender<(usize, Turn)>,
    }

    impl Task for Fake {
        fn turn(&mut self) -> Turn {
            let turn = if self
                .queued
                .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
                .is_ok()
            {
                Turn::Worked
            } else if self.closed.load(Ordering::SeqCst) {
                Turn::Finished
            } else {
                Turn::Idled
            };
            self.log.send((self.id, turn)).unwrap();
            turn
        }

        fn has_work(&self) -> bool {
            self.queued.load(Ordering::SeqCst) > 0 || self.closed.load(Ordering::SeqCst)
        }
    }

    type Handles = Vec<(Arc<AtomicUsize>, Arc<std::sync::atomic::AtomicBool>)>;

    fn fakes(n: usize) -> (Vec<Fake>, Handles, mpsc::Receiver<(usize, Turn)>) {
        let (tx, rx) = mpsc::channel();
        let mut tasks = Vec::new();
        let mut handles = Vec::new();
        for id in 0..n {
            let queued = Arc::new(AtomicUsize::new(0));
            let closed = Arc::new(std::sync::atomic::AtomicBool::new(false));
            handles.push((queued.clone(), closed.clone()));
            tasks.push(Fake {
                id,
                queued,
                closed,
                log: tx.clone(),
            });
        }
        (tasks, handles, rx)
    }

    #[test]
    fn ready_streams_alternate_one_turn_each() {
        // One thread, two streams with deep backlogs queued before the
        // wake: turns alternate instead of draining one stream first.
        let (tasks, h, rx) = fakes(2);
        h[0].0.store(4, Ordering::SeqCst);
        h[1].0.store(4, Ordering::SeqCst);
        let mut pool = DecodePool::spawn(tasks, 1, Duration::from_secs(600), "test-pool");
        pool.wake([0, 1]);
        let order: Vec<usize> = rx.iter().take(8).map(|(id, _)| id).collect();
        assert_eq!(order, vec![0, 1, 0, 1, 0, 1, 0, 1]);
        for (_, closed) in &h {
            closed.store(true, Ordering::SeqCst);
        }
        pool.finish();
        let rest: Vec<(usize, Turn)> = rx.try_iter().collect();
        assert_eq!(rest.len(), 2);
        assert!(rest.iter().all(|&(_, t)| t == Turn::Finished));
    }

    #[test]
    fn idle_deadline_fires_once_per_quiet_spell() {
        let (tasks, h, rx) = fakes(1);
        let pool = DecodePool::spawn(tasks, 1, Duration::from_millis(5), "test-pool");
        h[0].0.store(1, Ordering::SeqCst);
        pool.wake([0]);
        assert_eq!(rx.recv().unwrap(), (0, Turn::Worked));
        assert_eq!(
            rx.recv_timeout(Duration::from_secs(20)).unwrap(),
            (0, Turn::Idled)
        );
        // Parked after the idle turn: no second idle turn without work.
        assert!(rx.recv_timeout(Duration::from_millis(50)).is_err());
        h[0].0.store(1, Ordering::SeqCst);
        pool.wake([0]);
        assert_eq!(rx.recv().unwrap(), (0, Turn::Worked));
        assert_eq!(
            rx.recv_timeout(Duration::from_secs(20)).unwrap(),
            (0, Turn::Idled)
        );
    }

    #[test]
    fn a_stale_wake_does_not_run_the_idle_turn_early() {
        // Regression: a wake that lands after a running turn already
        // consumed the work it announces readied the waiting task anyway,
        // so the pool served its idle turn up to `idle_timeout` early —
        // and a stream's idle turn gives up any packet only partly
        // received.
        let (tasks, h, rx) = fakes(1);
        let pool = DecodePool::spawn(tasks, 1, Duration::from_secs(600), "test-pool");
        h[0].0.store(1, Ordering::SeqCst);
        pool.wake([0]);
        assert_eq!(rx.recv().unwrap(), (0, Turn::Worked));
        let deadline = Instant::now() + Duration::from_secs(20);
        while !matches!(pool.shared.lock().slots[0], Slot::Waiting(..)) {
            assert!(Instant::now() < deadline, "task never started waiting");
            std::thread::sleep(Duration::from_millis(1));
        }
        pool.wake([0]);
        let turn = rx.recv_timeout(Duration::from_millis(300));
        assert!(turn.is_err(), "a wake with nothing queued ran {turn:?}");
    }

    #[test]
    fn finish_serves_every_stream_to_its_end() {
        let (tasks, h, rx) = fakes(5);
        for (i, (queued, _)) in h.iter().enumerate() {
            queued.store(i * 3, Ordering::SeqCst);
        }
        let mut pool = DecodePool::spawn(tasks, 2, Duration::from_secs(600), "test-pool");
        assert_eq!(pool.threads(), 2);
        for (_, closed) in &h {
            closed.store(true, Ordering::SeqCst);
        }
        pool.finish();
        assert_eq!(pool.threads(), 0);
        let log: Vec<(usize, Turn)> = rx.try_iter().collect();
        for id in 0..5 {
            let turns: Vec<Turn> = log.iter().filter(|e| e.0 == id).map(|e| e.1).collect();
            let mut want = vec![Turn::Worked; id * 3];
            want.push(Turn::Finished);
            assert_eq!(turns, want, "stream {id}");
        }
    }

    #[test]
    fn drop_stops_the_threads_without_finishing() {
        let (tasks, h, _rx) = fakes(3);
        let pool = DecodePool::spawn(tasks, 2, Duration::from_secs(600), "test-pool");
        let shared = Arc::downgrade(&pool.shared);
        drop(pool);
        assert!(
            shared.upgrade().is_none(),
            "a pool thread outlived the drop"
        );
        // The tasks were dropped with the pool, never finished.
        assert!(h.iter().all(|(q, _)| Arc::strong_count(q) == 1));
    }
}
