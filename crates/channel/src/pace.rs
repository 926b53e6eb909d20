//! Paced replay of a wideband capture: chunked iteration with optional
//! wall-clock pacing, the adapter that turns a pre-synthesized
//! [`crate::wideband`] capture into the steady sample stream a real SDR
//! front end would deliver.
//!
//! `lora-ingest` builds its simulated-SDR source on this, and the
//! gateway benches use it to replay captures at a controlled multiple of
//! real time.

use std::time::{Duration, Instant};

use lora_dsp::Cf32;

/// Deadline-based wall-clock pacing against a sample stream's time base.
///
/// `Pacer` holds the pacing half of [`PacedReplay`] on its own so that
/// lazily *generated* streams ([`crate::stream::StreamedScenario`]) can be
/// paced too: call [`Pacer::wait_until_due`] with the stream position a
/// chunk ends at, and it sleeps until that sample's scheduled arrival
/// instant. Deadlines are scheduled against the pacer's start (the first
/// call), not the previous chunk, so sleep jitter does not accumulate
/// drift.
#[derive(Debug)]
pub struct Pacer {
    /// Seconds of stream time per sample, already divided by the speed
    /// factor; `None` disables pacing.
    secs_per_sample: Option<f64>,
    /// Set on the first `wait_until_due` call.
    started: Option<Instant>,
}

impl Pacer {
    /// Pace a stream of `sample_rate_hz` at `speed ×` real time
    /// (`Some(1.0)` = real time); `None` disables pacing entirely.
    pub fn new(sample_rate_hz: f64, speed: Option<f64>) -> Self {
        let secs_per_sample = speed.map(|k| {
            assert!(
                k > 0.0 && sample_rate_hz > 0.0,
                "pacing needs positive speed and sample rate"
            );
            1.0 / (sample_rate_hz * k)
        });
        Self {
            secs_per_sample,
            started: None,
        }
    }

    /// Block until sample `position` is due (a chunk is due once its
    /// *last* sample has "arrived"). No-op when pacing is disabled.
    pub fn wait_until_due(&mut self, position: usize) {
        let Some(sps) = self.secs_per_sample else {
            return;
        };
        let t0 = *self.started.get_or_insert_with(Instant::now);
        let due = t0 + Duration::from_secs_f64(position as f64 * sps);
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
    }
}

/// Chunked, optionally wall-clock-paced iteration over a sample buffer.
///
/// With `speed = None` chunks are handed out as fast as the caller asks
/// (back-to-back replay). With `speed = Some(k)` the replay is paced so
/// that samples flow at `k ×` real time relative to `sample_rate_hz`:
/// each [`PacedReplay::next_chunk`] sleeps until the chunk's scheduled
/// emission instant. Pacing is deadline-based (scheduled against the
/// replay start, not the previous chunk), so sleep jitter does not
/// accumulate drift.
#[derive(Debug)]
pub struct PacedReplay {
    samples: Vec<Cf32>,
    chunk: usize,
    /// Samples handed out so far.
    position: usize,
    pacer: Pacer,
}

impl PacedReplay {
    /// Replay `samples` in chunks of `chunk` samples (the final chunk may
    /// be shorter). `speed` of `Some(1.0)` is real time at
    /// `sample_rate_hz`, `Some(4.0)` four times faster; `None` removes
    /// pacing entirely.
    pub fn new(samples: Vec<Cf32>, chunk: usize, sample_rate_hz: f64, speed: Option<f64>) -> Self {
        assert!(chunk > 0, "chunk size must be positive");
        Self {
            samples,
            chunk,
            position: 0,
            pacer: Pacer::new(sample_rate_hz, speed),
        }
    }

    /// The next chunk, or `None` once the capture is exhausted. Blocks
    /// until the chunk's scheduled emission time when pacing is on.
    pub fn next_chunk(&mut self) -> Option<&[Cf32]> {
        if self.position >= self.samples.len() {
            return None;
        }
        let start = self.position;
        let end = (start + self.chunk).min(self.samples.len());
        self.pacer.wait_until_due(end);
        self.position = end;
        Some(&self.samples[start..end])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<Cf32> {
        (0..n).map(|i| Cf32::new(i as f32, 0.0)).collect()
    }

    #[test]
    fn unpaced_replay_covers_everything_in_order() {
        let mut r = PacedReplay::new(ramp(10), 4, 1e6, None);
        let mut seen = Vec::new();
        while let Some(c) = r.next_chunk() {
            seen.extend_from_slice(c);
        }
        assert_eq!(seen.len(), 10);
        assert!(seen.iter().enumerate().all(|(i, s)| s.re == i as f32));
        assert_eq!(r.position, 10);
        assert!(r.next_chunk().is_none(), "exhausted replay stays exhausted");
    }

    #[test]
    fn final_partial_chunk_is_emitted() {
        let mut r = PacedReplay::new(ramp(10), 4, 1e6, None);
        let lens: Vec<usize> = std::iter::from_fn(|| r.next_chunk().map(|c| c.len())).collect();
        assert_eq!(lens, vec![4, 4, 2]);
    }

    #[test]
    fn paced_replay_takes_at_least_stream_time() {
        // 4_000 samples at 1 MHz × speed 1 is 4 ms of stream time.
        let mut r = PacedReplay::new(ramp(4_000), 1_000, 1e6, Some(1.0));
        let t0 = Instant::now();
        while r.next_chunk().is_some() {}
        assert!(t0.elapsed() >= Duration::from_millis(3));
    }

    #[test]
    fn pacer_disabled_never_sleeps() {
        let mut p = Pacer::new(1.0, None);
        assert!(p.secs_per_sample.is_none());
        let t0 = Instant::now();
        p.wait_until_due(usize::MAX);
        assert!(t0.elapsed() < Duration::from_millis(50));
    }

    #[test]
    fn pacer_holds_stream_time() {
        // 4_000 samples at 1 MHz × speed 1 is 4 ms of stream time.
        let mut p = Pacer::new(1e6, Some(1.0));
        assert!(p.secs_per_sample.is_some());
        let t0 = Instant::now();
        for end in [1_000usize, 2_000, 4_000] {
            p.wait_until_due(end);
        }
        assert!(t0.elapsed() >= Duration::from_millis(3));
    }

    #[test]
    fn empty_capture_is_immediately_done() {
        let mut r = PacedReplay::new(Vec::new(), 8, 1e6, Some(1.0));
        assert!(r.samples.is_empty());
        assert!(r.next_chunk().is_none());
    }
}
