//! Rectangular windowing of sub-symbols (paper Eqn 7 and Eqn 11).
//!
//! A sub-symbol `r_{i->j}(t)` is the slice of the received symbol between
//! two interferer boundaries. In the sampled domain that is simply a
//! sub-slice; these helpers keep boundary arithmetic (clamping, emptiness)
//! in one tested place.

use crate::Cf32;

/// Half-open sample range `[start, end)` relative to the start of a symbol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SampleRange {
    /// Inclusive start sample.
    pub start: usize,
    /// Exclusive end sample.
    pub end: usize,
}

impl SampleRange {
    /// Build a range, clamping `end` to at least `start`.
    pub fn new(start: usize, end: usize) -> Self {
        Self {
            start,
            end: end.max(start),
        }
    }

    /// Number of samples in the range.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// True if the range holds no samples.
    pub fn is_empty(&self) -> bool {
        self.end == self.start
    }

    /// Clamp the range to fit within a signal of `n` samples.
    pub(crate) fn clamp_to(&self, n: usize) -> Self {
        let start = self.start.min(n);
        let end = self.end.min(n).max(start);
        Self { start, end }
    }

    /// Slice `signal` to this range (clamped to the signal length).
    pub fn slice<'a>(&self, signal: &'a [Cf32]) -> &'a [Cf32] {
        let c = self.clamp_to(signal.len());
        &signal[c.start..c.end]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn range_len_and_empty() {
        let r = SampleRange::new(3, 10);
        assert_eq!(r.len(), 7);
        assert!(!r.is_empty());
        assert!(SampleRange::new(5, 5).is_empty());
    }

    #[test]
    fn inverted_range_clamps_to_empty() {
        let r = SampleRange::new(10, 3);
        assert_eq!(r.len(), 0);
        assert!(r.is_empty());
    }

    #[test]
    fn clamp_to_signal() {
        let r = SampleRange::new(4, 100).clamp_to(10);
        assert_eq!(r, SampleRange::new(4, 10));
        let r = SampleRange::new(20, 30).clamp_to(10);
        assert!(r.is_empty());
    }

    #[test]
    fn slice_matches_range() {
        let sig: Vec<Cf32> = (0..8).map(|i| Cf32::new(i as f32, 0.0)).collect();
        let s = SampleRange::new(2, 5).slice(&sig);
        assert_eq!(s.len(), 3);
        assert_eq!(s[0].re, 2.0);
        assert_eq!(s[2].re, 4.0);
    }
}
