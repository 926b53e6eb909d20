//! Sub-symbols and interferer boundaries (paper §5, Eqn 11).
//!
//! Within the window of the symbol being decoded, every interfering
//! transmission `i` crosses exactly one of its own symbol boundaries, at
//! offset `τ_i`. A *sub-symbol* `r_{i→j}` is the slice of the window
//! between two such boundaries; between boundaries the set of interfering
//! symbols is constant, which is what makes cancellation possible.

use lora_dsp::window::SampleRange;

/// Interferer boundary offsets within one symbol window, normalised:
/// sorted, deduplicated, strictly inside `(0, window_len)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Boundaries {
    window_len: usize,
    offsets: Vec<usize>,
}

impl Boundaries {
    /// Build from raw boundary offsets (any order, duplicates and
    /// out-of-window values allowed — they are dropped).
    pub fn new(window_len: usize, mut offsets: Vec<usize>) -> Self {
        assert!(window_len > 0, "window must be non-empty");
        offsets.retain(|&t| t > 0 && t < window_len);
        offsets.sort_unstable();
        offsets.dedup();
        Self {
            window_len,
            offsets,
        }
    }

    /// Window length in samples (`T_s` in samples for a full symbol).
    pub(crate) fn window_len(&self) -> usize {
        self.window_len
    }

    /// The interior boundary offsets `τ_2 … τ_N` (sorted).
    pub(crate) fn offsets(&self) -> &[usize] {
        &self.offsets
    }

    /// Number of distinct interferer transitions in the window.
    pub(crate) fn n_transitions(&self) -> usize {
        self.offsets.len()
    }

    /// The consecutive sub-symbols `r_{i→i+1}` of Fig 7: slices between
    /// adjacent boundaries, including the leading `[0, τ_2)` and trailing
    /// `[τ_N, T_s)` pieces.
    pub fn consecutive_subsymbols(&self) -> Vec<SampleRange> {
        let mut cuts = Vec::with_capacity(self.offsets.len() + 2);
        cuts.push(0);
        cuts.extend_from_slice(&self.offsets);
        cuts.push(self.window_len);
        cuts.windows(2)
            .map(|w| SampleRange::new(w[0], w[1]))
            .collect()
    }

    /// The Strawman-CIC ICSS (paper Fig 9): the first and last
    /// consecutive sub-symbols, `{r_{1→2}, r_{N→N+1}}`. With no
    /// interferers this degenerates to the full window.
    pub(crate) fn strawman_icss(&self) -> Vec<SampleRange> {
        if self.offsets.is_empty() {
            return vec![SampleRange::new(0, self.window_len)];
        }
        let first = SampleRange::new(0, self.offsets[0]);
        let last = SampleRange::new(*self.offsets.last().unwrap(), self.window_len);
        vec![first, last]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalises_input() {
        let b = Boundaries::new(100, vec![70, 30, 30, 0, 100, 150]);
        assert_eq!(b.offsets(), &[30, 70]);
        assert_eq!(b.n_transitions(), 2);
    }

    #[test]
    fn consecutive_subsymbols_tile_the_window() {
        let b = Boundaries::new(100, vec![25, 60]);
        let subs = b.consecutive_subsymbols();
        assert_eq!(
            subs,
            vec![
                SampleRange::new(0, 25),
                SampleRange::new(25, 60),
                SampleRange::new(60, 100)
            ]
        );
        let total: usize = subs.iter().map(|r| r.len()).sum();
        assert_eq!(total, 100);
    }

    #[test]
    fn no_interferers_single_subsymbol() {
        let b = Boundaries::new(64, vec![]);
        assert_eq!(b.consecutive_subsymbols(), vec![SampleRange::new(0, 64)]);
        assert_eq!(b.strawman_icss(), vec![SampleRange::new(0, 64)]);
    }

    #[test]
    fn strawman_uses_first_and_last_pieces() {
        let b = Boundaries::new(100, vec![25, 60, 80]);
        assert_eq!(
            b.strawman_icss(),
            vec![SampleRange::new(0, 25), SampleRange::new(80, 100)]
        );
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn zero_window_rejected() {
        Boundaries::new(0, vec![]);
    }
}
