//! Bookkeeping for concurrently-active transmissions.
//!
//! CIC needs, for every symbol window of the packet being decoded, the
//! exact sample positions at which each *other* transmission crosses one
//! of its own chirp boundaries (paper §5: the `τ_i`). A transmission's
//! boundary grid follows the frame layout: symbol boundaries every `sps`
//! samples through the preamble and down-chirps, then a quarter-symbol
//! shift into the data section (the 2.25 down-chirps).

use lora_phy::modulate::FrameLayout;
use lora_phy::params::LoraParams;

use crate::subsymbol::Boundaries;

/// One detected, still-active transmission.
#[derive(Debug, Clone)]
pub(crate) struct ActiveTx {
    /// Identifier (index in detection order).
    pub id: usize,
    /// Sample index of the frame start within the capture.
    pub frame_start: usize,
    /// Number of data symbols in the frame.
    pub n_data_symbols: usize,
    /// Estimated CFO in bins (integer + fractional).
    pub cfo_bins: f64,
}

impl ActiveTx {
    /// Every *spectrally meaningful* boundary of this frame, as absolute
    /// sample positions.
    ///
    /// The interior boundaries of the preamble/sync run are deliberately
    /// omitted: consecutive `C_0` symbols alias into one continuous tone
    /// (no spectral change at all), and the sync hops are only +8/+16
    /// bins of the same predictable tone, which the demodulator already
    /// excludes via [`Tracker::known_preamble_bins`]. As sub-symbol cuts
    /// they would only shrink the ICSS windows (hurting resolution)
    /// without cancelling anything. Boundaries kept: frame start, the
    /// down-chirp edges (up-chirp→down-chirp is a real spectral change),
    /// the quarter-chirp end, and every data-symbol edge.
    pub(crate) fn boundary_positions(&self, layout: &FrameLayout) -> Vec<usize> {
        let sps = layout.samples_per_symbol;
        let mut out = Vec::with_capacity(8 + self.n_data_symbols);
        out.push(self.frame_start);
        // Down-chirp boundaries, including the boundary where the quarter
        // down-chirp begins.
        let mut pos = self.frame_start + layout.downchirp_start;
        while pos < self.frame_start + layout.data_start {
            out.push(pos);
            pos += sps;
        }
        // Quarter-chirp end = data start, then the data grid.
        for k in 0..=self.n_data_symbols {
            out.push(self.frame_start + layout.data_start + k * sps);
        }
        out
    }

    /// Sample index where the frame ends.
    pub(crate) fn frame_end(&self, layout: &FrameLayout) -> usize {
        self.frame_start + layout.frame_len(self.n_data_symbols)
    }
}

/// The set of transmissions active in a capture.
#[derive(Debug, Clone)]
pub(crate) struct Tracker {
    layout: FrameLayout,
    oversampling: usize,
    n_bins: usize,
    txs: Vec<ActiveTx>,
}

impl Tracker {
    /// Build a tracker for the given parameter set and detections.
    pub(crate) fn new(params: &LoraParams, txs: Vec<ActiveTx>) -> Self {
        Self {
            layout: FrameLayout::new(params),
            oversampling: params.oversampling(),
            n_bins: params.n_bins(),
            txs,
        }
    }

    /// Frame layout in use.
    pub(crate) fn layout(&self) -> &FrameLayout {
        &self.layout
    }

    /// All tracked transmissions.
    pub(crate) fn txs(&self) -> &[ActiveTx] {
        &self.txs
    }

    /// Interferer boundaries within `[window_start, window_start + len)`
    /// for the transmission `target_id`, as window-relative offsets —
    /// ready for [`crate::icss::optimal_icss`].
    pub(crate) fn interferer_boundaries(
        &self,
        target_id: usize,
        window_start: usize,
        len: usize,
    ) -> Boundaries {
        let mut offsets = Vec::new();
        for tx in &self.txs {
            if tx.id == target_id {
                continue;
            }
            // Skip transmissions that do not overlap the window at all.
            if tx.frame_start >= window_start + len || tx.frame_end(&self.layout) <= window_start {
                continue;
            }
            for pos in tx.boundary_positions(&self.layout) {
                if pos > window_start && pos < window_start + len {
                    offsets.push(pos - window_start);
                }
            }
        }
        Boundaries::new(len, offsets)
    }

    /// Predicted de-chirped tone positions (in bins, fractional) of other
    /// transmissions' *preamble regions* inside the given window, relative
    /// to a receiver derotated by `target_cfo_bins`.
    ///
    /// During an interferer's preamble its symbol content is known: 8
    /// repeated `C_0` up-chirps then two sync words — a tone that is
    /// *continuous across the interferer's own symbol boundaries*, which
    /// sub-symbol cancellation structurally cannot remove (prev == next).
    /// But precisely because the content is known, the tone's frequency is
    /// predictable from the detection: grid offset `τ/os` plus the CFO
    /// difference, with the sync words `+8` and `+16` bins above it. The
    /// demodulator excludes candidates at these bins.
    pub(crate) fn known_preamble_bins(
        &self,
        target_id: usize,
        target_cfo_bins: f64,
        window_start: usize,
        len: usize,
    ) -> Vec<f64> {
        let sps = self.layout.samples_per_symbol;
        let n_bins = self.n_bins as f64;
        let mut out = Vec::new();
        for tx in &self.txs {
            if tx.id == target_id {
                continue;
            }
            // Preamble + sync span of the interferer.
            let pre_start = tx.frame_start;
            let pre_end = tx.frame_start + self.layout.sync_start + 2 * sps;
            if pre_start >= window_start + len || pre_end <= window_start {
                continue;
            }
            let tau_grid =
                (window_start as i64 - tx.frame_start as i64).rem_euclid(sps as i64) as f64;
            let base = lora_dsp::math::wrap(
                tau_grid / self.oversampling as f64 + (tx.cfo_bins - target_cfo_bins),
                n_bins,
            );
            for offset in [0.0, 8.0, 16.0] {
                out.push(lora_dsp::math::wrap(base + offset, n_bins));
            }
        }
        out
    }

    /// Predicted de-chirped tone positions of interferers whose **data
    /// symbols are already known** (successfully decoded in an earlier
    /// pass), for the given window. Same geometry as
    /// [`Tracker::known_preamble_bins`]: both data symbols overlapping
    /// the window de-chirp to `value + δ/os + Δcfo` where `δ` is the
    /// window's offset into the interferer's symbol.
    pub(crate) fn known_data_bins(
        &self,
        target_id: usize,
        target_cfo_bins: f64,
        window_start: usize,
        len: usize,
        decoded: &std::collections::HashMap<usize, Vec<usize>>,
    ) -> Vec<f64> {
        let sps = self.layout.samples_per_symbol;
        let n_bins = self.n_bins as f64;
        let mut out = Vec::new();
        for tx in &self.txs {
            if tx.id == target_id {
                continue;
            }
            let Some(symbols) = decoded.get(&tx.id) else {
                continue;
            };
            let ds = tx.frame_start + self.layout.data_start;
            let de = ds + symbols.len() * sps;
            if ds >= window_start + len || de <= window_start {
                continue;
            }
            let rel = window_start as i64 - ds as i64;
            let k0 = rel.div_euclid(sps as i64);
            let delta = rel.rem_euclid(sps as i64) as f64;
            let shift = delta / self.oversampling as f64 + (tx.cfo_bins - target_cfo_bins);
            for k in [k0, k0 + 1] {
                if k >= 0 && (k as usize) < symbols.len() {
                    out.push(lora_dsp::math::wrap(
                        symbols[k as usize] as f64 + shift,
                        n_bins,
                    ));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> LoraParams {
        LoraParams::new(8, 250e3, 4).unwrap()
    }

    fn tx(id: usize, start: usize) -> ActiveTx {
        ActiveTx {
            id,
            frame_start: start,
            n_data_symbols: 4,
            cfo_bins: 0.0,
        }
    }

    #[test]
    fn boundary_grid_matches_layout() {
        let p = params();
        let layout = FrameLayout::new(&p);
        let t = tx(0, 1000);
        let b = t.boundary_positions(&layout);
        // Frame start, then the first down-chirp edge (the preamble
        // up-chirp run and sync hops are not spectral boundaries).
        assert_eq!(b[0], 1000);
        assert_eq!(b[1], 1000 + layout.downchirp_start);
        // Data grid is offset by the 0.25-symbol down-chirp.
        assert!(b.contains(&(1000 + layout.data_start)));
        assert!(b.contains(&(1000 + layout.data_start + layout.samples_per_symbol)));
        // Last boundary is the frame end.
        assert_eq!(*b.last().unwrap(), t.frame_end(&layout));
        // Strictly increasing.
        for w in b.windows(2) {
            assert!(w[0] < w[1]);
        }
    }

    #[test]
    fn quarter_shift_creates_non_multiple_gap() {
        let p = params();
        let layout = FrameLayout::new(&p);
        let b = tx(0, 0).boundary_positions(&layout);
        let sps = layout.samples_per_symbol;
        let gaps: Vec<usize> = b.windows(2).map(|w| w[1] - w[0]).collect();
        // Exactly one gap equals sps/4: the 0.25-symbol down-chirp tail.
        assert_eq!(
            gaps.iter().filter(|&&g| g == sps / 4).count(),
            1,
            "gaps {gaps:?}"
        );
        // The first gap spans the whole preamble + sync (no cuts there).
        assert_eq!(gaps[0], layout.downchirp_start);
        assert!(gaps[1..].iter().all(|&g| g == sps || g == sps / 4));
    }

    #[test]
    fn known_preamble_bins_predicts_tone_position() {
        // Empirically verified geometry: target window at 27904, an
        // interferer frame at 27324 with +2.87 bins CFO difference puts
        // its preamble tone at bin ~147.9 (and sync copies at +8, +16).
        let p = params();
        let tracker = Tracker::new(
            &p,
            vec![
                ActiveTx {
                    id: 0,
                    frame_start: 0,
                    n_data_symbols: 25,
                    cfo_bins: 1.23,
                },
                ActiveTx {
                    id: 1,
                    frame_start: 27324,
                    n_data_symbols: 25,
                    cfo_bins: 4.10,
                },
            ],
        );
        let bins = tracker.known_preamble_bins(0, 1.23, 27904, p.samples_per_symbol());
        assert_eq!(bins.len(), 3);
        assert!((bins[0] - 147.87).abs() < 0.01, "base {}", bins[0]);
        assert!((bins[1] - 155.87).abs() < 0.01);
        assert!((bins[2] - 163.87).abs() < 0.01);
    }

    #[test]
    fn known_data_bins_predicts_both_overlapping_symbols() {
        let p = params();
        let sps = p.samples_per_symbol();
        let layout = FrameLayout::new(&p);
        let interferer = ActiveTx {
            id: 1,
            frame_start: 0,
            n_data_symbols: 10,
            cfo_bins: 2.0,
        };
        let tracker = Tracker::new(&p, vec![tx(0, 50_000), interferer.clone()]);
        let mut decoded = std::collections::HashMap::new();
        decoded.insert(1usize, vec![7usize; 10]);
        // A window starting 100 samples into the interferer's data symbol 3.
        let ws = interferer.frame_start + layout.data_symbol_start(3) + 100;
        let bins = tracker.known_data_bins(0, 0.5, ws, sps, &decoded);
        // Both overlapping symbols have value 7; shift = 100/4 + (2.0-0.5).
        let expect = 7.0 + 25.0 + 1.5;
        assert_eq!(bins.len(), 2);
        for b in bins {
            assert!((b - expect).abs() < 1e-9, "bin {b} expect {expect}");
        }
    }

    #[test]
    fn known_data_bins_empty_without_decodes() {
        let p = params();
        let tracker = Tracker::new(&p, vec![tx(0, 0), tx(1, 700)]);
        let decoded = std::collections::HashMap::new();
        assert!(tracker
            .known_data_bins(0, 0.0, 0, p.samples_per_symbol(), &decoded)
            .is_empty());
    }

    #[test]
    fn known_preamble_bins_empty_when_no_preamble_overlap() {
        let p = params();
        let layout = FrameLayout::new(&p);
        let other = ActiveTx {
            id: 1,
            frame_start: 5000,
            n_data_symbols: 25,
            cfo_bins: 0.0,
        };
        // A window entirely inside the interferer's *data* region.
        let ws = 5000 + layout.data_start + 3 * layout.samples_per_symbol;
        let tracker = Tracker::new(&p, vec![tx(0, 0), other]);
        assert!(tracker
            .known_preamble_bins(0, 0.0, ws, p.samples_per_symbol())
            .is_empty());
    }

    #[test]
    fn interferer_boundaries_are_window_relative() {
        let p = params();
        let sps = p.samples_per_symbol();
        let tracker = Tracker::new(&p, vec![tx(0, 0), tx(1, 300)]);
        // Window = tx0's first symbol [0, sps). tx1's frame starts at 300,
        // so its first boundary in-window is at 300 (frame start itself
        // counts? frame start is not > window_start... it is 300 > 0, yes).
        let b = tracker.interferer_boundaries(0, 0, sps);
        assert!(b.offsets().contains(&300), "offsets {:?}", b.offsets());
    }

    #[test]
    fn target_excluded_from_own_boundaries() {
        let p = params();
        let sps = p.samples_per_symbol();
        let tracker = Tracker::new(&p, vec![tx(0, 0)]);
        let b = tracker.interferer_boundaries(0, 0, sps);
        assert_eq!(b.n_transitions(), 0);
    }

    #[test]
    fn non_overlapping_tx_ignored() {
        let p = params();
        let sps = p.samples_per_symbol();
        let far = 10_000_000;
        let tracker = Tracker::new(&p, vec![tx(0, 0), tx(1, far)]);
        let b = tracker.interferer_boundaries(0, 0, sps);
        assert_eq!(b.n_transitions(), 0);
    }

    #[test]
    fn consecutive_data_symbols_have_one_boundary_per_interferer() {
        // In the steady data region, each interferer contributes exactly
        // one boundary per symbol window (paper Fig 6).
        let p = params();
        let sps = p.samples_per_symbol();
        let layout = FrameLayout::new(&p);
        let a = ActiveTx {
            n_data_symbols: 30,
            ..tx(0, 0)
        };
        let b = ActiveTx {
            n_data_symbols: 30,
            ..tx(1, 700)
        };
        let tracker = Tracker::new(&p, vec![a.clone(), b]);
        for k in 5..10 {
            let ws = a.frame_start + layout.data_symbol_start(k);
            let bounds = tracker.interferer_boundaries(0, ws, sps);
            assert_eq!(bounds.n_transitions(), 1, "symbol {k}");
        }
    }
}
