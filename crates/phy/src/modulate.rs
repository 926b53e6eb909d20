//! Packet framing and waveform synthesis (paper Fig 5).
//!
//! A LoRa packet on the air is:
//!
//! ```text
//! | 8 x C_0 (up-chirps) | C_x, C_y (sync, y = x+8) | 2.25 x C_0^* | data symbols ... |
//! ```
//!
//! The modulator emits a unit-amplitude baseband waveform; amplitude, CFO
//! and timing offset are properties of the *channel* and are applied by
//! `lora-channel`.

use lora_dsp::Cf32;

use crate::chirp::ChirpTable;
use crate::params::LoraParams;

/// Number of `C_0` up-chirps that open the preamble.
pub const PREAMBLE_UPCHIRPS: usize = 8;
/// Number of SYNC symbols following the up-chirps.
pub(crate) const SYNC_SYMBOLS: usize = 2;
/// Down-chirps closing the preamble, in units of quarter symbols (2.25).
pub(crate) const DOWNCHIRP_QUARTERS: usize = 9;

/// Default SYNC word: symbols `C_8, C_16` (paper: `x != 0`, `y = x + 8`).
pub(crate) const DEFAULT_SYNC_X: usize = 8;

/// Frame geometry for one parameter set — where each part of the packet
/// sits, in samples from the start of the frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameLayout {
    /// Samples per full symbol.
    pub samples_per_symbol: usize,
    /// Sample offset of the first SYNC symbol.
    pub sync_start: usize,
    /// Sample offset of the first down-chirp.
    pub downchirp_start: usize,
    /// Sample offset of the first data symbol (= header length).
    pub data_start: usize,
}

impl FrameLayout {
    /// Compute the layout for `params`.
    pub fn new(params: &LoraParams) -> Self {
        let sps = params.samples_per_symbol();
        debug_assert_eq!(sps % 4, 0, "2.25 down-chirps need sps % 4 == 0");
        let sync_start = PREAMBLE_UPCHIRPS * sps;
        let downchirp_start = sync_start + SYNC_SYMBOLS * sps;
        let data_start = downchirp_start + DOWNCHIRP_QUARTERS * (sps / 4);
        Self {
            samples_per_symbol: sps,
            sync_start,
            downchirp_start,
            data_start,
        }
    }

    /// Total frame length in samples for `n_data` data symbols.
    pub fn frame_len(&self, n_data: usize) -> usize {
        self.data_start + n_data * self.samples_per_symbol
    }

    /// Sample offset of data symbol `k`.
    pub fn data_symbol_start(&self, k: usize) -> usize {
        self.data_start + k * self.samples_per_symbol
    }
}

/// A packet modulator bound to one parameter set.
pub struct Modulator {
    table: ChirpTable,
    layout: FrameLayout,
    sync_x: usize,
}

impl Modulator {
    /// Build a modulator with the default sync word.
    pub fn new(params: LoraParams) -> Self {
        Self::with_sync(params, DEFAULT_SYNC_X)
    }

    /// Build a modulator with sync symbols `C_x, C_{x+8}`.
    ///
    /// Panics if `x == 0` (the paper requires a non-zero sync to be
    /// distinguishable from preamble up-chirps) or if `x + 8` overflows the
    /// symbol range.
    pub(crate) fn with_sync(params: LoraParams, x: usize) -> Self {
        assert!(x != 0, "sync word x must be non-zero");
        assert!(x + 8 < params.n_bins(), "sync word y = x+8 out of range");
        Self {
            table: ChirpTable::new(params),
            layout: FrameLayout::new(&params),
            sync_x: x,
        }
    }

    /// Parameters in use.
    pub fn params(&self) -> &LoraParams {
        self.table.params()
    }

    /// Frame geometry.
    pub fn layout(&self) -> &FrameLayout {
        &self.layout
    }

    /// Synthesize the complete unit-amplitude frame for `symbols`.
    pub fn frame_waveform(&self, symbols: &[usize]) -> Vec<Cf32> {
        let mut out = Vec::with_capacity(self.layout.frame_len(symbols.len()));
        self.frame_waveform_into(symbols, &mut out);
        out
    }

    /// Synthesize the frame into `out`, clearing it first and reusing its
    /// allocation. The SIC subtraction path regenerates one frame per
    /// cancelled packet and keeps a single arena buffer per worker.
    pub fn frame_waveform_into(&self, symbols: &[usize], out: &mut Vec<Cf32>) {
        let p = self.params();
        out.clear();
        out.reserve(self.layout.frame_len(symbols.len()));
        for _ in 0..PREAMBLE_UPCHIRPS {
            out.extend_from_slice(self.table.up());
        }
        crate::chirp::symbol_waveform_append(p, self.sync_x, out);
        crate::chirp::symbol_waveform_append(p, self.sync_x + 8, out);
        out.extend_from_slice(self.table.down());
        out.extend_from_slice(self.table.down());
        out.extend_from_slice(self.table.quarter_down());
        for &s in symbols {
            crate::chirp::symbol_waveform_append(p, s, out);
        }
        debug_assert_eq!(out.len(), self.layout.frame_len(symbols.len()));
    }

    /// Append samples `range` of the frame for `symbols` to `out` — the
    /// same bits as slicing [`Modulator::frame_waveform_into`]'s output,
    /// without ever materialising the whole frame. `scratch` is a
    /// caller-owned symbol-sized arena reused across calls; the streamed
    /// wideband mixer keeps one per generator, so synthesising a frame
    /// chunk-by-chunk allocates nothing per packet beyond its symbol list.
    ///
    /// The frame is a concatenation of per-symbol waveforms, each starting
    /// its own phase accumulation at zero, so any slice of it is a
    /// concatenation of per-symbol slices: table-backed sections (preamble
    /// up-chirps, the 2.25 closing down-chirps) are copied straight from
    /// the [`crate::chirp::ChirpTable`], and sync/data symbols overlapping
    /// the range are regenerated into `scratch` and sliced. Out-of-bounds
    /// ranges are clamped to the frame.
    pub fn frame_waveform_range_into(
        &self,
        symbols: &[usize],
        range: std::ops::Range<usize>,
        scratch: &mut Vec<Cf32>,
        out: &mut Vec<Cf32>,
    ) {
        let p = self.params();
        let sps = self.layout.samples_per_symbol;
        let frame_len = self.layout.frame_len(symbols.len());
        let lo = range.start.min(frame_len);
        let hi = range.end.min(frame_len);
        if lo >= hi {
            return;
        }
        out.reserve(hi - lo);
        // Walk the frame's sections in order; each iteration handles the
        // overlap of one section with [lo, hi).
        let mut start = 0usize;
        let quarter = sps / 4;
        let n_sections = PREAMBLE_UPCHIRPS + SYNC_SYMBOLS + 3 + symbols.len();
        for section in 0..n_sections {
            let (len, source): (usize, Source) = match section {
                k if k < PREAMBLE_UPCHIRPS => (sps, Source::Up),
                k if k < PREAMBLE_UPCHIRPS + SYNC_SYMBOLS => {
                    let s = self.sync_x + 8 * (k - PREAMBLE_UPCHIRPS);
                    (sps, Source::Symbol(s))
                }
                k if k < PREAMBLE_UPCHIRPS + SYNC_SYMBOLS + 2 => (sps, Source::Down),
                k if k == PREAMBLE_UPCHIRPS + SYNC_SYMBOLS + 2 => (quarter, Source::Down),
                k => (
                    sps,
                    Source::Symbol(symbols[k - PREAMBLE_UPCHIRPS - SYNC_SYMBOLS - 3]),
                ),
            };
            let end = start + len;
            if end > lo {
                if start >= hi {
                    break;
                }
                let a = lo.max(start) - start;
                let b = hi.min(end) - start;
                match source {
                    Source::Up => out.extend_from_slice(&self.table.up()[a..b]),
                    Source::Down => out.extend_from_slice(&self.table.down()[a..b]),
                    Source::Symbol(s) => {
                        scratch.clear();
                        crate::chirp::symbol_waveform_append(p, s, scratch);
                        out.extend_from_slice(&scratch[a..b]);
                    }
                }
            }
            start = end;
        }
        debug_assert!(start >= hi, "section walk must cover the range");
    }
}

/// Where one frame section's samples come from (see
/// [`Modulator::frame_waveform_range_into`]).
enum Source {
    /// The pre-computed base up-chirp.
    Up,
    /// The pre-computed down-chirp (sliced for the quarter section).
    Down,
    /// A regenerated sync or data symbol.
    Symbol(usize),
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::demod::Demodulator;

    fn modulator() -> Modulator {
        Modulator::new(LoraParams::new(8, 250e3, 4).unwrap())
    }

    #[test]
    fn layout_offsets() {
        let m = modulator();
        let sps = 1024;
        assert_eq!(m.layout().sync_start, 8 * sps);
        assert_eq!(m.layout().downchirp_start, 10 * sps);
        assert_eq!(m.layout().data_start, 10 * sps + 9 * sps / 4);
    }

    #[test]
    fn frame_len_matches_layout() {
        let m = modulator();
        let w = m.frame_waveform(&[1, 2, 3]);
        assert_eq!(w.len(), m.layout().frame_len(3));
    }

    #[test]
    fn preamble_demodulates_to_zeros_and_sync() {
        let m = modulator();
        let d = Demodulator::new(*m.params());
        let w = m.frame_waveform(&[]);
        let sps = m.layout().samples_per_symbol;
        for k in 0..PREAMBLE_UPCHIRPS {
            let win = &w[k * sps..(k + 1) * sps];
            assert_eq!(d.demodulate_symbol(win), Some(0), "preamble symbol {k}");
        }
        let sync0 = &w[m.layout().sync_start..m.layout().sync_start + sps];
        let sync1 = &w[m.layout().sync_start + sps..m.layout().sync_start + 2 * sps];
        assert_eq!(d.demodulate_symbol(sync0), Some(DEFAULT_SYNC_X));
        assert_eq!(d.demodulate_symbol(sync1), Some(DEFAULT_SYNC_X + 8));
    }

    #[test]
    fn data_symbols_demodulate_back() {
        let m = modulator();
        let d = Demodulator::new(*m.params());
        let symbols = vec![0usize, 255, 17, 128, 200, 1];
        let w = m.frame_waveform(&symbols);
        for (k, &s) in symbols.iter().enumerate() {
            let a = m.layout().data_symbol_start(k);
            let win = &w[a..a + m.layout().samples_per_symbol];
            assert_eq!(d.demodulate_symbol(win), Some(s), "data symbol {k}");
        }
    }

    #[test]
    fn downchirp_section_detected_by_updechirp() {
        let m = modulator();
        let d = Demodulator::new(*m.params());
        let w = m.frame_waveform(&[]);
        let a = m.layout().downchirp_start;
        let sps = m.layout().samples_per_symbol;
        let spec = d.folded_spectrum(&d.updechirp(&w[a..a + sps]));
        assert_eq!(spec.argmax().unwrap().0, 0);
        assert!(spec[0] / spec.total_energy() > 0.9);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_sync_rejected() {
        Modulator::with_sync(LoraParams::paper_default(), 0);
    }

    #[test]
    fn unit_amplitude_frame() {
        let m = modulator();
        let w = m.frame_waveform(&[5, 6]);
        for c in &w {
            assert!((c.norm() - 1.0).abs() < 1e-4);
        }
    }

    /// Concatenating arbitrary ragged ranges must reproduce the full frame
    /// bit-for-bit — the streamed mixer's correctness rests on this.
    #[test]
    fn range_slices_concatenate_to_full_frame_bitwise() {
        let m = modulator();
        let symbols = vec![0usize, 255, 17, 128, 200, 1, 7];
        let full = m.frame_waveform(&symbols);
        let sps = m.layout().samples_per_symbol;
        // Ragged cut points: mid-symbol, section boundaries, mid-quarter.
        let cuts = [
            0,
            1,
            sps / 2,
            8 * sps, // sync start
            8 * sps + 3,
            10 * sps,              // down-chirp start
            12 * sps + sps / 8,    // inside the quarter down-chirp
            m.layout().data_start, // first data symbol
            m.layout().data_start + 2 * sps + 5,
            full.len() - 1,
            full.len(),
        ];
        let mut scratch = Vec::new();
        let mut rebuilt = Vec::new();
        for w in cuts.windows(2) {
            m.frame_waveform_range_into(&symbols, w[0]..w[1], &mut scratch, &mut rebuilt);
        }
        assert_eq!(rebuilt.len(), full.len());
        for (i, (a, b)) in rebuilt.iter().zip(&full).enumerate() {
            assert!(a.re == b.re && a.im == b.im, "sample {i} differs");
        }
    }

    /// Every aligned and unaligned sub-range equals the same slice of the
    /// materialised frame exactly.
    #[test]
    fn range_matches_full_frame_slice_exactly() {
        let m = modulator();
        let symbols = vec![42usize, 3, 250];
        let full = m.frame_waveform(&symbols);
        let mut scratch = Vec::new();
        let sps = m.layout().samples_per_symbol;
        for &(a, b) in &[
            (0usize, full.len()),
            (5, sps + 7),
            (9 * sps - 1, 11 * sps + 1),
            (m.layout().downchirp_start, m.layout().data_start),
            (m.layout().data_start + 1, full.len() - 3),
        ] {
            let mut out = Vec::new();
            m.frame_waveform_range_into(&symbols, a..b, &mut scratch, &mut out);
            assert_eq!(out.len(), b - a, "range {a}..{b}");
            for (i, (x, y)) in out.iter().zip(&full[a..b]).enumerate() {
                assert!(x.re == y.re && x.im == y.im, "range {a}..{b} sample {i}");
            }
        }
    }

    /// Ranges past the frame end are clamped; inverted/empty ranges append
    /// nothing; output is appended, never cleared.
    #[test]
    fn range_clamping_and_append_semantics() {
        let m = modulator();
        let symbols = vec![9usize];
        let full = m.frame_waveform(&symbols);
        let mut scratch = Vec::new();
        let mut out = vec![Cf32::new(7.0, -7.0)];
        m.frame_waveform_range_into(
            &symbols,
            full.len()..full.len() + 100,
            &mut scratch,
            &mut out,
        );
        m.frame_waveform_range_into(&symbols, 10..10, &mut scratch, &mut out);
        m.frame_waveform_range_into(&symbols, full.len() - 2..usize::MAX, &mut scratch, &mut out);
        assert_eq!(out.len(), 3);
        assert_eq!(out[0], Cf32::new(7.0, -7.0));
        assert!(out[1].re == full[full.len() - 2].re && out[1].im == full[full.len() - 2].im);
        assert!(out[2].re == full[full.len() - 1].re && out[2].im == full[full.len() - 1].im);
    }
}
