//! The residual buffer: a retained copy of the capture that decoded
//! packets are progressively subtracted from.
//!
//! Lifecycle per receive call: [`ResidualBuffer::load`] copies the
//! capture in (reusing the allocation from the previous call — the
//! scratch-arena discipline of the demod hot path), then each
//! CRC-clean packet is removed with [`ResidualBuffer::cancel`]:
//! regenerate the frame from its decoded symbols, refine
//! timing/CFO/gain against the buffer (`crate::sic::estimate`), and
//! subtract the scaled reference ([`crate::sic::subtract`]). The
//! receiver then re-runs CIC over [`ResidualBuffer::samples`] to find
//! packets that were buried. A buffer is *not* kept across captures:
//! the streaming receiver reloads it from its bounded window every
//! push, so eviction stays the window's concern.
//!
//! Because the streaming receiver re-offers the same decoded packets on
//! consecutive pushes (a packet stays inside the retained window for
//! several chunks), the buffer memoizes regenerated reference waveforms
//! keyed by packet identity (symbols + quantized CFO). The cached copy
//! is the *pristine* modulated frame — `refine` adjusts its timing and
//! residual CFO in place against the current residual, so every hit
//! restores the untouched waveform before refinement runs.

use lora_dsp::Cf32;
use lora_phy::modulate::Modulator;

use crate::sic::estimate::refine;
use crate::sic::subtract::subtract_scaled;
use crate::sic::SicConfig;

/// Outcome of one attempted packet cancellation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CancelOutcome {
    /// The scaled reference was subtracted from the packet's span.
    Cancelled {
        /// How far the span's energy dropped, in dB.
        reduction_db: f64,
    },
    /// The fit captured no more of the span's energy than a noise-only
    /// fit would ([`SicConfig::min_match_db`]), or the frame does not
    /// overlap the buffer. Nothing was subtracted: forcing a misaligned
    /// or mis-decoded reference out would smear a structured artifact
    /// over every other packet's symbols.
    Abandoned,
}

/// How many distinct packet references the cache retains. Sized to the
/// packets plausibly alive in one streaming window (a handful per SF at
/// CIC's collision depths); beyond that, move-to-front eviction drops
/// the least recently offered packet.
const REF_CACHE_CAPACITY: usize = 16;

/// One memoized pristine reference waveform.
#[derive(Debug)]
struct CachedReference {
    sf: u8,
    cfo_bits: u64,
    symbols: Vec<usize>,
    wave: Vec<Cf32>,
}

/// Reusable arena for the residual-cancellation pass.
#[derive(Debug, Default)]
pub struct ResidualBuffer {
    residual: Vec<Cf32>,
    reference: Vec<Cf32>,
    /// Most-recently-used first; bounded by [`REF_CACHE_CAPACITY`].
    cache: Vec<CachedReference>,
    cache_hits: u64,
    cache_misses: u64,
}

impl ResidualBuffer {
    /// An empty buffer. No allocation happens until the first
    /// [`ResidualBuffer::load`], so receivers with SIC disabled can own
    /// one for free.
    pub fn new() -> Self {
        Self::default()
    }

    /// Copy `capture` in, replacing the previous residual and reusing
    /// the allocation.
    pub fn load(&mut self, capture: &[Cf32]) {
        self.residual.clear();
        self.residual.extend_from_slice(capture);
    }

    /// The current residual.
    pub fn samples(&self) -> &[Cf32] {
        &self.residual
    }

    /// Total energy of the current residual.
    pub(crate) fn energy(&self) -> f64 {
        lora_dsp::math::energy(&self.residual)
    }

    /// Cancel one decoded packet: regenerate its frame from `symbols`,
    /// refine timing/CFO/gain around (`frame_start`, `cfo_bins`), and
    /// subtract the scaled reference in place. Only CRC-clean packets
    /// should be offered — subtracting wrong symbols injects noise.
    pub fn cancel(
        &mut self,
        modulator: &Modulator,
        symbols: &[usize],
        frame_start: usize,
        cfo_bins: f64,
        cfg: &SicConfig,
    ) -> CancelOutcome {
        let params = *modulator.params();
        self.regenerate(modulator, symbols, cfo_bins);
        let Some(est) = refine(
            &params,
            &self.residual,
            &mut self.reference,
            frame_start,
            cfg,
        ) else {
            return CancelOutcome::Abandoned;
        };
        // Gate on the captured-energy ratio relative to the noise-fit
        // floor of 1/span.
        if est.match_ratio * est.span as f64 <= lora_dsp::math::from_db(cfg.min_match_db) {
            return CancelOutcome::Abandoned;
        }
        let start = est.frame_start;
        let end = (start + self.reference.len()).min(self.residual.len());
        let span = &mut self.residual[start..end];
        let e_before = lora_dsp::math::energy(span);
        subtract_scaled(span, &self.reference[..end - start], est.gain);
        let e_after = lora_dsp::math::energy(span);
        CancelOutcome::Cancelled {
            reduction_db: lora_dsp::math::db(e_before / e_after.max(f64::MIN_POSITIVE)),
        }
    }

    /// Fill `self.reference` with the packet's pristine modulated frame,
    /// serving repeats from the cache. On a miss the frame is modulated,
    /// CFO-rotated, and a copy stored before [`refine`] gets to mutate
    /// the working buffer.
    fn regenerate(&mut self, modulator: &Modulator, symbols: &[usize], cfo_bins: f64) {
        let params = *modulator.params();
        let cfo_bits = cfo_bins.to_bits();
        if let Some(i) = self.cache.iter().position(|e| {
            e.sf == params.sf().value() && e.cfo_bits == cfo_bits && e.symbols == symbols
        }) {
            self.reference.clear();
            self.reference.extend_from_slice(&self.cache[i].wave);
            // Move-to-front so the working set of a window stays resident.
            let entry = self.cache.remove(i);
            self.cache.insert(0, entry);
            self.cache_hits += 1;
            return;
        }
        modulator.frame_waveform_into(symbols, &mut self.reference);
        lora_phy::chirp::apply_cfo(&params, &mut self.reference, cfo_bins * params.bin_hz(), 0);
        self.cache.insert(
            0,
            CachedReference {
                sf: params.sf().value(),
                cfo_bits,
                symbols: symbols.to_vec(),
                wave: self.reference.clone(),
            },
        );
        self.cache.truncate(REF_CACHE_CAPACITY);
        self.cache_misses += 1;
    }

    /// Cumulative (hits, misses) of the reference-waveform cache over
    /// the buffer's lifetime. Callers that report per-call deltas should
    /// snapshot before and after.
    pub(crate) fn cache_counters(&self) -> (u64, u64) {
        (self.cache_hits, self.cache_misses)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lora_phy::chirp::apply_cfo;
    use lora_phy::params::LoraParams;

    fn params() -> LoraParams {
        LoraParams::new(8, 250e3, 4).unwrap()
    }

    #[test]
    fn cancel_removes_a_clean_packet() {
        let p = params();
        let m = Modulator::new(p);
        let symbols: Vec<usize> = (0..24).map(|i| (i * 91) % 256).collect();
        let mut wave = m.frame_waveform(&symbols);
        apply_cfo(&p, &mut wave, 0.4 * p.bin_hz(), 0);
        let mut cap = vec![Cf32::new(0.0, 0.0); wave.len() + 4000];
        for (c, w) in cap[1500..].iter_mut().zip(&wave) {
            *c += 0.7 * *w;
        }
        let mut buf = ResidualBuffer::new();
        buf.load(&cap);
        let cfg = SicConfig {
            depth: 1,
            ..SicConfig::default()
        };
        match buf.cancel(&m, &symbols, 1502, 0.35, &cfg) {
            CancelOutcome::Cancelled { reduction_db } => {
                assert!(reduction_db >= 40.0, "only {reduction_db:.1} dB");
            }
            other => panic!("expected cancellation, got {other:?}"),
        }
        assert!(buf.energy() < 1e-4 * lora_dsp::math::energy(&cap));
    }

    #[test]
    fn wrong_symbols_are_abandoned_and_leave_the_buffer_intact() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let p = params();
        let m = Modulator::new(p);
        let mut rng = StdRng::seed_from_u64(31);
        let cap = lora_channel::awgn::noise_buffer(&mut rng, 80_000);
        let mut buf = ResidualBuffer::new();
        buf.load(&cap);
        let before = buf.energy();
        let symbols: Vec<usize> = (0..24).map(|i| (i * 7) % 256).collect();
        let cfg = SicConfig {
            depth: 1,
            ..SicConfig::default()
        };
        assert_eq!(
            buf.cancel(&m, &symbols, 2000, 0.0, &cfg),
            CancelOutcome::Abandoned
        );
        assert_eq!(
            buf.energy(),
            before,
            "abandoned cancel must not touch samples"
        );
    }

    #[test]
    fn repeated_cancellation_hits_the_reference_cache() {
        let p = params();
        let m = Modulator::new(p);
        let symbols: Vec<usize> = (0..24).map(|i| (i * 91) % 256).collect();
        let mut wave = m.frame_waveform(&symbols);
        apply_cfo(&p, &mut wave, 0.4 * p.bin_hz(), 0);
        let mut cap = vec![Cf32::new(0.0, 0.0); wave.len() + 4000];
        for (c, w) in cap[1500..].iter_mut().zip(&wave) {
            *c += 0.7 * *w;
        }
        let cfg = SicConfig {
            depth: 1,
            ..SicConfig::default()
        };
        let mut buf = ResidualBuffer::new();
        // Same packet offered across two streaming pushes: one miss,
        // then a hit — and the hit must cancel just as cleanly, because
        // refine() only ever mutates the working copy.
        for push in 0..2 {
            buf.load(&cap);
            match buf.cancel(&m, &symbols, 1502, 0.35, &cfg) {
                CancelOutcome::Cancelled { reduction_db } => {
                    assert!(
                        reduction_db >= 40.0,
                        "push {push}: only {reduction_db:.1} dB"
                    );
                }
                other => panic!("push {push}: expected cancellation, got {other:?}"),
            }
        }
        assert_eq!(buf.cache_counters(), (1, 2 - 1));
        // A different packet identity is a miss, not a false hit.
        let other: Vec<usize> = (0..24).map(|i| (i * 7 + 3) % 256).collect();
        buf.load(&cap);
        buf.cancel(&m, &other, 1502, 0.35, &cfg);
        assert_eq!(buf.cache_counters(), (1, 2));
        // Same symbols at a different CFO is a different waveform.
        buf.load(&cap);
        buf.cancel(&m, &symbols, 1502, 0.36, &cfg);
        assert_eq!(buf.cache_counters(), (1, 3));
    }

    #[test]
    fn reference_cache_is_bounded() {
        let p = params();
        let m = Modulator::new(p);
        let cfg = SicConfig {
            depth: 1,
            ..SicConfig::default()
        };
        let cap = vec![Cf32::new(0.0, 0.0); 60_000];
        let mut buf = ResidualBuffer::new();
        buf.load(&cap);
        for k in 0..REF_CACHE_CAPACITY + 4 {
            let symbols: Vec<usize> = (0..8).map(|i| (i * 13 + k) % 256).collect();
            buf.cancel(&m, &symbols, 1000, 0.0, &cfg);
        }
        assert!(buf.cache.len() <= REF_CACHE_CAPACITY);
        let (hits, misses) = buf.cache_counters();
        assert_eq!(hits, 0);
        assert_eq!(misses, (REF_CACHE_CAPACITY + 4) as u64);
    }

    #[test]
    fn load_reuses_the_buffer() {
        let mut buf = ResidualBuffer::new();
        buf.load(&[Cf32::new(1.0, 0.0); 64]);
        let cap_before = buf.residual.capacity();
        buf.load(&[Cf32::new(0.5, 0.0); 32]);
        assert_eq!(buf.samples().len(), 32);
        assert_eq!(buf.residual.capacity(), cap_before);
    }
}
