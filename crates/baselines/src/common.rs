//! Shared interface and helpers for all collision receivers.

use lora_dsp::{peaks, Cf32};
use lora_phy::modulate::{FrameLayout, PREAMBLE_UPCHIRPS};
use lora_phy::Demodulator;

/// One packet as recovered by a receiver under test.
#[derive(Debug, Clone)]
pub struct RxPacket {
    /// Sample index of the frame start in the capture.
    pub frame_start: usize,
    /// Decoded payload, `None` if FEC/CRC failed.
    pub payload: Option<Vec<u8>>,
    /// Demodulated data symbols (empty if demodulation was aborted).
    pub symbols: Vec<usize>,
}

impl RxPacket {
    /// True if the payload decoded and passed CRC.
    pub fn ok(&self) -> bool {
        self.payload.is_some()
    }
}

/// The interface the network simulator drives. Every scheme — CIC and
/// all baselines — implements this; none receives any side information
/// beyond the IQ capture.
pub trait CollisionReceiver {
    /// Scheme name for reports ("CIC", "FTrack", "Choir", "LoRa").
    fn name(&self) -> &'static str;

    /// Detect and decode every packet the scheme can recover.
    fn receive(&self, capture: &[Cf32]) -> Vec<RxPacket>;

    /// Packet-detection positions only (for the Fig 32–35 detection-rate
    /// comparison). Default: the frame starts of `receive`.
    fn detect_starts(&self, capture: &[Cf32]) -> Vec<usize> {
        self.receive(capture)
            .into_iter()
            .map(|p| p.frame_start)
            .collect()
    }
}

/// Refined frame estimate shared by the baseline receivers.
#[derive(Debug, Clone, Copy)]
pub(crate) struct FrameEstimate {
    /// Sample index of the frame start.
    pub frame_start: usize,
    /// CFO estimate in bins.
    pub cfo_bins: f64,
}

/// Refine a coarse (±half-symbol) frame-start estimate using the packet's
/// own 2.25 down-chirps — the synchronisation step every real LoRa
/// receiver performs — and estimate CFO from the preamble.
///
/// Returns `None` when the refined preamble fails a basic consistency
/// check (majority of preamble windows agreeing on one bin).
pub(crate) fn refine_frame(
    demod: &Demodulator,
    layout: &FrameLayout,
    capture: &[Cf32],
    coarse_start: usize,
) -> Option<FrameEstimate> {
    let sps = demod.params().samples_per_symbol();
    let n = demod.params().n_bins();

    // Locate the packet's own 2.25 down-chirps near their expected spot
    // and run the CFO-tolerant FFT synchronisation (a time-domain matched
    // filter would be nulled by a COTS crystal's multi-cycle rotation).
    let guess = coarse_start + layout.downchirp_start + sps / 2;
    let w = cic::preamble::best_downchirp_window(demod, capture, guess, sps + sps / 2, 3.0)?;
    // Judge each frame-start hypothesis by preamble consistency (a
    // misaligned one sees fewer agreeing up-chirp windows).
    let quality = |frame_start: usize| -> Option<(usize, f64)> {
        if frame_start + layout.data_start > capture.len() {
            return None;
        }
        // Vote over the top peaks of every preamble window: under a
        // collision the preamble tone is not necessarily the argmax, but
        // it is the only bin that recurs in all 8 windows.
        let mut window_peaks: Vec<Vec<peaks::Peak>> = Vec::with_capacity(PREAMBLE_UPCHIRPS);
        for k in 0..PREAMBLE_UPCHIRPS {
            let a = frame_start + k * sps;
            let spec = demod.folded_spectrum(&demod.dechirp(&capture[a..a + sps]));
            let mut ps = peaks::find_peaks(&spec, 8.0, 1);
            ps.truncate(6);
            window_peaks.push(ps);
        }
        let mut best: (usize, usize) = (0, 0);
        for cand in window_peaks.iter().flatten().map(|p| p.bin) {
            let votes = window_peaks
                .iter()
                .filter(|ps| {
                    ps.iter()
                        .any(|p| peaks::cyclic_bin_distance(p.bin, cand, n) <= 1)
                })
                .count();
            if votes > best.1 {
                best = (cand, votes);
            }
        }
        let (mode, votes) = best;
        if votes < PREAMBLE_UPCHIRPS / 2 + 1 {
            return None;
        }
        // SYNC confirmation: some peak in the sync windows must sit at
        // +8 / +16 bins relative to the preamble mode. Random data peaks
        // rarely do, which kills coincidental 5-of-8 voting runs.
        let sync_ok = |k: usize, expect: usize| -> bool {
            let a = frame_start + k * sps;
            if a + sps > capture.len() {
                return false;
            }
            let spec = demod.folded_spectrum(&demod.dechirp(&capture[a..a + sps]));
            peaks::find_peaks(&spec, 8.0, 1).iter().take(6).any(|p| {
                let d = (p.bin + n - mode) % n;
                d.abs_diff(expect) <= 1
            })
        };
        if !sync_ok(PREAMBLE_UPCHIRPS, 8) && !sync_ok(PREAMBLE_UPCHIRPS + 1, 16) {
            return None;
        }
        let fracs: Vec<f64> = window_peaks
            .iter()
            .filter_map(|ps| {
                ps.iter()
                    .find(|p| peaks::cyclic_bin_distance(p.bin, mode, n) <= 1)
                    .map(|p| p.frac_bin)
            })
            .collect();
        Some((votes, circular_mean(&fracs, n as f64)))
    };
    // Tiebreak near-equal-vote hypotheses (the repeated-C0 preamble
    // verifies at half- and full-symbol shifts too) by down-chirp
    // coherence: only the true alignment puts a full-duration down-chirp
    // tone in *both* of its down-chirp windows, so the min over the two
    // exposes every shift. Vote counts can differ by one from noise, so
    // shortlist near-best quality first, then let coherence decide.
    let dc_coherence = |frame_start: usize| -> f64 {
        let mut min_power = f64::INFINITY;
        for m in 0..2 {
            let a = frame_start + layout.downchirp_start + m * sps;
            if a + sps > capture.len() {
                return 0.0;
            }
            let peak = demod
                .folded_spectrum(&demod.updechirp(&capture[a..a + sps]))
                .argmax()
                .map(|(_, p)| p)
                .unwrap_or(0.0);
            min_power = min_power.min(peak);
        }
        min_power
    };
    let verified: Vec<(usize, usize, f64, f64)> =
        cic::preamble::sync_candidates(demod, layout, capture, w)
            .into_iter()
            .filter_map(|fs| quality(fs).map(|(votes, f_up)| (fs, votes, f_up, dc_coherence(fs))))
            .collect();
    let max_votes = verified.iter().map(|v| v.1).max()?;
    let (frame_start, f_up) = verified
        .into_iter()
        .filter(|v| v.1 + 1 >= max_votes)
        .max_by(|a, b| a.3.total_cmp(&b.3))
        .map(|(fs, _, f_up, _)| (fs, f_up))?;

    // f_down from the first down-chirp window.
    let dpos = frame_start + layout.downchirp_start;
    if dpos + sps > capture.len() {
        return None;
    }
    let dspec = demod.folded_spectrum(&demod.updechirp(&capture[dpos..dpos + sps]));
    let (dbin, _) = dspec.argmax()?;
    let f_down = peaks::refine_sinc(&dspec, dbin);

    let s_up = signed_bin(f_up, n as f64);
    let s_down = signed_bin(f_down, n as f64);
    let cfo = (s_up + s_down) / 2.0;
    let t_bins = (s_up - s_down) / 2.0;
    let t_samples = (t_bins * demod.params().oversampling() as f64).round() as i64;
    let refined = frame_start as i64 - t_samples;
    let frame_start = usize::try_from(refined).unwrap_or(frame_start);
    Some(FrameEstimate {
        frame_start,
        cfo_bins: cfo,
    })
}

/// Circular mean of positions on a ring of circumference `n`.
pub(crate) fn circular_mean(xs: &[f64], n: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let (mut s, mut c) = (0.0f64, 0.0f64);
    for &x in xs {
        let a = std::f64::consts::TAU * x / n;
        s += a.sin();
        c += a.cos();
    }
    lora_dsp::math::wrap(s.atan2(c) / std::f64::consts::TAU * n, n)
}

/// Map a position on `[0, n)` to a signed offset in `(-n/2, n/2]`.
pub(crate) fn signed_bin(x: f64, n: f64) -> f64 {
    let w = lora_dsp::math::wrap(x, n);
    if w > n / 2.0 {
        w - n
    } else {
        w
    }
}

/// Derotate a window by `-cfo_bins` (in bins) in place.
pub(crate) fn derotate(demod: &Demodulator, win: &mut [Cf32], cfo_bins: f64) {
    let p = demod.params();
    let cfo_hz = cfo_bins * p.bin_hz();
    let step = -std::f64::consts::TAU * cfo_hz / p.sample_rate_hz();
    for (i, c) in win.iter_mut().enumerate() {
        let ph = (step * i as f64) % std::f64::consts::TAU;
        *c *= Cf32::from_polar(1.0, ph as f32);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lora_channel::{add_unit_noise, amplitude_for_snr, superpose, Emission};
    use lora_phy::packet::Transceiver;
    use lora_phy::params::{CodeRate, LoraParams};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn params() -> LoraParams {
        LoraParams::new(8, 250e3, 4).unwrap()
    }

    #[test]
    fn refine_recovers_exact_start_and_cfo() {
        let p = params();
        let x = Transceiver::new(p, CodeRate::Cr45);
        let wave = x.waveform(&[1, 2, 3, 4]);
        let start = 4321usize;
        let cfo_true = 1.7 * p.bin_hz();
        let mut cap = superpose(
            &p,
            start + wave.len() + 1000,
            &[Emission {
                waveform: wave,
                amplitude: amplitude_for_snr(20.0, p.oversampling()),
                start_sample: start,
                cfo_hz: cfo_true,
            }],
        );
        let mut rng = StdRng::seed_from_u64(9);
        add_unit_noise(&mut rng, &mut cap);
        let demod = Demodulator::new(p);
        let layout = FrameLayout::new(&p);
        // Coarse estimate off by a third of a symbol.
        let est = refine_frame(&demod, &layout, &cap, start + 341).unwrap();
        assert!(est.frame_start.abs_diff(start) <= 3, "{}", est.frame_start);
        assert!((est.cfo_bins - 1.7).abs() < 0.3, "cfo {}", est.cfo_bins);
    }

    #[test]
    fn refine_rejects_noise() {
        let p = params();
        let mut rng = StdRng::seed_from_u64(10);
        let cap = lora_channel::awgn::noise_buffer(&mut rng, 40_000);
        let demod = Demodulator::new(p);
        let layout = FrameLayout::new(&p);
        assert!(refine_frame(&demod, &layout, &cap, 5000).is_none());
    }

    #[test]
    fn derotate_cancels_cfo() {
        let p = params();
        let demod = Demodulator::new(p);
        let s = 90usize;
        let mut w = lora_phy::chirp::symbol_waveform(&p, s);
        lora_phy::chirp::apply_cfo(&p, &mut w, 3.0 * p.bin_hz(), 0);
        assert_eq!(demod.demodulate_symbol(&w), Some(93));
        derotate(&demod, &mut w, 3.0);
        assert_eq!(demod.demodulate_symbol(&w), Some(90));
    }
}
