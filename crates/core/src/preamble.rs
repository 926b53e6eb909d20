//! Packet detection (paper §5.8).
//!
//! The conventional LoRa detector de-chirps with `C_0^*` and looks for 8
//! consecutive equal-frequency peaks — but under collisions every ongoing
//! data symbol is also an up-chirp, so the spectrum is a clutter of peaks
//! (paper Fig 19). CIC instead searches for the preamble's 2.25
//! **down-chirps** by multiplying with the *up*-chirp: a down-chirp
//! becomes a clean constant tone while data up-chirps smear into
//! double-slope chirps (paper Fig 20).
//!
//! Having located the down-chirps, the detector walks back to the 8
//! up-chirps to confirm the preamble and to estimate CFO and peak power,
//! and uses the classic `f_up`/`f_down` combination to split CFO from
//! residual timing error.

use lora_dsp::{peaks, Cf32};
use lora_phy::modulate::{FrameLayout, PREAMBLE_UPCHIRPS};
use lora_phy::params::LoraParams;
use lora_phy::Demodulator;

/// Detection threshold for the down-chirp preamble scan: the
/// up-dechirped peak must exceed this factor times the window median.
const PREAMBLE_PEAK_THRESHOLD: f64 = 8.0;

/// Minimum number of the 8 preamble up-chirps that must agree on one
/// bin for a detection to be confirmed (paper §5.8).
const PREAMBLE_MIN_UPCHIRPS: usize = 5;

/// A confirmed packet detection.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Detection {
    /// Sample index of the frame start (first preamble up-chirp).
    pub frame_start: usize,
    /// Estimated CFO in bins (signed, integer + fractional part).
    pub cfo_bins: f64,
    /// Mean peak power over the preamble up-chirps (full-window FFT).
    pub peak_power: f64,
    /// Detection score (peak-to-median ratio of the down-chirp window).
    pub score: f64,
}

/// Down-chirp based preamble detector (the CIC method).
pub(crate) struct PreambleDetector {
    demod: Demodulator,
    layout: FrameLayout,
}

impl PreambleDetector {
    /// Build a detector.
    pub(crate) fn new(params: LoraParams) -> Self {
        Self {
            demod: Demodulator::new(params),
            layout: FrameLayout::new(&params),
        }
    }

    /// Parameters in use.
    pub(crate) fn params(&self) -> &LoraParams {
        self.demod.params()
    }

    /// Scan a capture and return all confirmed detections, sorted by
    /// frame start.
    pub(crate) fn detect(&self, capture: &[Cf32]) -> Vec<Detection> {
        let sps = self.params().samples_per_symbol();
        if capture.len() < self.layout.data_start {
            return Vec::new();
        }
        let hop = sps / 2;

        // Coarse scan: up-dechirp every hop and score the peak.
        let mut coarse: Vec<(usize, f64)> = Vec::new();
        let mut w = 0;
        while w + sps <= capture.len() {
            let spec = self
                .demod
                .folded_spectrum(&self.demod.updechirp(&capture[w..w + sps]));
            if let Some((_, p)) = spec.argmax() {
                let floor = spec.median_power();
                if floor > 0.0 && p / floor >= PREAMBLE_PEAK_THRESHOLD {
                    coarse.push((w, p / floor));
                }
            }
            w += hop;
        }

        // Cluster adjacent hits: the 2.25 down-chirps light up several
        // consecutive windows. Under load, down-chirp regions of
        // *different* packets can sit side by side, so a cluster may hold
        // more than one packet: confirm several windows per cluster and
        // keep every distinct verified frame.
        let mut clusters: Vec<Vec<(usize, f64)>> = Vec::new();
        for (pos, score) in coarse {
            match clusters.last_mut() {
                Some(cluster) if pos - cluster.last().unwrap().0 <= sps => {
                    cluster.push((pos, score));
                }
                _ => clusters.push(vec![(pos, score)]),
            }
        }

        let mut detections: Vec<Detection> = Vec::new();
        for mut cluster in clusters {
            // Order windows strongest-first: the highest score can come
            // from a window straddling the sync words and the down-chirps
            // whose sync estimate is unusable, so weaker in-cluster
            // windows are tried too.
            cluster.sort_by(|a, b| b.1.total_cmp(&a.1));
            for &(pos, score) in cluster.iter().take(4) {
                if let Some(det) = self.confirm(capture, pos, score) {
                    let dup = detections
                        .iter()
                        .any(|d| d.frame_start.abs_diff(det.frame_start) < sps / 2);
                    if !dup {
                        detections.push(det);
                    }
                }
            }
        }
        detections.sort_by_key(|d| d.frame_start);
        detections
    }

    /// Refine a coarse down-chirp hit into a confirmed detection.
    ///
    /// Fine time alignment is FFT-based (the classic LoRa `f_up`/`f_down`
    /// combination), **not** a time-domain matched filter: a COTS crystal
    /// offset of ±10 ppm rotates the carrier through several full cycles
    /// per symbol and nulls any long coherent correlation, while the
    /// de-chirped peak positions simply shift by the CFO.
    fn confirm(&self, capture: &[Cf32], coarse_pos: usize, score: f64) -> Option<Detection> {
        // Secondary discriminator between candidates: the weaker of the
        // up-dechirped peaks at the two hypothesised full down-chirp
        // positions. A half-symbol-shifted hypothesis still verifies (the
        // repeated-C0 preamble aliases into stable tones at any offset)
        // but each of its "down-chirp" windows is only half a down-chirp
        // (~6 dB weaker); a full-symbol shift lands one window on a real
        // down-chirp but the other on the quarter-chirp + data, so the
        // *min* over both windows exposes every shift.
        let dc_coherence = |frame_start: usize| -> (f64, f64) {
            let sps = self.params().samples_per_symbol();
            let mut min_power = f64::INFINITY;
            let mut first_ratio = 0.0;
            for m in 0..2 {
                let a = frame_start + self.layout.downchirp_start + m * sps;
                if a + sps > capture.len() {
                    return (0.0, 0.0);
                }
                let spec = self
                    .demod
                    .folded_spectrum(&self.demod.updechirp(&capture[a..a + sps]));
                let peak = spec.argmax().map(|(_, p)| p).unwrap_or(0.0);
                min_power = min_power.min(peak);
                if m == 0 {
                    let floor = spec.median_power();
                    first_ratio = if floor > 0.0 { peak / floor } else { 0.0 };
                }
            }
            (min_power, first_ratio)
        };
        let mut verified: Vec<(Detection, usize, f64)> = Vec::new();
        for frame_start in sync_candidates(&self.demod, &self.layout, capture, coarse_pos) {
            if let Some((det, votes, syncs)) = self.verify_preamble(capture, frame_start, score) {
                let quality = votes + syncs;
                let (dc, dc_ratio) = dc_coherence(det.frame_start);
                // Absolute gate: a true frame has a strong coherent tone
                // in its first down-chirp window; coincidental voting
                // runs in data regions do not.
                if dc_ratio < PREAMBLE_PEAK_THRESHOLD {
                    continue;
                }
                verified.push((det, quality, dc));
            }
        }
        // Preamble-vote counts can differ by one from noise alone, while
        // the down-chirp coherence gap between the true alignment and any
        // shifted one is ~6 dB. Shortlist near-best quality, then let
        // coherence decide.
        let max_q = verified.iter().map(|v| v.1).max()?;
        verified
            .into_iter()
            .filter(|v| v.1 + 1 >= max_q)
            .max_by(|a, b| a.2.total_cmp(&b.2))
            .map(|(d, _, _)| d)
    }

    /// Check the 8 up-chirps + sync words at a hypothesised frame start;
    /// estimate CFO, timing correction and peak power.
    fn verify_preamble(
        &self,
        capture: &[Cf32],
        frame_start: usize,
        score: f64,
    ) -> Option<(Detection, usize, usize)> {
        let sps = self.params().samples_per_symbol();
        let n = self.params().n_bins();
        if frame_start + self.layout.data_start > capture.len() {
            return None;
        }

        // De-chirp the 8 preamble windows. Under a collision the preamble
        // tone is not necessarily each window's argmax (ongoing data
        // symbols from other packets add their own peaks), so collect the
        // top peaks of every window and vote across windows: the preamble
        // bin repeats in all 8, interfering data bins change per symbol.
        // Each peak's power is its 3-bin lobe energy, matching how the
        // demodulator's power filter measures candidates.
        let mut window_peaks: Vec<Vec<peaks::Peak>> = Vec::with_capacity(PREAMBLE_UPCHIRPS);
        for k in 0..PREAMBLE_UPCHIRPS {
            let a = frame_start + k * sps;
            let de = self.demod.dechirp(&capture[a..a + sps]);
            let spec = self.demod.folded_spectrum(&de);
            let mut ps = peaks::find_peaks(&spec, PREAMBLE_PEAK_THRESHOLD, 1);
            ps.truncate(6);
            for p in &mut ps {
                p.power = spec[p.bin] + spec[(p.bin + 1) % n] + spec[(p.bin + n - 1) % n];
            }
            window_peaks.push(ps);
        }
        let all_bins: Vec<usize> = window_peaks
            .iter()
            .flat_map(|ps| ps.iter().map(|p| p.bin))
            .collect();
        // Count each window at most once per candidate bin.
        let mut best: (usize, usize) = (0, 0);
        for &candidate in &all_bins {
            let votes = window_peaks
                .iter()
                .filter(|ps| {
                    ps.iter()
                        .any(|p| peaks::cyclic_bin_distance(p.bin, candidate, n) <= 1)
                })
                .count();
            if votes > best.1 {
                best = (candidate, votes);
            }
        }
        let (mode_bin, votes) = best;
        if votes < PREAMBLE_MIN_UPCHIRPS {
            return None;
        }

        // Fractional positions and powers of the preamble tone, taken from
        // the windows where it was found.
        let mut fracs: Vec<f64> = Vec::new();
        let mut powers: Vec<f64> = Vec::new();
        for ps in &window_peaks {
            if let Some(p) = ps
                .iter()
                .find(|p| peaks::cyclic_bin_distance(p.bin, mode_bin, n) <= 1)
            {
                fracs.push(p.frac_bin);
                powers.push(p.power);
            }
        }
        if powers.is_empty() {
            return None;
        }

        // SYNC check — this is what disambiguates the two down-chirp
        // hypotheses: with the frame start off by one symbol, the windows
        // at positions 8 and 9 hold (sync_y, down-chirp) or (up-chirp,
        // sync_x) instead of (sync_x, sync_y), and no peak lands on the
        // expected +8 / +16 bins relative to the preamble mode.
        let sync_has_diff = |k: usize, expect: usize| -> bool {
            let a = frame_start + k * sps;
            if a + sps > capture.len() {
                return false;
            }
            let spec = self
                .demod
                .folded_spectrum(&self.demod.dechirp(&capture[a..a + sps]));
            let ps = peaks::find_peaks(&spec, PREAMBLE_PEAK_THRESHOLD, 1);
            ps.iter().take(6).any(|p| {
                let d = (p.bin + n - mode_bin) % n;
                d.abs_diff(expect) <= 1 || d == n - 1 && expect == 0
            })
        };
        let sync0_ok = sync_has_diff(PREAMBLE_UPCHIRPS, 8);
        let sync1_ok = sync_has_diff(PREAMBLE_UPCHIRPS + 1, 16);
        if !sync0_ok && !sync1_ok {
            return None;
        }
        let sync_count = sync0_ok as usize + sync1_ok as usize;

        // f_up: circular mean of the preamble tone's fractional positions.
        let f_up = circular_mean(&fracs, n as f64);

        // f_down: circular mean over both full down-chirp windows — at
        // sub-noise SNR every fraction of a bin of CFO accuracy matters
        // (a residual above ~0.2 bins starts flipping symbol roundings).
        let mut f_downs = Vec::with_capacity(2);
        for m in 0..2 {
            let dpos = frame_start + self.layout.downchirp_start + m * sps;
            if dpos + sps > capture.len() {
                continue;
            }
            let up_de = self.demod.updechirp(&capture[dpos..dpos + sps]);
            let dspec = self.demod.folded_spectrum(&up_de);
            if let Some((dbin, p)) = dspec.argmax() {
                if p > 0.0 {
                    f_downs.push(peaks::refine_sinc(&dspec, dbin));
                }
            }
        }
        if f_downs.is_empty() {
            return None;
        }
        let f_down = circular_mean(&f_downs, n as f64);

        // Split into CFO and timing error (both signed, in bins):
        //   f_up = cfo + t, f_down = cfo - t  (mod n)
        // Both CFO (crystal budget: a few bins) and residual timing (the
        // matched filter is within a few samples) are small, so the signed
        // mapping cannot wrap.
        let nu = n as f64;
        let s_up = signed_bin(f_up, nu);
        let s_down = signed_bin(f_down, nu);
        let cfo = (s_up + s_down) / 2.0;
        let t_bins = (s_up - s_down) / 2.0;
        let t_samples = (t_bins * self.params().oversampling() as f64).round() as i64;
        let refined = frame_start as i64 - t_samples;
        let frame_start = usize::try_from(refined).unwrap_or(frame_start);

        let peak_power = powers.iter().sum::<f64>() / powers.len() as f64;
        Some((
            Detection {
                frame_start,
                cfo_bins: cfo,
                peak_power,
                score,
            },
            votes,
            sync_count,
        ))
    }
}

/// Find the window position with the strongest down-chirp response
/// (up-dechirped peak over median) near `around`, scanning ±`span` at
/// quarter-symbol hops. Returns `None` when nothing exceeds `threshold`.
pub fn best_downchirp_window(
    demod: &Demodulator,
    capture: &[Cf32],
    around: usize,
    span: usize,
    threshold: f64,
) -> Option<usize> {
    let sps = demod.params().samples_per_symbol();
    let lo = around.saturating_sub(span);
    let hi = (around + span).min(capture.len().saturating_sub(sps));
    let mut best: Option<(usize, f64)> = None;
    let mut w = lo;
    while w <= hi {
        let spec = demod.folded_spectrum(&demod.updechirp(&capture[w..w + sps]));
        if let Some((_, p)) = spec.argmax() {
            let floor = spec.median_power();
            if floor > 0.0 {
                let score = p / floor;
                if score >= threshold && best.map(|(_, s)| score > s).unwrap_or(true) {
                    best = Some((w, score));
                }
            }
        }
        w += sps / 4;
    }
    best.map(|(w, _)| w)
}

/// CFO-tolerant fine synchronisation: given a window `w` known to contain
/// down-chirp energy, combine the up-dechirped down-chirp frequency
/// `f_down = δf − τ` with the de-chirped preamble frequency
/// `f_up = δf + τ` (both mod the band) to solve for the window-to-frame
/// offset τ, and return the candidate frame starts.
///
/// Both sums are known only mod the band, so τ carries a half-symbol
/// ambiguity, and `w` may sit over either full down-chirp — the caller
/// verifies each returned candidate against the preamble and keeps the
/// best (at most 8 candidates).
pub fn sync_candidates(
    demod: &Demodulator,
    layout: &FrameLayout,
    capture: &[Cf32],
    w: usize,
) -> Vec<usize> {
    let sps = demod.params().samples_per_symbol();
    let os = demod.params().oversampling();
    let n = demod.params().n_bins();
    if w + sps > capture.len() {
        return Vec::new();
    }

    // f_down: fractional peak of the up-dechirped down-chirp window.
    let dspec = demod.folded_spectrum(&demod.updechirp(&capture[w..w + sps]));
    let Some((dbin, dpow)) = dspec.argmax() else {
        return Vec::new();
    };
    if dpow <= 0.0 {
        return Vec::new();
    }
    let f_down = peaks::refine_sinc(&dspec, dbin);

    // f_up: the preamble tone, 5-7 symbols before the down-chirps. Vote
    // across three windows with multi-peak extraction (ongoing collisions
    // may out-power the preamble tone in any single window).
    let mut window_peaks: Vec<Vec<peaks::Peak>> = Vec::new();
    for back in [5usize, 6, 7] {
        let Some(a) = w.checked_sub(back * sps) else {
            continue;
        };
        let spec = demod.folded_spectrum(&demod.dechirp(&capture[a..a + sps]));
        let mut ps = peaks::find_peaks(&spec, 3.0, 1);
        ps.truncate(6);
        window_peaks.push(ps);
    }
    if window_peaks.is_empty() {
        return Vec::new();
    }
    let mut best: Option<(f64, usize, f64)> = None; // (frac_pos, votes, power)
    for cand in window_peaks.iter().flatten() {
        let votes = window_peaks
            .iter()
            .filter(|ps| {
                ps.iter()
                    .any(|p| peaks::cyclic_bin_distance(p.bin, cand.bin, n) <= 1)
            })
            .count();
        let better = match best {
            None => true,
            Some((_, v, pow)) => votes > v || (votes == v && cand.power > pow),
        };
        if better {
            best = Some((cand.frac_bin, votes, cand.power));
        }
    }
    let Some((f_up, _, _)) = best else {
        return Vec::new();
    };

    // Solve: f_up - f_down = 2τ/os (mod n) => τ has a half-symbol
    // ambiguity; each τ candidate pairs with the down-chirp index
    // hypotheses m ∈ {0, 1}.
    let two_tau_bins = lora_dsp::math::wrap(f_up - f_down, n as f64);
    let tau_a = (two_tau_bins / 2.0 * os as f64).round() as i64;
    let tau_b = (tau_a + sps as i64 / 2) % sps as i64;
    let mut out = Vec::new();
    for tau in [tau_a, tau_b] {
        // m = -1 covers a coarse window that starts slightly *before*
        // the first down-chirp (over the sync tail); the preamble
        // verification prunes wrong hypotheses.
        for m in [-1i64, 0, 1] {
            let frame = w as i64 - tau - layout.downchirp_start as i64 - m * sps as i64;
            // Tolerate a few samples of negative edge error.
            let frame = if (-8..0).contains(&frame) { 0 } else { frame };
            if frame >= 0 && !out.contains(&(frame as usize)) {
                out.push(frame as usize);
            }
        }
    }
    out
}

/// Conventional up-chirp preamble scan (standard LoRa / FTrack style):
/// de-chirp at symbol hops and look for `PREAMBLE_UPCHIRPS` consecutive
/// windows whose strongest peak stays on one bin. Used as the baseline in
/// the Fig 32–35 comparison and by the baseline receivers.
pub fn upchirp_scan(demod: &Demodulator, capture: &[Cf32], peak_threshold: f64) -> Vec<Detection> {
    let sps = demod.params().samples_per_symbol();
    let n = demod.params().n_bins();
    // Symbol-rate hop: a window offset τ into the repeated C_0 sequence
    // peaks at the same bin regardless of τ (tail and head segments alias
    // to one tone), so consecutive symbol-length windows inside the
    // preamble agree on one bin. Finer hops would alternate the apparent
    // bin by the hop offset and break the run.
    let mut window_peaks: Vec<Vec<peaks::Peak>> = Vec::new();
    let mut w = 0;
    while w + sps <= capture.len() {
        let spec = demod.folded_spectrum(&demod.dechirp(&capture[w..w + sps]));
        let mut ps = peaks::find_peaks(&spec, peak_threshold, 1);
        ps.truncate(4);
        window_peaks.push(ps);
        w += sps;
    }

    // A preamble shows one bin recurring in (nearly) 8 consecutive
    // windows; data symbols from other packets change bin every window.
    // Vote each candidate bin over a sliding 8-window span, keeping the
    // top few peaks per window so a collision cannot mask the run.
    let needed = PREAMBLE_UPCHIRPS - 2;
    let mut detections: Vec<Detection> = Vec::new();
    let mut i = 0usize;
    while i + PREAMBLE_UPCHIRPS <= window_peaks.len() {
        let span = &window_peaks[i..i + PREAMBLE_UPCHIRPS];
        let mut best: Option<(usize, usize, f64)> = None; // (bin, votes, power)
        for cand in window_peaks[i].iter().map(|p| p.bin) {
            let votes = span
                .iter()
                .filter(|ps| {
                    ps.iter()
                        .any(|p| peaks::cyclic_bin_distance(p.bin, cand, n) <= 1)
                })
                .count();
            let power: f64 = span
                .iter()
                .filter_map(|ps| {
                    ps.iter()
                        .find(|p| peaks::cyclic_bin_distance(p.bin, cand, n) <= 1)
                        .map(|p| p.power)
                })
                .sum::<f64>()
                / votes.max(1) as f64;
            if best.map(|(_, v, _)| votes > v).unwrap_or(true) {
                best = Some((cand, votes, power));
            }
        }
        match best {
            Some((bin, votes, power)) if votes >= needed => {
                detections.push(Detection {
                    frame_start: i * sps,
                    cfo_bins: bin as f64,
                    peak_power: power,
                    score: votes as f64,
                });
                // Skip past this preamble so it fires once.
                i += PREAMBLE_UPCHIRPS;
            }
            _ => i += 1,
        }
    }
    detections
}

/// Circular mean of positions on a ring of circumference `n`.
fn circular_mean(xs: &[f64], n: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let (mut s, mut c) = (0.0f64, 0.0f64);
    for &x in xs {
        let a = std::f64::consts::TAU * x / n;
        s += a.sin();
        c += a.cos();
    }
    let mean = s.atan2(c) / std::f64::consts::TAU * n;
    lora_dsp::math::wrap(mean, n)
}

/// Map a position on `[0, n)` to a signed offset in `(-n/2, n/2]`.
fn signed_bin(x: f64, n: f64) -> f64 {
    let w = lora_dsp::math::wrap(x, n);
    if w > n / 2.0 {
        w - n
    } else {
        w
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lora_channel::{add_unit_noise, amplitude_for_snr, superpose, Emission};
    use lora_phy::packet::Transceiver;
    use lora_phy::params::CodeRate;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn params() -> LoraParams {
        LoraParams::new(8, 250e3, 4).unwrap()
    }

    fn capture_with_packet(
        snr_db: f64,
        start: usize,
        cfo_hz: f64,
        seed: u64,
    ) -> (Vec<Cf32>, usize) {
        let p = params();
        let x = Transceiver::new(p, CodeRate::Cr45);
        let payload: Vec<u8> = (0..16).collect();
        let wave = x.waveform(&payload);
        let len = start + wave.len() + 2048;
        let mut cap = superpose(
            &p,
            len,
            &[Emission {
                waveform: wave,
                amplitude: amplitude_for_snr(snr_db, p.oversampling()),
                start_sample: start,
                cfo_hz,
            }],
        );
        let mut rng = StdRng::seed_from_u64(seed);
        add_unit_noise(&mut rng, &mut cap);
        (cap, start)
    }

    #[test]
    fn detects_clean_packet_at_exact_start() {
        let (cap, start) = capture_with_packet(20.0, 3000, 0.0, 1);
        let det = PreambleDetector::new(params());
        let ds = det.detect(&cap);
        assert_eq!(ds.len(), 1, "detections: {ds:?}");
        assert!(
            ds[0].frame_start.abs_diff(start) <= 2,
            "start {} vs {}",
            ds[0].frame_start,
            start
        );
        assert!(ds[0].cfo_bins.abs() < 0.3, "cfo {}", ds[0].cfo_bins);
    }

    #[test]
    fn estimates_cfo() {
        let p = params();
        let cfo_bins_true = 2.4;
        let cfo_hz = cfo_bins_true * p.bin_hz();
        let (cap, start) = capture_with_packet(25.0, 5000, cfo_hz, 2);
        let det = PreambleDetector::new(p);
        let ds = det.detect(&cap);
        assert_eq!(ds.len(), 1);
        assert!(
            (ds[0].cfo_bins - cfo_bins_true).abs() < 0.3,
            "cfo est {} true {}",
            ds[0].cfo_bins,
            cfo_bins_true
        );
        assert!(ds[0].frame_start.abs_diff(start) <= 3);
    }

    #[test]
    fn detects_at_low_snr() {
        let (cap, start) = capture_with_packet(-2.0, 4096, 0.0, 3);
        let det = PreambleDetector::new(params());
        let ds = det.detect(&cap);
        assert_eq!(ds.len(), 1, "sub-noise packet missed");
        assert!(ds[0].frame_start.abs_diff(start) <= 4);
    }

    #[test]
    fn no_false_detection_in_pure_noise() {
        let p = params();
        let mut rng = StdRng::seed_from_u64(4);
        let cap = lora_channel::awgn::noise_buffer(&mut rng, 60_000);
        let det = PreambleDetector::new(p);
        assert!(det.detect(&cap).is_empty());
    }

    #[test]
    fn detects_two_overlapping_packets() {
        let p = params();
        let x = Transceiver::new(p, CodeRate::Cr45);
        let w1 = x.waveform(&[1, 2, 3, 4, 5, 6, 7, 8]);
        let w2 = x.waveform(&[9, 10, 11, 12, 13, 14, 15, 16]);
        let a = amplitude_for_snr(20.0, p.oversampling());
        // Second packet starts mid-way through the first.
        let s2 = 9 * p.samples_per_symbol() + 137;
        let len = s2 + w2.len() + 1000;
        let mut cap = superpose(
            &p,
            len,
            &[
                Emission {
                    waveform: w1,
                    amplitude: a,
                    start_sample: 0,
                    cfo_hz: 200.0,
                },
                Emission {
                    waveform: w2,
                    amplitude: a * 0.8,
                    start_sample: s2,
                    cfo_hz: -350.0,
                },
            ],
        );
        let mut rng = StdRng::seed_from_u64(5);
        add_unit_noise(&mut rng, &mut cap);
        let det = PreambleDetector::new(p);
        let ds = det.detect(&cap);
        assert_eq!(ds.len(), 2, "detections: {ds:?}");
        assert!(ds[0].frame_start.abs_diff(0) <= 4);
        assert!(ds[1].frame_start.abs_diff(s2) <= 4);
    }

    #[test]
    fn upchirp_scan_finds_isolated_packet() {
        let p = params();
        let (cap, start) = capture_with_packet(25.0, 2048, 0.0, 6);
        let demod = Demodulator::new(p);
        let ds = upchirp_scan(&demod, &cap, 8.0);
        assert_eq!(ds.len(), 1);
        assert!(ds[0].frame_start.abs_diff(start) <= p.samples_per_symbol());
    }

    #[test]
    fn circular_mean_wraps() {
        let m = circular_mean(&[255.5, 0.5], 256.0);
        assert!(!(1.0..=255.0).contains(&m), "mean {m}");
    }

    #[test]
    fn signed_bin_examples() {
        assert_eq!(signed_bin(1.0, 256.0), 1.0);
        assert_eq!(signed_bin(255.0, 256.0), -1.0);
        assert_eq!(signed_bin(128.0, 256.0), 128.0);
    }
}
