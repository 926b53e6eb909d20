//! One function per figure of the paper's evaluation (see DESIGN.md's
//! experiment index E1–E9). Each returns plain data rows; the binaries in
//! `repro-bench` print them in the paper's layout.

use cic::demod::CicDemodulator;
use cic::subsymbol::Boundaries;
use cic::CicConfig;
use lora_channel::{superpose, DeploymentKind, Emission};
use lora_dsp::{Cf32, Spectrum};
use lora_phy::chirp::symbol_waveform;
use lora_phy::packet::Transceiver;
use lora_phy::params::{CodeRate, LoraParams};

use crate::experiment::run_all;
use crate::json::{JsonValue, ToJson};
use crate::json_object;
use crate::scenario::Scenario;
use crate::schemes::Scheme;

/// Default offered-load grid (paper: 5–100 pkt/s).
pub const DEFAULT_RATES: [f64; 5] = [5.0, 25.0, 50.0, 75.0, 100.0];

/// Shared scale knobs so CI runs stay cheap and `--full` matches the
/// paper (60 s per rate).
#[derive(Debug, Clone)]
pub struct ScaleConfig {
    /// Capture duration per rate point, seconds.
    pub duration_s: f64,
    /// Offered loads to sweep, pkt/s.
    pub rates: Vec<f64>,
    /// Base RNG seed.
    pub seed: u64,
}

impl Default for ScaleConfig {
    fn default() -> Self {
        Self {
            duration_s: 2.0,
            rates: DEFAULT_RATES.to_vec(),
            seed: 2021,
        }
    }
}

/// Fig 15 (E1): Heisenberg time–frequency uncertainty. Returns, for each
/// window span (as a fraction of `T_s`), the spectrum of 5 superposed
/// interferer tones and the number of resolvable peaks.
pub fn fig15_uncertainty(params: &LoraParams) -> Vec<(f64, Spectrum, usize)> {
    let sps = params.samples_per_symbol();
    let bins = [100usize, 105, 110, 115, 120];
    let window: Vec<Cf32> = {
        let emissions: Vec<Emission> = bins
            .iter()
            .map(|&b| Emission {
                waveform: symbol_waveform(params, b),
                amplitude: 1.0,
                start_sample: 0,
                cfo_hz: 0.0,
            })
            .collect();
        superpose(params, sps, &emissions)
    };
    let demod = lora_phy::Demodulator::new(*params);
    let de = demod.dechirp(&window);
    [0.5, 0.25, 0.125]
        .into_iter()
        .map(|frac| {
            let n = (sps as f64 * frac) as usize;
            let spec = demod.folded_spectrum(&de[..n]);
            let peaks = lora_dsp::find_peaks(&spec, 3.0, 2);
            let resolved = peaks
                .iter()
                .filter(|p| {
                    bins.iter().any(|&b| {
                        lora_dsp::peaks::cyclic_bin_distance(p.bin, b, params.n_bins()) <= 2
                    })
                })
                .count();
            (frac, spec, resolved)
        })
        .collect()
}

/// Figs 12–14 (E2): spectra of a 6-packet collision under the standard
/// demodulator, Strawman-CIC, and CIC. Returns the three spectra plus the
/// true symbol bin.
pub fn fig12_14_spectra(params: &LoraParams, seed: u64) -> (Spectrum, Spectrum, Spectrum, usize) {
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};
    let mut rng = StdRng::seed_from_u64(seed);
    let sps = params.samples_per_symbol();
    let n = params.n_bins();
    let true_bin = 77usize;

    let mut emissions = vec![Emission {
        waveform: symbol_waveform(params, true_bin),
        amplitude: 1.0,
        start_sample: 0,
        cfo_hz: 0.0,
    }];
    let mut taus = Vec::new();
    for _ in 0..5 {
        let tau = rng.random_range(sps / 8..(7 * sps / 8));
        let prev = rng.random_range(0..n);
        let next = rng.random_range(0..n);
        // Interferers up to 6 dB stronger (paper Fig 12: several peaks
        // above the true one).
        let amp = 10f64.powf(rng.random_range(0.0..6.0) / 20.0);
        let w_prev = symbol_waveform(params, prev);
        let w_next = symbol_waveform(params, next);
        emissions.push(Emission {
            waveform: w_prev[sps - tau..].to_vec(),
            amplitude: amp,
            start_sample: 0,
            cfo_hz: 0.0,
        });
        emissions.push(Emission {
            waveform: w_next[..sps - tau].to_vec(),
            amplitude: amp,
            start_sample: tau,
            cfo_hz: 0.0,
        });
        taus.push(tau);
    }
    let window = superpose(params, sps, &emissions);
    let boundaries = Boundaries::new(sps, taus);

    let cic = CicDemodulator::new(*params, CicConfig::default());
    let de = cic.inner().dechirp(&window);
    let standard = cic.inner().folded_spectrum(&de).normalized();
    let strawman = cic.strawman_spectrum(&de, &boundaries);
    let full = cic.intersected_spectrum(&de, &boundaries);
    (standard, strawman, full, true_bin)
}

/// One cell of the Fig 17 (E3) cancellation surface.
#[derive(Debug, Clone)]
pub struct CancellationCell {
    /// Interferer boundary distance as a fraction of `T_s`.
    pub dtau_frac: f64,
    /// Frequency distance as a fraction of `B`.
    pub df_frac: f64,
    /// Suppression of the interferer relative to the wanted peak, dB.
    pub cancellation_db: f64,
}

impl ToJson for CancellationCell {
    fn to_json_value(&self) -> JsonValue {
        json_object! {
            "dtau_frac" => self.dtau_frac,
            "df_frac" => self.df_frac,
            "cancellation_db" => self.cancellation_db,
        }
    }
}

/// Fig 17 (E3): cancellation depth as a function of (Δτ/T_s, Δf/B) for a
/// single equal-power interferer at SF 8.
pub fn fig17_cancellation(params: &LoraParams, grid: &[f64]) -> Vec<CancellationCell> {
    let sps = params.samples_per_symbol();
    let n = params.n_bins();
    let os = params.oversampling();
    let s1 = 60usize;
    let cic = CicDemodulator::new(*params, CicConfig::default());
    let mut out = Vec::new();
    for &dtau in grid {
        for &df in grid {
            let tau = ((dtau * sps as f64) as usize).clamp(1, sps - 1);
            let df_bins = (df * n as f64) as usize;
            // Choose on-air symbols so both interferer aliases land
            // `df_bins` above the wanted bin after the timing drift.
            let drift = (tau / os) % n;
            let target_bin = (s1 + df_bins) % n;
            // Study the interferer's *next* symbol at the controlled
            // (Δτ, Δf); its previous symbol sits far away in frequency so
            // it does not interact with the measurement (prev == next
            // would alias into one continuous tone nothing can cancel).
            let next = (target_bin + drift) % n;
            let prev = (target_bin + drift + 97) % n;
            let w_prev = symbol_waveform(params, prev);
            let w_next = symbol_waveform(params, next);
            let window = superpose(
                params,
                sps,
                &[
                    Emission {
                        waveform: symbol_waveform(params, s1),
                        amplitude: 1.0,
                        start_sample: 0,
                        cfo_hz: 0.0,
                    },
                    Emission {
                        waveform: w_prev[sps - tau..].to_vec(),
                        amplitude: 1.0,
                        start_sample: 0,
                        cfo_hz: 0.0,
                    },
                    Emission {
                        waveform: w_next[..sps - tau].to_vec(),
                        amplitude: 1.0,
                        start_sample: tau,
                        cfo_hz: 0.0,
                    },
                ],
            );
            let boundaries = Boundaries::new(sps, vec![tau]);
            let de = cic.inner().dechirp(&window);
            let full = cic.inner().folded_spectrum(&de).normalized();
            let after = cic.intersected_spectrum(&de, &boundaries).normalized();
            // Interferer-to-signal ratio before vs after cancellation.
            let before_ratio = full[target_bin] / full[s1].max(1e-30);
            let after_ratio = after[target_bin] / after[s1].max(1e-30);
            let cancellation_db = 10.0 * (before_ratio / after_ratio.max(1e-30)).log10();
            out.push(CancellationCell {
                dtau_frac: dtau,
                df_frac: df,
                cancellation_db,
            });
        }
    }
    out
}

/// Fig 27 (E5): per-deployment sorted node SNRs.
pub fn fig27_snr(seed: u64) -> Vec<(DeploymentKind, Vec<f64>)> {
    DeploymentKind::ALL
        .iter()
        .map(|&k| {
            let d = lora_channel::Deployment::new(k, seed ^ 0xDEAD_BEEF);
            (k, d.snr_distribution())
        })
        .collect()
}

/// One row of a capacity / detection figure.
#[derive(Debug, Clone)]
pub struct SweepRow {
    /// Offered aggregate load, pkt/s.
    pub rate_pps: f64,
    /// Scheme label.
    pub scheme: String,
    /// Decoded packets/second (capacity figures).
    pub throughput_pps: f64,
    /// Detection rate (detection figures).
    pub detection_rate: f64,
    /// Packets transmitted during the run.
    pub transmitted: usize,
    /// Packets decoded.
    pub decoded: usize,
}

impl ToJson for SweepRow {
    fn to_json_value(&self) -> JsonValue {
        json_object! {
            "rate_pps" => self.rate_pps,
            "scheme" => self.scheme,
            "throughput_pps" => self.throughput_pps,
            "detection_rate" => self.detection_rate,
            "transmitted" => self.transmitted,
            "decoded" => self.decoded,
        }
    }
}

/// Figs 28–31 + 32–35 (E6, E7): sweep offered load for one deployment
/// with the given schemes; returns one row per (rate, scheme). Capacity
/// and detection come from the same runs, as in the paper.
pub fn capacity_sweep(
    deployment: DeploymentKind,
    schemes: &[Scheme],
    scale: &ScaleConfig,
) -> Vec<SweepRow> {
    let mut rows = Vec::new();
    for (ri, &rate) in scale.rates.iter().enumerate() {
        let scenario = Scenario::paper(
            deployment,
            rate,
            scale.duration_s,
            scale.seed + ri as u64 * 1000,
        );
        for (scheme, m) in run_all(&scenario, schemes) {
            rows.push(SweepRow {
                rate_pps: rate,
                scheme: scheme.label().to_string(),
                throughput_pps: m.throughput_pps(),
                detection_rate: m.detection_rate(),
                transmitted: m.transmitted,
                decoded: m.decoded,
            });
        }
    }
    rows
}

/// Figs 36–37 (E8): the CIC feature ablation on one deployment.
pub fn ablation_sweep(deployment: DeploymentKind, scale: &ScaleConfig) -> Vec<SweepRow> {
    capacity_sweep(deployment, &Scheme::ABLATION_SET, scale)
}

/// One point of the Fig 38 (E9) close-collision study.
#[derive(Debug, Clone)]
pub struct SerPoint {
    /// Boundary offset as a fraction of the symbol time.
    pub dtau_frac: f64,
    /// Symbol error rate over both packets.
    pub ser: f64,
}

impl ToJson for SerPoint {
    fn to_json_value(&self) -> JsonValue {
        json_object! {
            "dtau_frac" => self.dtau_frac,
            "ser" => self.ser,
        }
    }
}

/// Fig 38 (E9): two packets superposed with a controlled sub-symbol
/// offset at 30 dB SNR; SER of CIC demodulation vs Δτ/T_s.
pub fn fig38_close_collisions(
    params: &LoraParams,
    offsets: &[f64],
    pairs_per_point: usize,
    seed: u64,
) -> Vec<SerPoint> {
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};
    let cr = CodeRate::Cr45;
    let payload_len = 16usize;
    let xcvr = Transceiver::new(*params, cr);
    let sps = params.samples_per_symbol();
    let rx = cic::CicReceiver::new(*params, cr, payload_len, CicConfig::default());

    offsets
        .iter()
        .map(|&frac| {
            let mut rng = StdRng::seed_from_u64(seed ^ (frac * 1e6) as u64);
            let mut errors = 0usize;
            let mut total = 0usize;
            for _ in 0..pairs_per_point {
                let pl1: Vec<u8> = (0..payload_len).map(|_| rng.random()).collect();
                let pl2: Vec<u8> = (0..payload_len).map(|_| rng.random()).collect();
                let t1 = xcvr.codec().encode(&pl1);
                let t2 = xcvr.codec().encode(&pl2);
                let w1 = xcvr.waveform(&pl1);
                let w2 = xcvr.waveform(&pl2);
                // Packet 2 starts a whole number of symbols plus the
                // controlled sub-symbol offset into packet 1.
                let s2 = 14 * sps + ((frac * sps as f64) as usize).min(sps - 1).max(1);
                let a = lora_channel::amplitude_for_snr(30.0, params.oversampling());
                // Realistic COTS crystal offsets (±10 ppm at 915 MHz):
                // the fractional-CFO diversity real deployments have.
                let max_cfo = lora_phy::cfo::ppm_to_hz(
                    lora_channel::deployment::CRYSTAL_PPM,
                    lora_phy::cfo::DEFAULT_CARRIER_HZ,
                );
                let mut cap = superpose(
                    params,
                    s2 + w2.len() + 2 * sps,
                    &[
                        Emission {
                            waveform: w1,
                            amplitude: a,
                            start_sample: 0,
                            cfo_hz: rng.random_range(-max_cfo..max_cfo),
                        },
                        Emission {
                            waveform: w2,
                            amplitude: a,
                            start_sample: s2,
                            cfo_hz: rng.random_range(-max_cfo..max_cfo),
                        },
                    ],
                );
                lora_channel::add_unit_noise(&mut rng, &mut cap);
                let pkts = rx.receive(&cap);
                for (start, truth) in [(0usize, &t1), (s2, &t2)] {
                    total += truth.len();
                    match pkts
                        .iter()
                        .find(|p| p.detection.frame_start.abs_diff(start) <= sps / 2)
                    {
                        Some(p) => {
                            errors += p.symbols.iter().zip(truth).filter(|(a, b)| a != b).count();
                            errors += truth.len().saturating_sub(p.symbols.len());
                        }
                        // Undetected packet: every symbol is lost.
                        None => errors += truth.len(),
                    }
                }
            }
            SerPoint {
                dtau_frac: frac,
                ser: errors as f64 / total.max(1) as f64,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> LoraParams {
        LoraParams::paper_default()
    }

    #[test]
    fn fig15_peaks_merge_as_window_shrinks() {
        let rows = fig15_uncertainty(&params());
        assert_eq!(rows.len(), 3);
        let resolved: Vec<usize> = rows.iter().map(|r| r.2).collect();
        assert_eq!(resolved[0], 5, "half-symbol window must resolve all 5");
        assert!(
            resolved[2] < resolved[0],
            "eighth-symbol window must lose peaks: {resolved:?}"
        );
    }

    #[test]
    fn fig12_14_cic_wins_where_standard_confused() {
        let (standard, _strawman, full, true_bin) = fig12_14_spectra(&params(), 99);
        // The standard spectrum's argmax is NOT the true bin (interferers
        // are stronger), CIC's is.
        assert_ne!(standard.argmax().unwrap().0, true_bin);
        assert_eq!(full.argmax().unwrap().0, true_bin);
    }

    #[test]
    fn fig17_shape() {
        let cells = fig17_cancellation(&params(), &[0.05, 0.5]);
        let get = |dt: f64, df: f64| {
            cells
                .iter()
                .find(|c| c.dtau_frac == dt && c.df_frac == df)
                .unwrap()
                .cancellation_db
        };
        // Far in both time and frequency: strong cancellation.
        assert!(get(0.5, 0.5) > 10.0, "far-far {}", get(0.5, 0.5));
        // Close in both: little cancellation.
        assert!(
            get(0.05, 0.05) < get(0.5, 0.5),
            "near-near should cancel less"
        );
    }

    #[test]
    fn fig27_deployments_ordered() {
        let rows = fig27_snr(1);
        assert_eq!(rows.len(), 4);
        let med = |v: &Vec<f64>| v[v.len() / 2];
        assert!(med(&rows[0].1) > med(&rows[2].1));
        assert!(med(&rows[2].1) > med(&rows[3].1));
    }

    #[test]
    fn fig38_far_offset_low_ser() {
        let pts = fig38_close_collisions(&params(), &[0.5], 2, 3);
        assert!(pts[0].ser < 0.05, "SER at 50% offset: {}", pts[0].ser);
    }
}
