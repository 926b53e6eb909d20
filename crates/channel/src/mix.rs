//! Sample-accurate superposition of multiple transmissions.
//!
//! During a collision the gateway sees `r(t) = Σ_i A_i e^{j2πδ_i t} x_i(t - τ_i)`
//! plus noise (paper Eqn 5). The mixer places each unit-amplitude waveform
//! at its start sample, scales it, applies its CFO with phase continuity,
//! and sums into one capture buffer.

use lora_dsp::Cf32;
use lora_phy::params::LoraParams;

/// One transmission to place into a capture.
#[derive(Debug, Clone)]
pub struct Emission {
    /// Unit-amplitude baseband waveform (a full frame or any segment).
    pub waveform: Vec<Cf32>,
    /// Linear amplitude scale (see `awgn::amplitude_for_snr`).
    pub amplitude: f64,
    /// Start position in the capture, in samples.
    pub start_sample: usize,
    /// Carrier frequency offset in Hz.
    pub cfo_hz: f64,
}

/// Sum `emissions` into a zeroed capture of `len` samples.
///
/// Waveform parts that fall beyond the capture end are cut off (a packet
/// still on the air when the capture stops), matching what a finite
/// recording gives a real receiver.
pub fn superpose(params: &LoraParams, len: usize, emissions: &[Emission]) -> Vec<Cf32> {
    let mut buf = vec![Cf32::new(0.0, 0.0); len];
    superpose_into(params, &mut buf, emissions);
    buf
}

/// Sum `emissions` into an existing buffer (adds, does not clear).
pub(crate) fn superpose_into(params: &LoraParams, buf: &mut [Cf32], emissions: &[Emission]) {
    let step = std::f64::consts::TAU / params.sample_rate_hz();
    for e in emissions {
        if e.start_sample >= buf.len() {
            continue;
        }
        let n = e.waveform.len().min(buf.len() - e.start_sample);
        let amp = e.amplitude as f32;
        let phase_step = step * e.cfo_hz;
        for (i, &w) in e.waveform[..n].iter().enumerate() {
            // CFO phase is continuous over the transmitter's own timeline,
            // i.e. relative to its packet start.
            let phase = (phase_step * i as f64) % std::f64::consts::TAU;
            let rot = Cf32::from_polar(1.0, phase as f32);
            buf[e.start_sample + i] += w * rot * amp;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lora_dsp::math;
    use lora_phy::chirp::symbol_waveform;

    fn params() -> LoraParams {
        LoraParams::new(8, 250e3, 4).unwrap()
    }

    #[test]
    fn single_emission_at_offset() {
        let p = params();
        let w = symbol_waveform(&p, 3);
        let cap = superpose(
            &p,
            w.len() + 100,
            &[Emission {
                waveform: w.clone(),
                amplitude: 2.0,
                start_sample: 100,
                cfo_hz: 0.0,
            }],
        );
        assert!(math::energy(&cap[..100]) < 1e-12);
        assert!((cap[100] - w[0] * 2.0).norm() < 1e-6);
        assert!((math::energy(&cap) - 4.0 * math::energy(&w)).abs() < 1e-2);
    }

    #[test]
    fn truncates_at_capture_end() {
        let p = params();
        let w = symbol_waveform(&p, 0);
        let cap = superpose(
            &p,
            512,
            &[Emission {
                waveform: w,
                amplitude: 1.0,
                start_sample: 256,
                cfo_hz: 0.0,
            }],
        );
        assert_eq!(cap.len(), 512);
        assert!(math::energy(&cap[256..]) > 0.0);
    }

    #[test]
    fn emission_past_end_ignored() {
        let p = params();
        let w = symbol_waveform(&p, 0);
        let cap = superpose(
            &p,
            128,
            &[Emission {
                waveform: w,
                amplitude: 1.0,
                start_sample: 128,
                cfo_hz: 0.0,
            }],
        );
        assert!(math::energy(&cap) < 1e-12);
    }

    #[test]
    fn superposition_is_additive() {
        let p = params();
        let w1 = symbol_waveform(&p, 10);
        let w2 = symbol_waveform(&p, 200);
        let e1 = Emission {
            waveform: w1,
            amplitude: 1.0,
            start_sample: 0,
            cfo_hz: 0.0,
        };
        let e2 = Emission {
            waveform: w2,
            amplitude: 0.5,
            start_sample: 300,
            cfo_hz: 0.0,
        };
        let both = superpose(&p, 2048, &[e1.clone(), e2.clone()]);
        let a = superpose(&p, 2048, &[e1]);
        let b = superpose(&p, 2048, &[e2]);
        for i in 0..2048 {
            assert!((both[i] - (a[i] + b[i])).norm() < 1e-6);
        }
    }

    #[test]
    fn cfo_rotation_matches_phy_helper() {
        let p = params();
        let w = symbol_waveform(&p, 17);
        let cfo = 1500.0;
        let cap = superpose(
            &p,
            w.len(),
            &[Emission {
                waveform: w.clone(),
                amplitude: 1.0,
                start_sample: 0,
                cfo_hz: cfo,
            }],
        );
        let mut expect = w;
        lora_phy::chirp::apply_cfo(&p, &mut expect, cfo, 0);
        for (a, b) in cap.iter().zip(&expect) {
            assert!((a - b).norm() < 1e-3);
        }
    }

    #[test]
    fn collided_spectrum_has_both_peaks() {
        // Two aligned symbols from different "transmitters": the standard
        // demodulator sees two peaks (the confusion CIC resolves).
        let p = params();
        let d = lora_phy::Demodulator::new(p);
        let w1 = symbol_waveform(&p, 50);
        let w2 = symbol_waveform(&p, 180);
        let cap = superpose(
            &p,
            p.samples_per_symbol(),
            &[
                Emission {
                    waveform: w1,
                    amplitude: 1.0,
                    start_sample: 0,
                    cfo_hz: 0.0,
                },
                Emission {
                    waveform: w2,
                    amplitude: 1.0,
                    start_sample: 0,
                    cfo_hz: 0.0,
                },
            ],
        );
        let spec = d.symbol_spectrum(&cap);
        let peaks = lora_dsp::find_peaks(&spec, 10.0, 2);
        let bins: Vec<usize> = peaks.iter().map(|p| p.bin).collect();
        assert!(bins.contains(&50), "peaks {bins:?}");
        assert!(bins.contains(&180), "peaks {bins:?}");
    }
}
