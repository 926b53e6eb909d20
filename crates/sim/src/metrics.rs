//! Scoring receiver output against ground truth.

use lora_baselines::RxPacket;

use crate::json::{JsonValue, ToJson};
use crate::json_object;
use crate::scenario::TruthPacket;

/// Results of one (scenario, scheme) run.
#[derive(Debug, Clone)]
pub struct RunMetrics {
    /// Packets actually put on the air.
    pub transmitted: usize,
    /// Truth packets whose preamble was detected (start matched).
    pub detected: usize,
    /// Truth packets decoded with a byte-exact payload.
    pub decoded: usize,
    /// Receiver outputs that matched no truth packet (false claims).
    pub spurious: usize,
    /// Capture duration in seconds.
    pub duration_s: f64,
}

impl RunMetrics {
    /// Correctly decoded packets per second — the paper's network
    /// throughput metric (§7.1).
    pub fn throughput_pps(&self) -> f64 {
        self.decoded as f64 / self.duration_s
    }

    /// Fraction of transmitted packets whose preamble was found —
    /// the paper's packet detection rate (§7.3).
    pub fn detection_rate(&self) -> f64 {
        if self.transmitted == 0 {
            0.0
        } else {
            self.detected as f64 / self.transmitted as f64
        }
    }
}

impl ToJson for RunMetrics {
    fn to_json_value(&self) -> JsonValue {
        json_object! {
            "transmitted" => self.transmitted,
            "detected" => self.detected,
            "decoded" => self.decoded,
            "spurious" => self.spurious,
            "duration_s" => self.duration_s,
        }
    }
}

/// Match decoded packets to ground truth.
///
/// A decode counts when its payload equals a truth payload and its frame
/// start is within `tol_samples`; each truth packet can be claimed once.
/// Detection counts need only the start position to match.
pub(crate) fn score(
    truth: &[TruthPacket],
    rx: &[RxPacket],
    detected_starts: &[usize],
    tol_samples: usize,
    duration_s: f64,
) -> RunMetrics {
    let mut truth_decoded = vec![false; truth.len()];
    let mut spurious = 0usize;
    for pkt in rx {
        let hit = truth.iter().enumerate().find(|(i, t)| {
            !truth_decoded[*i]
                && t.start_sample.abs_diff(pkt.frame_start) <= tol_samples
                && pkt.payload.as_deref() == Some(&t.payload[..])
        });
        match hit {
            Some((i, _)) => truth_decoded[i] = true,
            None => {
                if pkt.payload.is_some() {
                    spurious += 1;
                }
            }
        }
    }

    let mut truth_detected = vec![false; truth.len()];
    for &start in detected_starts {
        if let Some((i, _)) = truth
            .iter()
            .enumerate()
            .find(|(i, t)| !truth_detected[*i] && t.start_sample.abs_diff(start) <= tol_samples)
        {
            truth_detected[i] = true;
        }
    }

    RunMetrics {
        transmitted: truth.len(),
        detected: truth_detected.iter().filter(|&&d| d).count(),
        decoded: truth_decoded.iter().filter(|&&d| d).count(),
        spurious,
        duration_s,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn truth(start: usize, tag: u8) -> TruthPacket {
        TruthPacket {
            node: 0,
            start_sample: start,
            payload: vec![tag; 4],
            snr_db: 20.0,
            cfo_hz: 0.0,
        }
    }

    fn rx(start: usize, payload: Option<Vec<u8>>) -> RxPacket {
        RxPacket {
            frame_start: start,
            payload,
            symbols: vec![],
        }
    }

    #[test]
    fn exact_match_counts() {
        let t = vec![truth(1000, 1)];
        let r = vec![rx(1002, Some(vec![1; 4]))];
        let m = score(&t, &r, &[1002], 16, 1.0);
        assert_eq!(m.decoded, 1);
        assert_eq!(m.detected, 1);
        assert_eq!(m.spurious, 0);
        assert!((m.throughput_pps() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn wrong_payload_is_spurious_not_decoded() {
        let t = vec![truth(1000, 1)];
        let r = vec![rx(1000, Some(vec![9; 4]))];
        let m = score(&t, &r, &[1000], 16, 1.0);
        assert_eq!(m.decoded, 0);
        assert_eq!(m.spurious, 1);
        assert_eq!(m.detected, 1);
    }

    #[test]
    fn failed_decode_counts_detection_only() {
        let t = vec![truth(1000, 1)];
        let r = vec![rx(1000, None)];
        let m = score(&t, &r, &[1000], 16, 1.0);
        assert_eq!(m.decoded, 0);
        assert_eq!(m.spurious, 0);
        assert_eq!(m.detected, 1);
    }

    #[test]
    fn out_of_tolerance_start_rejected() {
        let t = vec![truth(1000, 1)];
        let r = vec![rx(5000, Some(vec![1; 4]))];
        let m = score(&t, &r, &[5000], 16, 1.0);
        assert_eq!(m.decoded, 0);
        assert_eq!(m.spurious, 1);
        assert_eq!(m.detected, 0);
    }

    #[test]
    fn each_truth_claimed_once() {
        let t = vec![truth(1000, 1)];
        let r = vec![rx(1000, Some(vec![1; 4])), rx(1001, Some(vec![1; 4]))];
        let m = score(&t, &r, &[], 16, 1.0);
        assert_eq!(m.decoded, 1);
        assert_eq!(m.spurious, 1);
    }

    #[test]
    fn rates_with_zero_transmissions() {
        let m = score(&[], &[], &[], 16, 1.0);
        assert_eq!(m.detection_rate(), 0.0);
    }

    #[test]
    fn two_packets_same_payload_distinct_starts() {
        let t = vec![truth(1000, 1), truth(50_000, 1)];
        let r = vec![rx(1000, Some(vec![1; 4])), rx(50_001, Some(vec![1; 4]))];
        let m = score(&t, &r, &[1000, 50_001], 16, 2.0);
        assert_eq!(m.decoded, 2);
        assert!((m.throughput_pps() - 1.0).abs() < 1e-12);
    }
}
