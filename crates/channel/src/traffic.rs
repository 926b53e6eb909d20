//! Poisson traffic generation (paper §7.1).
//!
//! Each node transmits with exponentially distributed inter-arrival times
//! of rate `λ = R / n_nodes`, so the aggregate arrival process is Poisson
//! with rate `R` packets/second.

use rand::Rng;

use crate::rng::exponential;

/// One scheduled transmission.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Arrival {
    /// Index of the transmitting node.
    pub node: usize,
    /// Start time of the transmission, in seconds from experiment start.
    pub time_s: f64,
}

/// Generate the arrival schedule for `n_nodes` nodes over `duration_s`
/// seconds at an aggregate rate of `aggregate_rate_pps` packets/second.
///
/// Arrivals are returned sorted by time. A node that is still transmitting
/// when its next arrival fires simply queues back-to-back in the mixer —
/// the same behaviour as a COTS device whose radio is busy.
pub fn poisson_schedule<R: Rng + ?Sized>(
    rng: &mut R,
    n_nodes: usize,
    aggregate_rate_pps: f64,
    duration_s: f64,
) -> Vec<Arrival> {
    assert!(n_nodes > 0, "need at least one node");
    assert!(aggregate_rate_pps > 0.0, "rate must be positive");
    assert!(duration_s > 0.0, "duration must be positive");
    let lambda = aggregate_rate_pps / n_nodes as f64;
    let mut arrivals = Vec::new();
    for node in 0..n_nodes {
        let mut t = exponential(rng, lambda);
        while t < duration_s {
            arrivals.push(Arrival { node, time_s: t });
            t += exponential(rng, lambda);
        }
    }
    arrivals.sort_by(|a, b| a.time_s.total_cmp(&b.time_s));
    arrivals
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn count_matches_rate() {
        let mut rng = StdRng::seed_from_u64(11);
        let sched = poisson_schedule(&mut rng, 20, 50.0, 100.0);
        let expected = 50.0 * 100.0;
        let got = sched.len() as f64;
        assert!(
            (got - expected).abs() < 0.1 * expected,
            "expected ~{expected}, got {got}"
        );
    }

    #[test]
    fn sorted_by_time() {
        let mut rng = StdRng::seed_from_u64(2);
        let sched = poisson_schedule(&mut rng, 20, 30.0, 10.0);
        for w in sched.windows(2) {
            assert!(w[0].time_s <= w[1].time_s);
        }
    }

    #[test]
    fn all_nodes_participate_eventually() {
        let mut rng = StdRng::seed_from_u64(3);
        let sched = poisson_schedule(&mut rng, 20, 100.0, 60.0);
        let mut seen = [false; 20];
        for a in &sched {
            seen[a.node] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn times_within_duration() {
        let mut rng = StdRng::seed_from_u64(4);
        for a in poisson_schedule(&mut rng, 5, 20.0, 3.0) {
            assert!((0.0..3.0).contains(&a.time_s));
        }
    }

    #[test]
    fn interarrival_times_look_exponential() {
        // Coefficient of variation of exponential inter-arrivals is 1.
        let mut rng = StdRng::seed_from_u64(5);
        let sched = poisson_schedule(&mut rng, 1, 200.0, 100.0);
        let gaps: Vec<f64> = sched
            .windows(2)
            .map(|w| w[1].time_s - w[0].time_s)
            .collect();
        let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
        let var = gaps.iter().map(|g| (g - mean).powi(2)).sum::<f64>() / gaps.len() as f64;
        let cv = var.sqrt() / mean;
        assert!((cv - 1.0).abs() < 0.1, "cv {cv}");
    }

    #[test]
    #[should_panic(expected = "rate must be positive")]
    fn zero_rate_rejected() {
        let mut rng = StdRng::seed_from_u64(0);
        poisson_schedule(&mut rng, 5, 0.0, 1.0);
    }
}
