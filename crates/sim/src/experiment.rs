//! Running (scenario × scheme) combinations.

use crate::metrics::{score, RunMetrics};
use crate::scenario::{generate, Capture, Scenario};
use crate::schemes::Scheme;

/// Run one scheme over an already-generated capture.
pub fn run_on_capture(scenario: &Scenario, capture: &Capture, scheme: Scheme) -> RunMetrics {
    let rx = scheme.build(scenario.params, scenario.cr, scenario.payload_len);
    let packets = rx.receive(&capture.samples);
    let detected = rx.detect_starts(&capture.samples);
    // Matching tolerance: half a symbol — a receiver that is further off
    // than that has not meaningfully found the packet.
    let tol = scenario.params.samples_per_symbol() / 2;
    score(
        &capture.truth,
        &packets,
        &detected,
        tol,
        scenario.duration_s,
    )
}

/// Generate the scenario's capture and run one scheme.
pub fn run(scenario: &Scenario, scheme: Scheme) -> RunMetrics {
    let capture = generate(scenario);
    run_on_capture(scenario, &capture, scheme)
}

/// Run several schemes over the *same* capture (the paper's methodology:
/// one recorded airtime, many decoders).
pub(crate) fn run_all(scenario: &Scenario, schemes: &[Scheme]) -> Vec<(Scheme, RunMetrics)> {
    let capture = generate(scenario);
    schemes
        .iter()
        .map(|&s| (s, run_on_capture(scenario, &capture, s)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use lora_channel::DeploymentKind;

    #[test]
    fn cic_beats_standard_on_a_small_run() {
        // A smoke-level end-to-end check of the paper's headline claim at
        // a load high enough to cause collisions.
        let mut scenario = Scenario::paper(DeploymentKind::D1IndoorLos, 40.0, 0.8, 11);
        scenario.payload_len = 12;
        let results = run_all(&scenario, &[Scheme::Cic, Scheme::Standard]);
        let cic = &results[0].1;
        let std = &results[1].1;
        assert!(
            cic.decoded >= std.decoded,
            "CIC {} < standard {} decoded",
            cic.decoded,
            std.decoded
        );
        assert!(cic.decoded > 0, "CIC decoded nothing");
    }

    #[test]
    fn metrics_bounded_by_transmissions() {
        let mut scenario = Scenario::paper(DeploymentKind::D2IndoorNlos, 20.0, 0.5, 5);
        scenario.payload_len = 12;
        let m = run(&scenario, Scheme::Cic);
        assert!(m.decoded <= m.transmitted);
        assert!(m.detected <= m.transmitted);
    }
}
