//! The paper's four test deployments (paper §7.1, Figs 22–27).
//!
//! Each deployment has 20 LoRa nodes and one gateway. What matters to the
//! decoders is the per-node SNR distribution (Fig 27) and its per-packet
//! fluctuation; we reproduce those with node placements drawn in the
//! distance bands the path-loss presets were calibrated for.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::pathloss::PathLossModel;
use crate::rng::uniform;

/// Which of the paper's deployments to instantiate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DeploymentKind {
    /// D1: small indoor lab — high SNR (30–40 dB), line of sight.
    D1IndoorLos,
    /// D2: small floor — high SNR (30–40 dB), NLoS.
    D2IndoorNlos,
    /// D3: large floor — low SNR (5–30 dB), NLoS.
    D3LargeIndoorNlos,
    /// D4: outdoor wide area (2 km²) — sub-noise SNR (−5–10 dB), NLoS.
    D4OutdoorSubnoise,
}

impl DeploymentKind {
    /// All four deployments, in paper order.
    pub const ALL: [DeploymentKind; 4] = [
        DeploymentKind::D1IndoorLos,
        DeploymentKind::D2IndoorNlos,
        DeploymentKind::D3LargeIndoorNlos,
        DeploymentKind::D4OutdoorSubnoise,
    ];

    /// Short label used in reports ("D1".."D4").
    pub fn label(&self) -> &'static str {
        match self {
            DeploymentKind::D1IndoorLos => "D1",
            DeploymentKind::D2IndoorNlos => "D2",
            DeploymentKind::D3LargeIndoorNlos => "D3",
            DeploymentKind::D4OutdoorSubnoise => "D4",
        }
    }

    /// Descriptive name matching the paper's figure captions.
    pub fn description(&self) -> &'static str {
        match self {
            DeploymentKind::D1IndoorLos => "Small Indoor Space - High SNR, LoS",
            DeploymentKind::D2IndoorNlos => "Small Floor Space - High SNR, NLoS",
            DeploymentKind::D3LargeIndoorNlos => "Large Floor Space - Low SNR, NLoS",
            DeploymentKind::D4OutdoorSubnoise => "Outdoor Wide Area - Sub-Noise, NLoS",
        }
    }

    /// Propagation model for this environment.
    pub(crate) fn path_loss(&self) -> PathLossModel {
        match self {
            DeploymentKind::D1IndoorLos => PathLossModel::indoor_los(),
            DeploymentKind::D2IndoorNlos => PathLossModel::indoor_nlos(),
            DeploymentKind::D3LargeIndoorNlos => PathLossModel::large_indoor_nlos(),
            DeploymentKind::D4OutdoorSubnoise => PathLossModel::urban_outdoor(),
        }
    }

    /// Node-to-gateway distance band (metres) the preset is calibrated for.
    pub(crate) fn distance_band_m(&self) -> (f64, f64) {
        match self {
            DeploymentKind::D1IndoorLos => (5.0, 16.0),
            DeploymentKind::D2IndoorNlos => (5.0, 12.0),
            DeploymentKind::D3LargeIndoorNlos => (7.0, 40.0),
            DeploymentKind::D4OutdoorSubnoise => (450.0, 1100.0),
        }
    }
}

/// One sensor node of a deployment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Node {
    /// Node index (0..n_nodes).
    pub id: usize,
    /// Distance to the gateway in metres.
    pub distance_m: f64,
    /// Long-term received in-band SNR in dB (path loss + static shadowing).
    pub mean_snr_db: f64,
    /// Carrier frequency offset relative to the gateway, in Hz.
    pub cfo_hz: f64,
}

/// A 20-node deployment instance.
#[derive(Debug, Clone)]
pub struct Deployment {
    kind: DeploymentKind,
    nodes: Vec<Node>,
}

/// Number of LoRa devices per deployment in the paper.
pub const PAPER_NODE_COUNT: usize = 20;

/// Crystal tolerance assumed for COTS nodes, in ppm (RFM95-class parts).
pub const CRYSTAL_PPM: f64 = 10.0;

impl Deployment {
    /// Instantiate a deployment with `PAPER_NODE_COUNT` nodes.
    pub fn new(kind: DeploymentKind, seed: u64) -> Self {
        Self::with_nodes(kind, PAPER_NODE_COUNT, seed)
    }

    /// Instantiate with a custom node count.
    pub(crate) fn with_nodes(kind: DeploymentKind, n_nodes: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let model = kind.path_loss();
        let (dmin, dmax) = kind.distance_band_m();
        let nodes = (0..n_nodes)
            .map(|id| {
                let distance_m = uniform(&mut rng, dmin, dmax);
                let mean_snr_db = model.node_snr_db(&mut rng, distance_m);
                let ppm = uniform(&mut rng, -CRYSTAL_PPM, CRYSTAL_PPM);
                let cfo_hz = lora_phy::cfo::ppm_to_hz(ppm, lora_phy::cfo::DEFAULT_CARRIER_HZ);
                Node {
                    id,
                    distance_m,
                    mean_snr_db,
                    cfo_hz,
                }
            })
            .collect();
        Self { kind, nodes }
    }

    /// The nodes.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Draw a per-packet SNR for `node` (long-term SNR + fading).
    pub fn packet_snr_db<R: Rng + ?Sized>(&self, rng: &mut R, node: &Node) -> f64 {
        self.kind.path_loss().packet_snr_db(rng, node.mean_snr_db)
    }

    /// Sorted long-term SNRs — the data behind Fig 27's distributions.
    pub fn snr_distribution(&self) -> Vec<f64> {
        let mut v: Vec<f64> = self.nodes.iter().map(|n| n.mean_snr_db).collect();
        v.sort_by(|a, b| a.total_cmp(b));
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_node_count() {
        let d = Deployment::new(DeploymentKind::D1IndoorLos, 1);
        assert_eq!(d.nodes().len(), 20);
    }

    #[test]
    fn d1_snrs_in_high_band() {
        let d = Deployment::new(DeploymentKind::D1IndoorLos, 42);
        for n in d.nodes() {
            assert!(
                (26.0..=44.0).contains(&n.mean_snr_db),
                "node {} at {:.1} dB",
                n.id,
                n.mean_snr_db
            );
        }
    }

    #[test]
    fn d3_spans_low_band() {
        let d = Deployment::new(DeploymentKind::D3LargeIndoorNlos, 42);
        let snrs = d.snr_distribution();
        assert!(*snrs.first().unwrap() < 15.0, "min {:.1}", snrs[0]);
        assert!(*snrs.last().unwrap() > 18.0);
        for &s in &snrs {
            assert!((-5.0..=40.0).contains(&s));
        }
    }

    #[test]
    fn d4_reaches_subnoise() {
        let d = Deployment::new(DeploymentKind::D4OutdoorSubnoise, 42);
        let snrs = d.snr_distribution();
        assert!(
            snrs.iter().any(|&s| s < 3.0),
            "no node near/below the noise floor: {snrs:?}"
        );
        for &s in &snrs {
            assert!((-30.0..=25.0).contains(&s), "snr {s}");
        }
    }

    #[test]
    fn deployments_ordered_by_difficulty() {
        let mean = |k| {
            let d = Deployment::new(k, 9);
            d.snr_distribution().iter().sum::<f64>() / 20.0
        };
        let m1 = mean(DeploymentKind::D1IndoorLos);
        let m3 = mean(DeploymentKind::D3LargeIndoorNlos);
        let m4 = mean(DeploymentKind::D4OutdoorSubnoise);
        assert!(m1 > m3 && m3 > m4, "{m1} {m3} {m4}");
    }

    #[test]
    fn cfo_within_crystal_budget() {
        let d = Deployment::new(DeploymentKind::D2IndoorNlos, 3);
        let max = lora_phy::cfo::ppm_to_hz(CRYSTAL_PPM, lora_phy::cfo::DEFAULT_CARRIER_HZ);
        for n in d.nodes() {
            assert!(n.cfo_hz.abs() <= max);
        }
    }

    #[test]
    fn seeded_reproducibility() {
        let a = Deployment::new(DeploymentKind::D4OutdoorSubnoise, 77);
        let b = Deployment::new(DeploymentKind::D4OutdoorSubnoise, 77);
        assert_eq!(a.nodes(), b.nodes());
        let c = Deployment::new(DeploymentKind::D4OutdoorSubnoise, 78);
        assert_ne!(a.nodes(), c.nodes());
    }

    #[test]
    fn labels_match_paper() {
        assert_eq!(DeploymentKind::D1IndoorLos.label(), "D1");
        assert_eq!(DeploymentKind::ALL.len(), 4);
    }
}
