#![warn(missing_docs)]
//! End-to-end network simulator and experiment harness for the CIC
//! reproduction: the software equivalent of the paper's four deployments
//! of 20 COTS LoRa nodes plus a USRP gateway (§7.1).
//!
//! * [`scenario`] — deployment + Poisson traffic → IQ capture with truth;
//! * [`schemes`] — the receivers under test (CIC, ablations, FTrack,
//!   Choir, standard LoRa) behind one constructor;
//! * [`experiment`] — run (scenario × scheme), score against truth;
//! * [`metrics`] — throughput / detection / delivery metrics;
//! * [`figures`] — one function per figure of the paper's evaluation
//!   (E1–E9 in DESIGN.md);
//! * [`report`] — fixed-width tables, ASCII spectra, JSON export;
//! * [`capacity`] — city-scale capacity campaign: the streamed scenario
//!   engine driving the full gateway runtime at 1e3–1e5 nodes.

pub mod capacity;
pub mod experiment;
pub mod figures;
pub mod json;
pub mod metrics;
pub mod report;
pub mod scenario;
pub mod schemes;

pub use capacity::{run_point, CapacityOutcome, CapacitySpec};
pub use experiment::{run, run_on_capture};
pub use figures::ScaleConfig;
pub use json::{JsonValue, ToJson};
pub use metrics::RunMetrics;
pub use scenario::{generate, Capture, Scenario, TruthPacket};
pub use schemes::Scheme;
