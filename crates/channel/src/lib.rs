#![warn(missing_docs)]
//! Wireless channel substrate: what sits between the 20 COTS transmitters
//! and the USRP front end in the paper's deployments.
//!
//! * `rng` — seeded Gaussian / exponential / uniform variates;
//! * [`awgn`] — noise injection and the in-band SNR ↔ amplitude convention;
//! * `pathloss` — log-distance path loss with shadowing and fading;
//! * [`deployment`] — the four deployments D1–D4 with Fig 27's SNR bands;
//! * [`traffic`] — Poisson packet arrivals (exponential inter-arrival);
//! * [`mix`] — sample-accurate superposition of colliding transmissions
//!   with per-transmitter amplitude, timing offset and CFO (paper Eqn 5);
//! * [`wideband`] — multi-channel band synthesis: packets generated at the
//!   wideband rate, shifted onto their channel carriers and summed, the
//!   stimulus for the `lora-gateway` runtime;
//! * [`pace`] — chunked, optionally wall-clock-paced replay of a capture,
//!   the adapter behind `lora-ingest`'s simulated-SDR source;
//! * [`stream`] — lazy streamed scenario generation: city-scale Poisson
//!   traffic synthesised chunk-by-chunk with bounded memory, the stimulus
//!   for capacity campaigns far past the paper's 20-node deployments.

pub mod awgn;
pub mod deployment;
pub mod mix;
pub mod pace;
mod pathloss;
mod rng;
pub mod stream;
pub mod traffic;
pub mod wideband;

pub use awgn::{add_unit_noise, amplitude_for_snr};
pub use deployment::{Deployment, DeploymentKind, Node, PAPER_NODE_COUNT};
pub use mix::{superpose, Emission};
pub use pace::{PacedReplay, Pacer};
pub use stream::{noise_seed, FrameSchedule, StreamConfig, StreamedScenario};
pub use traffic::{poisson_schedule, Arrival};
pub use wideband::{BandPlan, TrafficConfig, WidebandCapture, WidebandPacket};
