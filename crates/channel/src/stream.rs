//! Lazy streamed wideband scenario generation: city-scale Poisson traffic
//! synthesised chunk-by-chunk with bounded memory.
//!
//! [`crate::wideband::generate_traffic`] materialises every frame waveform
//! and the whole capture buffer up front — fine for the paper's 20-node,
//! seconds-long captures, hopeless for 1e5 nodes and minutes of air time
//! (a 60 s capture at 1 MHz wideband rate is already ~0.5 GB, and the
//! per-packet frame waveforms dwarf that). [`StreamedScenario`] produces
//! the *same kind* of capture as a lazy chunk stream:
//!
//! * **Arrivals** come from one aggregate exponential clock at rate
//!   `n_nodes / mean_interval_s` with a uniform node pick per arrival —
//!   by the Poisson superposition theorem this is distribution-identical
//!   to `n_nodes` independent per-node Poisson processes of rate
//!   `1 / mean_interval_s`, but costs O(1) state instead of O(N).
//! * **Node attributes** (distance, long-term SNR, oscillator CFO, the
//!   static channel/SF assignment) are *derived on demand* from a seeded
//!   per-node RNG mirroring [`crate::deployment::Deployment`]'s sampling —
//!   no per-node array ever exists.
//! * **Waveforms** are synthesised per chunk through
//!   `Modulator::frame_waveform_range_into`, which regenerates exactly the
//!   frame slice overlapping the chunk into shared scratch (PR 4's arena
//!   discipline): no frame longer than a chunk is ever resident.
//!
//! # Determinism contract
//!
//! For a fixed `(plan, config)` the emitted sample stream is a pure
//! function of the seed and **independent of the chunk-size schedule**:
//! every random draw is attached either to an arrival (drawn in arrival
//! order from the traffic RNG) or to a sample (noise RNG, drawn in sample
//! order), never to a chunk boundary. `streamed_scenario.rs` pins this
//! the way `channelizer_equivalence.rs` pins the DSP path.
//!
//! For small scenarios the stream is additionally **sample-exact** against
//! the materialise-everything reference: mixing replicates
//! `crate::mix::superpose_into`'s per-sample arithmetic (same rotation
//! expression, same frame ordering, same f32 accumulation order), and the
//! slice generator is bit-exact against full-frame synthesis, so
//! concatenating chunks equals `synthesize` + `add_unit_noise` bitwise.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

use lora_dsp::Cf32;
use lora_phy::packet::Transceiver;
use lora_phy::params::CodeRate;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::awgn::{add_unit_noise, amplitude_for_snr};
use crate::deployment::{DeploymentKind, CRYSTAL_PPM};
use crate::rng::{exponential, uniform};
use crate::wideband::{BandPlan, WidebandPacket};

/// Salt separating the noise RNG stream from the traffic RNG stream.
const NOISE_SEED_SALT: u64 = 0x6E6F_6973_655F_7267;
/// Salt separating per-node profile RNGs from everything else.
const NODE_SEED_SALT: u64 = 0x70726F_66696C65;

/// Seed of the dedicated noise RNG for master seed `seed`.
///
/// Exposed so equivalence tests (and any batch oracle) can reproduce the
/// exact AWGN a [`StreamedScenario`] adds: seeding
/// [`crate::awgn::add_unit_noise`]'s RNG with this value and running it
/// over the full capture matches the streamed noise sample-for-sample.
pub fn noise_seed(seed: u64) -> u64 {
    seed ^ NOISE_SEED_SALT
}

/// Traffic model knobs for a streamed scenario.
#[derive(Debug, Clone)]
pub struct StreamConfig {
    /// Number of transmitting nodes.
    pub n_nodes: usize,
    /// Deployment supplying the path-loss / SNR / CFO statistics.
    pub deployment: DeploymentKind,
    /// Spreading factors in use, assigned round-robin after channels.
    pub sfs: Vec<u8>,
    /// Coding rate (shared).
    pub code_rate: CodeRate,
    /// Payload length, bytes.
    pub payload_len: usize,
    /// Mean per-node transmit interval in seconds (LoRaWAN duty cycle);
    /// the aggregate arrival rate is `n_nodes / mean_interval_s`.
    pub mean_interval_s: f64,
    /// Arrivals are scheduled while their start time is below this.
    pub duration_s: f64,
    /// Master seed: traffic, noise and node profiles all derive from it.
    pub seed: u64,
    /// Add unit-variance complex AWGN to the stream.
    pub noise: bool,
}

/// Static per-node attributes, derived on demand (never stored per node).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct NodeProfile {
    /// Distance to the gateway, metres.
    pub distance_m: f64,
    /// Long-term received in-band SNR, dB.
    pub mean_snr_db: f64,
    /// Oscillator offset, Hz.
    pub cfo_hz: f64,
}

/// Derive node `node`'s static profile for `(kind, seed)`.
///
/// Mirrors [`crate::deployment::Deployment::with_nodes`]'s per-node
/// sampling (uniform distance in the deployment band, shadowed SNR,
/// crystal-ppm CFO) from a dedicated per-node RNG, so the distributions
/// match the 20-node deployments without materialising a node table.
pub(crate) fn derive_node_profile(kind: DeploymentKind, seed: u64, node: usize) -> NodeProfile {
    let mix = seed
        ^ (node as u64)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .rotate_left(23)
        ^ NODE_SEED_SALT;
    let mut rng = StdRng::seed_from_u64(mix);
    let model = kind.path_loss();
    let (dmin, dmax) = kind.distance_band_m();
    let distance_m = uniform(&mut rng, dmin, dmax);
    let mean_snr_db = model.node_snr_db(&mut rng, distance_m);
    let ppm = uniform(&mut rng, -CRYSTAL_PPM, CRYSTAL_PPM);
    let cfo_hz = lora_phy::cfo::ppm_to_hz(ppm, lora_phy::cfo::DEFAULT_CARRIER_HZ);
    NodeProfile {
        distance_m,
        mean_snr_db,
        cfo_hz,
    }
}

/// Ground truth for one streamed transmission.
#[derive(Debug, Clone)]
pub struct StreamedEmission {
    /// Transmitting node.
    pub node: usize,
    /// Per-packet in-band SNR drawn for this transmission, dB.
    pub snr_db: f64,
    /// The equivalent batch-mixer packet (channel, SF, payload, amplitude,
    /// effective start sample, node CFO) — `synthesize` over these packets
    /// reproduces the stream's signal content exactly.
    pub packet: WidebandPacket,
}

/// A scheduled frame waiting for the stream position to reach its start.
#[derive(Debug)]
struct PendingFrame {
    start: usize,
    /// Arrival sequence number: makes the heap order a strict total order,
    /// so release order is independent of the chunk-size schedule.
    seq: u64,
    emission: StreamedEmission,
}

impl PartialEq for PendingFrame {
    fn eq(&self, other: &Self) -> bool {
        self.start == other.start && self.seq == other.seq
    }
}
impl Eq for PendingFrame {}
impl PartialOrd for PendingFrame {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for PendingFrame {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.start, self.seq).cmp(&(other.start, other.seq))
    }
}

/// Lazy Poisson frame scheduler: produces [`StreamedEmission`]s in start
/// order with O(concurrent transmissions) state, no matter how many nodes
/// the scenario has.
///
/// A node whose next arrival fires while its radio is still transmitting
/// queues back-to-back: the new frame starts when the previous one ends
/// (the busy map holds only in-flight nodes and is pruned as the stream
/// position advances).
pub struct FrameSchedule {
    cfg: StreamConfig,
    n_channels: usize,
    oversampling: usize,
    wideband_rate_hz: f64,
    lambda: f64,
    rng: StdRng,
    /// Time of the next raw arrival, `None` once past `duration_s`.
    next_time_s: Option<f64>,
    /// Arrivals counted so far (also the next sequence number).
    emitted: u64,
    /// Frames scheduled but not yet released to the caller.
    pending: BinaryHeap<Reverse<PendingFrame>>,
    /// node → sample at which its radio frees up; only in-flight nodes.
    busy_until: HashMap<usize, usize>,
    /// Frame length in wideband samples per SF (fixed payload length).
    frame_samples: HashMap<u8, usize>,
}

impl FrameSchedule {
    /// Build the scheduler for `plan` and `cfg`.
    pub fn new(plan: &BandPlan, cfg: StreamConfig) -> Self {
        assert!(cfg.n_nodes > 0, "need at least one node");
        assert!(!cfg.sfs.is_empty(), "need at least one spreading factor");
        assert!(cfg.mean_interval_s > 0.0, "mean interval must be positive");
        assert!(cfg.duration_s > 0.0, "duration must be positive");
        let lambda = cfg.n_nodes as f64 / cfg.mean_interval_s;
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let first = exponential(&mut rng, lambda);
        let frame_samples = cfg
            .sfs
            .iter()
            .map(|&sf| {
                let tx = Transceiver::new(plan.wideband_params(sf), cfg.code_rate);
                (sf, tx.frame_samples(cfg.payload_len))
            })
            .collect();
        Self {
            next_time_s: (first < cfg.duration_s).then_some(first),
            n_channels: plan.n_channels(),
            oversampling: plan.oversampling,
            wideband_rate_hz: plan.wideband_rate_hz(),
            lambda,
            rng,
            emitted: 0,
            pending: BinaryHeap::new(),
            busy_until: HashMap::new(),
            frame_samples,
            cfg,
        }
    }

    /// The scenario configuration.
    pub(crate) fn config(&self) -> &StreamConfig {
        &self.cfg
    }

    /// Frame length in wideband samples for `sf` at the configured payload.
    pub fn frame_samples(&self, sf: u8) -> usize {
        self.frame_samples[&sf]
    }

    /// The longest configured frame, in wideband samples.
    pub(crate) fn max_frame_samples(&self) -> usize {
        *self.frame_samples.values().max().expect("non-empty sfs")
    }

    /// Total arrivals scheduled so far.
    pub(crate) fn emitted(&self) -> u64 {
        self.emitted
    }

    /// Whether every arrival below `duration_s` has been scheduled and
    /// released.
    pub fn exhausted(&self) -> bool {
        self.next_time_s.is_none() && self.pending.is_empty()
    }

    /// Approximate resident footprint of the scheduler state, bytes.
    pub(crate) fn resident_bytes(&self) -> usize {
        let pending = self.pending.len()
            * (std::mem::size_of::<PendingFrame>() + self.cfg.payload_len)
            + self
                .pending
                .iter()
                .map(|Reverse(p)| p.emission.packet.payload.capacity())
                .sum::<usize>();
        let busy = self.busy_until.capacity() * 3 * std::mem::size_of::<usize>();
        pending + busy + std::mem::size_of::<Self>()
    }

    /// Release every emission whose effective start sample is below
    /// `horizon`, in (start, arrival) order, appending to `out`.
    ///
    /// All traffic randomness is drawn here, strictly in arrival order, so
    /// the emission stream does not depend on the horizon schedule.
    pub fn emissions_until(&mut self, horizon: usize, out: &mut Vec<StreamedEmission>) {
        while let Some(t) = self.next_time_s {
            let arrival_sample = (t * self.wideband_rate_hz).round() as usize;
            if arrival_sample >= horizon {
                break;
            }
            self.schedule_arrival(arrival_sample);
            let next = t + exponential(&mut self.rng, self.lambda);
            self.next_time_s = (next < self.cfg.duration_s).then_some(next);
        }
        // Prune busy entries the stream position has passed; anything
        // ending below the horizon can never defer a future arrival
        // (arrivals at or past the horizon start at or past it).
        self.busy_until.retain(|_, &mut end| end > horizon);
        while let Some(Reverse(p)) = self.pending.peek() {
            if p.start >= horizon {
                break;
            }
            let Reverse(p) = self.pending.pop().expect("peeked");
            out.push(p.emission);
        }
    }

    /// Draw one arrival's randomness and queue its frame.
    fn schedule_arrival(&mut self, arrival_sample: usize) {
        let cfg = &self.cfg;
        let node = self.rng.random_range(0..cfg.n_nodes);
        let payload: Vec<u8> = (0..cfg.payload_len).map(|_| self.rng.random()).collect();
        let profile = derive_node_profile(cfg.deployment, cfg.seed, node);
        let snr_db = cfg
            .deployment
            .path_loss()
            .packet_snr_db(&mut self.rng, profile.mean_snr_db);
        let channel = node % self.n_channels;
        let sf = cfg.sfs[(node / self.n_channels) % cfg.sfs.len()];
        let frame = self.frame_samples[&sf];
        let busy = self.busy_until.get(&node).copied().unwrap_or(0);
        let start = arrival_sample.max(busy);
        self.busy_until.insert(node, start + frame);
        let emission = StreamedEmission {
            node,
            snr_db,
            packet: WidebandPacket {
                channel,
                sf,
                code_rate: cfg.code_rate,
                payload,
                amplitude: amplitude_for_snr(snr_db, self.oversampling),
                start_sample: start,
                cfo_hz: profile.cfo_hz,
            },
        };
        let seq = self.emitted;
        self.emitted += 1;
        self.pending.push(Reverse(PendingFrame {
            start,
            seq,
            emission,
        }));
    }
}

/// A frame currently on the air: everything needed to regenerate any slice
/// of its waveform, and nothing else — no waveform samples are retained.
struct ActiveFrame {
    start: usize,
    len: usize,
    sf: u8,
    symbols: Vec<usize>,
    amplitude: f32,
    /// Per-sample CFO phase increment (channel carrier + node offset),
    /// computed exactly as [`crate::mix::superpose_into`] does.
    phase_step: f64,
}

/// The streamed scenario engine: a lazy chunked wideband sample generator
/// equivalent to `synthesize(plan, …, packets)` + `add_unit_noise`, with
/// memory bounded by the chunk size and the number of *concurrent* frames
/// — independent of node count and capture length.
///
/// Call [`StreamedScenario::next_chunk`] repeatedly (any chunk-size
/// schedule; the stream is invariant to it) and drain ground truth with
/// [`StreamedScenario::drain_truth`] as you go — truth for frames
/// activated so far accumulates until drained and is counted in
/// `StreamedScenario::resident_bytes`.
pub struct StreamedScenario {
    plan: BandPlan,
    schedule: FrameSchedule,
    /// One transceiver per SF at wideband rate: symbol encoding + the
    /// chirp tables behind lazy slice synthesis.
    transceivers: HashMap<u8, Transceiver>,
    noise_rng: StdRng,
    noise: bool,
    total_samples: usize,
    position: usize,
    /// Frames overlapping the current stream position, in activation
    /// (start, arrival) order — the batch mixer's packet order.
    active: Vec<ActiveFrame>,
    /// Undrained ground truth.
    truth: Vec<StreamedEmission>,
    /// Emissions released by the scheduler this chunk (reused).
    incoming: Vec<StreamedEmission>,
    /// The chunk mix buffer handed out to the caller (reused).
    chunk: Vec<Cf32>,
    /// Frame-slice arena (reused across frames and chunks).
    slice: Vec<Cf32>,
    /// Symbol regeneration arena for `frame_waveform_range_into`.
    symbol_scratch: Vec<Cf32>,
    peak_resident: usize,
}

impl StreamedScenario {
    /// Build the engine. The stream length is fixed up front: samples for
    /// `duration_s` of arrivals, plus the longest frame, plus one max-SF
    /// symbol of settling margin (mirroring `generate_traffic`).
    pub fn new(plan: BandPlan, cfg: StreamConfig) -> Self {
        let noise_seed = noise_seed(cfg.seed);
        let noise = cfg.noise;
        let schedule = FrameSchedule::new(&plan, cfg);
        let cfg = schedule.config();
        let transceivers: HashMap<u8, Transceiver> = cfg
            .sfs
            .iter()
            .map(|&sf| {
                (
                    sf,
                    Transceiver::new(plan.wideband_params(sf), cfg.code_rate),
                )
            })
            .collect();
        let max_sf = *cfg.sfs.iter().max().expect("non-empty sfs");
        let margin = plan.wideband_params(max_sf).samples_per_symbol();
        let total_samples = (cfg.duration_s * plan.wideband_rate_hz()).ceil() as usize
            + schedule.max_frame_samples()
            + margin;
        let mut s = Self {
            plan,
            schedule,
            transceivers,
            noise_rng: StdRng::seed_from_u64(noise_seed),
            noise,
            total_samples,
            position: 0,
            active: Vec::new(),
            truth: Vec::new(),
            incoming: Vec::new(),
            chunk: Vec::new(),
            slice: Vec::new(),
            symbol_scratch: Vec::new(),
            peak_resident: 0,
        };
        s.peak_resident = s.resident_bytes();
        s
    }

    /// Total stream length in wideband samples.
    pub fn total_samples(&self) -> usize {
        self.total_samples
    }

    /// Samples emitted so far.
    pub fn position(&self) -> usize {
        self.position
    }

    /// Transmissions scheduled so far.
    pub fn emitted(&self) -> u64 {
        self.schedule.emitted()
    }

    /// The next `len` samples of the stream (the final chunk is shorter),
    /// or `None` once the stream is exhausted. `len` may vary call to
    /// call; the sample stream never depends on it.
    pub fn next_chunk(&mut self, len: usize) -> Option<&[Cf32]> {
        assert!(len > 0, "chunk length must be positive");
        if self.position >= self.total_samples {
            return None;
        }
        let a = self.position;
        let b = (a + len).min(self.total_samples);

        // Activate frames starting before the chunk end, in start order.
        let mut incoming = std::mem::take(&mut self.incoming);
        self.schedule.emissions_until(b, &mut incoming);
        for e in incoming.drain(..) {
            let tx = &self.transceivers[&e.packet.sf];
            let symbols = tx.codec().encode(&e.packet.payload);
            // Exactly superpose_into's phase math: step = TAU / fs, then
            // scaled by the emission's total CFO (carrier + oscillator).
            let step = std::f64::consts::TAU / tx.params().sample_rate_hz();
            let cfo = self.plan.offsets_hz[e.packet.channel] + e.packet.cfo_hz;
            self.active.push(ActiveFrame {
                start: e.packet.start_sample,
                len: tx.modulator().layout().frame_len(symbols.len()),
                sf: e.packet.sf,
                symbols,
                amplitude: e.packet.amplitude as f32,
                phase_step: step * cfo,
            });
            self.truth.push(e);
        }
        self.incoming = incoming;

        // Mix every active frame's overlap into the chunk, preserving the
        // batch mixer's per-sample accumulation order (activation order).
        self.chunk.clear();
        self.chunk.resize(b - a, Cf32::new(0.0, 0.0));
        let Self {
            transceivers,
            active,
            chunk,
            slice,
            symbol_scratch,
            ..
        } = self;
        for f in active.iter() {
            let lo = f.start.max(a);
            let hi = (f.start + f.len).min(b);
            if lo >= hi {
                continue;
            }
            let r0 = lo - f.start;
            slice.clear();
            transceivers[&f.sf].modulator().frame_waveform_range_into(
                &f.symbols,
                r0..hi - f.start,
                symbol_scratch,
                slice,
            );
            let out = &mut chunk[lo - a..hi - a];
            for (j, &w) in slice.iter().enumerate() {
                let i = r0 + j;
                let phase = (f.phase_step * i as f64) % std::f64::consts::TAU;
                let rot = Cf32::from_polar(1.0, phase as f32);
                out[j] += w * rot * f.amplitude;
            }
        }
        self.active.retain(|f| f.start + f.len > b);

        if self.noise {
            add_unit_noise(&mut self.noise_rng, &mut self.chunk);
        }
        self.position = b;
        let resident = self.resident_bytes();
        self.peak_resident = self.peak_resident.max(resident);
        Some(&self.chunk)
    }

    /// Take the ground truth accumulated since the last drain (activation
    /// order). Drain regularly: undrained truth is the one part of the
    /// engine whose footprint grows with traffic volume.
    pub fn drain_truth(&mut self) -> Vec<StreamedEmission> {
        std::mem::take(&mut self.truth)
    }

    /// Approximate resident footprint in bytes: chunk + arenas + active
    /// frame state + scheduler + chirp tables + undrained truth.
    pub(crate) fn resident_bytes(&self) -> usize {
        let c = std::mem::size_of::<Cf32>();
        let buffers =
            (self.chunk.capacity() + self.slice.capacity() + self.symbol_scratch.capacity()) * c;
        let active = self.active.capacity() * std::mem::size_of::<ActiveFrame>()
            + self
                .active
                .iter()
                .map(|f| f.symbols.capacity() * std::mem::size_of::<usize>())
                .sum::<usize>();
        let truth = self.truth.capacity() * std::mem::size_of::<StreamedEmission>()
            + self
                .truth
                .iter()
                .map(|t| t.packet.payload.capacity())
                .sum::<usize>();
        // ChirpTable per SF: up + down + quarter-down at wideband rate.
        let tables = self
            .transceivers
            .values()
            .map(|tx| tx.params().samples_per_symbol() * 9 / 4 * c)
            .sum::<usize>();
        buffers + active + truth + tables + self.schedule.resident_bytes()
    }

    /// High-water mark of `StreamedScenario::resident_bytes` across the
    /// run so far.
    pub fn peak_resident_bytes(&self) -> usize {
        self.peak_resident
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wideband::node_channel;
    use lora_dsp::math;

    fn plan() -> BandPlan {
        BandPlan::uniform(2, 250e3, 500e3, 2, 2)
    }

    fn cfg(n_nodes: usize, duration_s: f64, seed: u64) -> StreamConfig {
        StreamConfig {
            n_nodes,
            deployment: DeploymentKind::D1IndoorLos,
            sfs: vec![7, 9],
            code_rate: CodeRate::Cr45,
            payload_len: 8,
            mean_interval_s: n_nodes as f64 / 40.0, // aggregate 40 pps
            duration_s,
            seed,
            noise: true,
        }
    }

    #[test]
    fn stream_covers_declared_length_and_has_energy() {
        let mut s = StreamedScenario::new(plan(), cfg(12, 0.3, 1));
        let total = s.total_samples();
        let mut n = 0usize;
        while let Some(c) = s.next_chunk(4096) {
            n += c.len();
        }
        assert_eq!(n, total);
        assert!(s.emitted() > 0);
        assert!(s.next_chunk(4096).is_none());
    }

    #[test]
    fn truth_packets_fit_inside_stream_and_respect_assignment() {
        let p = plan();
        let mut s = StreamedScenario::new(p.clone(), cfg(12, 0.3, 2));
        while s.next_chunk(8192).is_some() {}
        let truth = s.drain_truth();
        assert!(!truth.is_empty());
        for t in &truth {
            assert_eq!(t.packet.channel, node_channel(&p, t.node));
            let sf = cfg(12, 0.3, 2).sfs[(t.node / p.n_channels()) % 2];
            assert_eq!(t.packet.sf, sf);
            assert!(t.packet.amplitude > 0.0);
        }
        // Activation order is start order.
        for w in truth.windows(2) {
            assert!(w[0].packet.start_sample <= w[1].packet.start_sample);
        }
    }

    #[test]
    fn signal_energy_present_without_noise() {
        let mut c = cfg(6, 0.2, 3);
        c.noise = false;
        let mut s = StreamedScenario::new(plan(), c);
        let mut energy = 0.0;
        while let Some(ch) = s.next_chunk(4096) {
            energy += math::energy(ch);
        }
        assert!(energy > 0.0);
    }

    #[test]
    fn node_profiles_deterministic_and_distinct() {
        let a = derive_node_profile(DeploymentKind::D3LargeIndoorNlos, 7, 12345);
        let b = derive_node_profile(DeploymentKind::D3LargeIndoorNlos, 7, 12345);
        assert_eq!(a, b);
        let c = derive_node_profile(DeploymentKind::D3LargeIndoorNlos, 7, 12346);
        assert_ne!(a, c);
        let (dmin, dmax) = DeploymentKind::D3LargeIndoorNlos.distance_band_m();
        assert!((dmin..dmax).contains(&a.distance_m));
    }

    #[test]
    fn busy_node_queues_back_to_back() {
        // One node, interval far shorter than the frame: every arrival
        // after the first defers to the previous frame's end.
        let p = plan();
        let c = StreamConfig {
            n_nodes: 1,
            deployment: DeploymentKind::D1IndoorLos,
            sfs: vec![9],
            code_rate: CodeRate::Cr45,
            payload_len: 16,
            mean_interval_s: 0.001,
            duration_s: 0.2,
            seed: 5,
            noise: false,
        };
        let mut sched = FrameSchedule::new(&p, c);
        let frame = sched.frame_samples(9);
        let mut out = Vec::new();
        sched.emissions_until(usize::MAX, &mut out);
        assert!(out.len() > 2);
        for w in out.windows(2) {
            assert!(
                w[1].packet.start_sample >= w[0].packet.start_sample + frame,
                "frames of one node must not overlap"
            );
        }
        assert!(sched.exhausted());
    }

    #[test]
    fn busy_map_is_pruned() {
        let p = plan();
        let mut sched = FrameSchedule::new(&p, cfg(500, 2.0, 9));
        let mut out = Vec::new();
        let step = 1 << 14;
        let mut horizon = step;
        let total = (2.0 * p.wideband_rate_hz()) as usize;
        while horizon < total {
            sched.emissions_until(horizon, &mut out);
            // Bounded by frames that can concurrently be on the air, far
            // below the node count.
            assert!(sched.busy_until.len() < 200, "{}", sched.busy_until.len());
            horizon += step;
        }
    }
}
