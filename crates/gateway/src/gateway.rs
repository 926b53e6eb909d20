//! The gateway runtime: channelizer front end, per-(channel, SF) decode
//! streams served by a core-sized thread pool, overload control plane,
//! and the merged time-ordered packet stream.
//!
//! Dataflow (double boxes are threads):
//!
//! ```text
//!                 ╔═════════════ caller thread ═════════════╗
//! wideband IQ ──▶ ║ Gateway::push ─▶ Channelizer (D-fold)   ║
//!                 ║ then the ladder's due ticks read mean   ║
//!                 ║ queue depths and set rungs; dispatch    ║
//!                 ╚══════╤═══════════════╤══════════════════╝
//!               channel 0│     channel 1 │        …
//!                  ┌─────┴─────┐   ┌─────┴─────┐
//!                  ▼           ▼   ▼           ▼
//!             [queue 0,SF7] [queue 0,SF9] …        bounded, drop-oldest
//!             stream state  stream state           depth, decode and rung
//!                  │ wake      │ wake              gauges per stream
//!                  ▼           ▼
//!             ╔═══════════ decode pool ═══════╗
//!             ║ min(streams, cores) threads;  ║
//!             ║ ready streams FIFO, one chunk ║
//!             ║ per turn; idle deadlines      ║
//!             ╚═══════════════╤═══════════════╝
//!                             ▼
//!                        PacketSink  ─▶ time-ordered, deduplicated packets
//! ```
//!
//! Every (channel, SF) *stream* keeps its own queue, receiver,
//! telemetry and sink watermark slot; its telemetry's
//! [`WorkerStats::effort_rung`] gauge is the rung it decodes its next
//! chunk at. The decode pool's threads only decide which stream runs
//! next. A stream runs on at most one pool thread at a time, one chunk
//! per turn, and ready streams are served first come, first served, so a
//! backlog on one stream cannot starve another.
//!
//! The threads belong to a *runtime*: one decode pool over every stream
//! it serves, and no other thread. The runtime also owns its front ends
//! (channelizer, queues, telemetry and, under the adaptive policy, the
//! overload ladder) and the one sink all their streams report into. A
//! gateway is a runtime with one front end; a [`crate::GatewayCluster`]
//! is a runtime with one front end per shard, so its thread count does
//! not grow with the shard count and its merge is the gateway's own.
//!
//! Backpressure is layered ([`crate::load`]). `push` never blocks; under
//! [`OverloadPolicy::Adaptive`] each push, before dispatching its chunk,
//! runs the shard's ladder one tick per whole
//! [`OverloadConfig::tick`](crate::load::OverloadConfig::tick) since the
//! previous ticks (at most one dwell's worth), so the ladder's dwells
//! last the same wall time however far apart pushes come. The ticks
//! read each stream's mean queue depth since the previous ticks — each
//! queue integrates its length over time — and its decode-latency
//! gauge; they take only the queues' own short locks and write atomics.
//! When decoders fall behind the
//! ladder first cuts decoder effort on hot streams rung by rung, then
//! sheds whole high-SF streams
//! (their chunks are discarded and counted, their watermarks keep
//! advancing), and only load the ladder cannot absorb reaches the
//! bounded queues' counted drop-oldest eviction — after which the stream
//! resynchronises across the gap with [`StreamingReceiver::seek_to`].
//! Recovery retraces the ladder upward under hysteresis. No tick runs
//! without a push: an idle gateway wakes no thread, and while the
//! producer is silent every stream keeps its rung until the next push
//! counts the silence.
//!
//! Liveness: a stream whose queue stays empty for
//! [`crate::load::OverloadConfig::idle_timeout`] after a turn has caught
//! up with everything channelized so far. The pool then gives it an
//! idle turn — even while other streams keep every thread busy — in
//! which it quiesces its receiver ([`StreamingReceiver::quiesce`]) and
//! publishes a caught-up watermark at its full stream position, so a
//! silent channel can never hold back the release of other streams'
//! already-decoded packets while the producer pauses.

use std::num::NonZeroUsize;
use std::sync::atomic::Ordering;
use std::sync::mpsc::Receiver;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use cic::{CicConfig, DecodedPacket, StreamingReceiver};
use lora_dsp::{Cf32, Channelizer, ChannelizerConfig, ChannelizerError};
use lora_phy::params::{CodeRate, LoraParams, ParamError};

use crate::load::{
    rung_config, ControlAction, OverloadConfig, OverloadController, OverloadPolicy,
    MAX_EFFORT_RUNG, SHED_RUNG, SIC_RUNG,
};
use crate::pool::{DecodePool, Task, Turn};
use crate::queue::{Chunk, ChunkQueue, Pop};
use crate::sink::{GatewayPacket, PacketSink};
use crate::stats::{GatewaySnapshot, GatewayStats, WorkerStats};

/// Everything needed to stand up a gateway.
#[derive(Debug, Clone)]
pub struct GatewayConfig {
    /// The wideband → channel split.
    pub channelizer: ChannelizerConfig,
    /// Oversampling at the channel rate (channel bandwidth is
    /// `channel_rate / oversampling`).
    pub oversampling: usize,
    /// Spreading factors decoded on every channel (one worker each).
    pub sfs: Vec<u8>,
    /// Coding rate of the deployment.
    pub code_rate: CodeRate,
    /// Fixed payload length (implicit-header deployments).
    pub payload_len: usize,
    /// CIC decoder configuration shared by all workers (full-effort
    /// baseline; the overload ladder derives reduced-effort variants).
    pub cic: CicConfig,
    /// Bounded queue capacity per worker, in chunks.
    pub queue_capacity: usize,
    /// Overload policy and control-loop tuning.
    pub overload: OverloadConfig,
}

/// Typed rejection of an invalid [`GatewayConfig`], raised by
/// `GatewayConfig::validate` (and therefore by [`Gateway::new`]) before
/// any thread is spawned — instead of an `expect` deep inside a worker
/// constructor.
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    /// The channelizer plan has no channels.
    NoChannels,
    /// No spreading factors configured (no worker would exist).
    NoSpreadingFactors,
    /// A spreading factor appears more than once (duplicate workers
    /// would double-decode the same stream).
    DuplicateSpreadingFactor(u8),
    /// Per-worker queue capacity of zero chunks (no sample could ever be
    /// enqueued).
    ZeroQueueCapacity,
    /// The fixed payload length, in bytes, exceeds the 255 bytes of
    /// LoRa's largest PHY payload.
    PayloadTooLong(usize),
    /// The per-channel LoRa parameters derived from the channelizer
    /// layout and oversampling are invalid at this spreading factor.
    InvalidChannelParams {
        /// Offending spreading factor.
        sf: u8,
        /// Derived channel bandwidth (`channel_rate / oversampling`), Hz.
        bandwidth_hz: f64,
        /// Configured oversampling factor.
        oversampling: usize,
        /// The underlying parameter error.
        source: ParamError,
    },
    /// A channelizer plan field no filter can be designed or run from
    /// (see [`ChannelizerConfig::validate`]).
    InvalidChannelizer(ChannelizerError),
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::NoChannels => write!(f, "channelizer plan has no channels"),
            ConfigError::NoSpreadingFactors => {
                write!(f, "need at least one spreading factor")
            }
            ConfigError::DuplicateSpreadingFactor(sf) => {
                write!(f, "spreading factor sf{sf} listed more than once")
            }
            ConfigError::ZeroQueueCapacity => {
                write!(f, "per-worker queue capacity must be at least one chunk")
            }
            ConfigError::PayloadTooLong(len) => write!(
                f,
                "payload length {len} B exceeds the {MAX_PAYLOAD_LEN} B LoRa maximum"
            ),
            ConfigError::InvalidChannelParams {
                sf,
                bandwidth_hz,
                oversampling,
                source,
            } => write!(
                f,
                "invalid channel parameters at sf{sf} \
                 (bandwidth {bandwidth_hz} Hz, oversampling {oversampling}): {source}"
            ),
            ConfigError::InvalidChannelizer(source) => {
                write!(f, "invalid channelizer plan: {source}")
            }
        }
    }
}

impl std::error::Error for ConfigError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ConfigError::InvalidChannelParams { source, .. } => Some(source),
            ConfigError::InvalidChannelizer(source) => Some(source),
            _ => None,
        }
    }
}

/// LoRa's largest PHY payload, in bytes: the explicit header carries the
/// length in one byte.
const MAX_PAYLOAD_LEN: usize = 255;

impl GatewayConfig {
    /// LoRa parameters of one channel stream at spreading factor `sf`.
    ///
    /// # Panics
    /// If the configuration is invalid at `sf` — run
    /// `GatewayConfig::validate` first ([`Gateway::new`] does).
    pub fn channel_params(&self, sf: u8) -> LoraParams {
        self.try_channel_params(sf)
            .expect("gateway config holds valid parameters")
    }

    /// LoRa parameters of one channel stream at `sf`, or the typed
    /// validation error naming the offending parameters.
    pub(crate) fn try_channel_params(&self, sf: u8) -> Result<LoraParams, ConfigError> {
        let bw = self.channelizer.channel_rate_hz() / self.oversampling as f64;
        LoraParams::new(sf, bw, self.oversampling).map_err(|source| {
            ConfigError::InvalidChannelParams {
                sf,
                bandwidth_hz: bw,
                oversampling: self.oversampling,
                source,
            }
        })
    }

    /// Check every axis of the configuration up front, before any
    /// resource is allocated or thread spawned: channel plan, spreading
    /// factor set, queue sizing, payload length, the derived per-channel LoRa
    /// parameters at every configured spreading factor, and the
    /// channelizer's filter design and decimation.
    pub(crate) fn validate(&self) -> Result<(), ConfigError> {
        if self.channelizer.n_channels() == 0 {
            return Err(ConfigError::NoChannels);
        }
        if self.sfs.is_empty() {
            return Err(ConfigError::NoSpreadingFactors);
        }
        for (i, &sf) in self.sfs.iter().enumerate() {
            if self.sfs[..i].contains(&sf) {
                return Err(ConfigError::DuplicateSpreadingFactor(sf));
            }
        }
        if self.queue_capacity == 0 {
            return Err(ConfigError::ZeroQueueCapacity);
        }
        if self.payload_len > MAX_PAYLOAD_LEN {
            return Err(ConfigError::PayloadTooLong(self.payload_len));
        }
        for &sf in &self.sfs {
            self.try_channel_params(sf)?;
        }
        // A zero wideband rate already failed above, as the zero channel
        // bandwidth it derives.
        self.channelizer
            .validate()
            .map_err(ConfigError::InvalidChannelizer)
    }

    /// The (channel, SF) pair handled by each worker, in worker order.
    pub fn workers(&self) -> Vec<(usize, u8)> {
        let mut v = Vec::with_capacity(self.channelizer.n_channels() * self.sfs.len());
        for channel in 0..self.channelizer.n_channels() {
            for &sf in &self.sfs {
                v.push((channel, sf));
            }
        }
        v
    }
}

/// One (channel, SF) decode stream: its queue, receiver, telemetry and
/// ladder state. The decode pool serves it one turn at a time, on at
/// most one thread at once.
struct Stream {
    /// Pool task index, and watermark slot in the runtime's sink.
    idx: usize,
    shard: usize,
    /// Global channel index.
    channel: usize,
    sf: u8,
    queue: Arc<ChunkQueue>,
    sink: Arc<PacketSink>,
    stats: Arc<GatewayStats>,
    /// The stream's telemetry; its `effort_rung` gauge is the rung to
    /// decode at.
    wstats: Arc<WorkerStats>,
    /// Full-effort decoder configuration (rung 0 baseline).
    base_cic: CicConfig,
    /// Wideband samples per channel sample.
    decimation: u64,
    /// Channel-filter group delay in wideband samples.
    delay_wideband: u64,
    sr: StreamingReceiver,
    /// The receiver's holdback, channel samples.
    holdback: usize,
    /// The effort rung the receiver's config currently reflects.
    applied_rung: usize,
    /// `Some(t)` while shed: entry time, for `shed_micros`.
    shed_since: Option<Instant>,
}

impl Stream {
    /// Map a channel-stream sample index onto the wideband time base,
    /// correcting the filter group delay.
    fn to_wideband(&self, channel_sample: usize) -> u64 {
        (channel_sample as u64 * self.decimation).saturating_sub(self.delay_wideband)
    }

    /// Count and forward freshly decoded packets to the sink.
    fn deliver(&self, packets: Vec<DecodedPacket>) {
        if packets.is_empty() {
            return;
        }
        let mut out = Vec::with_capacity(packets.len());
        for p in packets {
            if p.ok() {
                self.wstats.packets_decoded.fetch_add(1, Ordering::Relaxed);
            } else {
                self.wstats.crc_failures.fetch_add(1, Ordering::Relaxed);
            }
            out.push(GatewayPacket {
                channel: self.channel,
                sf: self.sf,
                start_wideband: self.to_wideband(p.detection.frame_start),
                packet: p,
            });
        }
        self.sink.report(self.shard, out);
    }
}

impl Task for Stream {
    fn turn(&mut self) -> Turn {
        match self.queue.try_pop() {
            Pop::Chunk(chunk) => {
                self.consume(&chunk);
                Turn::Worked
            }
            Pop::Idle => {
                self.catch_up();
                Turn::Idled
            }
            Pop::Closed => {
                self.flush();
                Turn::Finished
            }
        }
    }

    fn has_work(&self) -> bool {
        !self.queue.is_idle()
    }
}

impl Stream {
    /// Decode (or, while shed, discard) one chunk, at the rung the
    /// `effort_rung` gauge holds.
    fn consume(&mut self, chunk: &Chunk) {
        let rung = self.wstats.effort_rung.load(Ordering::Relaxed) as usize;
        if rung == SHED_RUNG {
            if self.shed_since.is_none() {
                // Entering shed: quiesce first so every packet the
                // buffer still holds is emitted (or given up on)
                // before the watermark runs ahead of the decode.
                let out = self.sr.quiesce();
                self.deliver(out);
                self.shed_since = Some(Instant::now());
            }
            self.wstats.chunks_shed.fetch_add(1, Ordering::Relaxed);
            self.wstats
                .samples_shed
                .fetch_add(chunk.samples.len() as u64, Ordering::Relaxed);
            // The discarded span is gone for good; let the rest of
            // the gateway release past it.
            let end = chunk.start + chunk.samples.len();
            self.sink.set_watermark(self.idx, self.to_wideband(end));
            return;
        }
        self.end_shed();
        if rung != self.applied_rung {
            self.sr.set_config(rung_config(&self.base_cic, rung));
            self.applied_rung = rung;
        }
        let mut decoded = Vec::new();
        // A start beyond our position means chunks were dropped or
        // shed: give up on anything straddling the gap and
        // resynchronise.
        if chunk.start > self.sr.position() {
            decoded.extend(self.sr.seek_to(chunk.start));
        }
        let t0 = Instant::now();
        decoded.extend(self.sr.push(&chunk.samples));
        let dt = t0.elapsed();
        self.stats.decode.record(dt);
        self.wstats.record_decode_ewma(dt);
        self.deliver(decoded);
        self.wstats.store_sic_report(&self.sr.sic_report());
        let safe = self.sr.position().saturating_sub(self.holdback);
        self.sink.set_watermark(self.idx, self.to_wideband(safe));
    }

    /// The idle turn: caught up with everything produced so far. Emit
    /// what the buffer can still complete (keeping the push-time
    /// suppressions — this is not a drain) and publish a watermark at
    /// the *full* position: nothing reported later can start before it,
    /// because the buffer is empty.
    fn catch_up(&mut self) {
        if self.shed_since.is_none() {
            let out = self.sr.quiesce();
            self.deliver(out);
            self.wstats.store_sic_report(&self.sr.sic_report());
            self.sink
                .set_watermark(self.idx, self.to_wideband(self.sr.position()));
        }
    }

    /// Queue closed and drained: decode what the buffer still holds and
    /// stop constraining the sink.
    fn flush(&mut self) {
        self.end_shed();
        let rest = self.sr.flush();
        self.deliver(rest);
        self.wstats.store_sic_report(&self.sr.sic_report());
        self.sink.finish_worker(self.idx);
    }

    /// Leave the shed state, if in it, accounting its duration.
    fn end_shed(&mut self) {
        if let Some(t0) = self.shed_since.take() {
            self.wstats
                .shed_micros
                .fetch_add(t0.elapsed().as_micros() as u64, Ordering::Relaxed);
        }
    }
}

/// One adaptive shard's overload ladder: its own
/// [`OverloadController`], its tick clock and load samples, and the rung
/// gauges and telemetry it drives. [`Shard::push`] ticks it on the
/// pushing thread.
struct ShardLadder {
    ctl: OverloadController,
    queue_capacity: usize,
    /// Controller tick period ([`OverloadConfig::tick`]).
    period: Duration,
    /// Most controller ticks one push runs: the longer of the escalation
    /// and recovery dwells, so a silence of any length counts as at most
    /// one full dwell.
    max_ticks: u32,
    /// The instant the controller's ticks have been run up to; the
    /// ladder's construction before the first.
    clock: Instant,
    /// When the load was last sampled, and each stream's
    /// [`ChunkQueue::depth_time`] then.
    sampled: Instant,
    depth_times: Vec<u128>,
    stats: Arc<GatewayStats>,
    wstats: Vec<Arc<WorkerStats>>,
}

impl ShardLadder {
    /// Controller ticks due at `now`, at most `max_ticks`, advancing the
    /// tick clock past them. A zero period makes every push one tick.
    fn due_ticks(&mut self, now: Instant) -> u32 {
        if self.period.is_zero() {
            return 1;
        }
        let due = now.saturating_duration_since(self.clock).as_nanos() / self.period.as_nanos();
        if due >= u128::from(self.max_ticks) {
            self.clock = now;
            return self.max_ticks;
        }
        let due = due as u32;
        self.clock += self.period * due;
        due
    }

    /// Run the controller ticks due since the previous ones (none if
    /// less than a period has passed), all on one load sample: each of
    /// the shard's streams' mean queue depth since the previous sample
    /// (`queues`, in worker order) — what a tick every period would have
    /// read on average — and its decode-latency EWMA. The transitions go
    /// to the workers' `effort_rung` gauges and telemetry.
    fn tick(&mut self, queues: &[Arc<ChunkQueue>]) {
        let now = Instant::now();
        let due = self.due_ticks(now);
        if due == 0 {
            return;
        }
        let span = now
            .saturating_duration_since(self.sampled)
            .as_nanos()
            .max(1);
        self.sampled = now;
        // Mean depths in thousandths of a chunk, against the capacity in
        // the same unit.
        let depths: Vec<u64> = queues
            .iter()
            .zip(&mut self.depth_times)
            .map(|(q, prev)| {
                let held = q.depth_time();
                let mean = (held - *prev) * 1000 / span;
                *prev = held;
                u64::try_from(mean).unwrap_or(u64::MAX)
            })
            .collect();
        let decode_ewmas: Vec<u64> = self
            .wstats
            .iter()
            .map(|w| w.decode_ewma_ns.load(Ordering::Relaxed))
            .collect();
        for _ in 0..due {
            for action in self.ctl.tick_with_decode(
                &depths,
                &decode_ewmas,
                self.queue_capacity.saturating_mul(1000),
            ) {
                self.apply(action);
            }
        }
    }

    /// Apply one transition to its workers' `effort_rung` gauges and
    /// telemetry.
    fn apply(&self, action: ControlAction) {
        let (workers, rung, degrade) = match action {
            ControlAction::SetRung {
                worker,
                rung,
                degrade,
            } => (vec![worker], rung, degrade),
            ControlAction::Shed { workers, .. } => (workers, SHED_RUNG, true),
            ControlAction::Restore { workers, .. } => (workers, MAX_EFFORT_RUNG, false),
        };
        for w in workers {
            let wstats = &self.wstats[w];
            wstats.effort_rung.store(rung as u64, Ordering::Relaxed);
            self.stats.record_rung_engagement(rung);
            let counter = if degrade {
                &wstats.degrade_events
            } else {
                &wstats.restore_events
            };
            counter.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Everything a [`Gateway`] or a [`crate::GatewayCluster`] runs: its
/// shards' front ends (each adaptive one with its own ladder), the one
/// sink all their (channel, SF) streams report into on global channel
/// indices, and one decode pool serving every stream. [`Runtime::spawn`]
/// starts the pool's first thread, which starts the rest as a fork tree
/// before it serves (see [`crate::pool`]); no thread is spawned after
/// the tree.
///
/// Dropped without [`Runtime::finish`], the runtime stops its threads
/// without draining: each pool thread exits after its current turn.
/// Every thread is joined before the drop returns, and nothing is
/// flushed.
pub(crate) struct Runtime {
    pool: DecodePool<Stream>,
    sink: Arc<PacketSink>,
    /// The front ends, pushed in shard order.
    shards: Vec<Shard>,
}

impl Runtime {
    /// Build one shard per validated configuration, in order, whose
    /// channel `i` is global channel `channels[i]`, all reporting into one
    /// sink, and spawn the pool serving them all: `min(streams, threads)`
    /// threads (at least one). The shards share the first configuration's
    /// idle timeout and chip length; a cluster derives every shard's from
    /// one base configuration.
    pub(crate) fn spawn(plans: &[(GatewayConfig, Vec<usize>)], threads: usize) -> Self {
        let first = &plans[0].0;
        let idle_timeout = first.overload.idle_timeout;
        let n_streams = plans
            .iter()
            .map(|(c, _)| c.channelizer.n_channels() * c.sfs.len())
            .sum();
        let chip_wideband = first.oversampling * first.channelizer.decimation;
        let sink = Arc::new(PacketSink::new(n_streams, chip_wideband));
        let mut streams = Vec::with_capacity(n_streams);
        let shards = plans
            .iter()
            .map(|(config, channels)| Shard::new(config, channels, &sink, &mut streams))
            .collect();
        let threads = threads.min(streams.len());
        let pool = DecodePool::spawn(streams, threads, idle_timeout, "gw-decode");
        Self { pool, sink, shards }
    }

    /// Feed a chunk of wideband samples to every shard in turn: each
    /// extracts its own band slice, hands it to the pool and ticks its
    /// ladder if one is due.
    pub(crate) fn push(&mut self, samples: &[Cf32]) {
        for shard in &mut self.shards {
            shard.push(&self.pool, samples);
        }
    }

    /// Packets released by the sink since the last call, time-ordered.
    pub(crate) fn poll_packets(&self) -> Vec<GatewayPacket> {
        self.sink.take_released()
    }

    /// The sink's current release horizon, wideband samples: the
    /// released stream is complete below it.
    pub(crate) fn release_horizon(&self) -> u64 {
        self.sink.horizon()
    }

    /// The front ends, in shard order.
    pub(crate) fn shards(&self) -> &[Shard] {
        &self.shards
    }

    /// `(packets_merged, cross_gateway_duplicates)` so far.
    pub(crate) fn merge_counts(&self) -> (u64, u64) {
        self.sink.merge_counts()
    }

    /// End of stream for every shard: end each shard's input
    /// ([`Shard::end_input`]; no ladder ticks after it, since ticks only
    /// run on push), then drain the pool once: every stream decodes its
    /// backlog and flushes, and the pool threads are joined. No stream
    /// constrains the sink any more, so this returns every packet not yet
    /// polled.
    pub(crate) fn finish(&mut self) -> Vec<GatewayPacket> {
        for shard in &mut self.shards {
            shard.end_input(&self.pool);
        }
        self.pool.finish();
        self.poll_packets()
    }
}

/// One gateway's front end: its channelizer, the queues and telemetry of
/// its (channel, SF) streams and, under the adaptive policy, its ladder.
/// The streams themselves decode on the [`Runtime`] that owns the shard.
pub(crate) struct Shard {
    channelizer: Channelizer,
    /// One queue per worker, in [`GatewayConfig::workers`] order.
    queues: Vec<Arc<ChunkQueue>>,
    /// Channel index of each worker.
    worker_channel: Vec<usize>,
    /// The overload ladder, under the adaptive policy only.
    ladder: Option<ShardLadder>,
    stats: Arc<GatewayStats>,
    /// Channel-stream samples produced so far, per channel.
    produced: Vec<usize>,
    /// Pool index of the shard's first stream; worker `i` is pool task
    /// `first + i`.
    first: usize,
}

impl Shard {
    /// Build the front end of one validated configuration, whose channel
    /// `i` is global channel `channels[i]`, as a shard of `sink`,
    /// appending its decode streams to `streams` (the runtime's pool
    /// tasks).
    fn new(
        config: &GatewayConfig,
        channels: &[usize],
        sink: &Arc<PacketSink>,
        streams: &mut Vec<Stream>,
    ) -> Self {
        // Under the adaptive ladder, a configured SIC stage becomes the
        // boost rung: workers start at rung 0, without it, and earn it
        // through recovery steps, so residual passes only ever run with
        // headroom. (Under drop-oldest there is no controller, so the
        // base config — SIC included — applies unconditionally.)
        let adaptive = config.overload.policy == OverloadPolicy::Adaptive;
        let start_rung = if adaptive { 0 } else { SIC_RUNG };
        let workers = config.workers();
        let stats = Arc::new(GatewayStats::new(&workers));
        let channelizer = Channelizer::new(config.channelizer.clone());
        let decimation = config.channelizer.decimation as u64;
        let delay_wideband = channelizer.group_delay_wideband() as u64;
        let max_sf = *config.sfs.iter().max().expect("validated: non-empty sfs");

        // Build every receiver before joining the sink: a worker's
        // reports can legitimately reach its receiver holdback behind its
        // watermark (SIC residual passes re-read that much buffered
        // history), so the sink's duplicate window must retain releases
        // over the largest holdback of any worker.
        let receivers: Vec<StreamingReceiver> = workers
            .iter()
            .map(|&(_, sf)| {
                StreamingReceiver::new(
                    config.channel_params(sf),
                    config.code_rate,
                    config.payload_len,
                    rung_config(&config.cic, start_rung),
                )
            })
            .collect();
        let release_slack = receivers
            .iter()
            .map(|sr| sr.holdback() as u64 * decimation)
            .max()
            .unwrap_or(0);
        let shard = sink.add_shard(stats.clone(), max_sf, release_slack);

        let first = streams.len();
        let mut queues = Vec::with_capacity(workers.len());
        let mut worker_channel = Vec::with_capacity(workers.len());
        for ((idx, &(channel, sf)), sr) in workers.iter().enumerate().zip(receivers) {
            let wstats = stats.worker(idx);
            let queue = Arc::new(ChunkQueue::new(config.queue_capacity, wstats.clone()));
            streams.push(Stream {
                idx: first + idx,
                shard,
                channel: channels[channel],
                sf,
                queue: queue.clone(),
                sink: sink.clone(),
                stats: stats.clone(),
                wstats,
                base_cic: config.cic.clone(),
                decimation,
                delay_wideband,
                holdback: sr.holdback(),
                sr,
                applied_rung: 0,
                shed_since: None,
            });
            queues.push(queue);
            worker_channel.push(channel);
        }

        let ladder = adaptive.then(|| {
            let worker_sfs: Vec<u8> = workers.iter().map(|&(_, sf)| sf).collect();
            ShardLadder {
                ctl: OverloadController::new(
                    config.overload.clone(),
                    &worker_sfs,
                    config.cic.sic.enabled(),
                ),
                queue_capacity: config.queue_capacity,
                period: config.overload.tick,
                max_ticks: config
                    .overload
                    .escalate_ticks
                    .max(config.overload.recover_ticks)
                    .max(1),
                clock: Instant::now(),
                sampled: Instant::now(),
                depth_times: vec![0; workers.len()],
                stats: stats.clone(),
                wstats: (0..workers.len()).map(|i| stats.worker(i)).collect(),
            }
        });
        Self {
            channelizer,
            queues,
            worker_channel,
            ladder,
            stats,
            produced: vec![0; config.channelizer.n_channels()],
            first,
        }
    }

    /// Channelize a chunk of wideband samples, run the ladder's due ticks,
    /// then hand each channel's output to its streams on `pool`, so
    /// every fresh rung applies to the new chunks.
    fn push(&mut self, pool: &DecodePool<Stream>, samples: &[Cf32]) {
        self.stats
            .samples_in
            .fetch_add(samples.len() as u64, Ordering::Relaxed);
        self.stats.chunks_in.fetch_add(1, Ordering::Relaxed);
        let t0 = Instant::now();
        let outs = self.channelizer.process(samples);
        self.stats.channelize.record(t0.elapsed());
        if let Some(ladder) = &mut self.ladder {
            ladder.tick(&self.queues);
        }
        self.dispatch(pool, outs);
    }

    /// Fan channelizer output out to every worker of its channel and
    /// wake those streams in the pool.
    fn dispatch(&mut self, pool: &DecodePool<Stream>, outs: Vec<Vec<Cf32>>) {
        let fed: Vec<bool> = outs.iter().map(|out| !out.is_empty()).collect();
        for (channel, out) in outs.into_iter().enumerate() {
            if out.is_empty() {
                continue;
            }
            let start = self.produced[channel];
            self.produced[channel] += out.len();
            let shared = Arc::new(out);
            for (idx, queue) in self.queues.iter().enumerate() {
                if self.worker_channel[idx] == channel {
                    queue.push(Chunk {
                        start,
                        samples: shared.clone(),
                    });
                }
            }
        }
        let (first, worker_channel) = (self.first, &self.worker_channel);
        pool.wake(
            (0..worker_channel.len())
                .filter(|&idx| fed[worker_channel[idx]])
                .map(|idx| first + idx),
        );
    }

    /// End of input: restore every worker to full effort so the drain
    /// decodes the backlog instead of shedding it, flush the
    /// channelizer's group-delay tail to the workers (a packet ending at
    /// capture end keeps its final symbols), and close every queue.
    fn end_input(&mut self, pool: &DecodePool<Stream>) {
        for idx in 0..self.queues.len() {
            // Shed and degraded workers come back to full effort; a
            // granted SIC boost stays — only heat revokes it, and with
            // the stream ended there is no load left to protect.
            let rung = &self.stats.worker(idx).effort_rung;
            if rung.load(Ordering::Relaxed) != SIC_RUNG as u64 {
                rung.store(0, Ordering::Relaxed);
            }
        }
        let t0 = Instant::now();
        let tail = self.channelizer.flush();
        self.stats.channelize.record(t0.elapsed());
        self.dispatch(pool, tail);
        for q in &self.queues {
            q.close();
        }
    }

    /// Live telemetry handle.
    pub(crate) fn stats(&self) -> Arc<GatewayStats> {
        self.stats.clone()
    }
}

/// A running multi-channel gateway: a runtime (decode pool, sink) with
/// one front end (channelizer, stream queues, overload ladder) of its
/// own. Feed wideband samples with [`Gateway::push`] (any chunk sizes),
/// collect merged packets as they release through [`Gateway::subscribe`]
/// or all at once from [`Gateway::finish`].
///
/// Dropped without [`Gateway::finish`], a gateway stops its threads
/// without draining the backlog: nothing is flushed and no thread
/// outlives the gateway.
pub struct Gateway {
    runtime: Runtime,
}

impl Gateway {
    /// Validate the configuration, spawn the decode pool —
    /// `min(workers, cores)` threads serving every (channel, SF) stream,
    /// under either policy — and return a ready gateway. An invalid configuration is rejected here with a
    /// typed [`ConfigError`] naming the offending parameters — no thread
    /// is spawned and nothing panics.
    pub fn new(config: GatewayConfig) -> Result<Self, ConfigError> {
        Self::with_pool_size(config, available_cores())
    }

    /// [`Gateway::new`] with a decode pool of `min(workers, threads)`
    /// threads (at least one).
    pub(crate) fn with_pool_size(
        config: GatewayConfig,
        threads: usize,
    ) -> Result<Self, ConfigError> {
        config.validate()?;
        let channels = (0..config.channelizer.n_channels()).collect();
        Ok(Self {
            runtime: Runtime::spawn(&[(config, channels)], threads),
        })
    }

    /// Feed a chunk of wideband samples. Never blocks: overload is
    /// absorbed by the degradation ladder, which this call ticks when a
    /// tick is due, and, at the last resort, the counted drop-oldest
    /// queues.
    pub fn push(&mut self, samples: &[Cf32]) {
        self.runtime.push(samples);
    }

    /// Attach the gateway's single non-blocking packet subscription:
    /// released packets are forwarded into an unbounded channel the
    /// moment the sink releases them, so consumers block on `recv`
    /// instead of polling. Delivery
    /// preserves the sink's release order (non-decreasing
    /// `start_wideband`, modulo late SIC-recovered packets). A consumer
    /// that falls behind costs memory in the channel, never a lost
    /// packet or a blocked worker; while the subscription is attached,
    /// [`Gateway::finish`] returns no packets.
    /// `capacity` is unused: the channel allocates only as packets
    /// arrive. Panics if a subscription is already attached.
    pub fn subscribe(&self, capacity: usize) -> Receiver<GatewayPacket> {
        self.runtime.sink.subscribe(capacity)
    }

    /// Live telemetry handle (snapshot-readable at any time).
    pub fn stats(&self) -> Arc<GatewayStats> {
        self.runtime.shards[0].stats()
    }

    /// End of stream: restore every worker to full effort so the drain
    /// decodes the backlog instead of shedding it, flush the channelizer's group-delay tail to the workers (a
    /// packet ending at capture end keeps its final symbols), close all
    /// queues, wait for the pool to drain and flush every stream and
    /// join it, and return the merged packets no subscription took plus a
    /// final telemetry snapshot.
    pub fn finish(mut self) -> (Vec<GatewayPacket>, GatewaySnapshot) {
        let packets = self.runtime.finish();
        (packets, self.runtime.shards[0].stats.snapshot())
    }
}

/// Cores this process may run on, read once: the query walks cgroup
/// files on Linux, too slow to repeat for every gateway.
pub(crate) fn available_cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, NonZeroUsize::get))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection;
    use proptest::prelude::*;

    fn config() -> GatewayConfig {
        GatewayConfig {
            channelizer: ChannelizerConfig::uniform(4, 250e3, 500e3, 1e6, 4),
            oversampling: 4,
            sfs: vec![7, 9],
            code_rate: CodeRate::Cr45,
            payload_len: 16,
            cic: CicConfig::default(),
            queue_capacity: 64,
            overload: OverloadConfig::default(),
        }
    }

    #[test]
    fn worker_layout_covers_channels_times_sfs() {
        let w = config().workers();
        assert_eq!(w.len(), 8);
        assert_eq!(w[0], (0, 7));
        assert_eq!(w[1], (0, 9));
        assert_eq!(w[7], (3, 9));
    }

    #[test]
    fn channel_params_recover_bandwidth() {
        let p = config().channel_params(7);
        assert_eq!(p.samples_per_symbol(), 128 * 4);
        assert!((p.bandwidth_hz() - 250e3).abs() < 1e-6);
    }

    #[test]
    fn empty_stream_finishes_cleanly() {
        let gw = Gateway::new(config()).expect("valid config");
        let (packets, snap) = gw.finish();
        assert!(packets.is_empty());
        assert_eq!(snap.samples_in, 0);
        assert_eq!(snap.packets_decoded, 0);
        assert_eq!(snap.chunks_dropped, 0);
    }

    #[test]
    fn pool_is_core_sized_plus_the_policy_thread() {
        // 8 streams: the pool runs min(8, cores) threads under either
        // policy and is the only thread; the ladder exists only under the
        // adaptive policy, owned by the shard whose pushes tick it.
        let gw = Gateway::new(config()).expect("valid config");
        assert_eq!(gw.runtime.pool.threads(), available_cores().min(8));
        assert!(gw.runtime.shards[0].ladder.is_some());
        drop(gw);

        let mut cfg = config();
        cfg.overload.policy = OverloadPolicy::DropOldest;
        let gw = Gateway::new(cfg.clone()).expect("valid config");
        assert_eq!(gw.runtime.pool.threads(), available_cores().min(8));
        assert!(gw.runtime.shards[0].ladder.is_none());
        drop(gw);

        for (asked, spawned) in [(1, 1), (3, 3), (64, 8), (0, 1)] {
            let gw = Gateway::with_pool_size(cfg.clone(), asked).expect("valid config");
            assert_eq!(gw.runtime.pool.threads(), spawned, "asked for {asked}");
        }
    }

    #[test]
    fn cluster_shards_share_one_core_sized_pool_and_one_policy_thread() {
        // 2 shards of 8 streams each: one pool of min(16, cores) threads
        // serves both, and under the adaptive policy each shard owns its
        // own ladder (none under drop-oldest).
        use crate::cluster::{ClusterConfig, GatewayCluster};

        let mut base = config();
        base.channelizer = ChannelizerConfig::uniform(8, 250e3, 500e3, 1e6, 8);
        for (policy, ladder) in [
            (OverloadPolicy::Adaptive, true),
            (OverloadPolicy::DropOldest, false),
        ] {
            base.overload.policy = policy;
            let cluster = GatewayCluster::new(ClusterConfig::channel_sharded(base.clone(), 2))
                .expect("valid layout");
            let streams: usize = cluster
                .snapshot()
                .shards
                .iter()
                .map(|s| s.workers.len())
                .sum();
            assert_eq!(streams, 16);
            let runtime = cluster.runtime();
            assert_eq!(
                runtime.pool.threads(),
                available_cores().min(16),
                "{policy:?}"
            );
            assert!(
                runtime
                    .shards()
                    .iter()
                    .all(|s| s.ladder.is_some() == ladder),
                "{policy:?}"
            );
        }
    }

    #[test]
    fn dropping_without_finish_stops_every_thread() {
        // Regression: there was no `Drop`, so a gateway dropped without
        // `finish` left every worker parked on its queue forever, each
        // holding the stats (7 references here after the drop).
        let mut gw = Gateway::new(config()).expect("valid config");
        for _ in 0..4 {
            gw.push(&vec![Cf32::new(0.0, 0.0); 4096]);
        }
        let stats = gw.stats();
        drop(gw);
        assert_eq!(
            Arc::strong_count(&stats),
            1,
            "a gateway thread outlived the drop"
        );
    }

    /// Two channels at the paper's 250 kHz, SF7 and SF9, a handful of
    /// packets on both channels (one SF7 pair colliding, SFs otherwise
    /// apart in time), unit noise.
    fn two_channel_capture() -> (lora_channel::wideband::BandPlan, Vec<Cf32>) {
        use lora_channel::wideband::{synthesize, BandPlan, WidebandPacket};
        use lora_channel::{add_unit_noise, amplitude_for_snr};
        use lora_phy::packet::Transceiver;
        use rand::SeedableRng;

        let plan = BandPlan::uniform(2, 250e3, 500e3, 4, 4);
        let sym = |sf: u8| (1usize << sf) * plan.oversampling * plan.decimation;
        let frame =
            |sf: u8| Transceiver::new(plan.wideband_params(sf), CodeRate::Cr45).frame_samples(16);
        let packet = |channel: usize, sf: u8, start: usize, snr: f64, tag: u8| WidebandPacket {
            channel,
            sf,
            code_rate: CodeRate::Cr45,
            payload: (0..16u8).map(|i| i.wrapping_mul(tag) ^ tag).collect(),
            amplitude: amplitude_for_snr(snr, plan.oversampling),
            start_sample: start,
            cfo_hz: 150.0 * f64::from(tag % 5) - 300.0,
        };
        let collider = 4 * sym(7) + 9 * sym(7) + 700;
        let ch0_sf9 = collider + frame(7) + 2 * sym(9);
        let ch1_sf7 = sym(9) + 1234 + frame(9) + sym(9);
        let packets = [
            packet(0, 7, 4 * sym(7), 20.0, 3),
            packet(0, 7, collider, 14.0, 5),
            packet(0, 9, ch0_sf9, 18.0, 7),
            packet(1, 9, sym(9) + 1234, 20.0, 11),
            packet(1, 7, ch1_sf7, 20.0, 13),
        ];
        let len = (ch0_sf9 + frame(9)).max(ch1_sf7 + frame(7)) + 4 * sym(9);
        let mut samples = synthesize(&plan, len, &packets);
        add_unit_noise(&mut rand::rngs::StdRng::seed_from_u64(5), &mut samples);
        (plan, samples)
    }

    fn plan_config(plan: &lora_channel::wideband::BandPlan, sfs: Vec<u8>) -> GatewayConfig {
        GatewayConfig {
            channelizer: ChannelizerConfig::uniform(
                plan.n_channels(),
                plan.bandwidth_hz,
                500e3,
                plan.bandwidth_hz * plan.oversampling as f64,
                plan.decimation,
            ),
            oversampling: plan.oversampling,
            sfs,
            code_rate: CodeRate::Cr45,
            payload_len: 16,
            cic: CicConfig::default(),
            queue_capacity: 1024,
            overload: OverloadConfig {
                // No timer may quiesce a receiver mid-stream: the result
                // is compared with a batch decode.
                idle_timeout: std::time::Duration::from_secs(600),
                ..OverloadConfig::drop_oldest()
            },
        }
    }

    #[test]
    fn any_pool_size_matches_the_batch_decode_exactly_once_in_order() {
        let (plan, samples) = two_channel_capture();
        let cfg = plan_config(&plan, vec![7, 9]);

        // Batch reference: each channel decoded whole, per SF.
        let mut chz = Channelizer::new(cfg.channelizer.clone());
        let delay = chz.group_delay_wideband() as u64;
        let mut expected = Vec::new();
        for (channel, out) in chz.process_all(&samples).iter().enumerate() {
            for &sf in &cfg.sfs {
                let rx = cic::CicReceiver::new(
                    cfg.channel_params(sf),
                    cfg.code_rate,
                    cfg.payload_len,
                    CicConfig::default(),
                );
                for p in rx.receive(out) {
                    if let Some(payload) = p.payload {
                        let start = (p.detection.frame_start as u64 * plan.decimation as u64)
                            .saturating_sub(delay);
                        expected.push((channel, sf, start, payload));
                    }
                }
            }
        }
        assert!(expected.len() >= 4, "reference too small: {expected:?}");

        let mut streams = Vec::new();
        for threads in [1, 4] {
            let mut gw = Gateway::with_pool_size(cfg.clone(), threads).expect("valid config");
            assert_eq!(gw.runtime.pool.threads(), threads);
            for (i, chunk) in samples.chunks(7919).enumerate() {
                // Ragged: every third push split in two.
                if i % 3 == 0 {
                    let (a, b) = chunk.split_at(chunk.len() / 3);
                    gw.push(a);
                    gw.push(b);
                } else {
                    gw.push(chunk);
                }
            }
            let (packets, snap) = gw.finish();
            assert_eq!(snap.chunks_dropped, 0);
            for w in packets.windows(2) {
                assert!(w[0].start_wideband <= w[1].start_wideband, "out of order");
            }
            for (channel, sf, start, payload) in &expected {
                let tol = (1u64 << sf) * (plan.oversampling * plan.decimation) as u64 / 2;
                let hits = packets
                    .iter()
                    .filter(|p| {
                        p.channel == *channel
                            && p.sf == *sf
                            && p.start_wideband.abs_diff(*start) < tol
                            && p.packet.payload.as_deref() == Some(&payload[..])
                    })
                    .count();
                assert_eq!(hits, 1, "pool {threads}: (ch {channel}, sf {sf}, {start})");
            }
            let keys: Vec<_> = packets
                .iter()
                .map(|p| (p.start_wideband, p.channel, p.sf, p.packet.payload.clone()))
                .collect();
            streams.push(keys);
        }
        assert_eq!(
            streams[0], streams[1],
            "pool size changed the released stream"
        );
    }

    #[test]
    fn idle_stream_publishes_its_watermark_beside_a_busy_sibling() {
        // One pool thread, two streams. Stream 0 has a deep backlog of
        // noise; stream 1 gets one chunk and then nothing. The backlog
        // keeps the ready line non-empty, so only the idle deadline can
        // schedule stream 1's idle turn — and its caught-up watermark must
        // lift the horizon past its whole chunk while stream 0 is still
        // working through the backlog.
        use lora_channel::add_unit_noise;
        use rand::SeedableRng;

        let plan = lora_channel::wideband::BandPlan::uniform(2, 250e3, 500e3, 4, 4);
        let backlog = 50_000;
        let mut cfg = plan_config(&plan, vec![7]);
        cfg.queue_capacity = backlog;
        cfg.overload.idle_timeout = std::time::Duration::from_millis(5);
        let gw = Gateway::with_pool_size(cfg, 1).expect("valid config");

        let mut noise = vec![Cf32::new(0.0, 0.0); 2048];
        add_unit_noise(&mut rand::rngs::StdRng::seed_from_u64(3), &mut noise);
        let noise = Arc::new(noise);
        for i in 0..backlog {
            gw.runtime.shards[0].queues[0].push(Chunk {
                start: i * noise.len(),
                samples: noise.clone(),
            });
        }
        let idle_len = 8192;
        gw.runtime.shards[0].queues[1].push(Chunk {
            start: 0,
            samples: Arc::new(vec![Cf32::new(0.0, 0.0); idle_len]),
        });
        gw.runtime.pool.wake([0, 1]);

        let delay = gw.runtime.shards[0].channelizer.group_delay_wideband() as u64;
        let caught_up = idle_len as u64 * plan.decimation as u64 - delay;
        let deadline = Instant::now() + std::time::Duration::from_secs(20);
        while gw.runtime.release_horizon() < caught_up {
            assert!(
                Instant::now() < deadline,
                "idle stream never published its caught-up watermark"
            );
            std::thread::yield_now();
        }
        assert!(
            !gw.runtime.shards[0].queues[0].is_idle(),
            "the idle turn waited for the busy sibling's backlog to drain"
        );
    }

    #[test]
    fn silence_produces_no_packets_but_counts_samples() {
        let mut gw = Gateway::new(config()).expect("valid config");
        for _ in 0..8 {
            gw.push(&vec![Cf32::new(0.0, 0.0); 4096]);
        }
        let (packets, snap) = gw.finish();
        assert!(packets.is_empty());
        assert_eq!(snap.samples_in, 8 * 4096);
        assert_eq!(snap.chunks_in, 8);
        // 8 pushes plus the group-delay flush pass in `finish`.
        assert!(snap.channelize.count == 9);
        assert!(snap.decode.count > 0);
    }

    #[test]
    fn idle_system_never_degrades() {
        // Silence at nominal rate: the adaptive policy must not touch
        // anything.
        let mut cfg = config();
        cfg.overload.tick = std::time::Duration::from_millis(1);
        let mut gw = Gateway::new(cfg).expect("valid config");
        let rx = gw.subscribe(16);
        for _ in 0..4 {
            gw.push(&vec![Cf32::new(0.0, 0.0); 4096]);
            // Block on the subscription instead of sleep-polling: silence
            // never yields a packet, so each bounded wait just makes the
            // next push's ladder tick due.
            assert!(rx
                .recv_timeout(std::time::Duration::from_millis(5))
                .is_err());
        }
        let (_, snap) = gw.finish();
        assert_eq!(snap.degrade_events, 0);
        assert_eq!(snap.chunks_shed, 0);
        assert!(snap.workers.iter().all(|w| w.effort_rung == 0));
    }

    #[test]
    fn fully_shed_gateway_stays_live_and_finishes() {
        // Every worker forced to the shed rung through its gauge: chunks
        // are discarded and counted, watermarks keep advancing, and
        // `finish` must return instead of stalling (or panicking in the
        // sink horizon).
        let mut cfg = config();
        cfg.overload.policy = OverloadPolicy::DropOldest; // no ladder to un-shed
        let mut gw = Gateway::new(cfg).expect("valid config");
        let stats = gw.stats();
        for idx in 0..gw.runtime.shards[0].queues.len() {
            stats
                .worker(idx)
                .effort_rung
                .store(SHED_RUNG as u64, Ordering::Relaxed);
        }
        for _ in 0..8 {
            gw.push(&vec![Cf32::new(0.0, 0.0); 4096]);
        }
        // `finish` restores full effort before draining, so let the pool
        // discard the backlog at the shed rung first.
        let deadline = Instant::now() + std::time::Duration::from_secs(20);
        while gw.runtime.shards[0].queues.iter().any(|q| !q.is_empty()) {
            assert!(Instant::now() < deadline, "shed streams stopped consuming");
            std::thread::yield_now();
        }
        let (packets, snap) = gw.finish();
        assert!(packets.is_empty());
        assert!(snap.chunks_shed > 0, "shed rung must have engaged");
    }

    #[test]
    fn finish_is_not_quantised_to_the_policy_tick() {
        // A huge policy tick used to pin shutdown for a full sleep of a
        // policy thread; ticks now run on push, so `finish` waits on none.
        let mut cfg = config();
        cfg.overload.tick = std::time::Duration::from_secs(60);
        let gw = Gateway::new(cfg).expect("valid config");
        let t0 = Instant::now();
        let (_, _) = gw.finish();
        assert!(
            t0.elapsed() < std::time::Duration::from_secs(10),
            "finish must not wait out the policy tick"
        );
    }

    #[test]
    fn a_silent_gateway_runs_no_ladder_tick() {
        // Ticks run on push, so while nothing arrives the ladder holds
        // still: not even a one-tick recovery dwell of 1 ms may grant the
        // SIC boost (or move any other rung) to an idle stream.
        let mut cfg = config();
        cfg.cic.sic = cic::SicConfig::hybrid();
        cfg.overload.tick = Duration::from_millis(1);
        cfg.overload.recover_ticks = 1;
        let gw = Gateway::new(cfg).expect("valid config");
        std::thread::sleep(Duration::from_millis(100));
        let (_, snap) = gw.finish();
        assert!(
            snap.rung_engagements.iter().all(|&n| n == 0),
            "an idle gateway moved a rung: {:?}",
            snap.rung_engagements
        );
    }

    #[test]
    fn capacity_one_queues_that_keep_up_never_degrade() {
        // Silence through capacity-1 queues whose streams keep up: each
        // stream takes its chunk off the queue long before the next push,
        // so its mean queue depth stays low and the ladder must read every
        // stream cool. A depth sampled right after each push's dispatch
        // would read every fed capacity-1 queue full and shed streams that
        // keep up. The pace comes from the pool, timed in-process: after
        // each push the test waits until every queue is empty, then four
        // times as long again (at least 20 ms, 0.2× real time), so no
        // queue holds a chunk for more than a fifth of the time between
        // two pushes, however slowly other work on the cores lets the
        // pool run.
        let mut cfg = config();
        cfg.queue_capacity = 1;
        let mut gw = Gateway::new(cfg).expect("valid config");
        for _ in 0..40 {
            let t0 = Instant::now();
            gw.push(&vec![Cf32::new(0.0, 0.0); 4096]);
            while gw.runtime.shards[0].queues.iter().any(|q| !q.is_empty()) {
                assert!(t0.elapsed() < Duration::from_secs(20), "the pool stalled");
                std::thread::sleep(Duration::from_micros(100));
            }
            std::thread::sleep((4 * t0.elapsed()).max(Duration::from_millis(20)));
        }
        let (_, snap) = gw.finish();
        assert_eq!(snap.degrade_events, 0, "rungs {:?}", snap.rung_engagements);
        assert_eq!(snap.chunks_shed, 0);
    }

    #[test]
    fn sparse_pushes_keep_the_ladder_dwells_in_wall_time() {
        // A push runs one controller tick per whole period since the
        // previous ones, carrying the remainder, so dwells counted in
        // ticks last the same wall time however far apart pushes come; a
        // long silence counts as at most one full dwell.
        let stats = Arc::new(GatewayStats::new(&[(0, 7)]));
        let t0 = Instant::now();
        let ms = Duration::from_millis;
        let mut ladder = ShardLadder {
            ctl: OverloadController::new(OverloadConfig::default(), &[7], false),
            queue_capacity: 1,
            period: ms(2),
            max_ticks: 25,
            clock: t0,
            sampled: t0,
            depth_times: vec![0],
            stats: stats.clone(),
            wstats: vec![stats.worker(0)],
        };
        assert_eq!(ladder.due_ticks(t0 + ms(1)), 0);
        assert_eq!(ladder.due_ticks(t0 + ms(7)), 3);
        assert_eq!(
            ladder.due_ticks(t0 + ms(8)),
            1,
            "the 1 ms remainder carries"
        );
        assert_eq!(ladder.due_ticks(t0 + ms(1000)), 25, "capped at one dwell");
        assert_eq!(
            ladder.due_ticks(t0 + ms(1001)),
            0,
            "a capped silence is gone"
        );
        ladder.period = Duration::ZERO;
        assert_eq!(ladder.due_ticks(t0 + ms(1001)), 1);
    }

    #[test]
    fn pushes_tick_the_ladder_at_most_once_per_tick() {
        // One pool thread cannot keep 8 capacity-1 queues drained against
        // unpaced pushes, and with no smoothing and a one-tick escalation
        // dwell every tick that samples a full queue degrades a stream.
        // Only the tick period decides whether a push ticks: a period of
        // an hour admits no tick in the whole burst, a zero period one
        // per push.
        for (tick, ticks) in [(Duration::from_secs(3600), false), (Duration::ZERO, true)] {
            let mut cfg = config();
            cfg.queue_capacity = 1;
            cfg.overload.tick = tick;
            cfg.overload.ewma_alpha = 1.0;
            cfg.overload.escalate_ticks = 1;
            let mut gw = Gateway::with_pool_size(cfg, 1).expect("valid config");
            for _ in 0..64 {
                gw.push(&vec![Cf32::new(0.0, 0.0); 4096]);
            }
            let (_, snap) = gw.finish();
            if ticks {
                assert!(snap.degrade_events > 0, "no push ticked the ladder");
            } else {
                assert!(
                    snap.chunks_dropped > 0,
                    "the burst never filled a queue; the check is vacuous"
                );
                assert_eq!(
                    snap.degrade_events, 0,
                    "a push ticked before its tick was due"
                );
            }
        }
    }

    // Regression (one test per invalid axis): `Gateway::new` used to
    // `assert!` only the SF list and hit
    // `LoraParams::new(..).expect(..)` per worker at spawn time for
    // everything else — an opaque panic deep in a constructor instead of
    // a typed error naming the offending parameters.

    #[test]
    fn validate_rejects_sf_below_range() {
        let mut cfg = config();
        cfg.sfs = vec![6, 9];
        match Gateway::new(cfg) {
            Err(ConfigError::InvalidChannelParams { sf: 6, source, .. }) => {
                assert_eq!(source, ParamError::InvalidSpreadingFactor(6));
            }
            Err(other) => panic!("want InvalidChannelParams at sf6, got {other:?}"),
            Ok(_) => panic!("invalid sf6 config must be rejected"),
        }
    }

    #[test]
    fn validate_rejects_sf_above_range() {
        let mut cfg = config();
        cfg.sfs = vec![7, 13];
        let err = cfg.validate().unwrap_err();
        assert!(
            matches!(
                err,
                ConfigError::InvalidChannelParams {
                    sf: 13,
                    source: ParamError::InvalidSpreadingFactor(13),
                    ..
                }
            ),
            "got {err:?}"
        );
        // The error names the offending parameter in its message.
        assert!(err.to_string().contains("sf13"), "{err}");
    }

    #[test]
    fn validate_rejects_zero_oversampling() {
        let mut cfg = config();
        cfg.oversampling = 0;
        let err = cfg.validate().unwrap_err();
        assert!(
            matches!(
                err,
                ConfigError::InvalidChannelParams {
                    source: ParamError::ZeroOversampling,
                    oversampling: 0,
                    ..
                }
            ),
            "got {err:?}"
        );
    }

    #[test]
    fn validate_rejects_nonpositive_bandwidth() {
        // A hand-built channelizer layout with a zero wideband rate
        // derives a zero channel bandwidth.
        let mut cfg = config();
        cfg.channelizer.wideband_rate_hz = 0.0;
        let err = cfg.validate().unwrap_err();
        assert!(
            matches!(
                err,
                ConfigError::InvalidChannelParams {
                    source: ParamError::InvalidBandwidth,
                    ..
                }
            ),
            "got {err:?}"
        );
    }

    #[test]
    fn degenerate_channelizer_plans_are_config_errors() {
        // Regression: `validate` accepted these hand-built plans, which
        // then panicked — in `lowpass_taps` inside `Gateway::new`, or on
        // the first push for a zero decimation — in a single gateway and
        // in every cluster shard alike.
        use crate::cluster::{ClusterConfig, ClusterError, GatewayCluster};

        type Spoil = fn(&mut ChannelizerConfig);
        let cases: [(&str, Spoil); 6] = [
            ("decimation 0", |c| c.decimation = 0),
            ("num_taps 0", |c| c.num_taps = 0),
            ("cutoff 0", |c| c.cutoff_hz = 0.0),
            ("cutoff NaN", |c| c.cutoff_hz = f64::NAN),
            ("cutoff at Nyquist", |c| {
                c.cutoff_hz = c.wideband_rate_hz / 2.0
            }),
            ("infinite wideband rate", |c| {
                c.wideband_rate_hz = f64::INFINITY
            }),
        ];
        for (name, spoil) in cases {
            let mut cfg = config();
            spoil(&mut cfg.channelizer);
            match Gateway::new(cfg.clone()) {
                Err(ConfigError::InvalidChannelizer(_)) => {}
                Err(other) => panic!("{name}: want InvalidChannelizer, got {other:?}"),
                Ok(_) => panic!("{name}: the gateway accepted the plan"),
            }
            match GatewayCluster::new(ClusterConfig::channel_sharded(cfg, 2)) {
                Err(ClusterError::Shard {
                    source: ConfigError::InvalidChannelizer(_),
                    ..
                }) => {}
                Err(other) => panic!("{name}: want a shard's InvalidChannelizer, got {other:?}"),
                Ok(_) => panic!("{name}: the cluster accepted the plan"),
            }
        }
    }

    #[test]
    fn validate_rejects_degenerate_layouts() {
        let mut cfg = config();
        cfg.sfs = vec![];
        assert_eq!(cfg.validate(), Err(ConfigError::NoSpreadingFactors));

        let mut cfg = config();
        cfg.sfs = vec![7, 9, 7];
        assert_eq!(
            cfg.validate(),
            Err(ConfigError::DuplicateSpreadingFactor(7))
        );

        let mut cfg = config();
        cfg.channelizer.offsets_hz.clear();
        assert_eq!(cfg.validate(), Err(ConfigError::NoChannels));

        let mut cfg = config();
        cfg.queue_capacity = 0;
        assert_eq!(cfg.validate(), Err(ConfigError::ZeroQueueCapacity));

        assert!(config().validate().is_ok());
    }

    /// An axis value with the hostile ones mixed in: 0, negative, NaN and
    /// ±∞, and twice the weight on `usual` so that a fair share of plans
    /// gets past validation.
    fn hostile(usual: std::ops::Range<f64>) -> impl Strategy<Value = f64> {
        prop_oneof![
            usual.clone(),
            usual,
            prop_oneof![
                Just(0.0),
                Just(-1e6),
                Just(f64::NAN),
                Just(f64::INFINITY),
                Just(f64::NEG_INFINITY),
            ],
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Arbitrary channelizer plans through `Gateway::new`: tap counts
        /// and decimations including 0, up to 8 offsets and a rate and
        /// cutoff that may be 0, negative, NaN or infinite, and payload
        /// lengths up to 300 B or near `usize::MAX`. Each comes back as a
        /// typed `ConfigError` or as a gateway for a payload of at most
        /// 255 B that takes pushes of any length, including 0, of NaN,
        /// infinite and saturated samples, and finishes, never as a panic.
        #[test]
        fn arbitrary_channelizer_plans_are_typed_errors_or_run_to_the_end(
            num_taps in prop_oneof![0usize..=4096, 1usize..=257],
            decimation in prop_oneof![0usize..=64, 1usize..=8],
            offsets_hz in collection::vec(hostile(-2e6..2e6), 0..9),
            wideband_rate_hz in hostile(1e5..4e6),
            // The cutoff as a fraction of the rate, so that it often lands
            // below Nyquist.
            cutoff in hostile(0.0..0.6),
            pushes in collection::vec(prop_oneof![Just(0usize), 1usize..64, 64usize..16384], 1..5),
            values in collection::vec(
                prop_oneof![
                    Just(f32::NAN),
                    Just(f32::INFINITY),
                    Just(f32::NEG_INFINITY),
                    Just(f32::MAX),
                    -1.0f32..1.0,
                ],
                1..6,
            ),
            payload_len in prop_oneof![
                0usize..=300,
                0usize..=300,
                prop_oneof![Just(usize::MAX / 2), Just(usize::MAX)],
            ],
        ) {
            let mut cfg = config();
            cfg.channelizer = ChannelizerConfig {
                wideband_rate_hz,
                decimation,
                offsets_hz,
                num_taps,
                cutoff_hz: cutoff * wideband_rate_hz,
            };
            cfg.payload_len = payload_len;
            if let Ok(mut gw) = Gateway::new(cfg) {
                prop_assert!(payload_len <= MAX_PAYLOAD_LEN, "built a {payload_len} B gateway");
                let sample = |i: usize| {
                    Cf32::new(values[i % values.len()], values[(i + 1) % values.len()])
                };
                for &n in &pushes {
                    gw.push(&(0..n).map(sample).collect::<Vec<_>>());
                }
                let (_, snap) = gw.finish();
                prop_assert_eq!(snap.samples_in, pushes.iter().sum::<usize>() as u64);
            }
        }
    }
}
