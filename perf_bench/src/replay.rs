//! The single-thread replay behind the per-layer split: the capture runs
//! through [`Channelizer::process`] and then one [`StreamingReceiver`]
//! per (channel, SF) worker, built from the workload's gateway
//! configuration, all on the calling thread. Its wall time is the
//! sequential baseline, and its spans split a push into detection,
//! demodulation and SIC.
//!
//! A push's detection cost is measured by running
//! [`CicReceiver::detect`] on the exact window that push processes: the
//! receiver's retained samples (`buffered()` of them, kept here from the
//! channel stream) followed by the new chunk. Its SIC cost is the push
//! time minus the push time of a SIC-off twin fed the same chunks.

use std::collections::BTreeMap;

use cic::{CicReceiver, SicReport, StreamingReceiver};
use lora_dsp::{Cf32, Channelizer};
use lora_gateway::OverloadPolicy;

use crate::trace::Tracer;
use crate::workload::{Capture, Spec};

/// Per-layer totals of one replay. Times are seconds of the replay.
#[derive(Debug, Default)]
pub struct Replay {
    /// Air time replayed, seconds.
    pub air_s: f64,
    /// Wall time of the whole replay, seconds.
    pub wall_s: f64,
    /// Share of the replay wall time its child spans cover.
    pub coverage: f64,
    /// Wideband samples channelized.
    pub samples: usize,
    /// Time in `Channelizer::process`.
    pub channelize_s: f64,
    /// Detection time, by SF.
    pub detect_s: BTreeMap<u8, f64>,
    /// Streaming-receiver push time, by SF.
    pub push_s: BTreeMap<u8, f64>,
    /// Push time spent in the SIC stage, by SF.
    pub sic_s: BTreeMap<u8, f64>,
    /// Window samples processed, by SF.
    pub window_samples: BTreeMap<u8, usize>,
    /// New channel samples pushed, by SF.
    pub new_samples: BTreeMap<u8, usize>,
    /// Preamble detections summed over every push.
    pub detections: usize,
    /// Emissions starting inside the replayed air time.
    pub emitted: usize,
    /// SIC counters summed over workers.
    pub sic: SicReport,
}

impl Replay {
    /// Demodulation time by SF: push minus detection minus SIC.
    pub fn decode_s(&self, sf: u8) -> f64 {
        let get = |m: &BTreeMap<u8, f64>| m.get(&sf).copied().unwrap_or(0.0);
        get(&self.push_s) - get(&self.detect_s) - get(&self.sic_s)
    }

    /// Window samples processed per new sample, by SF.
    pub fn window_per_new_sample(&self, sf: u8) -> f64 {
        let new = self.new_samples.get(&sf).copied().unwrap_or(0);
        self.window_samples.get(&sf).copied().unwrap_or(0) as f64 / new.max(1) as f64
    }
}

/// Replay the first `spec.replay_air_s` of `cap` on this thread,
/// recording spans under a `replay` root in `tr`.
pub fn replay(spec: &Spec, cap: &Capture, tr: &mut Tracer) -> Replay {
    let cfg = spec.gateway_config();
    let rate = spec.rate_hz();
    let n = ((spec.replay_air_s * rate) as usize).min(cap.samples.len());
    let workers = cfg.workers();
    // Workers start as the gateway starts them: under the adaptive ladder
    // at rung 0, which runs no SIC.
    let mut cic = cfg.cic.clone();
    if cfg.overload.policy == OverloadPolicy::Adaptive {
        cic.sic.depth = 0;
    }
    let sic_on = cic.sic.enabled();
    let mut sic_off = cic.clone();
    sic_off.sic.depth = 0;
    let receiver = |sf: u8, c: &cic::CicConfig| {
        StreamingReceiver::new(
            cfg.channel_params(sf),
            cfg.code_rate,
            cfg.payload_len,
            c.clone(),
        )
    };
    let mut rx: Vec<StreamingReceiver> =
        workers.iter().map(|&(_, sf)| receiver(sf, &cic)).collect();
    let mut twins: Vec<StreamingReceiver> = if sic_on {
        workers
            .iter()
            .map(|&(_, sf)| receiver(sf, &sic_off))
            .collect()
    } else {
        Vec::new()
    };
    let probes: Vec<CicReceiver> = workers
        .iter()
        .map(|&(_, sf)| {
            CicReceiver::new(
                cfg.channel_params(sf),
                cfg.code_rate,
                cfg.payload_len,
                cic.clone(),
            )
        })
        .collect();
    let symbol: Vec<usize> = workers
        .iter()
        .map(|&(_, sf)| cfg.channel_params(sf).samples_per_symbol())
        .collect();
    let keep = rx
        .iter()
        .map(StreamingReceiver::holdback)
        .max()
        .unwrap_or(0);
    let mut channelizer = Channelizer::new(cfg.channelizer.clone());
    let mut history: Vec<Vec<Cf32>> = vec![Vec::new(); cfg.channelizer.n_channels()];
    let mut window = Vec::new();
    let mut out = Replay {
        air_s: n as f64 / rate,
        samples: n,
        emitted: cap
            .emitted
            .iter()
            .filter(|e| (e.start as usize) < n)
            .count(),
        ..Replay::default()
    };

    let root = tr.open("replay", None);
    for chunk in cap.samples[..n].chunks(spec.point.chunk) {
        let outs = tr.span("replay.channelize", Some(root), || {
            channelizer.process(chunk)
        });
        out.channelize_s += tr.last_s();
        for (w, &(channel, sf)) in workers.iter().enumerate() {
            let new = &outs[channel];
            if new.is_empty() {
                continue;
            }
            let hist = &history[channel];
            window.clear();
            window.extend_from_slice(&hist[hist.len() - rx[w].buffered()..]);
            window.extend_from_slice(new);
            // A push shorter than a symbol decodes nothing (see
            // `StreamingReceiver::push`), so it detects nothing either.
            if window.len() >= symbol[w] {
                let found = tr.span("replay.detect", Some(root), || probes[w].detect(&window));
                *out.detect_s.entry(sf).or_default() += tr.last_s();
                out.detections += found.len();
                *out.window_samples.entry(sf).or_default() += window.len();
            }
            *out.new_samples.entry(sf).or_default() += new.len();
            tr.span("replay.push", Some(root), || rx[w].push(new));
            let push = tr.last_s();
            *out.push_s.entry(sf).or_default() += push;
            if sic_on {
                tr.span("replay.push_sic_off", Some(root), || twins[w].push(new));
                *out.sic_s.entry(sf).or_default() += push - tr.last_s();
            }
        }
        for (hist, new) in history.iter_mut().zip(outs) {
            hist.extend(new);
            // Keep at least what any receiver can retain.
            if hist.len() > 2 * keep {
                hist.drain(..hist.len() - keep);
            }
        }
    }
    tr.span("replay.flush", Some(root), || {
        let tail = channelizer.flush();
        for (w, &(channel, _)) in workers.iter().enumerate() {
            rx[w].push(&tail[channel]);
            rx[w].flush();
        }
    });
    tr.close(root);

    for r in &rx {
        out.sic.absorb(r.sic_report());
    }
    let spans = tr.spans();
    out.wall_s = spans[root].secs();
    let children: f64 = spans
        .iter()
        .filter(|s| s.parent == Some(root))
        .map(|s| s.secs())
        .sum();
    out.coverage = children / out.wall_s.max(1e-12);
    out
}
