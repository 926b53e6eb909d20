//! Scalar reference channelizer: the original per-sample `sin`/`cos` NCO
//! and interleaved-complex FIR implementation, kept verbatim as the
//! semantic reference the vectorised [`super::Channelizer`] is
//! equivalence-tested against (≤ 1e-5 RMS, chunking-invariant — see
//! `crates/dsp/tests/channelizer_equivalence.rs`). Not used on any hot
//! path; `channelizer_bench` measures it as the speedup baseline.

use super::ChannelizerConfig;
use crate::Cf32;

struct ChannelState {
    /// NCO phase in turns, advanced by `-offset / wideband_rate` per sample.
    phase: f64,
    /// Per-sample phase increment in turns.
    phase_inc: f64,
    /// Mixed-down history: `buf[i]` is the mixed sample at absolute
    /// wideband index `base + i`. Seeded with `num_taps - 1` zeros so the
    /// filter is causal from the first sample.
    buf: Vec<Cf32>,
    /// Absolute wideband index of `buf[0]` (negative during the seed zeros).
    base: i64,
    /// Absolute wideband index of the next output instant (multiple of D).
    next_out: i64,
}

/// Streaming wideband → per-channel splitter, scalar reference path. Same
/// contract as [`super::Channelizer`]; see the module docs there.
pub struct Channelizer {
    config: ChannelizerConfig,
    taps: Vec<f32>,
    channels: Vec<ChannelState>,
    flushed: bool,
}

impl Channelizer {
    /// Build a channelizer (designs the FIR prototype once, shared by all
    /// channels).
    pub fn new(config: ChannelizerConfig) -> Self {
        let taps = super::lowpass_taps(config.num_taps, config.cutoff_hz / config.wideband_rate_hz);
        let channels = config
            .offsets_hz
            .iter()
            .map(|&off| ChannelState {
                phase: 0.0,
                phase_inc: -off / config.wideband_rate_hz,
                buf: vec![Cf32::new(0.0, 0.0); config.num_taps - 1],
                base: -(config.num_taps as i64 - 1),
                next_out: 0,
            })
            .collect();
        Self {
            config,
            taps,
            channels,
            flushed: false,
        }
    }

    /// Group delay of the channel filter, in *wideband* samples (see
    /// [`super::Channelizer::group_delay_wideband`]).
    pub(crate) fn group_delay_wideband(&self) -> usize {
        (self.config.num_taps - 1) / 2
    }

    /// Feed a chunk of wideband samples; returns the newly produced
    /// baseband samples of every channel (possibly empty for short
    /// chunks). Chunk boundaries never change the output stream.
    pub fn process(&mut self, chunk: &[Cf32]) -> Vec<Vec<Cf32>> {
        assert!(
            !self.flushed,
            "Channelizer::process called after flush(); build a new channelizer for a new stream"
        );
        self.process_inner(chunk)
    }

    fn process_inner(&mut self, chunk: &[Cf32]) -> Vec<Vec<Cf32>> {
        let d = self.config.decimation as i64;
        let n_taps = self.taps.len() as i64;
        let mut out = Vec::with_capacity(self.channels.len());
        for ch in &mut self.channels {
            // Mix the chunk down with a phase-continuous NCO.
            ch.buf.reserve(chunk.len());
            for &x in chunk {
                let ang = (std::f64::consts::TAU * ch.phase) as f32;
                ch.buf.push(x * Cf32::new(ang.cos(), ang.sin()));
                ch.phase += ch.phase_inc;
                ch.phase -= ch.phase.floor(); // keep in [0, 1) for precision
            }
            // Dot the FIR against the buffer at each ready output instant
            // (this is the whole polyphase saving: no dot products at the
            // D-1 instants between outputs).
            let mut produced = Vec::new();
            let buf_end = ch.base + ch.buf.len() as i64;
            while ch.next_out < buf_end {
                let lo = (ch.next_out - n_taps + 1 - ch.base) as usize;
                let mut acc = Cf32::new(0.0, 0.0);
                for (k, &t) in self.taps.iter().enumerate() {
                    // taps[k] pairs with x[next_out - k]
                    acc += ch.buf[lo + (n_taps as usize - 1 - k)] * t;
                }
                produced.push(acc);
                ch.next_out += d;
            }
            // Drop history the next output can no longer reach.
            let keep_from = (ch.next_out - n_taps + 1 - ch.base).max(0) as usize;
            if keep_from > 0 {
                ch.buf.drain(..keep_from);
                ch.base += keep_from as i64;
            }
            out.push(produced);
        }
        out
    }

    /// End of stream: emit the group-delay tail (same semantics as
    /// [`super::Channelizer::flush`]; idempotent).
    pub fn flush(&mut self) -> Vec<Vec<Cf32>> {
        if self.flushed {
            return vec![Vec::new(); self.channels.len()];
        }
        self.flushed = true;
        let zeros = vec![Cf32::new(0.0, 0.0); self.group_delay_wideband()];
        self.process_inner(&zeros)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_reference_keeps_the_streaming_contract() {
        // The heavyweight coverage lives in the vectorised module's tests
        // and the cross-implementation equivalence suite; this pins the
        // reference's own chunking invariance so a regression here cannot
        // silently weaken that suite.
        let cfg = ChannelizerConfig::uniform(3, 250e3, 500e3, 1e6, 4);
        let x: Vec<Cf32> = (0..6000)
            .map(|i| {
                let ang = (std::f64::consts::TAU * 60e3 * i as f64 / cfg.wideband_rate_hz) as f32;
                Cf32::new(ang.cos(), ang.sin()) * 0.8
            })
            .collect();
        let mut one_shot = Channelizer::new(cfg.clone());
        let mut whole = one_shot.process(&x);
        for (o, tail) in whole.iter_mut().zip(one_shot.flush()) {
            o.extend(tail);
        }
        let mut chunked = Channelizer::new(cfg.clone());
        let mut acc: Vec<Vec<Cf32>> = vec![Vec::new(); cfg.n_channels()];
        for chunk in x.chunks(997) {
            for (a, o) in acc.iter_mut().zip(chunked.process(chunk)) {
                a.extend(o);
            }
        }
        for (a, t) in acc.iter_mut().zip(chunked.flush()) {
            a.extend(t);
        }
        assert_eq!(whole, acc, "chunking changed the scalar output stream");
        assert!(chunked.flush().iter().all(|o| o.is_empty()));
    }
}
