//! Multi-channel channelizer: splits one wideband IQ stream into several
//! narrowband baseband streams, one per LoRa channel.
//!
//! Each channel applies (1) a complex NCO mixing the channel's carrier
//! offset down to 0 Hz, (2) a low-pass windowed-sinc FIR confining the
//! channel, and (3) decimation by the ratio of wideband to channel sample
//! rate. The FIR is evaluated *only at the decimated output instants*,
//! so the per-channel cost is `taps / D` multiplies per wideband sample
//! rather than `taps` — and a channelizer built over a channel *subset*
//! (a cluster shard's slice of the band) does only the work for that
//! subset, because every per-channel structure below is sized by
//! `offsets_hz`.
//!
//! The channelizer is streaming: [`Channelizer::process`] may be called
//! with arbitrary chunk sizes and produces exactly the same output
//! samples as one big call, because NCO phase and FIR history carry over
//! between calls. At end of stream, [`Channelizer::flush`] pushes the
//! filter's group delay worth of zeros through so the last
//! `(num_taps − 1) / 2` wideband samples of content reach the output
//! (without it, a packet ending at capture end loses its final symbols).
//!
//! Two implementations share this contract:
//!
//! * [`Channelizer`] — the production path: a true polyphase
//!   decomposition of the prototype into D sub-filters. The length-T
//!   prototype `h` is split by tap index mod D into branches
//!   `h_r[q] = h[qD + r]`, and the decimated output at instant `sD` is
//!   `y[s] = Σ_r Σ_q h_r[q] · b_r[s − q]` where the branch stream
//!   `b_r[u] = m[uD − r]` holds every D-th mixed sample. One commutator
//!   pass deposits each mixed wideband sample into exactly one branch
//!   (branch `r = (D − n mod D) mod D` at branch position
//!   `u = (n + r) / D`), after which each output is D short contiguous
//!   planar dot products ([`kernel::fir_dot`]) at the *decimated* rate,
//!   summed in fixed branch order. Branch histories are planar re/im
//!   `f32` planes; the NCO is a complex-rotator recurrence in f64 (one
//!   `sin`/`cos` pair every `RENORM_INTERVAL` = 512 samples).
//! * [`scalar::Channelizer`] — the original per-sample `sin`/`cos` +
//!   interleaved-complex implementation, the test and bench oracle: it
//!   computes the same sums in a different floating-point association,
//!   so the two agree to ≤ 1e-5 RMS
//!   (`crates/dsp/tests/channelizer_equivalence.rs`).

pub mod kernel;
pub mod scalar;

use crate::{Cf32, Cf64};

/// Static description of a channel split.
#[derive(Debug, Clone)]
pub struct ChannelizerConfig {
    /// Wideband input sample rate, Hz.
    pub wideband_rate_hz: f64,
    /// Integer decimation factor; output rate is `wideband_rate_hz / decimation`.
    pub decimation: usize,
    /// Carrier offset of each channel relative to the wideband centre, Hz.
    pub offsets_hz: Vec<f64>,
    /// FIR length (odd keeps the group delay at an integer + half-sample grid).
    pub num_taps: usize,
    /// Low-pass cutoff (−6 dB point), Hz.
    pub cutoff_hz: f64,
}

impl ChannelizerConfig {
    /// Channel plan for `n_channels` LoRa channels of bandwidth
    /// `channel_bw_hz`, spaced `spacing_hz` apart and centred on the
    /// wideband centre, decimating down to `channel_rate_hz`.
    ///
    /// The cutoff sits at the channel edge plus half the guard band, and
    /// the tap count is sized for a Hamming-window transition that is
    /// fully attenuated by the neighbouring channel's centre. The
    /// stopband target is clamped to the wideband Nyquist — no content
    /// exists beyond it, so tight plans stay designable — and a plan
    /// whose channel edge leaves no room for a transition band below
    /// Nyquist panics here, naming the offending parameters, instead of
    /// tripping an opaque filter-design assert at [`Channelizer::new`]
    /// time.
    pub fn uniform(
        n_channels: usize,
        channel_bw_hz: f64,
        spacing_hz: f64,
        channel_rate_hz: f64,
        decimation: usize,
    ) -> Self {
        assert!(n_channels >= 1);
        assert!(decimation >= 1);
        let wideband_rate_hz = channel_rate_hz * decimation as f64;
        assert!(
            spacing_hz * (n_channels - 1) as f64 / 2.0 + channel_bw_hz / 2.0
                <= wideband_rate_hz / 2.0,
            "channel plan exceeds wideband Nyquist"
        );
        let offsets_hz = (0..n_channels)
            .map(|i| (i as f64 - (n_channels as f64 - 1.0) / 2.0) * spacing_hz)
            .collect();
        // Transition band from the channel edge to the start of the
        // neighbour's occupancy; Hamming needs ~3.3/N of normalised width.
        // The stopband target never needs to exceed the wideband Nyquist:
        // there is no spectrum there to reject.
        let edge = channel_bw_hz / 2.0;
        let stop = (spacing_hz - channel_bw_hz / 2.0)
            .max(edge * 1.5)
            .min(wideband_rate_hz / 2.0);
        let transition = (stop - edge).max(wideband_rate_hz * 1e-3);
        let cutoff_hz = edge + transition / 2.0;
        assert!(
            cutoff_hz < wideband_rate_hz / 2.0,
            "ChannelizerConfig::uniform: cutoff {cutoff_hz:.0} Hz reaches the wideband \
             Nyquist {:.0} Hz — plan (n_channels={n_channels}, \
             channel_bw_hz={channel_bw_hz:.0}, spacing_hz={spacing_hz:.0}, \
             channel_rate_hz={channel_rate_hz:.0}, decimation={decimation}) leaves no \
             room for a transition band",
            wideband_rate_hz / 2.0
        );
        let mut num_taps = (3.3 * wideband_rate_hz / transition).ceil() as usize;
        num_taps |= 1; // odd
        Self {
            wideband_rate_hz,
            decimation,
            offsets_hz,
            num_taps,
            cutoff_hz,
        }
    }

    /// Number of channels in the plan.
    pub fn n_channels(&self) -> usize {
        self.offsets_hz.len()
    }

    /// Output (channel) sample rate, Hz.
    pub fn channel_rate_hz(&self) -> f64 {
        self.wideband_rate_hz / self.decimation as f64
    }

    /// Check the fields [`Channelizer::new`] designs the filter from and
    /// [`Channelizer::process`] decimates by, naming the first one no
    /// channelizer can be built or run from. A hand-built plan that fails
    /// here would otherwise panic in [`lowpass_taps`] or on the first
    /// push.
    pub fn validate(&self) -> Result<(), ChannelizerError> {
        let rate = self.wideband_rate_hz;
        if !(rate.is_finite() && rate > 0.0) {
            return Err(ChannelizerError::WidebandRate(rate));
        }
        if self.decimation == 0 {
            return Err(ChannelizerError::ZeroDecimation);
        }
        if self.num_taps == 0 {
            return Err(ChannelizerError::ZeroTaps);
        }
        // Written so a NaN cutoff fails too.
        if !(self.cutoff_hz > 0.0 && self.cutoff_hz < rate / 2.0) {
            return Err(ChannelizerError::Cutoff {
                cutoff_hz: self.cutoff_hz,
                nyquist_hz: rate / 2.0,
            });
        }
        Ok(())
    }
}

/// The [`ChannelizerConfig`] field that [`ChannelizerConfig::validate`]
/// rejects.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ChannelizerError {
    /// `wideband_rate_hz` is not a positive, finite rate.
    WidebandRate(f64),
    /// `decimation` is zero.
    ZeroDecimation,
    /// `num_taps` is zero.
    ZeroTaps,
    /// `cutoff_hz` is not strictly between 0 and the wideband Nyquist.
    Cutoff {
        /// The configured cutoff, Hz.
        cutoff_hz: f64,
        /// Half the wideband rate, Hz.
        nyquist_hz: f64,
    },
}

impl std::fmt::Display for ChannelizerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ChannelizerError::WidebandRate(rate) => {
                write!(f, "wideband_rate_hz {rate} is not a positive finite rate")
            }
            ChannelizerError::ZeroDecimation => write!(f, "decimation must be at least 1"),
            ChannelizerError::ZeroTaps => write!(f, "num_taps must be at least 1"),
            ChannelizerError::Cutoff {
                cutoff_hz,
                nyquist_hz,
            } => write!(
                f,
                "cutoff_hz {cutoff_hz} is not between 0 and the wideband Nyquist {nyquist_hz} Hz"
            ),
        }
    }
}

impl std::error::Error for ChannelizerError {}

/// Hamming windowed-sinc low-pass prototype with unity DC gain.
/// `cutoff_norm` is the cutoff in cycles per (wideband) sample.
pub fn lowpass_taps(num_taps: usize, cutoff_norm: f64) -> Vec<f32> {
    assert!(num_taps >= 1);
    assert!(cutoff_norm > 0.0 && cutoff_norm < 0.5);
    let mid = (num_taps - 1) as f64 / 2.0;
    let mut taps: Vec<f64> = (0..num_taps)
        .map(|i| {
            let t = i as f64 - mid;
            let sinc = if t == 0.0 {
                2.0 * cutoff_norm
            } else {
                (std::f64::consts::TAU * cutoff_norm * t).sin() / (std::f64::consts::PI * t)
            };
            let w = 0.54
                - 0.46 * (std::f64::consts::TAU * i as f64 / (num_taps - 1).max(1) as f64).cos();
            sinc * w
        })
        .collect();
    let sum: f64 = taps.iter().sum();
    for t in &mut taps {
        *t /= sum;
    }
    taps.into_iter().map(|t| t as f32).collect()
}

/// Samples between rotator renormalisations: the f64 recurrence drifts by
/// ~1 ulp of phase per step, so re-anchoring on an exact `sin`/`cos` of
/// the accumulated f64 phase every 512 samples keeps both magnitude and
/// phase errors orders of magnitude below f32 resolution while amortising
/// the trig cost to ~0.2% of the samples.
const RENORM_INTERVAL: u32 = 512;

/// Complex-rotator NCO: advances `exp(−j·2π·offset/rate · n)` by one
/// complex multiply per sample instead of a `sin`/`cos` pair, re-anchored
/// from the exact f64 phase accumulator every [`RENORM_INTERVAL`]
/// samples. State depends only on the absolute sample count, never on
/// chunk boundaries.
struct Nco {
    /// Phase at the last renormalisation, in turns.
    phase: f64,
    /// Per-sample phase increment in turns.
    inc: f64,
    /// Current rotator value, `≈ exp(j·2π·(phase + inc·since_renorm))`.
    rot: Cf64,
    /// Per-sample rotation, `exp(j·2π·inc)`.
    step: Cf64,
    /// Samples advanced since the last renormalisation.
    since_renorm: u32,
}

impl Nco {
    fn new(inc: f64) -> Self {
        Self {
            phase: 0.0,
            inc,
            rot: Cf64::new(1.0, 0.0),
            step: Cf64::from_polar(1.0, std::f64::consts::TAU * inc),
            since_renorm: 0,
        }
    }

    /// The rotator for the current sample; advances the recurrence.
    #[inline]
    fn next(&mut self) -> Cf32 {
        let r = Cf32::new(self.rot.re as f32, self.rot.im as f32);
        self.rot *= self.step;
        self.since_renorm += 1;
        if self.since_renorm == RENORM_INTERVAL {
            self.phase += self.inc * RENORM_INTERVAL as f64;
            self.phase -= self.phase.floor(); // keep in [0, 1) for precision
            self.rot = Cf64::from_polar(1.0, std::f64::consts::TAU * self.phase);
            self.since_renorm = 0;
        }
        r
    }
}

/// One polyphase branch of one channel: the sub-filter
/// `h_r[q] = h[qD + r]` and the planar history of its branch stream
/// `b_r[u] = m[uD − r]`.
struct Branch {
    /// Sub-filter taps pre-reversed (`taps_rev[i] = h[(L−1−i)·D + r]`),
    /// so the branch convolution is a forward contiguous dot. Empty when
    /// `r >= num_taps` (possible only for `decimation > num_taps`); such
    /// a branch receives no deposits and contributes nothing.
    taps_rev: Vec<f32>,
    /// Real plane of the branch history: `re[i]` holds
    /// `Re(b_r[base + i])`.
    re: Vec<f32>,
    /// Imaginary plane, same indexing as `re`.
    im: Vec<f32>,
    /// Absolute branch position of `re[0]`/`im[0]` (negative during the
    /// seed zeros).
    base: i64,
}

/// Per-channel streaming state: rotator NCO plus the D polyphase branch
/// histories the commutator feeds.
struct ChannelState {
    nco: Nco,
    branches: Vec<Branch>,
    /// Next output index `s` (output instant = `s·D` in wideband samples).
    next_out_s: i64,
}

/// Streaming wideband → per-channel splitter, polyphase form. See the
/// module docs.
pub struct Channelizer {
    config: ChannelizerConfig,
    channels: Vec<ChannelState>,
    /// Absolute wideband index of the next input sample.
    pos: i64,
    flushed: bool,
}

impl Channelizer {
    /// Build a channelizer (designs the FIR prototype once and splits it
    /// into the D polyphase sub-filters, shared layout for all channels).
    ///
    /// # Panics
    /// A plan that fails [`ChannelizerConfig::validate`] panics here, or
    /// for a zero decimation on the first [`Channelizer::process`].
    pub fn new(config: ChannelizerConfig) -> Self {
        let taps = lowpass_taps(config.num_taps, config.cutoff_hz / config.wideband_rate_hz);
        let d = config.decimation;
        let t = config.num_taps;
        let channels = config
            .offsets_hz
            .iter()
            .map(|&off| ChannelState {
                nco: Nco::new(-off / config.wideband_rate_hz),
                branches: (0..d)
                    .map(|r| {
                        // Branch r takes prototype taps r, r+D, r+2D, …
                        let len = if r < t { (t - r).div_ceil(d) } else { 0 };
                        let taps_rev: Vec<f32> =
                            (0..len).map(|i| taps[(len - 1 - i) * d + r]).collect();
                        // Seed zeros so the branch window for output 0 is
                        // fully in range: branch 0's first deposit lands
                        // at branch position 0 (wideband sample 0),
                        // branches r > 0 first deposit at position 1
                        // (wideband sample D − r), so they seed one more
                        // zero covering position 0 (= m[−r], before the
                        // stream).
                        let seed = if len == 0 {
                            0
                        } else if r == 0 {
                            len - 1
                        } else {
                            len
                        };
                        Branch {
                            re: vec![0.0; seed],
                            im: vec![0.0; seed],
                            base: 1 - len as i64,
                            taps_rev,
                        }
                    })
                    .collect(),
                next_out_s: 0,
            })
            .collect();
        Self {
            config,
            channels,
            pos: 0,
            flushed: false,
        }
    }

    /// The channel plan this channelizer was built from.
    pub fn config(&self) -> &ChannelizerConfig {
        &self.config
    }

    /// Group delay of the channel filter, in *wideband* samples. A feature
    /// at wideband index `n` appears at output index
    /// `(n + delay_wideband) / D`; equivalently, output sample `m`
    /// reflects the wideband signal around index `m*D - delay_wideband`.
    pub fn group_delay_wideband(&self) -> usize {
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
        let d = self.config.decimation;
        let end = self.pos + chunk.len() as i64;
        // Branch of the first chunk sample: wideband index n feeds branch
        // (D − n mod D) mod D; successive samples walk the commutator
        // backwards (r, r−1, …, 0, D−1, …).
        let r0 = ((d as i64 - self.pos.rem_euclid(d as i64)) % d as i64) as usize;
        let mut out = Vec::with_capacity(self.channels.len());
        for ch in &mut self.channels {
            // One commutator pass: mix each wideband sample (one rotator
            // multiply, no trig) and deposit it into its branch planes.
            for b in &mut ch.branches {
                if !b.taps_rev.is_empty() {
                    b.re.reserve(chunk.len() / d + 2);
                    b.im.reserve(chunk.len() / d + 2);
                }
            }
            let mut r = r0;
            for &x in chunk {
                let rot = ch.nco.next();
                let b = &mut ch.branches[r];
                if !b.taps_rev.is_empty() {
                    b.re.push(x.re * rot.re - x.im * rot.im);
                    b.im.push(x.re * rot.im + x.im * rot.re);
                }
                r = if r == 0 { d - 1 } else { r - 1 };
            }
            // Every output instant s·D < end is ready (its latest input,
            // wideband sample s·D on branch 0, has been deposited): one
            // short contiguous dot per branch at the decimated rate,
            // summed in fixed branch order so any chunking produces
            // bit-identical output.
            let di = d as i64;
            let mut produced = Vec::new();
            if ch.next_out_s * di < end {
                produced.reserve(((end - 1) / di - ch.next_out_s + 1) as usize);
            }
            while ch.next_out_s * di < end {
                let s = ch.next_out_s;
                let mut ore = 0.0f32;
                let mut oim = 0.0f32;
                for b in &ch.branches {
                    let len = b.taps_rev.len();
                    if len == 0 {
                        continue;
                    }
                    let lo = (s - len as i64 + 1 - b.base) as usize;
                    let (br, bi) =
                        kernel::fir_dot(&b.taps_rev, &b.re[lo..lo + len], &b.im[lo..lo + len]);
                    ore += br;
                    oim += bi;
                }
                produced.push(Cf32::new(ore, oim));
                ch.next_out_s += 1;
            }
            // Drop branch history the next output can no longer reach.
            for b in &mut ch.branches {
                let len = b.taps_rev.len() as i64;
                if len == 0 {
                    continue;
                }
                let keep_from = (ch.next_out_s - len + 1 - b.base).max(0) as usize;
                if keep_from > 0 {
                    b.re.drain(..keep_from);
                    b.im.drain(..keep_from);
                    b.base += keep_from as i64;
                }
            }
            out.push(produced);
        }
        self.pos = end;
        out
    }

    /// End of stream: feed the filter's group delay worth of zeros and
    /// return the remaining output samples of every channel, so content
    /// up to the last wideband input sample reaches the output. Without
    /// this, the final `(num_taps − 1) / 2` wideband samples of signal
    /// stay buried in the FIR history — enough to truncate the last
    /// symbols of a packet ending near capture end.
    ///
    /// Idempotent: a second call emits nothing. [`Channelizer::process`]
    /// must not be called afterwards.
    pub fn flush(&mut self) -> Vec<Vec<Cf32>> {
        if self.flushed {
            return vec![Vec::new(); self.channels.len()];
        }
        self.flushed = true;
        let zeros = vec![Cf32::new(0.0, 0.0); self.group_delay_wideband()];
        self.process_inner(&zeros)
    }

    /// Channelize a whole capture in one call, including the group-delay
    /// tail ([`Channelizer::flush`]).
    pub fn process_all(&mut self, samples: &[Cf32]) -> Vec<Vec<Cf32>> {
        let mut out = self.process(samples);
        for (o, tail) in out.iter_mut().zip(self.flush()) {
            o.extend(tail);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tone(rate: f64, freq: f64, amp: f32, n: usize) -> Vec<Cf32> {
        (0..n)
            .map(|i| {
                let ang = (std::f64::consts::TAU * freq * i as f64 / rate) as f32;
                Cf32::new(ang.cos(), ang.sin()) * amp
            })
            .collect()
    }

    fn rms(x: &[Cf32]) -> f64 {
        (x.iter().map(|c| c.norm_sqr() as f64).sum::<f64>() / x.len().max(1) as f64).sqrt()
    }

    fn paper_plan() -> ChannelizerConfig {
        // 4 × 250 kHz channels spaced 500 kHz, decimated 4 MHz → 1 MHz.
        ChannelizerConfig::uniform(4, 250e3, 500e3, 1e6, 4)
    }

    #[test]
    fn uniform_plan_is_symmetric() {
        let cfg = paper_plan();
        assert_eq!(cfg.offsets_hz, vec![-750e3, -250e3, 250e3, 750e3]);
        assert_eq!(cfg.wideband_rate_hz, 4e6);
        assert_eq!(cfg.channel_rate_hz(), 1e6);
        assert!(cfg.num_taps % 2 == 1);
    }

    #[test]
    fn polyphase_branches_partition_the_prototype() {
        // Every prototype tap appears in exactly one branch sub-filter,
        // so the branch lengths sum to num_taps and the DC gains add to
        // the prototype's unity DC gain.
        let cfg = paper_plan();
        let ch = Channelizer::new(cfg.clone());
        let branches = &ch.channels[0].branches;
        assert_eq!(branches.len(), cfg.decimation);
        let total: usize = branches.iter().map(|b| b.taps_rev.len()).sum();
        assert_eq!(total, cfg.num_taps);
        let dc: f32 = branches.iter().flat_map(|b| &b.taps_rev).sum();
        assert!((dc - 1.0).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "leaves no room for a transition band")]
    fn tight_plan_panics_in_uniform_with_named_parameters() {
        // The channel edge sits exactly at the wideband Nyquist: no
        // transition band can exist. `uniform` itself must reject the
        // plan with a message naming its parameters, not let
        // `lowpass_taps` trip an opaque `cutoff_norm < 0.5` assert at
        // `Channelizer::new` time.
        let _ = ChannelizerConfig::uniform(1, 250e3, 500e3, 250e3, 1);
    }

    #[test]
    fn tight_plan_clamps_stopband_to_nyquist() {
        // Regression: this plan's naive stopband target (spacing − bw/2 =
        // 380 kHz) lies beyond the 125 kHz wideband Nyquist, which used to
        // design an invalid filter (cutoff ≥ Nyquist) and panic only at
        // `Channelizer::new`. Clamping the target to Nyquist — beyond
        // which no wideband content exists — keeps the plan designable.
        let cfg = ChannelizerConfig::uniform(1, 240e3, 500e3, 250e3, 1);
        assert!(cfg.cutoff_hz < cfg.wideband_rate_hz / 2.0);
        let _ = Channelizer::new(cfg);
    }

    #[test]
    fn lowpass_has_unity_dc_gain() {
        let taps = lowpass_taps(63, 0.0625);
        let dc: f32 = taps.iter().sum();
        assert!((dc - 1.0).abs() < 1e-6);
    }

    #[test]
    fn tone_passes_own_channel_at_unit_gain() {
        let cfg = paper_plan();
        let mut ch = Channelizer::new(cfg.clone());
        // 50 kHz above channel 2's carrier: inside its 125 kHz half-band.
        let x = tone(cfg.wideband_rate_hz, cfg.offsets_hz[2] + 50e3, 1.0, 40_000);
        let outs = ch.process(&x);
        let settle = cfg.num_taps; // skip the filter transient
        let own = rms(&outs[2][settle..]);
        assert!((own - 1.0).abs() < 0.05, "passband gain {own}");
    }

    #[test]
    fn tone_rejected_forty_db_on_neighbours() {
        let cfg = paper_plan();
        for k in 0..cfg.n_channels() {
            let x = tone(cfg.wideband_rate_hz, cfg.offsets_hz[k] + 30e3, 1.0, 40_000);
            let outs = Channelizer::new(cfg.clone()).process(&x);
            let settle = cfg.num_taps;
            let own = rms(&outs[k][settle..]);
            for (j, out) in outs.iter().enumerate() {
                if j == k {
                    continue;
                }
                let leak = rms(&out[settle..]);
                let rej_db = 20.0 * (own / leak.max(1e-30)).log10();
                assert!(
                    rej_db >= 40.0,
                    "channel {k} -> {j}: only {rej_db:.1} dB rejection"
                );
            }
        }
    }

    #[test]
    fn chunked_processing_matches_one_shot() {
        let cfg = paper_plan();
        let x = tone(cfg.wideband_rate_hz, cfg.offsets_hz[1] + 40e3, 0.7, 10_000);

        let whole = Channelizer::new(cfg.clone()).process(&x);

        let mut chunked = Channelizer::new(cfg.clone());
        let mut acc: Vec<Vec<Cf32>> = vec![Vec::new(); cfg.n_channels()];
        // Ragged chunk sizes, including empty and sub-decimation ones.
        let sizes = [1usize, 3, 0, 17, 64, 5, 1000, 2, 9000];
        let mut pos = 0;
        let mut si = 0;
        while pos < x.len() {
            let n = sizes[si % sizes.len()].min(x.len() - pos);
            si += 1;
            for (a, o) in acc.iter_mut().zip(chunked.process(&x[pos..pos + n])) {
                a.extend(o);
            }
            pos += n;
        }
        for (w, c) in whole.iter().zip(&acc) {
            assert_eq!(w.len(), c.len());
            for (a, b) in w.iter().zip(c) {
                assert_eq!(a, b, "chunking changed the output stream");
            }
        }
    }

    #[test]
    fn output_length_is_input_over_decimation() {
        let cfg = paper_plan();
        let mut ch = Channelizer::new(cfg.clone());
        let outs = ch.process(&vec![Cf32::new(1.0, 0.0); 4001]);
        // Outputs at wideband instants 0, D, 2D, ... < 4001.
        assert_eq!(outs[0].len(), 1001);
    }

    #[test]
    fn dc_tone_survives_decimation_on_centre_channel() {
        // A 3-channel plan has a channel exactly at DC.
        let cfg = ChannelizerConfig::uniform(3, 250e3, 500e3, 1e6, 4);
        assert_eq!(cfg.offsets_hz[1], 0.0);
        let x = vec![Cf32::new(0.5, 0.0); 20_000];
        let outs = Channelizer::new(cfg.clone()).process(&x);
        let settle = cfg.num_taps;
        let tail = &outs[1][settle..];
        assert!((rms(tail) - 0.5).abs() < 0.01);
        // Phase preserved too, not just power.
        assert!(tail
            .iter()
            .all(|c| (c.re - 0.5).abs() < 0.01 && c.im.abs() < 0.01));
    }

    #[test]
    fn flush_emits_the_group_delay_tail() {
        // A late feature — an impulse on the very last input sample —
        // must still come out: the peak of its filter response sits
        // `delay` wideband samples after the impulse, which only the
        // flush can reach.
        let cfg = paper_plan();
        let n = 8000;
        let mut x = vec![Cf32::new(0.0, 0.0); n];
        x[n - 1] = Cf32::new(1.0, 0.0);
        let mut ch = Channelizer::new(cfg.clone());
        let delay = ch.group_delay_wideband();
        let head = ch.process(&x);
        let tail = ch.flush();
        // The flush produces outputs for instants n .. n + delay.
        let expect_tail = (n + delay - 1) / cfg.decimation - (n - 1) / cfg.decimation;
        assert_eq!(tail[1].len(), expect_tail);
        // The response peak lands at wideband instant n − 1 + delay,
        // i.e. inside the flushed tail on the DC-offset-free grid.
        let full: Vec<Cf32> = head[1].iter().chain(&tail[1]).copied().collect();
        let peak = full
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.norm_sqr().total_cmp(&b.1.norm_sqr()))
            .map(|(i, _)| i)
            .unwrap();
        assert!(
            peak > head[1].len() - 2,
            "impulse response peak at {peak}, before the flushed tail ({})",
            head[1].len()
        );
    }

    #[test]
    fn flush_is_idempotent() {
        let cfg = paper_plan();
        let mut ch = Channelizer::new(cfg.clone());
        ch.process(&vec![Cf32::new(0.3, -0.1); 5000]);
        let first = ch.flush();
        assert!(first.iter().any(|o| !o.is_empty()));
        let second = ch.flush();
        assert_eq!(second.len(), cfg.n_channels());
        assert!(
            second.iter().all(|o| o.is_empty()),
            "second flush must emit nothing"
        );
    }

    #[test]
    fn process_all_includes_the_tail() {
        let cfg = paper_plan();
        let x = tone(cfg.wideband_rate_hz, cfg.offsets_hz[0] + 20e3, 0.5, 10_000);
        let whole = Channelizer::new(cfg.clone()).process_all(&x);
        let mut split = Channelizer::new(cfg.clone());
        let mut acc = split.process(&x);
        for (a, t) in acc.iter_mut().zip(split.flush()) {
            a.extend(t);
        }
        for (w, a) in whole.iter().zip(&acc) {
            assert_eq!(w, a);
        }
        let delay = (cfg.num_taps - 1) / 2;
        let expect = (x.len() + delay - 1) / cfg.decimation + 1;
        assert_eq!(whole[0].len(), expect);
    }
}
