//! Property-style equivalence: the production polyphase channelizer and
//! the scalar reference must agree within 1e-5 RMS on every channel, for
//! every plan shape the workspace uses, under ragged chunk splits
//! (including splits that straddle the NCO renormalisation interval),
//! and through the end-of-stream flush — and the polyphase path itself
//! must be bit-exact across chunkings. A channelizer built over a
//! channel *slice* of a wider plan must reproduce the sliced channels of
//! the full plan bit-for-bit.

use lora_dsp::channelizer::{scalar, ChannelizerConfig};
use lora_dsp::{Cf32, Channelizer};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Plan shapes under test: the 4-channel paper plan plus the other
/// `uniform` shapes used across the workspace (DC-centred 3-channel,
/// 2-channel, dense 8-channel, and a clamped tight single-channel plan).
fn plans() -> Vec<(&'static str, ChannelizerConfig)> {
    vec![
        (
            "paper-4ch-d4",
            ChannelizerConfig::uniform(4, 250e3, 500e3, 1e6, 4),
        ),
        (
            "dc-3ch-d4",
            ChannelizerConfig::uniform(3, 250e3, 500e3, 1e6, 4),
        ),
        (
            "2ch-d2",
            ChannelizerConfig::uniform(2, 250e3, 500e3, 2e6, 2),
        ),
        (
            "8ch-d4",
            ChannelizerConfig::uniform(8, 250e3, 500e3, 1e6, 4),
        ),
        (
            "tight-1ch-d1",
            ChannelizerConfig::uniform(1, 240e3, 500e3, 250e3, 1),
        ),
    ]
}

/// Wideband test signal: white complex noise plus a tone inside each
/// channel's passband, so both the stopband (noise rejection) and the
/// passband (tone fidelity) paths of the FIR carry energy.
fn test_signal(cfg: &ChannelizerConfig, n: usize, seed: u64) -> Vec<Cf32> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|i| {
            let mut s = Cf32::new(
                rng.random_range(-0.5f32..0.5),
                rng.random_range(-0.5f32..0.5),
            );
            for (c, &off) in cfg.offsets_hz.iter().enumerate() {
                let f = off + 40e3 * (c as f64 + 1.0) / cfg.offsets_hz.len() as f64;
                let ang = (std::f64::consts::TAU * f * i as f64 / cfg.wideband_rate_hz) as f32;
                s += Cf32::new(ang.cos(), ang.sin()) * 0.4;
            }
            s
        })
        .collect()
}

fn rms_diff(a: &[Cf32], b: &[Cf32]) -> f64 {
    assert_eq!(a.len(), b.len(), "output length mismatch");
    if a.is_empty() {
        return 0.0;
    }
    let e: f64 = a
        .iter()
        .zip(b)
        .map(|(x, y)| {
            let d = *x - *y;
            d.norm_sqr() as f64
        })
        .sum();
    (e / a.len() as f64).sqrt()
}

/// Run a channelizer over `x` split at the given ragged sizes, then
/// flush; returns per-channel streams (head ++ tail).
fn run_chunked<F>(mut process: F, n_channels: usize, x: &[Cf32], sizes: &[usize]) -> Vec<Vec<Cf32>>
where
    F: FnMut(Option<&[Cf32]>) -> Vec<Vec<Cf32>>,
{
    let mut acc: Vec<Vec<Cf32>> = vec![Vec::new(); n_channels];
    let mut pos = 0;
    let mut si = 0;
    while pos < x.len() {
        let n = sizes[si % sizes.len()].min(x.len() - pos);
        si += 1;
        for (a, o) in acc.iter_mut().zip(process(Some(&x[pos..pos + n]))) {
            a.extend(o);
        }
        pos += n;
    }
    for (a, t) in acc.iter_mut().zip(process(None)) {
        a.extend(t);
    }
    acc
}

const RAGGED: [&[usize]; 4] = [
    &[usize::MAX], // one shot
    &[1, 3, 0, 17, 64, 5, 1000, 2, 9000],
    &[511, 513, 4096, 7, 997], // straddle the NCO renormalisation interval
    &[0, 1, 0, 8191],          // the first call, which seeds the histories, is empty
];

#[test]
fn sliced_plan_reproduces_the_full_plan_channels_bit_exactly() {
    // A cluster shard channelizes only its slice of the band: same
    // prototype, same rates, a subset of the offsets. Per-channel state
    // is independent, so the sliced channelizer must emit the exact bits
    // the full plan emits on those channels — this is what lets a shard
    // skip the other channels' work without changing a single decode.
    let full_cfg = ChannelizerConfig::uniform(8, 250e3, 500e3, 1e6, 4);
    let x = test_signal(&full_cfg, 30_000, 0x511C);
    let mut full = Channelizer::new(full_cfg.clone());
    let whole = run_chunked(
        |c| match c {
            Some(c) => full.process(c),
            None => full.flush(),
        },
        full_cfg.n_channels(),
        &x,
        RAGGED[1],
    );
    // A 2-of-8 slice (the bench axis) and the 1-channel slice edge case.
    for slice in [vec![2usize, 5], vec![7], vec![0]] {
        let cfg = ChannelizerConfig {
            offsets_hz: slice.iter().map(|&c| full_cfg.offsets_hz[c]).collect(),
            ..full_cfg.clone()
        };
        for sizes in &RAGGED {
            let mut ch = Channelizer::new(cfg.clone());
            let got = run_chunked(
                |c| match c {
                    Some(c) => ch.process(c),
                    None => ch.flush(),
                },
                cfg.n_channels(),
                &x,
                sizes,
            );
            for (k, &c) in slice.iter().enumerate() {
                assert_eq!(
                    got[k], whole[c],
                    "slice {slice:?}: sliced channel {c} diverged from the full plan"
                );
            }
        }
    }
}

#[test]
fn vectorised_matches_scalar_within_1e5_rms() {
    // Same convolution sums, associated differently: polyphase must track
    // the scalar reference for every plan shape and ragged chunking.
    for (name, cfg) in plans() {
        let x = test_signal(&cfg, 30_000, 0xC1C0 + cfg.n_channels() as u64);
        for (si, sizes) in RAGGED.iter().enumerate() {
            let mut v = Channelizer::new(cfg.clone());
            let mut s = scalar::Channelizer::new(cfg.clone());
            let got = run_chunked(
                |c| match c {
                    Some(c) => v.process(c),
                    None => v.flush(),
                },
                cfg.n_channels(),
                &x,
                sizes,
            );
            let want = run_chunked(
                |c| match c {
                    Some(c) => s.process(c),
                    None => s.flush(),
                },
                cfg.n_channels(),
                &x,
                sizes,
            );
            for (ch, (g, w)) in got.iter().zip(&want).enumerate() {
                let rms = rms_diff(g, w);
                assert!(
                    rms <= 1e-5,
                    "plan {name}, chunking {si}, channel {ch}: RMS {rms:.3e} vs scalar"
                );
            }
        }
    }
}

#[test]
fn vectorised_is_chunking_invariant_bit_exact() {
    // The scalar/vectorised tolerance above could mask a chunking
    // sensitivity smaller than 1e-5; the vectorised path must in fact be
    // bit-identical for any split, flush included.
    for (name, cfg) in plans() {
        let x = test_signal(&cfg, 20_000, 77);
        let mut one = Channelizer::new(cfg.clone());
        let mut whole = one.process(&x);
        for (w, t) in whole.iter_mut().zip(one.flush()) {
            w.extend(t);
        }
        for sizes in &RAGGED[1..] {
            let mut v = Channelizer::new(cfg.clone());
            let acc = run_chunked(
                |c| match c {
                    Some(c) => v.process(c),
                    None => v.flush(),
                },
                cfg.n_channels(),
                &x,
                sizes,
            );
            for (ch, (w, a)) in whole.iter().zip(&acc).enumerate() {
                assert_eq!(
                    w, a,
                    "plan {name}, channel {ch}: chunking changed the stream"
                );
            }
        }
    }
}

#[test]
fn flush_equivalence_and_idempotence_both_paths() {
    // The empty capture is flush only: the flush is the first call, and
    // it seeds the branch histories itself.
    for (name, cfg) in plans() {
        for x in [test_signal(&cfg, 9_973, 5), Vec::new()] {
            flush_matches_scalar(name, &cfg, &x);
        }
    }
}

fn flush_matches_scalar(name: &str, cfg: &ChannelizerConfig, x: &[Cf32]) {
    let mut v = Channelizer::new(cfg.clone());
    let mut s = scalar::Channelizer::new(cfg.clone());
    let (head_v, head_s) = if x.is_empty() {
        let none = vec![Vec::new(); cfg.n_channels()];
        (none.clone(), none)
    } else {
        (v.process(x), s.process(x))
    };
    let tail_v = v.flush();
    let tail_s = s.flush();
    for ch in 0..cfg.n_channels() {
        assert_eq!(
            head_v[ch].len() + tail_v[ch].len(),
            head_s[ch].len() + tail_s[ch].len(),
            "plan {name}: flushed stream lengths diverge"
        );
        let rms = rms_diff(&tail_v[ch], &tail_s[ch]);
        assert!(
            rms <= 1e-5,
            "plan {name}, channel {ch}: flush tail RMS {rms:.3e}"
        );
        // The tail must cover the group delay: content up to the last
        // input sample reaches the output.
        let produced = head_v[ch].len() + tail_v[ch].len();
        let delay = v.group_delay_wideband();
        let expect = (x.len() + delay - 1) / cfg.decimation + 1;
        assert_eq!(
            produced, expect,
            "plan {name}: tail does not cover the delay"
        );
    }
    // Second flush emits nothing, on both implementations.
    assert!(v.flush().iter().all(|o| o.is_empty()));
    assert!(s.flush().iter().all(|o| o.is_empty()));
}
