#![warn(missing_docs)]
//! DSP substrate for the CIC LoRa collision decoder.
//!
//! This crate provides the signal-processing primitives the rest of the
//! workspace is built on:
//!
//! * [`fft`] — an FFT engine with cached plans (wraps `rustfft`),
//! * [`spectrum`] — power spectra on a fixed frequency grid, with
//!   unit-energy normalisation and alias folding for oversampled chirps,
//! * [`intersect`] — *spectral intersection*, the bin-wise minimum across
//!   spectra that is the heart of CIC (paper §5.2),
//! * [`peaks`] — peak detection and fractional peak interpolation,
//! * [`window`] — rectangular sub-symbol windowing (paper Eqn 7/11),
//! * [`correlate`] — sliding cross-correlation used by preamble detection,
//! * [`channelizer`] — streaming wideband → per-channel splitter (NCO mix,
//!   low-pass FIR, decimation) feeding the multi-channel gateway; planar
//!   autovectorised hot path with a scalar reference module and an
//!   end-of-stream group-delay flush,
//! * [`math`] — small numeric helpers (energy, dB, sinc, phase).
//!
//! All spectra produced here share one frequency grid (the full
//! `2^SF * oversampling`-point grid) regardless of the time-span of the
//! windowed signal they were estimated from; short windows are zero-padded.
//! That makes the bin-wise minimum of [`intersect`] a well-defined
//! approximation of set intersection over constituent frequencies.

pub mod channelizer;
pub mod correlate;
pub mod fft;
pub mod intersect;
pub mod math;
pub mod peaks;
pub mod spectrum;
pub mod window;

pub use channelizer::{Channelizer, ChannelizerConfig, ChannelizerError};
pub use fft::FftEngine;
pub use intersect::{spectral_intersection, spectral_intersection_into};
pub use peaks::{find_peaks, max_peak, Peak};
pub use spectrum::Spectrum;

/// Complex sample type used across the workspace.
pub type Cf32 = num_complex::Complex32;
/// Double-precision complex, used where phase accumulation matters.
pub type Cf64 = num_complex::Complex64;
