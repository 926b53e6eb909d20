//! The receivers under evaluation, behind one constructor.

use cic::{CicConfig, CicReceiver};
use lora_baselines::{
    ChoirReceiver, CollisionReceiver, ColoraReceiver, FtrackReceiver, MLoraReceiver, RxPacket,
    StandardReceiver,
};
use lora_dsp::Cf32;
use lora_phy::params::{CodeRate, LoraParams};

/// Which receiver to run (paper §7.1: CIC, FTrack, Choir, standard LoRa,
/// plus the §7.4 CIC ablations).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scheme {
    /// Full CIC.
    Cic,
    /// CIC with feature switches: `(use_cfo, use_power)`.
    CicAblation(bool, bool),
    /// FTrack.
    Ftrack,
    /// Choir.
    Choir,
    /// mLoRa (successive interference cancellation).
    MLora,
    /// CoLoRa (received-power matching).
    Colora,
    /// Standard (COTS-like) LoRa.
    Standard,
}

impl Scheme {
    /// The four schemes of the capacity figures, in plot order.
    pub const CAPACITY_SET: [Scheme; 4] =
        [Scheme::Cic, Scheme::Ftrack, Scheme::Choir, Scheme::Standard];

    /// Every implemented receiver, including the §2 related-work systems
    /// the paper discusses but does not plot (mLoRa, CoLoRa).
    pub const EXTENDED_SET: [Scheme; 6] = [
        Scheme::Cic,
        Scheme::Ftrack,
        Scheme::Choir,
        Scheme::MLora,
        Scheme::Colora,
        Scheme::Standard,
    ];

    /// The four ablation variants of Figs 36–37.
    pub(crate) const ABLATION_SET: [Scheme; 4] = [
        Scheme::CicAblation(true, true),
        Scheme::CicAblation(false, true),
        Scheme::CicAblation(true, false),
        Scheme::CicAblation(false, false),
    ];

    /// Display label.
    pub fn label(&self) -> &'static str {
        match self {
            Scheme::Cic => "CIC",
            Scheme::CicAblation(true, true) => "CIC",
            Scheme::CicAblation(false, true) => "CIC-(CFO)",
            Scheme::CicAblation(true, false) => "CIC-(Power)",
            Scheme::CicAblation(false, false) => "CIC-(Power,CFO)",
            Scheme::Ftrack => "FTrack",
            Scheme::Choir => "Choir",
            Scheme::MLora => "mLoRa",
            Scheme::Colora => "CoLoRa",
            Scheme::Standard => "LoRa",
        }
    }

    /// Build the receiver.
    pub fn build(
        &self,
        params: LoraParams,
        cr: CodeRate,
        payload_len: usize,
    ) -> Box<dyn CollisionReceiver> {
        match self {
            Scheme::Cic => Box::new(CicScheme::new(
                params,
                cr,
                payload_len,
                CicConfig::default(),
            )),
            Scheme::CicAblation(use_cfo, use_power) => Box::new(CicScheme::new(
                params,
                cr,
                payload_len,
                CicConfig::ablation(*use_cfo, *use_power),
            )),
            Scheme::Ftrack => Box::new(FtrackReceiver::new(params, cr, payload_len)),
            Scheme::Choir => Box::new(ChoirReceiver::new(params, cr, payload_len)),
            Scheme::MLora => Box::new(MLoraReceiver::new(params, cr, payload_len)),
            Scheme::Colora => Box::new(ColoraReceiver::new(params, cr, payload_len)),
            Scheme::Standard => Box::new(StandardReceiver::new(params, cr, payload_len)),
        }
    }
}

/// Adapter implementing the simulator's receiver trait for [`CicReceiver`].
pub(crate) struct CicScheme {
    rx: CicReceiver,
}

impl CicScheme {
    /// Build a CIC scheme with a given configuration.
    pub(crate) fn new(
        params: LoraParams,
        cr: CodeRate,
        payload_len: usize,
        config: CicConfig,
    ) -> Self {
        Self {
            rx: CicReceiver::new(params, cr, payload_len, config),
        }
    }
}

impl CollisionReceiver for CicScheme {
    fn name(&self) -> &'static str {
        "CIC"
    }

    fn receive(&self, capture: &[Cf32]) -> Vec<RxPacket> {
        self.rx
            .receive(capture)
            .into_iter()
            .map(|p| RxPacket {
                frame_start: p.detection.frame_start,
                payload: p.payload,
                symbols: p.symbols,
            })
            .collect()
    }

    fn detect_starts(&self, capture: &[Cf32]) -> Vec<usize> {
        self.rx
            .detect(capture)
            .into_iter()
            .map(|d| d.frame_start)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels() {
        assert_eq!(Scheme::Cic.label(), "CIC");
        assert_eq!(Scheme::CicAblation(false, false).label(), "CIC-(Power,CFO)");
        assert_eq!(Scheme::Standard.label(), "LoRa");
    }

    #[test]
    fn builds_all_schemes() {
        let p = LoraParams::paper_default();
        for s in Scheme::EXTENDED_SET.iter().chain(&Scheme::ABLATION_SET) {
            let rx = s.build(p, CodeRate::Cr45, 28);
            assert!(!rx.name().is_empty());
        }
    }
}
