//! The correctness gate: every CRC-ok delivery must be one of the
//! scenario's emissions, delivered once.

use std::collections::HashMap;

/// One transmission the scenario put on the air.
#[derive(Debug, Clone)]
pub struct Emitted {
    /// Channel index in the band plan.
    pub channel: usize,
    /// Spreading factor.
    pub sf: u8,
    /// Frame start, wideband samples.
    pub start: u64,
    /// Application payload.
    pub payload: Vec<u8>,
}

/// How one CRC-ok delivery relates to the ground truth.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// First delivery of emission `idx`.
    Matched(usize),
    /// Emission `idx` was already delivered.
    Duplicate(usize),
    /// No emission on this (channel, SF, payload) within a symbol.
    Phantom,
}

/// Matches deliveries to emissions on (channel, SF, payload), with the
/// delivered start within one symbol of the emitted one.
pub struct TruthMatcher {
    emitted: Vec<Emitted>,
    by_key: HashMap<(usize, u8, Vec<u8>), Vec<usize>>,
    delivered: Vec<bool>,
    /// Wideband samples per symbol, by SF.
    symbol: HashMap<u8, u64>,
}

impl TruthMatcher {
    /// Index `emitted`; `symbol` gives the wideband symbol length per SF
    /// (the start tolerance).
    pub fn new(emitted: Vec<Emitted>, symbol: HashMap<u8, u64>) -> Self {
        let mut by_key: HashMap<_, Vec<usize>> = HashMap::new();
        for (i, e) in emitted.iter().enumerate() {
            by_key
                .entry((e.channel, e.sf, e.payload.clone()))
                .or_default()
                .push(i);
        }
        Self {
            delivered: vec![false; emitted.len()],
            emitted,
            by_key,
            symbol,
        }
    }

    /// The emissions, in scenario order.
    pub fn emitted(&self) -> &[Emitted] {
        &self.emitted
    }

    /// Classify one CRC-ok delivery and record it.
    pub fn classify(&mut self, channel: usize, sf: u8, start: u64, payload: &[u8]) -> Verdict {
        let tolerance = self.symbol.get(&sf).copied().unwrap_or(0);
        let Some(candidates) = self.by_key.get(&(channel, sf, payload.to_vec())) else {
            return Verdict::Phantom;
        };
        let near = |&&i: &&usize| self.emitted[i].start.abs_diff(start) <= tolerance;
        let fresh = candidates
            .iter()
            .filter(near)
            .filter(|&&i| !self.delivered[i])
            .min_by_key(|&&i| self.emitted[i].start.abs_diff(start))
            .copied();
        if let Some(i) = fresh {
            self.delivered[i] = true;
            return Verdict::Matched(i);
        }
        match candidates.iter().find(near) {
            Some(&i) => Verdict::Duplicate(i),
            None => Verdict::Phantom,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn matcher() -> TruthMatcher {
        let e = |channel, sf, start, tag: u8| Emitted {
            channel,
            sf,
            start,
            payload: vec![tag; 16],
        };
        TruthMatcher::new(
            vec![e(0, 7, 10_000, 1), e(1, 9, 20_000, 2), e(0, 7, 90_000, 1)],
            HashMap::from([(7, 512), (9, 2048)]),
        )
    }

    #[test]
    fn each_emission_matches_once() {
        let mut m = matcher();
        assert_eq!(m.classify(0, 7, 10_003, &[1; 16]), Verdict::Matched(0));
        // Same payload again, far away: the other emission of that payload.
        assert_eq!(m.classify(0, 7, 89_990, &[1; 16]), Verdict::Matched(2));
        assert_eq!(m.classify(1, 9, 21_000, &[2; 16]), Verdict::Matched(1));
    }

    #[test]
    fn duplicate_and_phantom_are_flagged() {
        let mut m = matcher();
        assert_eq!(m.classify(0, 7, 10_000, &[1; 16]), Verdict::Matched(0));
        assert_eq!(m.classify(0, 7, 10_100, &[1; 16]), Verdict::Duplicate(0));
        // Right payload, wrong channel / SF / time, or unknown payload.
        assert_eq!(m.classify(1, 7, 10_000, &[1; 16]), Verdict::Phantom);
        assert_eq!(m.classify(0, 9, 10_000, &[1; 16]), Verdict::Phantom);
        assert_eq!(m.classify(0, 7, 50_000, &[1; 16]), Verdict::Phantom);
        assert_eq!(m.classify(0, 7, 10_000, &[3; 16]), Verdict::Phantom);
    }
}
