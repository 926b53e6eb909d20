//! The sink's duplicate suppression.
//!
//! Two decoded reports describe the same transmission when they sit on
//! the same channel at (nearly) the same time: identical payloads within
//! a symbol, or the same (channel, SF) stream within half a symbol — the
//! in-stream safety net for a detector firing twice on one preamble.
//! Entries keep the shard that reported them, telling a shard's own
//! duplicate (a SIC ghost, say) from another shard's copy.
//! [`DedupWindow::prune`] bounds the window's memory by retiring entries
//! the release watermark has moved far enough past that no legitimate
//! late report (a SIC residual re-read of buffered history) can still
//! collide with them.

/// One accepted packet, retained for duplicate matching.
#[derive(Debug, Clone)]
pub(crate) struct DedupEntry {
    /// Shard that reported the packet.
    pub(crate) shard: usize,
    /// Global channel index the packet was accepted on.
    pub(crate) channel: usize,
    /// Spreading factor it was decoded at.
    pub(crate) sf: u8,
    /// Frame start on the wideband time base.
    pub(crate) start_wideband: u64,
    /// Payload iff the CRC passed.
    pub(crate) payload: Option<Vec<u8>>,
}

/// A bounded window of recently accepted packets with time-and-payload
/// duplicate matching. See the module docs.
#[derive(Debug)]
pub(crate) struct DedupWindow {
    /// Wideband samples per chip (`oversampling × decimation`); symbol
    /// length at SF `s` is `2^s` chips.
    chip_wideband: u64,
    /// Largest SF any stream decodes, sizing the match windows.
    max_sf: u8,
    /// Deepest below-watermark release any stream can perform (its
    /// receiver holdback), wideband samples. Entries are retained this
    /// far behind the prune horizon, plus the match window itself.
    release_slack: u64,
    recent: Vec<DedupEntry>,
}

impl DedupWindow {
    /// An empty window, covering no stream until [`DedupWindow::cover`].
    pub(crate) fn new(chip_wideband: usize) -> Self {
        Self {
            chip_wideband: chip_wideband as u64,
            max_sf: 0,
            release_slack: 0,
            recent: Vec::new(),
        }
    }

    /// Also cover streams decoding up to `max_sf` whose late releases
    /// reach at most `release_slack` wideband samples behind the release
    /// watermark.
    pub(crate) fn cover(&mut self, max_sf: u8, release_slack: u64) {
        self.max_sf = self.max_sf.max(max_sf);
        self.release_slack = self.release_slack.max(release_slack);
    }

    fn symbol_len(&self, sf: u8) -> u64 {
        (1u64 << sf.min(self.max_sf)) * self.chip_wideband
    }

    /// The shard whose accepted packet `report` duplicates, if any:
    /// `report.shard` itself when one of its own packets matches, else
    /// another shard's. A match is the same channel AND (same SF within
    /// half a symbol, or same CRC-passing payload within one symbol at
    /// the larger of the two SFs).
    pub(crate) fn duplicate_of(&self, report: &DedupEntry) -> Option<usize> {
        let (sf, payload) = (report.sf, &report.payload);
        self.recent
            .iter()
            .filter(|r| {
                let dt = r.start_wideband.abs_diff(report.start_wideband);
                let same_stream = r.sf == sf && dt < self.symbol_len(sf) / 2;
                let same_payload = payload.is_some()
                    && r.payload == *payload
                    && dt < self.symbol_len(sf.max(r.sf));
                r.channel == report.channel && (same_stream || same_payload)
            })
            .map(|r| r.shard)
            // The reporting shard's own match first.
            .min_by_key(|&shard| shard != report.shard)
    }

    /// Record an accepted packet for future matching.
    pub(crate) fn accept(&mut self, entry: DedupEntry) {
        self.recent.push(entry);
    }

    /// Retire entries the watermark has moved past: everything starting
    /// more than the retention window before `horizon` can no longer
    /// collide with a legitimate late report.
    ///
    /// Retention is the release slack plus four max-SF symbols: a late
    /// report at the very edge of the slack still finds its duplicate,
    /// which may itself sit up to one symbol earlier.
    pub(crate) fn prune(&mut self, horizon: u64) {
        let retention = self.release_slack + 4 * self.symbol_len(self.max_sf);
        let cut = horizon.saturating_sub(retention);
        self.recent.retain(|r| r.start_wideband >= cut);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(channel: usize, sf: u8, start: u64, payload: Option<&[u8]>) -> DedupEntry {
        DedupEntry {
            shard: 0,
            channel,
            sf,
            start_wideband: start,
            payload: payload.map(<[u8]>::to_vec),
        }
    }

    #[test]
    fn matches_same_stream_and_same_payload() {
        let mut w = DedupWindow::new(16);
        w.cover(9, 0);
        w.accept(entry(0, 7, 10_000, Some(b"p")));
        // Same (channel, SF) within half a symbol (SF7: 2048 wideband).
        assert!(w.duplicate_of(&entry(0, 7, 10_500, None)).is_some());
        // Same payload, different SF, within one symbol at the max.
        assert!(w.duplicate_of(&entry(0, 9, 11_000, Some(b"p"))).is_some());
        // Different channel: never a duplicate.
        assert!(w.duplicate_of(&entry(1, 7, 10_000, Some(b"p"))).is_none());
        // Too far away in time.
        assert!(w.duplicate_of(&entry(0, 7, 40_000, Some(b"p"))).is_none());
        // CRC-failed report with a different SF has no payload to match.
        assert!(w.duplicate_of(&entry(0, 9, 10_100, None)).is_none());
    }

    #[test]
    fn prune_respects_release_slack() {
        // Retention must cover `release_slack` behind the horizon, not
        // just the four-symbol match window.
        let slack = 100_000u64;
        let mut w = DedupWindow::new(16);
        w.cover(9, slack);
        w.accept(entry(0, 7, 10_000, Some(b"p")));
        // Horizon advanced well past the four-symbol window (4 × 512 × 16
        // = 32 768) but within the slack: the entry must survive.
        w.prune(60_000);
        assert!(w.duplicate_of(&entry(0, 7, 10_000, Some(b"p"))).is_some());
        // Beyond slack + match window it is retired.
        w.prune(10_000 + slack + 4 * 512 * 16 + 1);
        assert!(w.recent.is_empty());
        assert!(w.duplicate_of(&entry(0, 7, 10_000, Some(b"p"))).is_none());
    }
}
