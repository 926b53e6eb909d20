//! Load-aware overload control: the degradation ladder.
//!
//! The blind drop-oldest policy of the decode queues loses *samples* —
//! and with them every packet straddling the gap — as soon as any worker
//! falls behind. But sample drops are the most expensive way to shed
//! load: a LoRa gateway has two cheaper currencies to spend first,
//!
//! 1. **decoder effort** — the iterative re-decode passes and wide
//!    disambiguation searches only improve accuracy inside collisions;
//!    under overload a fast mediocre decoder beats a slow perfect one
//!    that never sees half the samples (`rung_config`);
//! 2. **whole spreading factors** — dropping the highest SF sacrifices
//!    the fewest packets per CPU-second reclaimed (its frames are the
//!    longest, so it carries the smallest fraction of the offered packet
//!    load per unit decode cost), and the loss is *clean*: other SFs
//!    keep decoding every sample instead of everyone losing random gaps.
//!
//! `OverloadController` walks this ladder. A `LoadMonitor` smooths
//! per-worker queue occupancy (depth ÷ capacity) and decode-latency
//! EWMAs; sustained high occupancy first lowers the overloaded workers'
//! effort rung by rung, then sheds whole SF worker groups (highest SF
//! first), and only the load the ladder cannot absorb falls through to
//! the counted drop-oldest queues. Recovery retraces the same steps in
//! reverse under hysteresis (a longer cool-down than ramp-up, and a
//! reset dwell after every transition) so the ladder cannot flap.
//!
//! The controller is deliberately pure state-machine: feed it queue
//! depths, get `ControlAction`s back. The gateway ticks it on the
//! pushing thread: before dispatching a push, it runs one tick per whole
//! [`OverloadConfig::tick`] since the previous ticks, all on each
//! worker's mean queue depth over that time, so dwells counted in ticks
//! keep their wall-clock length. It publishes each worker's rung in its
//! [`crate::WorkerStats::effort_rung`] gauge, which the worker reads
//! before each chunk.

use std::time::Duration;

use cic::CicConfig;

/// Highest effort rung at which [`rung_config`] still lowers decoder
/// effort; beyond this, the only remaining degradation is shedding work
/// entirely.
pub(crate) const MAX_EFFORT_RUNG: usize = 2;

/// Never shed below this many active spreading factors.
const MIN_ACTIVE_SFS: usize = 1;

/// Effort rung meaning "worker is shed": the worker discards its chunks
/// (counted) instead of decoding them. Distinct from every effort rung
/// [`rung_config`] understands.
pub(crate) const SHED_RUNG: usize = usize::MAX;

/// Boost rung *above* full effort: the worker runs the full-effort CIC
/// configuration plus the SIC residual-cancellation stage
/// ([`cic::sic`]), which multiplies decode cost per chunk. The ladder
/// orders it strictly above rung 0 — a worker is only promoted here by a
/// recovery step of an `OverloadController` built with `sic_boost`
/// (the gateway sets it when its base CIC configuration has a SIC stage)
/// after the whole gateway has been cool for a sustained period, and it
/// is the first thing given back when the worker runs hot. Distinct from
/// every effort rung, all of which run without the SIC stage.
pub const SIC_RUNG: usize = usize::MAX - 1;

/// The decoder configuration a stream runs at `rung`, derived from the
/// gateway's full-effort configuration `base`. [`SIC_RUNG`] runs `base`
/// unchanged, residual cancellation as configured. Every effort rung
/// runs without the SIC stage, so the ladder alone decides when the
/// gateway spends headroom on residual passes: rung 0 is `base` at full
/// effort; rung 1 also drops the iterative re-decode passes (they only
/// help failed packets inside collisions); rung 2 also narrows the
/// disambiguation search (fewer candidates, fewer SED windows). Rungs
/// beyond [`MAX_EFFORT_RUNG`] clamp.
pub(crate) fn rung_config(base: &CicConfig, rung: usize) -> CicConfig {
    let mut c = base.clone();
    if rung == SIC_RUNG {
        return c;
    }
    c.sic.depth = 0;
    if rung >= 1 {
        c.decode_passes = 1;
    }
    if rung >= 2 {
        c.max_candidates = c.max_candidates.min(4);
        c.sed_windows = c.sed_windows.min(4);
    }
    c
}

/// How the gateway responds when decoders fall behind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OverloadPolicy {
    /// Per-worker blind drop-oldest only (the legacy behaviour): no
    /// controller, no degradation, queue overflow sheds samples.
    DropOldest,
    /// The adaptive degradation ladder described in the module docs.
    Adaptive,
}

/// Tuning for the adaptive overload controller.
#[derive(Debug, Clone)]
pub struct OverloadConfig {
    /// Which policy to run.
    pub policy: OverloadPolicy,
    /// Controller tick period: a push runs one ladder tick per whole
    /// period since the previous ticks, all on the mean queue depths
    /// over that time (at most `escalate_ticks.max(recover_ticks)` ticks
    /// per push). Zero makes every push one tick.
    pub tick: Duration,
    /// Queue-occupancy EWMA at or above which a worker counts as hot.
    pub high_occupancy: f64,
    /// Queue-occupancy EWMA at or below which a worker counts as cool.
    pub low_occupancy: f64,
    /// EWMA smoothing factor for occupancy, in (0, 1]; higher reacts
    /// faster.
    pub ewma_alpha: f64,
    /// Consecutive hot ticks before a downward ladder step.
    pub escalate_ticks: u32,
    /// Consecutive all-cool ticks before an upward ladder step (the
    /// hysteresis: make this several times `escalate_ticks`).
    pub recover_ticks: u32,
    /// How long a worker may sit idle before it publishes a caught-up
    /// watermark (see `Gateway` docs); shared here because it is part of
    /// the same liveness/overload control plane.
    pub idle_timeout: Duration,
    /// Decode-latency EWMA at which a worker saturates the hot signal:
    /// the per-tick load sample is
    /// `max(queue occupancy, decode_ewma / hot_decode)` (latency term
    /// clamped to 1), so a worker whose decodes have grown this slow
    /// counts fully hot even while its queue still looks shallow —
    /// latency is the *leading* overload indicator, depth the lagging
    /// one. Generous by default so the term only engages on decodes that
    /// are pathologically slow relative to the control tick.
    pub hot_decode: Duration,
}

impl Default for OverloadConfig {
    fn default() -> Self {
        Self {
            policy: OverloadPolicy::Adaptive,
            tick: Duration::from_millis(10),
            high_occupancy: 0.75,
            low_occupancy: 0.25,
            ewma_alpha: 0.35,
            escalate_ticks: 3,
            recover_ticks: 25,
            idle_timeout: Duration::from_millis(500),
            hot_decode: Duration::from_secs(1),
        }
    }
}

impl OverloadConfig {
    /// The legacy drop-oldest-only configuration.
    pub fn drop_oldest() -> Self {
        Self {
            policy: OverloadPolicy::DropOldest,
            ..Self::default()
        }
    }
}

/// Smoothed per-worker load signals: queue occupancy EWMAs plus the
/// hot/cool streak counters the hysteresis is built on.
pub(crate) struct LoadMonitor {
    alpha: f64,
    high: f64,
    low: f64,
    occupancy: Vec<f64>,
    hot_streak: Vec<u32>,
    cool_streak: Vec<u32>,
}

impl LoadMonitor {
    /// A monitor for `n_workers` workers.
    pub(crate) fn new(n_workers: usize, alpha: f64, high: f64, low: f64) -> Self {
        Self {
            alpha,
            high,
            low,
            occupancy: vec![0.0; n_workers],
            hot_streak: vec![0; n_workers],
            cool_streak: vec![0; n_workers],
        }
    }

    /// Fold one load sample combining queue occupancy with an auxiliary
    /// pressure term in [0, 1] (the controller feeds the decode-latency
    /// ratio here): the worker's per-tick sample is the *max* of the
    /// two, so either a deep queue or slow decodes can make it hot, and
    /// recovery requires both to subside.
    pub(crate) fn observe_signal(
        &mut self,
        idx: usize,
        depth: u64,
        capacity: usize,
        pressure: f64,
    ) {
        let occ = (depth as f64 / capacity.max(1) as f64)
            .max(pressure.clamp(0.0, 1.0))
            .min(1.0);
        let o = &mut self.occupancy[idx];
        *o += self.alpha * (occ - *o);
        if *o >= self.high {
            self.hot_streak[idx] += 1;
        } else {
            self.hot_streak[idx] = 0;
        }
        if *o <= self.low {
            self.cool_streak[idx] += 1;
        } else {
            self.cool_streak[idx] = 0;
        }
    }

    /// Consecutive ticks worker `idx` has been at or above the high
    /// occupancy threshold.
    pub(crate) fn hot_streak(&self, idx: usize) -> u32 {
        self.hot_streak[idx]
    }

    /// Consecutive ticks worker `idx` has been at or below the low
    /// occupancy threshold.
    pub(crate) fn cool_streak(&self, idx: usize) -> u32 {
        self.cool_streak[idx]
    }

    /// Zero worker `idx`'s streaks (dwell after a ladder transition).
    pub(crate) fn reset_streaks(&mut self, idx: usize) {
        self.hot_streak[idx] = 0;
        self.cool_streak[idx] = 0;
    }
}

/// One transition the controller wants applied.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum ControlAction {
    /// Set a worker's effort rung (`0..=MAX_EFFORT_RUNG`, or [`SIC_RUNG`]).
    /// `degrade` is true when this is a downward step.
    SetRung {
        /// Worker index.
        worker: usize,
        /// New rung.
        rung: usize,
        /// Downward (true) or recovery (false) step.
        degrade: bool,
    },
    /// Shed every worker decoding `sf`.
    Shed {
        /// The spreading factor being shed.
        sf: u8,
        /// The workers that decode it.
        workers: Vec<usize>,
    },
    /// Restore every worker decoding `sf` (they resume at the lowest
    /// effort rung and walk back up as load allows).
    Restore {
        /// The spreading factor being restored.
        sf: u8,
        /// The workers that decode it.
        workers: Vec<usize>,
    },
}

/// The degradation-ladder state machine. See the module docs.
pub(crate) struct OverloadController {
    cfg: OverloadConfig,
    monitor: LoadMonitor,
    /// Spreading factor of each worker.
    sfs: Vec<u8>,
    /// Current effort rung per worker ([`SHED_RUNG`] when shed).
    rungs: Vec<usize>,
    /// Shed SFs, in shed order (highest first), for reverse recovery.
    shed_stack: Vec<u8>,
    /// Whether recovery may promote rung-0 workers to [`SIC_RUNG`].
    sic_boost: bool,
}

impl OverloadController {
    /// A controller for workers decoding the given per-worker SFs. With
    /// `sic_boost`, recovery steps promote fully recovered workers
    /// (rung 0) to the [`SIC_RUNG`] boost rung, spending spare headroom
    /// on the SIC residual stage.
    pub(crate) fn new(cfg: OverloadConfig, worker_sfs: &[u8], sic_boost: bool) -> Self {
        let monitor = LoadMonitor::new(
            worker_sfs.len(),
            cfg.ewma_alpha,
            cfg.high_occupancy,
            cfg.low_occupancy,
        );
        Self {
            cfg,
            monitor,
            sfs: worker_sfs.to_vec(),
            rungs: vec![0; worker_sfs.len()],
            shed_stack: Vec::new(),
            sic_boost,
        }
    }

    /// Spreading factors currently being decoded (not shed).
    pub(crate) fn active_sfs(&self) -> Vec<u8> {
        let mut sfs: Vec<u8> = self
            .sfs
            .iter()
            .copied()
            .filter(|sf| !self.shed_stack.contains(sf))
            .collect();
        sfs.sort_unstable();
        sfs.dedup();
        sfs
    }

    fn workers_of(&self, sf: u8) -> Vec<usize> {
        (0..self.sfs.len()).filter(|&w| self.sfs[w] == sf).collect()
    }

    /// One control tick: fold in the current per-worker queue depths and
    /// decode-latency EWMAs (ns) and return the transitions to apply. At
    /// most one ladder *kind* fires per tick (escalations, then a shed,
    /// then a recovery step), and every transition zeroes the affected
    /// workers' streaks so the next move needs a fresh sustained signal.
    /// Each worker's load sample is `max(occupancy, decode_ewma /
    /// hot_decode)`, so a worker drowning
    /// in slow decodes escalates even while its queue reads shallow, and
    /// a deep-but-fast worker is judged exactly as before — its queue
    /// occupancy already tells the whole story. Pass an empty slice (or
    /// zeros) to fall back to occupancy only.
    pub(crate) fn tick_with_decode(
        &mut self,
        depths: &[u64],
        decode_ewma_ns: &[u64],
        capacity: usize,
    ) -> Vec<ControlAction> {
        assert_eq!(depths.len(), self.sfs.len(), "one depth per worker");
        assert!(
            decode_ewma_ns.is_empty() || decode_ewma_ns.len() == self.sfs.len(),
            "one decode EWMA per worker (or none)"
        );
        let hot_ns = self.cfg.hot_decode.as_nanos().max(1) as f64;
        for (w, &depth) in depths.iter().enumerate() {
            if self.rungs[w] != SHED_RUNG {
                let pressure = decode_ewma_ns.get(w).map_or(0.0, |&ns| ns as f64 / hot_ns);
                self.monitor.observe_signal(w, depth, capacity, pressure);
            }
        }
        let mut actions = Vec::new();

        // 1. Effort escalation on each sustained-hot worker with rungs
        //    left to give. The SIC boost is the first thing to go: it is
        //    the single most expensive optional stage, so a hot boosted
        //    worker drops straight back to plain full effort before the
        //    ordinary rungs are touched.
        let mut exhausted_hot = false;
        for w in 0..self.sfs.len() {
            if self.rungs[w] == SHED_RUNG || self.monitor.hot_streak(w) < self.cfg.escalate_ticks {
                continue;
            }
            if self.rungs[w] == SIC_RUNG {
                self.rungs[w] = 0;
                self.monitor.reset_streaks(w);
                actions.push(ControlAction::SetRung {
                    worker: w,
                    rung: 0,
                    degrade: true,
                });
            } else if self.rungs[w] < MAX_EFFORT_RUNG {
                self.rungs[w] += 1;
                self.monitor.reset_streaks(w);
                actions.push(ControlAction::SetRung {
                    worker: w,
                    rung: self.rungs[w],
                    degrade: true,
                });
            } else {
                exhausted_hot = true;
            }
        }

        // 2. Shed the highest active SF when effort reduction is spent
        //    somewhere and there is an SF to spare.
        if actions.is_empty() && exhausted_hot && self.active_sfs().len() > MIN_ACTIVE_SFS {
            let sf = *self.active_sfs().last().expect("active SFs non-empty");
            let workers = self.workers_of(sf);
            for &w in &workers {
                self.rungs[w] = SHED_RUNG;
                self.monitor.reset_streaks(w);
            }
            // Everyone else gets a fresh dwell too: shedding changes the
            // load picture for all remaining workers.
            for w in 0..self.sfs.len() {
                self.monitor.reset_streaks(w);
            }
            self.shed_stack.push(sf);
            actions.push(ControlAction::Shed { sf, workers });
        }

        // 3. Recovery, one step per sustained all-cool period: first
        //    un-shed the most recently shed SF, then raise effort.
        let all_cool = (0..self.sfs.len())
            .filter(|&w| self.rungs[w] != SHED_RUNG)
            .all(|w| self.monitor.cool_streak(w) >= self.cfg.recover_ticks);
        if actions.is_empty() && all_cool {
            if let Some(sf) = self.shed_stack.pop() {
                let workers = self.workers_of(sf);
                for &w in &workers {
                    // Resume at the lowest effort and walk back up.
                    self.rungs[w] = MAX_EFFORT_RUNG;
                }
                for w in 0..self.sfs.len() {
                    self.monitor.reset_streaks(w);
                }
                actions.push(ControlAction::Restore { sf, workers });
            } else {
                for w in 0..self.sfs.len() {
                    match self.rungs[w] {
                        // Already at the top of the ladder (or shed —
                        // handled by the stack pop above).
                        SHED_RUNG | SIC_RUNG => {}
                        // Fully recovered: the last upward step grants
                        // the SIC boost, and only when configured.
                        0 if self.sic_boost => {
                            self.rungs[w] = SIC_RUNG;
                            actions.push(ControlAction::SetRung {
                                worker: w,
                                rung: SIC_RUNG,
                                degrade: false,
                            });
                        }
                        0 => {}
                        _ => {
                            self.rungs[w] -= 1;
                            actions.push(ControlAction::SetRung {
                                worker: w,
                                rung: self.rungs[w],
                                degrade: false,
                            });
                        }
                    }
                }
                if !actions.is_empty() {
                    for w in 0..self.sfs.len() {
                        self.monitor.reset_streaks(w);
                    }
                }
            }
        }
        actions
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> OverloadConfig {
        OverloadConfig {
            escalate_ticks: 2,
            recover_ticks: 4,
            ewma_alpha: 1.0, // no smoothing: depths act immediately
            ..OverloadConfig::default()
        }
    }

    /// 2 channels × {SF7, SF9} worker layout.
    fn sfs() -> Vec<u8> {
        vec![7, 9, 7, 9]
    }

    fn tick_n(
        c: &mut OverloadController,
        depths: &[u64],
        cap: usize,
        n: u32,
    ) -> Vec<ControlAction> {
        let mut all = Vec::new();
        for _ in 0..n {
            all.extend(c.tick_with_decode(depths, &[], cap));
        }
        all
    }

    #[test]
    fn idle_system_never_degrades() {
        let mut c = OverloadController::new(cfg(), &sfs(), false);
        assert!(tick_n(&mut c, &[0, 0, 0, 0], 8, 100).is_empty());
        assert_eq!(c.active_sfs(), vec![7, 9]);
        assert!((0..4).all(|w| c.rungs[w] == 0));
    }

    #[test]
    fn sustained_overload_walks_down_then_sheds_highest_sf() {
        let mut c = OverloadController::new(cfg(), &sfs(), false);
        let full = [8, 8, 8, 8];
        // Rung 1 after the escalation dwell, on every hot worker at once.
        let a = tick_n(&mut c, &full, 8, 2);
        assert_eq!(a.len(), 4);
        assert!(a.iter().all(|x| matches!(
            x,
            ControlAction::SetRung {
                rung: 1,
                degrade: true,
                ..
            }
        )));
        // Rung 2 after another dwell.
        let a = tick_n(&mut c, &full, 8, 2);
        assert!(a.iter().all(|x| matches!(
            x,
            ControlAction::SetRung {
                rung: 2,
                degrade: true,
                ..
            }
        )));
        // Effort exhausted → shed SF9 (the highest), both its workers.
        let a = tick_n(&mut c, &full, 8, 2);
        assert_eq!(a.len(), 1);
        match &a[0] {
            ControlAction::Shed { sf, workers } => {
                assert_eq!(*sf, 9);
                assert_eq!(workers, &vec![1, 3]);
            }
            other => panic!("expected shed, got {other:?}"),
        }
        assert_eq!(c.active_sfs(), vec![7]);
        assert_eq!(c.rungs[1], SHED_RUNG);
        // MIN_ACTIVE_SFS = 1: SF7 must never be shed, however hot.
        let a = tick_n(&mut c, &full, 8, 50);
        assert!(a.iter().all(|x| !matches!(x, ControlAction::Shed { .. })));
        assert_eq!(c.active_sfs(), vec![7]);
    }

    #[test]
    fn recovery_retraces_the_ladder_in_reverse() {
        let mut c = OverloadController::new(cfg(), &sfs(), false);
        tick_n(&mut c, &[8, 8, 8, 8], 8, 6); // down to rung 2 + SF9 shed
        assert_eq!(c.active_sfs(), vec![7]);
        // Cool: first step un-sheds SF9 (at the lowest effort rung)…
        let a = tick_n(&mut c, &[0, 0, 0, 0], 8, 4);
        assert_eq!(a.len(), 1);
        match &a[0] {
            ControlAction::Restore { sf, workers } => {
                assert_eq!(*sf, 9);
                assert_eq!(workers, &vec![1, 3]);
            }
            other => panic!("expected restore, got {other:?}"),
        }
        assert_eq!(c.rungs[1], MAX_EFFORT_RUNG);
        // …then effort climbs back one rung per cool period, all the way
        // to full effort for everyone.
        let a = tick_n(&mut c, &[0, 0, 0, 0], 8, 20);
        assert!(a
            .iter()
            .all(|x| matches!(x, ControlAction::SetRung { degrade: false, .. })));
        assert!(
            (0..4).all(|w| c.rungs[w] == 0),
            "rungs: {:?}",
            (0..4).map(|w| c.rungs[w]).collect::<Vec<_>>()
        );
        assert_eq!(c.active_sfs(), vec![7, 9]);
    }

    #[test]
    fn one_hot_worker_degrades_alone() {
        let mut c = OverloadController::new(cfg(), &sfs(), false);
        let a = tick_n(&mut c, &[8, 0, 0, 0], 8, 2);
        assert_eq!(
            a,
            vec![ControlAction::SetRung {
                worker: 0,
                rung: 1,
                degrade: true
            }]
        );
        // The others stay at full effort.
        assert_eq!(c.rungs[1], 0);
        assert_eq!(c.rungs[2], 0);
    }

    #[test]
    fn sic_boost_promotes_only_after_sustained_cool() {
        let mut c = OverloadController::new(cfg(), &sfs(), true);
        // Below the recovery dwell: no promotion yet.
        assert!(tick_n(&mut c, &[0, 0, 0, 0], 8, 3).is_empty());
        // The dwell completes: every rung-0 worker gets the boost.
        let a = c.tick_with_decode(&[0, 0, 0, 0], &[], 8);
        assert_eq!(a.len(), 4);
        assert!(a.iter().all(|x| matches!(
            x,
            ControlAction::SetRung {
                rung: SIC_RUNG,
                degrade: false,
                ..
            }
        )));
        assert!((0..4).all(|w| c.rungs[w] == SIC_RUNG));
        // The boost is the top of the ladder: staying cool emits nothing.
        assert!(tick_n(&mut c, &[0, 0, 0, 0], 8, 50).is_empty());
    }

    #[test]
    fn hot_boosted_worker_drops_sic_before_effort_rungs() {
        let mut c = OverloadController::new(cfg(), &sfs(), true);
        tick_n(&mut c, &[0, 0, 0, 0], 8, 4);
        assert_eq!(c.rungs[0], SIC_RUNG);
        // Worker 0 runs hot: the first downward step lands on plain full
        // effort (rung 0), not an effort-reduction rung.
        let a = tick_n(&mut c, &[8, 0, 0, 0], 8, 2);
        assert_eq!(
            a,
            vec![ControlAction::SetRung {
                worker: 0,
                rung: 0,
                degrade: true
            }]
        );
        // The cool workers keep their boost; sustained heat on worker 0
        // then walks the ordinary effort ladder.
        assert_eq!(c.rungs[1], SIC_RUNG);
        let a = tick_n(&mut c, &[8, 0, 0, 0], 8, 2);
        assert_eq!(
            a,
            vec![ControlAction::SetRung {
                worker: 0,
                rung: 1,
                degrade: true
            }]
        );
    }

    #[test]
    fn shallow_but_slow_worker_trips_with_the_deep_but_fast_one() {
        let mut c = OverloadController::new(
            OverloadConfig {
                hot_decode: Duration::from_millis(100),
                ..cfg()
            },
            &sfs(),
            false,
        );
        // Worker 0: queue empty, decode EWMA 3× the hot-decode bound.
        // Worker 1: queue full, decodes fast. Workers 2/3: healthy.
        let depths = [0u64, 8, 0, 0];
        let ewmas = [300_000_000u64, 1_000_000, 0, 0];
        let mut a = Vec::new();
        for _ in 0..2 {
            a.extend(c.tick_with_decode(&depths, &ewmas, 8));
        }
        // The occupancy-blind ladder would have escalated only worker 1
        // here, letting the latency-bound worker drown with an empty
        // queue. With the decode term both trip on the same tick —
        // deep-but-fast no longer degrades ahead of shallow-but-slow.
        let mut hit: Vec<usize> = a
            .iter()
            .map(|x| match x {
                ControlAction::SetRung {
                    worker,
                    rung: 1,
                    degrade: true,
                } => *worker,
                other => panic!("expected a rung-1 degrade, got {other:?}"),
            })
            .collect();
        hit.sort_unstable();
        assert_eq!(hit, vec![0, 1]);
        assert_eq!(c.rungs[2], 0);
        assert_eq!(c.rungs[3], 0);
        // Recovery stays blocked while decodes remain slow, even with
        // every queue empty: the latency term holds the cool streak off.
        let a = (0..50)
            .flat_map(|_| c.tick_with_decode(&[0, 0, 0, 0], &ewmas, 8))
            .collect::<Vec<_>>();
        assert!(
            a.iter().all(|x| matches!(
                x,
                ControlAction::SetRung { degrade: true, .. } | ControlAction::Shed { .. }
            )),
            "no recovery while decode latency is pinned high: {a:?}"
        );
        // Once the decode EWMA subsides, the ladder walks back up.
        let a = (0..60)
            .flat_map(|_| c.tick_with_decode(&[0, 0, 0, 0], &[0, 0, 0, 0], 8))
            .collect::<Vec<_>>();
        assert!(a
            .iter()
            .any(|x| matches!(x, ControlAction::SetRung { degrade: false, .. })));
        assert!((0..4).all(|w| c.rungs[w] == 0));
    }

    #[test]
    fn hysteresis_requires_sustained_signals() {
        let mut c = OverloadController::new(cfg(), &sfs(), false);
        // Alternating hot/cool never satisfies a 2-tick hot streak.
        for _ in 0..20 {
            assert!(c.tick_with_decode(&[8, 8, 8, 8], &[], 8).is_empty());
            assert!(c.tick_with_decode(&[0, 0, 0, 0], &[], 8).is_empty());
        }
        assert!((0..4).all(|w| c.rungs[w] == 0));
    }

    #[test]
    fn rung_configs_cut_effort_and_only_the_boost_runs_sic() {
        for sic in [cic::SicConfig::default(), cic::SicConfig::hybrid()] {
            let base = CicConfig {
                sic,
                ..CicConfig::default()
            };
            let full = CicConfig {
                sic: cic::SicConfig {
                    depth: 0,
                    ..base.sic.clone()
                },
                ..base.clone()
            };
            let lowest = CicConfig {
                decode_passes: 1,
                max_candidates: 4,
                sed_windows: 4,
                ..full.clone()
            };
            let table = [
                (0, full.clone()),
                (
                    1,
                    CicConfig {
                        decode_passes: 1,
                        ..full.clone()
                    },
                ),
                (2, lowest.clone()),
                (3, lowest),
                (SIC_RUNG, base.clone()),
            ];
            for (rung, want) in table {
                let got = rung_config(&base, rung);
                assert_eq!(got, want, "rung {rung}, base SIC depth {}", base.sic.depth);
                assert_eq!(
                    got.sic.enabled(),
                    rung == SIC_RUNG && base.sic.enabled(),
                    "rung {rung}: only the boost rung runs SIC"
                );
            }
        }
    }

    #[test]
    fn monitor_ewma_smooths_and_clamps() {
        let mut m = LoadMonitor::new(1, 0.5, 0.75, 0.25);
        m.observe_signal(0, 100, 8, 0.0); // clamped to occupancy 1.0
        assert!((m.occupancy[0] - 0.5).abs() < 1e-9);
        m.observe_signal(0, 100, 8, 0.0);
        assert!((m.occupancy[0] - 0.75).abs() < 1e-9);
        assert_eq!(m.hot_streak(0), 1);
        m.observe_signal(0, 0, 8, 0.0);
        assert_eq!(m.hot_streak(0), 0);
    }
}
