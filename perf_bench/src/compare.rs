//! `perf_bench compare <dirA> <dirB>`: judge a change (B) against its
//! parent (A) from repeated runs of each, metric by metric and workload
//! by workload.
//!
//! A gain needs at least ten alternated pairs, the change winning at least nine
//! tenths of them (ties count for neither), and a median gap larger than
//! the parent's interquartile range. A regression is a median worse than
//! the parent's by more than the metric's bound in `BENCHMARK.json`.
//! Where the parent's own spread exceeds the bound, the metric is
//! unresolved unless every change run beats every parent run.

use std::collections::{BTreeMap, BTreeSet};

use lora_sim::JsonValue;

use crate::catalog::{Catalog, MetricDef};
use crate::json;
use crate::stats::{median, quartiles};

/// Pairs needed before a gain can be claimed.
pub const MIN_PAIRS: usize = 10;

/// The outcome for one workload × metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Better, by the pairwise rule.
    Improved,
    /// Within the bound (or, without one, not shown to differ).
    Unchanged,
    /// Worse by more than the bound (or, without one, by the mirrored
    /// pairwise rule).
    Regressed,
    /// The parent's spread is wider than the bound.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judge `change` against `parent` for one metric. `pairs` are
/// (parent, change) values of runs made back to back on the same seed.
pub fn verdict(
    parent: &[f64],
    change: &[f64],
    pairs: &[(f64, f64)],
    higher_is_better: bool,
    bound: Option<f64>,
) -> Verdict {
    let (Some(mp), Some(mc), Some((q1, q3))) = (median(parent), median(change), quartiles(parent))
    else {
        return Verdict::Unresolved;
    };
    let better = |a: f64, b: f64| if higher_is_better { a > b } else { a < b };
    // Signed gain of the change: positive means better.
    let gain = if higher_is_better { mc - mp } else { mp - mc };
    let iqr = q3 - q1;
    let n = pairs.len();
    let wins = pairs.iter().filter(|&&(a, b)| better(b, a)).count();
    let losses = pairs.iter().filter(|&&(a, b)| better(a, b)).count();
    let decisive = |k: usize| n >= MIN_PAIRS && k * 10 >= n * 9;
    if decisive(wins) && gain > iqr {
        return Verdict::Improved;
    }
    match bound {
        Some(bound) => {
            if -gain > bound * mp.abs() {
                return Verdict::Regressed;
            }
            let all_better = change.iter().all(|&c| parent.iter().all(|&p| better(c, p)));
            if iqr > bound * mp.abs() && !all_better {
                return Verdict::Unresolved;
            }
        }
        None => {
            if decisive(losses) && -gain > iqr {
                return Verdict::Regressed;
            }
        }
    }
    Verdict::Unchanged
}

/// One result line, reduced to what compare needs.
struct Run {
    seed: u64,
    /// `--seconds` and the workload parameters. They set the traffic
    /// itself, so only runs with equal settings measure the same thing.
    setting: String,
    values: BTreeMap<String, f64>,
}

/// Read `<dir>/<workload>.jsonl`: one result document per line.
fn load_runs(dir: &str, workload: &str) -> Result<Vec<Run>, String> {
    let path = format!("{dir}/{workload}.jsonl");
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(format!("{path}: {e}")),
    };
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .map(|line| {
            let doc = json::parse(line).map_err(|e| format!("{path}: {e}"))?;
            let mut values = BTreeMap::new();
            for key in ["metrics", "per_layer"] {
                if let Some(JsonValue::Object(fields)) = json::get(&doc, key) {
                    for (name, m) in fields {
                        if let Some(v) = json::get(m, "value").and_then(json::num) {
                            values.insert(name.clone(), v);
                        }
                    }
                }
            }
            let seed = json::get(&doc, "seed").and_then(json::num).unwrap_or(0.0) as u64;
            let field = |k| json::get(&doc, k).map_or("null".into(), json::compact);
            let setting = format!("seconds {} params {}", field("seconds"), field("params"));
            Ok(Run {
                seed,
                setting,
                values,
            })
        })
        .collect()
}

/// Pair runs of A and B on the same seed and setting, in the order each
/// was made.
fn pair(a: &[Run], b: &[Run], metric: &str) -> Vec<(f64, f64)> {
    let mut out = Vec::new();
    let mut used = vec![false; b.len()];
    for ra in a {
        let Some(&va) = ra.values.get(metric) else {
            continue;
        };
        let found = b.iter().enumerate().find(|(j, rb)| {
            !used[*j]
                && rb.seed == ra.seed
                && rb.setting == ra.setting
                && rb.values.contains_key(metric)
        });
        if let Some((j, rb)) = found {
            used[j] = true;
            out.push((va, rb.values[metric]));
        }
    }
    out
}

fn column(runs: &[Run], metric: &str) -> Vec<f64> {
    runs.iter()
        .filter_map(|r| r.values.get(metric).copied())
        .collect()
}

fn summary(v: &[f64]) -> String {
    // Four significant digits whatever the magnitude (setup times are
    // microseconds, memory hundreds of megabytes).
    let sig = |x: f64| format!("{x:.3e}");
    match (median(v), quartiles(v)) {
        (Some(m), Some((q1, q3))) => format!("{} [{}, {}]", sig(m), sig(q1), sig(q3)),
        (Some(m), None) => sig(m),
        _ => "-".into(),
    }
}

/// Run the comparison; returns the process exit code (1 if anything
/// regressed).
pub fn main(args: &[String]) -> i32 {
    let [dir_a, dir_b] = args else {
        eprintln!("usage: perf_bench compare <dirA (parent)> <dirB (change)>");
        return 2;
    };
    let catalog = Catalog::load();
    let mut regressed = false;
    println!("verdicts of {dir_b} (change) against {dir_a} (parent): median [q1, q3]");
    for workload in &catalog.workloads {
        let (a, b) = match (load_runs(dir_a, workload), load_runs(dir_b, workload)) {
            (Ok(a), Ok(b)) => (a, b),
            (Err(e), _) | (_, Err(e)) => {
                eprintln!("perf_bench compare: {e}");
                return 2;
            }
        };
        if a.is_empty() && b.is_empty() {
            continue;
        }
        // Runs of another length or parameter set (a stale `.jsonl`, say)
        // offer other traffic: refuse rather than judge them together.
        let settings: BTreeSet<&str> = a.iter().chain(&b).map(|r| r.setting.as_str()).collect();
        if settings.len() > 1 {
            eprintln!(
                "perf_bench compare: {workload}: runs differ in --seconds or workload \
                 parameters ({} settings); compare runs made with one setting",
                settings.len()
            );
            return 2;
        }
        println!(
            "\n{workload}: {} parent runs, {} change runs",
            a.len(),
            b.len()
        );
        let defs: Vec<&MetricDef> = catalog
            .end_to_end
            .iter()
            .chain(&catalog.per_layer)
            .collect();
        for def in defs {
            let (va, vb) = (column(&a, &def.name), column(&b, &def.name));
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let pairs = pair(&a, &b, &def.name);
            let v = verdict(&va, &vb, &pairs, def.higher_is_better, def.bound);
            regressed |= v == Verdict::Regressed;
            println!(
                "  {:<36} {:>6} | A {} | B {} | {:>2} pairs | {}",
                def.name,
                def.unit,
                summary(&va),
                summary(&vb),
                pairs.len(),
                v.label()
            );
        }
    }
    i32::from(regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pairs(a: &[f64], b: &[f64]) -> Vec<(f64, f64)> {
        a.iter().copied().zip(b.iter().copied()).collect()
    }

    const PARENT: [f64; 10] = [10.0, 10.2, 9.9, 10.1, 10.0, 9.8, 10.3, 10.1, 9.9, 10.0];

    #[test]
    fn clear_gain_is_improved() {
        let change: Vec<f64> = PARENT.iter().map(|x| x * 0.8).collect();
        let p = pairs(&PARENT, &change);
        assert_eq!(
            verdict(&PARENT, &change, &p, false, Some(0.1)),
            Verdict::Improved
        );
        // Higher-is-better reads the same move as a regression.
        assert_eq!(
            verdict(&PARENT, &change, &p, true, Some(0.1)),
            Verdict::Regressed
        );
    }

    #[test]
    fn gain_needs_ten_pairs_and_nine_wins() {
        let change: Vec<f64> = PARENT.iter().map(|x| x * 0.8).collect();
        let few = pairs(&PARENT[..9], &change[..9]);
        assert_eq!(
            verdict(&PARENT, &change, &few, false, Some(0.1)),
            Verdict::Unchanged
        );
        // Two lost pairs out of ten: not a gain.
        let mut mixed = pairs(&PARENT, &change);
        mixed[0].1 = 11.0;
        mixed[1].1 = 11.0;
        assert_eq!(
            verdict(&PARENT, &change, &mixed, false, Some(0.1)),
            Verdict::Unchanged
        );
    }

    #[test]
    fn gain_smaller_than_parent_spread_is_not_improved() {
        // Wins every pair, but by less than the parent's IQR.
        let change: Vec<f64> = PARENT.iter().map(|x| x - 0.05).collect();
        let p = pairs(&PARENT, &change);
        assert_eq!(
            verdict(&PARENT, &change, &p, false, Some(0.1)),
            Verdict::Unchanged
        );
    }

    #[test]
    fn small_loss_within_bound_is_unchanged_and_noise_is_unresolved() {
        let change: Vec<f64> = PARENT.iter().map(|x| x * 1.03).collect();
        let p = pairs(&PARENT, &change);
        assert_eq!(
            verdict(&PARENT, &change, &p, false, Some(0.05)),
            Verdict::Unchanged
        );
        assert_eq!(
            verdict(&PARENT, &change, &p, false, Some(0.02)),
            Verdict::Regressed
        );
        let noisy = [5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0];
        let q = pairs(&noisy, &noisy);
        assert_eq!(
            verdict(&noisy, &noisy, &q, false, Some(0.05)),
            Verdict::Unresolved
        );
    }

    #[test]
    fn unbounded_metric_regresses_only_by_the_mirrored_rule() {
        let change: Vec<f64> = PARENT.iter().map(|x| x * 1.5).collect();
        let p = pairs(&PARENT, &change);
        assert_eq!(
            verdict(&PARENT, &change, &p, false, None),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(&PARENT, &change, &p[..5], false, None),
            Verdict::Unchanged
        );
    }

    fn run(seed: u64, seconds: u32, v: f64) -> Run {
        Run {
            seed,
            setting: format!("seconds {seconds} params {{}}"),
            values: BTreeMap::from([("m".to_string(), v)]),
        }
    }

    #[test]
    fn runs_pair_by_seed_in_order() {
        let a = [run(1, 20, 1.0), run(2, 20, 2.0), run(1, 20, 3.0)];
        let b = [
            run(2, 20, 20.0),
            run(1, 20, 10.0),
            run(1, 20, 30.0),
            run(3, 20, 40.0),
        ];
        assert_eq!(
            pair(&a, &b, "m"),
            vec![(1.0, 10.0), (2.0, 20.0), (3.0, 30.0)]
        );
    }

    #[test]
    fn runs_of_other_seconds_never_pair() {
        let a = [run(1, 20, 1.0), run(2, 25, 2.0)];
        let b = [run(1, 25, 10.0), run(2, 25, 20.0)];
        assert_eq!(pair(&a, &b, "m"), vec![(2.0, 20.0)]);
    }
}
