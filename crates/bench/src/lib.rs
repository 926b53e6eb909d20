#![warn(missing_docs)]
//! Shared helpers for the figure-regeneration binaries (`src/bin/figXX_*`)
//! and the JSON bench binaries (`src/bin/*_bench.rs`).
//!
//! Every figure of the paper's evaluation maps to one binary here (see
//! DESIGN.md §3). The binaries accept:
//!
//! * `--full` — paper-scale durations (60 s per rate point) instead of the
//!   CI-friendly default;
//! * `--duration <s>` — explicit capture duration per rate point;
//! * `--rates <a,b,c>` — explicit offered-load grid;
//! * `--seed <n>` — RNG seed;
//! * `--json` — also dump raw rows as JSON to stdout.

use lora_sim::figures::DEFAULT_RATES;
use lora_sim::ScaleConfig;

/// Options shared by the sweep binaries.
#[derive(Debug, Clone)]
pub struct Cli {
    /// Scale knobs forwarded to the sweep functions.
    pub scale: ScaleConfig,
    /// Emit JSON rows after the tables.
    pub json: bool,
}

/// Parse `std::env::args` into a [`Cli`]. Unknown flags abort with usage.
pub fn parse_cli() -> Cli {
    let mut scale = ScaleConfig::default();
    let mut json = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--full" => {
                scale.duration_s = 60.0;
                scale.rates = vec![5.0, 10.0, 25.0, 50.0, 75.0, 100.0];
            }
            "--duration" => {
                scale.duration_s = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage("--duration needs a number"));
            }
            "--rates" => {
                let spec = args.next().unwrap_or_else(|| usage("--rates needs a list"));
                scale.rates = spec
                    .split(',')
                    .map(|t| t.parse().unwrap_or_else(|_| usage("bad rate")))
                    .collect();
                if scale.rates.is_empty() {
                    usage("empty rate list");
                }
            }
            "--seed" => {
                scale.seed = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage("--seed needs an integer"));
            }
            "--json" => json = true,
            other => usage(&format!("unknown flag {other}")),
        }
    }
    Cli { scale, json }
}

fn usage(msg: &str) -> ! {
    eprintln!(
        "error: {msg}\nusage: [--full] [--duration <s>] [--rates a,b,c] [--seed <n>] [--json]\n\
         defaults: duration {}s, rates {:?}",
        ScaleConfig::default().duration_s,
        DEFAULT_RATES
    );
    std::process::exit(2)
}

/// Pretty header for a figure binary.
pub fn banner(fig: &str, what: &str) {
    println!("== {fig} — {what} ==");
}

#[cfg(test)]
mod tests {
    #[test]
    fn default_scale_is_ci_friendly() {
        let s = lora_sim::ScaleConfig::default();
        assert!(s.duration_s <= 5.0);
        assert!(!s.rates.is_empty());
    }
}
