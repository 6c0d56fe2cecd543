//! rkdbench: the end-to-end and per-layer benchmark of the rkd datapath.
//!
//! ```text
//! cargo run --release --offline --manifest-path rkdbench/Cargo.toml -- \
//!     --workload prefetch|sched|flows --seed N --seconds S --trace 0|1
//! ```
//!
//! Every workload is a closed loop driven from this process through the
//! public APIs. `--trace 0` measures the end-to-end metrics untraced;
//! `--trace 1` is the separate traced run that reports the per-layer
//! metrics, the tracing overhead, and writes its spans to
//! `rkdbench/out/`. The last line of standard output is one JSON
//! object: `correct`, `attempted`, `failed` and `metrics`.

mod flows;
mod prefetch;
mod report;
mod sched;
mod trace;

use report::{END_TO_END, LEDGER, PER_LAYER};
use std::path::PathBuf;

/// Parsed command line.
pub struct Args {
    /// Seed every input generator derives from.
    pub seed: u64,
    /// Length of the timed phase in seconds.
    pub seconds: f64,
    /// Traced (per-layer) run.
    pub trace: bool,
}

impl Args {
    /// A sub-seed for one generator, so generators never share a
    /// stream.
    pub fn seed_for(&self, tag: u64) -> u64 {
        rkd_testkit::rng::splitmix64_mix(self.seed ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }
}

/// Where the traced run of `workload` writes its spans (the latest
/// traced run of a workload replaces the file).
pub fn spans_path(workload: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("spans-{workload}.tsv"))
}

const USAGE: &str =
    "usage: rkdbench --workload prefetch|sched|flows --seed N --seconds S --trace 0|1";

fn parse() -> Result<(String, Args), String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut args = Args {
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(val.clone()),
            "--seed" => args.seed = val.parse().map_err(|_| format!("bad --seed {val}"))?,
            "--seconds" => {
                args.seconds = val.parse().map_err(|_| format!("bad --seconds {val}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err(format!("--seconds {val} out of range"));
                }
            }
            "--trace" => {
                args.trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {val}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok((workload.ok_or("--workload is required")?, args))
}

fn main() {
    let (workload, args) = match parse() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let mut r = match workload.as_str() {
        "prefetch" => prefetch::run(&args),
        "sched" => sched::run(&args),
        "flows" => flows::run(&args),
        other => {
            eprintln!("unknown workload {other}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let set = if args.trace { PER_LAYER } else { END_TO_END };
    let ledger = if args.trace { &[][..] } else { LEDGER };
    for (name, unit) in set.iter().chain(ledger) {
        match r.metrics.get(name) {
            Some(v) if !v.is_finite() => r.mismatch(format!("{name} is not finite"), 0),
            None if !args.trace => r.mismatch(format!("{name} was not measured"), 0),
            _ => {}
        }
        let v = r.metrics.get(name).copied().unwrap_or(0.0);
        r.note(format!("{workload:>8}  {name:<40} {v:>16.4} {unit}"));
    }
    r.note(format!(
        "{workload:>8}  failed_frac {:.6} ({} failed of {} attempted)",
        report::ratio(r.failed as f64, r.attempted as f64),
        r.failed,
        r.attempted
    ));
    for line in &r.notes {
        println!("{line}");
    }
    println!("{}", report::result_json(&r, set));
    if !r.correct {
        std::process::exit(1);
    }
}
