//! `e2ebench`: one set-up or one measured run of a benchmark workload per
//! process, printed as one JSON line on stdout. `run.py` builds this
//! binary, repeats set-ups and runs, checks outputs and aggregates.
//!
//! ```text
//! e2ebench setup --workload W --seed N --dir DIR
//! e2ebench run   --workload W --seed N --setup DIR --dir DIR [--traced]
//! ```
//!
//! Workloads: `staged` and `streaming` (the whole workflow, see
//! [`workflow`]) and `archive` (re-analysis of an archive on disk, see
//! [`archive`]). Every number comes from outside the program: the
//! benchmark's own timers around public calls, and the spans, counters and
//! events the crates already expose.

mod archive;
mod ledger;
mod util;
mod workflow;

use std::collections::BTreeMap;
use std::path::PathBuf;

/// Datacube operators whose kernel time is reported per operator.
const KERNEL_OPS: [&str; 6] = ["reduce", "apply", "intercube", "map_series", "fuse", "sdi"];

/// `datacube.kernel_s.<op>` (summed per-fragment kernel time from the
/// `datacube_kernel_us{op}` histograms) and `datacube.kernel_calls`.
pub fn kernel_layers(put: &mut dyn FnMut(&str, f64)) {
    let hists = obs::registry().histograms();
    let mut calls = 0u64;
    let mut by_op: BTreeMap<String, f64> = BTreeMap::new();
    for (name, h) in &hists {
        if let Some(op) =
            name.strip_prefix("datacube_kernel_us{op=\"").and_then(|r| r.strip_suffix("\"}"))
        {
            calls += h.count();
            by_op.insert(op.to_string(), h.sum() as f64 / 1e6);
        }
    }
    for op in KERNEL_OPS {
        put(&format!("datacube.kernel_s.{op}"), by_op.get(op).copied().unwrap_or(0.0));
    }
    put("datacube.kernel_calls", calls as f64);
}

/// `par.busy_pct`, `par.steals`, `par.tasks`: global-pool deltas over a run.
pub fn pool_layers(
    put: &mut dyn FnMut(&str, f64),
    before: &[par::WorkerStats],
    after: &[par::WorkerStats],
    wall_s: f64,
) {
    let delta = |f: fn(&par::WorkerStats) -> u64| -> f64 {
        after.iter().zip(before).map(|(a, b)| f(a).saturating_sub(f(b)) as f64).sum()
    };
    let busy_s = delta(|w| w.busy_us) / 1e6;
    put("par.busy_pct", 100.0 * busy_s / (wall_s * after.len().max(1) as f64));
    put("par.steals", delta(|w| w.steals));
    put("par.tasks", delta(|w| w.tasks));
}

/// The ledger's entries must add up to its wall time.
pub fn ledger_check(l: &ledger::Ledger) -> util::Check {
    let gap = (l.total_s() - l.wall_s).abs();
    util::Check::new(
        "ledger_sums_to_wall",
        gap <= 1e-6 * l.wall_s.max(1.0),
        format!("entries {:.6}s vs wall {:.6}s", l.total_s(), l.wall_s),
    )
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("e2ebench: {e}");
            std::process::exit(1);
        }
    }
}

fn dispatch(args: &[String]) -> Result<String, String> {
    let (cmd, rest) = args.split_first().ok_or("usage: e2ebench <setup|run> [options]")?;
    let mut flags: BTreeMap<&str, &str> = BTreeMap::new();
    let mut it = rest.iter();
    while let Some(a) = it.next() {
        let key = a.strip_prefix("--").ok_or_else(|| format!("unexpected argument '{a}'"))?;
        if key == "traced" {
            flags.insert(key, "true");
        } else {
            let v = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
            flags.insert(key, v);
        }
    }
    let get = |k: &str| flags.get(k).copied().ok_or_else(|| format!("missing --{k}"));
    let workload = get("workload")?;
    let seed: u64 = get("seed")?.parse().map_err(|_| "bad --seed".to_string())?;
    let dir = PathBuf::from(get("dir")?);
    let traced = flags.contains_key("traced");
    match (cmd.as_str(), workload) {
        ("setup", "staged" | "streaming") => workflow::setup(workload == "streaming", seed, &dir),
        ("setup", "archive") => archive::setup(seed, &dir),
        ("run", "staged" | "streaming") => {
            let setup = PathBuf::from(get("setup")?);
            workflow::run(workload == "streaming", seed, &setup, &dir, traced)
        }
        ("run", "archive") => archive::run(seed, &PathBuf::from(get("setup")?), &dir, traced),
        _ => Err(format!("unknown command '{cmd}' or workload '{workload}'")),
    }
}
