//! The per-layer ledger of one traced run: its wall time split into busy
//! time per crate, waiting (scheduler queue, backpressure), idle, and an
//! explicit remainder the trace cannot explain. The entries sum to the
//! run's wall time by construction.

use obs::{Event, EventKind};
use std::collections::{BTreeMap, HashMap};

/// Ledger entries in report order; each becomes `ledger.<entry>_s`.
pub const ENTRIES: [&str; 10] = [
    "esm",
    "ncformat",
    "datacube",
    "extremes",
    "extremes_cnn",
    "tinyml",
    "dataflow",
    "queue_wait",
    "backpressure",
    "idle",
];

/// Wall time of one run split over [`ENTRIES`] plus the unattributed rest.
pub struct Ledger {
    pub wall_s: f64,
    secs: [f64; ENTRIES.len()],
    pub unattributed_s: f64,
}

impl Ledger {
    fn new(wall_s: f64) -> Self {
        Ledger { wall_s, secs: [0.0; ENTRIES.len()], unattributed_s: 0.0 }
    }

    fn add(&mut self, entry: &str, s: f64) {
        match ENTRIES.iter().position(|e| *e == entry) {
            Some(i) => self.secs[i] += s,
            None => self.unattributed_s += s,
        }
    }

    /// Sum of every entry including the unattributed remainder.
    pub fn total_s(&self) -> f64 {
        self.secs.iter().sum::<f64>() + self.unattributed_s
    }

    /// `ledger.<entry>_s` for each entry, `core.unattributed_s`, and the
    /// traced wall time they add up to.
    pub fn metrics(&self) -> Vec<(String, f64)> {
        let mut m: Vec<(String, f64)> =
            ENTRIES.iter().zip(self.secs).map(|(e, s)| (format!("ledger.{e}_s"), s)).collect();
        m.push(("core.unattributed_s".into(), self.unattributed_s));
        m.push(("ledger.wall_s".into(), self.wall_s));
        m
    }

    /// A sequential run timed by the benchmark's own spans around each
    /// public call: busy time per layer, and whatever lies between the
    /// spans as unattributed.
    pub fn from_spans(wall_s: f64, spans: &BTreeMap<&'static str, f64>) -> Self {
        let mut l = Ledger::new(wall_s);
        for (entry, s) in spans {
            l.add(entry, *s);
        }
        l.unattributed_s += wall_s - l.total_s();
        l
    }
}

/// Ledger entry of a workflow task, by task function. `from_files` marks
/// runs whose imports decode daily files (the staged driver); streamed
/// imports build cubes from memory.
fn entry_of(task: &str, from_files: bool) -> &'static str {
    match task {
        "esm_simulation" => "esm",
        "load_baseline" => "datacube",
        "load_model" => "tinyml",
        "stage_year" => "dataflow",
        "import_tmax" | "import_tmin" if from_files => "ncformat",
        "import_tmax" | "import_tmin" => "datacube",
        "tc_preprocess" | "export_indices" => "ncformat",
        "tc_cnn_localize" => "extremes_cnn",
        "validate_indices" | "tc_track_deterministic" | "render_maps" | "stream_record" => {
            "extremes"
        }
        t if t.starts_with("hw_") || t.starts_with("cw_") => "extremes",
        _ => "unattributed",
    }
}

struct TaskRun {
    name: String,
    start: u64,
    end: u64,
    /// Share of the task's time spent writing daily files (ESM task).
    write_frac: f64,
}

/// Folds the global-bus events of one traced workflow run into a ledger.
/// `run_start`/`run_end` bound the run on the bus clock.
///
/// The run is cut into segments at every task start/end, ready time and
/// backpressure stall boundary. A segment with `k` running tasks gives
/// each `1/k` of its length (a stalled ESM task's share goes to
/// backpressure, and its file-writing fraction to ncformat). A segment
/// with no running task is queue wait if some task is ready, idle if it
/// lies between the first task start and the last task end, and
/// unattributed otherwise (driver work before the first task and after
/// the last one: submission, report assembly, shutdown).
pub fn fold_workflow(events: &[Event], run_start: u64, run_end: u64, from_files: bool) -> Ledger {
    let mut started: HashMap<u64, (String, u64)> = HashMap::new();
    let mut ready: HashMap<u64, u64> = HashMap::new();
    let mut runs: Vec<TaskRun> = Vec::new();
    let mut waits: Vec<(u64, u64)> = Vec::new();
    let mut stalls: Vec<(u64, u64)> = Vec::new();
    let mut writes: Vec<(u64, u64)> = Vec::new();
    for e in events {
        match &e.kind {
            EventKind::TaskReady { task } => {
                ready.insert(*task, e.ts_micros);
            }
            EventKind::TaskStarted { task, name, .. } => {
                if let Some(r) = ready.remove(task) {
                    waits.push((r, e.ts_micros));
                }
                started.insert(*task, (name.to_string(), e.ts_micros));
            }
            EventKind::TaskFinished { task, .. } => {
                if let Some((name, start)) = started.remove(task) {
                    runs.push(TaskRun { name, start, end: e.ts_micros, write_frac: 0.0 });
                }
            }
            EventKind::BackpressureStall { waited_us, .. } => {
                stalls.push((e.ts_micros.saturating_sub(*waited_us), e.ts_micros));
            }
            EventKind::FileWritten { micros, .. } => writes.push((e.ts_micros, *micros)),
            _ => {}
        }
    }
    for r in runs.iter_mut().filter(|r| r.name == "esm_simulation") {
        let w: u64 =
            writes.iter().filter(|(ts, _)| (r.start..=r.end).contains(ts)).map(|(_, us)| us).sum();
        r.write_frac = (w as f64 / (r.end - r.start).max(1) as f64).min(1.0);
    }

    let clamp = |t: u64| t.clamp(run_start, run_end);
    let mut cuts: Vec<u64> = vec![run_start, run_end];
    for r in &runs {
        cuts.extend([clamp(r.start), clamp(r.end)]);
    }
    for &(a, b) in waits.iter().chain(&stalls) {
        cuts.extend([clamp(a), clamp(b)]);
    }
    cuts.sort_unstable();
    cuts.dedup();
    let first_start = runs.iter().map(|r| r.start).min().unwrap_or(run_end);
    let last_end = runs.iter().map(|r| r.end).max().unwrap_or(run_start);
    let covers = |(a, b): (u64, u64), t: u64| a <= t && t < b;

    let mut l = Ledger::new((run_end - run_start) as f64 / 1e6);
    for seg in cuts.windows(2) {
        let (a, b) = (seg[0], seg[1]);
        let dt = (b - a) as f64 / 1e6;
        let active: Vec<&TaskRun> = runs.iter().filter(|r| covers((r.start, r.end), a)).collect();
        if active.is_empty() {
            let entry = if waits.iter().any(|w| covers(*w, a)) {
                "queue_wait"
            } else if (first_start..last_end).contains(&a) {
                "idle"
            } else {
                "unattributed"
            };
            l.add(entry, dt);
            continue;
        }
        let share = dt / active.len() as f64;
        for r in active {
            let entry = entry_of(&r.name, from_files);
            if entry == "esm" && stalls.iter().any(|s| covers(*s, a)) {
                l.add("backpressure", share);
            } else {
                l.add("ncformat", share * r.write_frac);
                l.add(entry, share * (1.0 - r.write_frac));
            }
        }
    }
    l
}
