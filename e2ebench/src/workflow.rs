//! The `staged` and `streaming` workloads: the whole case-study workflow
//! (ESM years → datacube heat/cold-wave indices → CNN cyclone
//! localization and tracking) driven through `CaseStudy` the way
//! `climate-wf run` drives it.

use crate::ledger;
use crate::util::{self, Check, Fnv, JsonObj};
use climate_workflows::{pretrain_cnn, CaseStudy, RunReport, WorkflowParams};
use dataflow::timing::TaskSpan;
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// Simulated years per run and days per simulated year (48×72 test grid).
pub const YEARS: usize = 2;
pub const DAYS: usize = 20;
/// A run fails its output check when the CNN finds fewer of the injected
/// cyclones than this: the floor of the `detection_quality` test
/// (test-scale POD is about 0.75).
pub const POD_FLOOR: f64 = 0.45;
/// Seed the CNN is pre-trained with: the `WorkflowParams` default, so every
/// set-up trains the model `climate-wf run` trains without `--seed`, and
/// the input seed varies only the simulated years. `pretrain_cnn` with
/// some seeds (22, 3741850170) yields a model that detects no cyclone.
pub const MODEL_SEED: u64 = 42;
/// Products `export_indices`, `render_maps`, `tc_preprocess` and the two
/// TC tasks write per year, and the record products of the streaming plane.
const YEAR_PRODUCTS: [&str; 13] = [
    "hwd-{y}.ncx",
    "hwn-{y}.ncx",
    "hwf-{y}.ncx",
    "cwd-{y}.ncx",
    "cwn-{y}.ncx",
    "cwf-{y}.ncx",
    "hwn-map-{y}.ppm",
    "hwn-map-{y}.txt",
    "cwn-map-{y}.ppm",
    "cwn-map-{y}.txt",
    "tcinput-{y}.ncx",
    "tc-cnn-{y}.csv",
    "tc-tracks-{y}.csv",
];
const RECORD_PRODUCTS: [&str; 7] = [
    "record-hwd.ncx",
    "record-hwn.ncx",
    "record-hwf.ncx",
    "record-cwd.ncx",
    "record-cwn.ncx",
    "record-cwf.ncx",
    "record-etccdi.ncx",
];
/// Task functions outside a year's analysis: the ESM year itself (the
/// reference point of its lag) and the run-wide loads.
const SHARED_TASKS: [&str; 3] = ["esm_simulation", "load_baseline", "load_model"];

fn params(streaming: bool, seed: u64, dir: &Path) -> Result<WorkflowParams, String> {
    let workers = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(2);
    WorkflowParams::builder(dir)
        .years(YEARS)
        .days_per_year(DAYS)
        .seed(seed)
        .workers(workers)
        .streaming(streaming)
        .build()
}

fn fresh_dir(dir: &Path) -> Result<(), String> {
    std::fs::remove_dir_all(dir).ok();
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))
}

/// Set-up as a fresh `climate-wf run` pays it: pre-train the CNN with the
/// test-scale budget (seeded with [`MODEL_SEED`]), save it into the output
/// dir, build the `CaseStudy`.
pub fn setup(streaming: bool, seed: u64, dir: &Path) -> Result<String, String> {
    fresh_dir(dir)?;
    let training = params(streaming, MODEL_SEED, dir)?;
    let params = params(streaming, seed, dir)?;
    let model_file = dir.join("tc_cnn.tml");
    let t0 = Instant::now();
    let model = pretrain_cnn(&training);
    let train_s = t0.elapsed().as_secs_f64();
    model.save(&model_file).map_err(|e| e.to_string())?;
    let cs = CaseStudy::new(params).map_err(|e| e.to_string())?;
    let setup_s = t0.elapsed().as_secs_f64();
    cs.rt.shutdown();

    let mut o = JsonObj::default();
    o.num("setup_s", setup_s);
    o.raw("layers", &util::metrics_json(&[("tinyml.train_s".into(), train_s)]));
    Ok(o.finish())
}

/// Spans of one function in task-id order (year k owns the k-th one).
fn spans_by_name(spans: &[TaskSpan]) -> BTreeMap<&str, Vec<&TaskSpan>> {
    let mut by: BTreeMap<&str, Vec<&TaskSpan>> = BTreeMap::new();
    let mut sorted: Vec<&TaskSpan> = spans.iter().collect();
    sorted.sort_by_key(|s| s.task);
    sorted.dedup_by_key(|s| s.task);
    for s in sorted {
        by.entry(&s.name).or_default().push(s);
    }
    by
}

fn secs(us: u64) -> f64 {
    us as f64 / 1e6
}

/// Per year: end of its last product task minus end of its ESM year.
fn year_lags(by: &BTreeMap<&str, Vec<&TaskSpan>>) -> Vec<f64> {
    let esm = by.get("esm_simulation").cloned().unwrap_or_default();
    esm.iter()
        .enumerate()
        .filter_map(|(k, sim)| {
            let last = by
                .iter()
                .filter(|(name, _)| !SHARED_TASKS.contains(name))
                .filter_map(|(_, v)| v.get(k).map(|s| s.end_us))
                .max()?;
            Some((last as f64 - sim.end_us as f64) / 1e6)
        })
        .collect()
}

/// Sum over tasks of start minus the end of their last producer.
fn dispatch_wait_s(spans: &[TaskSpan], dot: &str) -> f64 {
    let by_id: BTreeMap<u64, &TaskSpan> = spans.iter().map(|s| (s.task.0, s)).collect();
    let mut ready_at: BTreeMap<u64, u64> = BTreeMap::new();
    for line in dot.lines() {
        let Some((a, b)) = line.trim().trim_end_matches(';').split_once(" -> ") else {
            continue;
        };
        let id = |t: &str| t.trim().strip_prefix('t').and_then(|n| n.parse::<u64>().ok());
        if let (Some(a), Some(b)) = (id(a), id(b)) {
            if let Some(p) = by_id.get(&a) {
                let e = ready_at.entry(b).or_insert(0);
                *e = (*e).max(p.end_us);
            }
        }
    }
    ready_at
        .iter()
        .filter_map(|(t, ready)| by_id.get(t).map(|s| secs(s.start_us.saturating_sub(*ready))))
        .sum()
}

fn check_products(report: &RunReport, dir: &Path, streaming: bool) -> Check {
    let mut expected: Vec<String> = Vec::new();
    for y in &report.years {
        expected.extend(YEAR_PRODUCTS.iter().map(|p| p.replace("{y}", &y.year.to_string())));
    }
    if streaming {
        expected.extend(RECORD_PRODUCTS.iter().map(|p| p.to_string()));
    }
    let missing: Vec<&String> = expected
        .iter()
        .filter(|p| std::fs::metadata(dir.join(p)).map(|m| m.len() == 0).unwrap_or(true))
        .collect();
    let on_disk = std::fs::read_dir(dir).map(|d| d.count()).unwrap_or(0);
    Check::new(
        "product_set",
        missing.is_empty() && on_disk == expected.len(),
        format!("{} expected, {on_disk} on disk, missing or empty: {missing:?}", expected.len()),
    )
}

/// One measured workflow run in a fresh output dir, with the model from
/// `setup_dir`. With `traced`, the global bus is subscribed for the run
/// and its events are folded into the per-layer ledger.
pub fn run(
    streaming: bool,
    seed: u64,
    setup_dir: &Path,
    dir: &Path,
    traced: bool,
) -> Result<String, String> {
    fresh_dir(dir)?;
    std::fs::copy(setup_dir.join("tc_cnn.tml"), dir.join("tc_cnn.tml"))
        .map_err(|e| format!("model from set-up: {e}"))?;
    let params = params(streaming, seed, dir)?;
    let products = params.products_dir();
    let cs = CaseStudy::new(params).map_err(|e| e.to_string())?;

    let tracer = traced.then(|| obs::global().subscribe_with_capacity(1 << 22));
    let pool = par::global();
    let before = pool.worker_stats();
    util::reset_peak_rss()?;
    let bus_start = obs::global().now_micros();
    let t0 = Instant::now();
    let outcome = cs.run();
    cs.rt.shutdown();
    let wall_s = t0.elapsed().as_secs_f64();
    let bus_end = obs::global().now_micros();
    let peak_rss_mb = util::peak_rss_mb()?;
    let after = pool.worker_stats();
    let report = outcome.map_err(|e| format!("workflow failed: {e}"))?;

    let spans = cs.rt.task_spans();
    let by = spans_by_name(&spans);
    let metrics = cs.rt.metrics();
    let (tasks, _, _) = cs.rt.graph_stats();

    // Science digest: per-year counts and every product's bytes.
    let mut h = Fnv::default();
    let mut pods = Vec::new();
    for y in &report.years {
        h.update(
            format!(
                "{} {} {} {} {} {};",
                y.year,
                y.heatwave_cells,
                y.coldspell_cells,
                y.truth_tcs,
                y.deterministic_track_points,
                y.cnn_detections
            )
            .as_bytes(),
        );
        if let Some(s) = y.cnn_scores.filter(|s| s.hits + s.misses > 0) {
            pods.push(s.pod);
        }
    }
    let (product_bytes, _) = util::dir_digest(&products, &mut h)?;
    let pod = if pods.is_empty() { 0.0 } else { pods.iter().sum::<f64>() / pods.len() as f64 };

    let mut checks = vec![
        Check::new(
            "years_validated",
            report.years.len() == YEARS && report.years.iter().all(|y| y.validated && !y.failed),
            format!(
                "{:?}",
                report.years.iter().map(|y| (y.year, y.validated, y.failed)).collect::<Vec<_>>()
            ),
        ),
        Check::new(
            "no_failed_tasks",
            metrics.failed + metrics.cancelled + metrics.timed_out == 0,
            format!(
                "{} failed, {} cancelled, {} timed out",
                metrics.failed, metrics.cancelled, metrics.timed_out
            ),
        ),
        check_products(&report, &products, streaming),
        Check::new("cnn_pod_floor", pod >= POD_FLOOR, format!("pod {pod:.3} floor {POD_FLOOR}")),
    ];
    let stream = report.stream.clone().unwrap_or_default();

    // Per-layer numbers from outside: spans, counters, registry, pool.
    let self_s = |names: &[&str]| -> f64 {
        by.iter()
            .filter(|(n, _)| names.iter().any(|p| n.starts_with(p)))
            .flat_map(|(_, v)| v.iter().map(|s| secs(s.duration_us())))
            .sum()
    };
    let mut layers: Vec<(String, f64)> = Vec::new();
    let mut put = |k: &str, v: f64| layers.push((k.to_string(), v));
    put("esm.step_ms", util::hist_median_ms("esm_step_us"));
    put("esm.write_ms", util::hist_median_ms("esm_write_us"));
    put("esm.stall_s", secs(stream.stall_us));
    // Daily files decoded by analysis tasks (import_tmax, import_tmin and
    // tc_preprocess each read every daily file of a year that arrived as
    // files): a count computed from the run shape, not measured I/O.
    let file_years = if streaming { stream.fallback_years } else { report.years.len() };
    let daily_bytes: u64 = std::fs::read_dir(cs.params.esm_dir())
        .map_err(|e| e.to_string())?
        .filter_map(|e| e.ok()?.metadata().ok())
        .map(|m| m.len())
        .sum();
    let file_share = file_years as f64 / report.years.len().max(1) as f64;
    put("ncformat.decode_s", file_share * self_s(&["import_", "tc_preprocess"]));
    put("ncformat.files_read", (3 * file_years * DAYS) as f64);
    put("ncformat.read_mb", 3.0 * file_share * daily_bytes as f64 / 1e6);
    put("ncformat.export_s", self_s(&["export_indices"]));
    put("ncformat.product_mb", product_bytes as f64 / 1e6);
    crate::kernel_layers(&mut put);
    put("datacube.reduce_gbps", 0.0);
    put("extremes.indices_s", self_s(&["hw_", "cw_"]));
    put("extremes.etccdi_s", 0.0);
    put("extremes.percentile_s", 0.0);
    put("extremes.cnn_s", self_s(&["tc_cnn_localize"]));
    let steps = report.years.len() * DAYS * cs.params.esm_config().timesteps_per_day;
    put("extremes.cnn_requests", if streaming { stream.cnn_items as f64 } else { steps as f64 });
    put("extremes.cnn_batches", stream.cnn_batches as f64);
    put("extremes.cnn_mean_batch", stream.cnn_mean_batch);
    put("extremes.track_s", self_s(&["tc_track_deterministic"]));
    put("extremes.record_fold_s", self_s(&["stream_record"]));
    put("dataflow.tasks", tasks as f64);
    put("dataflow.failed", (metrics.failed + metrics.cancelled + metrics.timed_out) as f64);
    let timed = cs.rt.timing_report();
    put("dataflow.critical_path_s", timed.as_ref().map_or(0.0, |t| secs(t.path_us)));
    put("dataflow.path_fraction", timed.as_ref().map_or(0.0, |t| t.path_fraction()));
    let handoffs: Vec<f64> = by
        .get("esm_simulation")
        .into_iter()
        .flatten()
        .zip(by.get("stage_year").into_iter().flatten())
        .map(|(sim, stage)| (stage.start_us as f64 - sim.end_us as f64) / 1e6)
        .collect();
    put("dataflow.handoff_s", util::median(&handoffs));
    // Streamed years the driver picked up from their files instead: the
    // directory watcher can see a finished year before the channel hands
    // it over. The products are the same either way.
    put("dataflow.fallback_years", stream.fallback_years as f64);
    put("dataflow.dispatch_wait_s", dispatch_wait_s(&spans, &cs.rt.graph_dot()));
    crate::pool_layers(&mut put, &before, &after, wall_s);

    let from_files = !streaming;
    if let Some(rx) = tracer {
        let events = rx.drain();
        put("obs.events", events.len() as f64);
        put("obs.dropped", rx.dropped() as f64);
        let l = ledger::fold_workflow(&events, bus_start, bus_end, from_files);
        checks.push(crate::ledger_check(&l));
        layers.extend(l.metrics());
    }

    let mut o = JsonObj::default();
    o.num("wall_s", wall_s)
        .num("year_lag_s", util::median(&year_lags(&by)))
        .num("peak_rss_mb", peak_rss_mb)
        .num("pod", pod)
        .num("attempted", tasks as f64)
        .num("failed", (metrics.failed + metrics.cancelled + metrics.timed_out) as f64)
        .str("digest", &h.hex())
        .raw("checks", &util::checks_json(&checks))
        .raw("layers", &util::metrics_json(&layers));
    Ok(o.finish())
}
