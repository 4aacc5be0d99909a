//! The `archive` workload: re-analyse a multi-year ESM archive already on
//! disk. No simulation and no ML in the timed part: each day is decoded
//! and reduced to its daily max/min, the years are stacked, pooled
//! percentile thresholds are computed, and per year the heat/cold-wave
//! and ETCCDI indices are computed, validated and exported as NCX.

use crate::ledger::Ledger;
use crate::util::{self, Check, Fnv, JsonObj};
use datacube::model::{Cube, Dimension, SharedData};
use datacube::{ops, ExecConfig, ReduceOp};
use esm::{EsmConfig, Simulation, ThermalKind};
use extremes::{etccdi, heatwave, validate, WaveParams};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Archived years and days per year (48×72 test grid, 4 steps a day).
pub const YEARS: usize = 3;
pub const DAYS: usize = 90;
const NFRAG: usize = 8;
const IO_SERVERS: usize = 2;
/// Minimum share of injected heat waves / cold spells the index maps
/// must flag at the event centre.
pub const POD_FLOOR: f64 = 0.3;
/// Products written per year: three heat-wave and three cold-spell
/// indices, then TX90p, TN10p, WSDI, CSDI, TXx and TNn.
const PRODUCTS: [&str; 12] =
    ["hwd", "hwn", "hwf", "cwd", "cwn", "cwf", "tx90p", "tn10p", "wsdi", "csdi", "txx", "tnn"];

fn config(seed: u64) -> EsmConfig {
    EsmConfig::test_small().with_days_per_year(DAYS).with_seed(seed)
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Set-up: simulate the archive into `dir/archive` and record the
/// injected thermal events (the truth the index maps are scored on).
pub fn setup(seed: u64, dir: &Path) -> Result<String, String> {
    std::fs::remove_dir_all(dir).ok();
    let t0 = Instant::now();
    let mut sim = Simulation::new(config(seed), &dir.join("archive")).map_err(err)?;
    let summary = sim.run_years(YEARS, |_, _, _| {}).map_err(err)?;
    let setup_s = t0.elapsed().as_secs_f64();

    let mut truth = String::new();
    for y in &summary.truth {
        for e in &y.thermal {
            let cold = e.kind == ThermalKind::ColdSpell;
            truth.push_str(&format!(
                "{} {} {} {} {} {}\n",
                y.year,
                u8::from(cold),
                e.start_day,
                e.duration,
                e.center_lat,
                e.center_lon
            ));
        }
    }
    std::fs::write(dir.join("truth.txt"), truth).map_err(err)?;

    let mut o = JsonObj::default();
    o.num("setup_s", setup_s);
    o.raw(
        "layers",
        &util::metrics_json(&[
            ("tinyml.train_s".into(), 0.0),
            ("esm.step_ms".into(), util::hist_median_ms("esm_step_us")),
            ("esm.write_ms".into(), util::hist_median_ms("esm_write_us")),
        ]),
    );
    Ok(o.finish())
}

/// Day-of-year climatology of daily max or min `(lat, lon | day)`, the
/// same reference the workflow's `load_baseline` task builds.
fn baseline(cfg: &EsmConfig, pick_max: bool) -> Result<Cube, String> {
    let warming = esm::Scenario::Historical.warming_k(2014);
    let days: Vec<gridded::Field2> = (0..DAYS)
        .map(|d| {
            let (tmax, tmin) = esm::model::expected_daily_extremes(cfg, d, warming);
            if pick_max {
                tmax
            } else {
                tmin
            }
        })
        .collect();
    let g = &cfg.grid;
    let n = g.nlat * g.nlon;
    let data = SharedData::from_fn(n * DAYS, |out| {
        for (d, f) in days.iter().enumerate() {
            for (cell, v) in f.data.iter().enumerate() {
                out[cell * DAYS + d] = *v;
            }
        }
    });
    let dims = vec![
        Dimension::explicit("lat", g.lats()),
        Dimension::explicit("lon", g.lons()),
        Dimension::implicit("day", (0..DAYS).map(|d| d as f64).collect::<Vec<_>>()),
    ];
    Cube::from_shared("baseline", dims, data, NFRAG, IO_SERVERS).map_err(err)
}

/// The archive's daily files grouped by year, days in order.
fn archive_years(dir: &Path) -> Result<BTreeMap<i32, Vec<PathBuf>>, String> {
    let mut years: BTreeMap<i32, BTreeMap<usize, PathBuf>> = BTreeMap::new();
    for e in std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))? {
        let path = e.map_err(err)?.path();
        let name = path.file_name().map(|n| n.to_string_lossy().to_string()).unwrap_or_default();
        if let Some((year, day)) = esm::output::parse_file_name(&name) {
            years.entry(year).or_default().insert(day, path);
        }
    }
    Ok(years.into_iter().map(|(y, days)| (y, days.into_values().collect())).collect())
}

/// Wall-clock spans of the benchmark's own calls, summed per layer.
#[derive(Default)]
struct Spans {
    by_layer: BTreeMap<&'static str, f64>,
    by_step: BTreeMap<&'static str, f64>,
    calls: usize,
}

impl Spans {
    fn time<T>(
        &mut self,
        layer: &'static str,
        step: &'static str,
        f: impl FnOnce() -> Result<T, String>,
    ) -> Result<T, String> {
        let t = Instant::now();
        let out = f();
        let s = t.elapsed().as_secs_f64();
        *self.by_layer.entry(layer).or_default() += s;
        *self.by_step.entry(step).or_default() += s;
        self.calls += 1;
        out
    }

    fn step(&self, step: &str) -> f64 {
        self.by_step.get(step).copied().unwrap_or(0.0)
    }
}

/// Index of the grid coordinate nearest to `x` (longitudes wrap).
fn nearest(coords: &[f64], x: f64, wrap: bool) -> usize {
    let dist = |c: f64| {
        let d = (c - x).abs();
        if wrap {
            d.min(360.0 - d)
        } else {
            d
        }
    };
    (0..coords.len()).min_by(|&a, &b| dist(coords[a]).total_cmp(&dist(coords[b]))).unwrap_or(0)
}

/// One measured re-analysis of the archive built by `setup` in `setup_dir`,
/// products into a fresh `dir`.
pub fn run(seed: u64, setup_dir: &Path, dir: &Path, traced: bool) -> Result<String, String> {
    std::fs::remove_dir_all(dir).ok();
    std::fs::create_dir_all(dir).map_err(err)?;
    let cfg = config(seed);
    let years = archive_years(&setup_dir.join("archive"))?;
    let base_max = baseline(&cfg, true)?;
    let base_min = baseline(&cfg, false)?;
    let exec = ExecConfig::with_servers(IO_SERVERS);
    let read_bytes: u64 =
        years.values().flatten().filter_map(|p| std::fs::metadata(p).ok()).map(|m| m.len()).sum();
    let files: usize = years.values().map(Vec::len).sum();

    let tracer = traced.then(|| obs::global().subscribe_with_capacity(1 << 22));
    let pool = par::global();
    let before = pool.worker_stats();
    util::reset_peak_rss()?;
    let t0 = Instant::now();
    let mut sp = Spans::default();
    let mut reduce_bytes = 0u64;

    // Decode every day into daily max/min cubes and stack each year.
    let mut stacked: Vec<(i32, Cube, Cube, f64)> = Vec::new();
    for (&year, paths) in &years {
        let (mut maxes, mut mins) = (Vec::new(), Vec::new());
        for (d, path) in paths.iter().enumerate() {
            let cube = sp.time("ncformat", "decode", || {
                let rd = ncformat::Reader::open(path).map_err(err)?;
                ops::import_transposed(&rd, "tas", "time", "lat", "lon", NFRAG, exec).map_err(err)
            })?;
            reduce_bytes += 2 * 4 * cube.len() as u64;
            let (mx, mn) = sp.time("datacube", "reduce", || {
                Ok((
                    ops::reduce(&cube, ReduceOp::Max, "time", exec).map_err(err)?,
                    ops::reduce(&cube, ReduceOp::Min, "time", exec).map_err(err)?,
                ))
            })?;
            sp.time("datacube", "stack", || {
                maxes.push(ops::add_singleton_implicit(&mx, "day", d as f64).map_err(err)?);
                mins.push(ops::add_singleton_implicit(&mn, "day", d as f64).map_err(err)?);
                Ok(())
            })?;
        }
        let (tmax, tmin) = sp.time("datacube", "stack", || {
            let (maxes, mins): (Vec<&Cube>, Vec<&Cube>) =
                (maxes.iter().collect(), mins.iter().collect());
            Ok((
                ops::concat_implicit(&maxes, "day").map_err(err)?,
                ops::concat_implicit(&mins, "day").map_err(err)?,
            ))
        })?;
        stacked.push((year, tmax, tmin, t0.elapsed().as_secs_f64()));
    }

    // Pooled percentile thresholds over all archived years.
    let (p90, p10) = sp.time("extremes", "percentile", || {
        let maxes: Vec<&Cube> = stacked.iter().map(|s| &s.1).collect();
        let mins: Vec<&Cube> = stacked.iter().map(|s| &s.2).collect();
        Ok((
            etccdi::percentile_threshold(&maxes, 90.0, exec).map_err(err)?,
            etccdi::percentile_threshold(&mins, 10.0, exec).map_err(err)?,
        ))
    })?;

    let wave = WaveParams::default();
    let mut checks = Vec::new();
    let mut lags = Vec::new();
    let mut flagged: BTreeMap<(i32, bool), Vec<f32>> = BTreeMap::new();
    for (year, tmax, tmin, decoded_at) in &stacked {
        let (heat, cold) = sp.time("extremes", "indices", || {
            Ok((
                heatwave::compute_indices(tmax, &base_max, wave, false, exec).map_err(err)?,
                heatwave::compute_indices(tmin, &base_min, wave, true, exec).map_err(err)?,
            ))
        })?;
        let et = sp.time("extremes", "etccdi", || {
            Ok([
                etccdi::exceedance_rate(tmax, &p90, exec).map_err(err)?,
                etccdi::deficit_rate(tmin, &p10, exec).map_err(err)?,
                etccdi::spell_duration_index(tmax, &p90, wave.min_duration, false, exec)
                    .map_err(err)?,
                etccdi::spell_duration_index(tmin, &p10, wave.min_duration, true, exec)
                    .map_err(err)?,
                etccdi::txx(tmax, exec).map_err(err)?,
                etccdi::tnn(tmin, exec).map_err(err)?,
            ])
        })?;
        let (rh, rc) = sp.time("extremes", "validate", || {
            Ok((
                validate::validate_indices(&heat, wave, DAYS),
                validate::validate_indices(&cold, wave, DAYS),
            ))
        })?;
        checks.push(Check::new(
            &format!("validate_{year}"),
            rh.passed() && rc.passed(),
            format!("heat {:?} cold {:?}", rh.findings, rc.findings),
        ));
        let maps = [
            &heat.duration_max,
            &heat.number,
            &heat.frequency,
            &cold.duration_max,
            &cold.number,
            &cold.frequency,
        ];
        sp.time("ncformat", "export", || {
            for (cube, name) in maps.into_iter().chain(&et).zip(PRODUCTS) {
                ops::exportnc(cube, &dir.join(format!("{name}-{year}.ncx"))).map_err(err)?;
            }
            Ok(())
        })?;
        lags.push(t0.elapsed().as_secs_f64() - decoded_at);
        flagged.insert((*year, false), heat.number.to_dense());
        flagged.insert((*year, true), cold.number.to_dense());
    }
    let wall_s = t0.elapsed().as_secs_f64();
    let peak_rss_mb = util::peak_rss_mb()?;
    let after = pool.worker_stats();

    // Detection quality: injected events whose centre cell has a wave.
    let truth = std::fs::read_to_string(setup_dir.join("truth.txt")).map_err(err)?;
    let (lats, lons) = (cfg.grid.lats(), cfg.grid.lons());
    let (mut events, mut hits) = (0usize, 0usize);
    for line in truth.lines() {
        let f: Vec<f64> = line.split_whitespace().filter_map(|v| v.parse().ok()).collect();
        let [year, cold, start, duration, lat, lon] = f[..] else {
            return Err(format!("bad truth line '{line}'"));
        };
        if start + duration > DAYS as f64 {
            continue;
        }
        let Some(counts) = flagged.get(&(year as i32, cold > 0.0)) else { continue };
        events += 1;
        let cell = nearest(&lats, lat, false) * lons.len() + nearest(&lons, lon, true);
        hits += usize::from(counts.get(cell).is_some_and(|&n| n > 0.0));
    }
    let pod = if events == 0 { 0.0 } else { hits as f64 / events as f64 };
    checks.push(Check::new("index_pod_floor", pod >= POD_FLOOR, format!("{hits}/{events} events")));

    let mut h = Fnv::default();
    let (product_bytes, n_products) = util::dir_digest(dir, &mut h)?;
    checks.push(Check::new(
        "product_set",
        n_products == YEARS * PRODUCTS.len() && years.len() == YEARS,
        format!("{n_products} products from {} years", years.len()),
    ));

    let mut layers: Vec<(String, f64)> = Vec::new();
    let mut put = |k: &str, v: f64| layers.push((k.to_string(), v));
    put("esm.step_ms", 0.0);
    put("esm.write_ms", 0.0);
    put("esm.stall_s", 0.0);
    put("ncformat.decode_s", sp.step("decode"));
    put("ncformat.files_read", files as f64);
    put("ncformat.read_mb", read_bytes as f64 / 1e6);
    put("ncformat.export_s", sp.step("export"));
    put("ncformat.product_mb", product_bytes as f64 / 1e6);
    crate::kernel_layers(&mut put);
    put("datacube.reduce_gbps", reduce_bytes as f64 / sp.step("reduce").max(1e-9) / 1e9);
    put("extremes.indices_s", sp.step("indices"));
    put("extremes.etccdi_s", sp.step("etccdi"));
    put("extremes.percentile_s", sp.step("percentile"));
    for k in ["cnn_s", "cnn_requests", "cnn_batches", "cnn_mean_batch", "track_s", "record_fold_s"]
    {
        put(&format!("extremes.{k}"), 0.0);
    }
    for k in ["tasks", "failed", "critical_path_s", "path_fraction", "handoff_s", "fallback_years"]
    {
        put(&format!("dataflow.{k}"), 0.0);
    }
    put("dataflow.dispatch_wait_s", 0.0);
    crate::pool_layers(&mut put, &before, &after, wall_s);
    if let Some(rx) = tracer {
        put("obs.events", rx.drain().len() as f64);
        put("obs.dropped", rx.dropped() as f64);
        let l = Ledger::from_spans(wall_s, &sp.by_layer);
        checks.push(crate::ledger_check(&l));
        layers.extend(l.metrics());
    }

    let mut o = JsonObj::default();
    o.num("wall_s", wall_s)
        .num("year_lag_s", util::median(&lags))
        .num("peak_rss_mb", peak_rss_mb)
        .num("pod", pod)
        .num("attempted", sp.calls as f64)
        .num("failed", 0.0)
        .str("digest", &h.hex())
        .raw("checks", &util::checks_json(&checks))
        .raw("layers", &util::metrics_json(&layers));
    Ok(o.finish())
}
