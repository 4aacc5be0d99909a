//! The case-study task definitions and the one driver behind the
//! pipelined, streaming and sequential runs.
//!
//! Mirrors Section 5 of the paper. Each stage is a distinct task function
//! submitted to the dataflow runtime (one color each in the Figure-3
//! graph):
//!
//! | # | task | role |
//! |---|------|------|
//! | 1 | `esm_simulation`       | one simulated year of CMCC-CM3-surrogate output (chained INOUT state, runs iteratively) |
//! | 2 | `load_baseline`        | day-of-year baseline climatology cubes (loaded once, reused all run — Sec. 5.3) |
//! | 3 | `load_model`           | the pre-trained TC-localization CNN |
//! | 4 | `stage_year`           | streaming detection of a complete year of daily files (Sec. 5.2) |
//! | 5 | `import_tmax`          | daily-maximum temperature year cube, folded one day at a time |
//! | 6 | `import_tmin`          | daily-minimum temperature year cube |
//! | 7–9 | `hw_duration_max` / `hw_number` / `hw_frequency` | heat-wave indices (Sec. 5.3) |
//! | 10–12 | `cw_duration_max` / `cw_number` / `cw_frequency` | cold-spell indices |
//! | 13 | `validate_indices`    | result validation (workflow step 5) |
//! | 14 | `export_indices`      | NCX export of the six index maps |
//! | 15 | `tc_preprocess`       | per-year TC input bundle (regrid-ready fields; Sec. 5.4 step i) |
//! | 16 | `tc_cnn_localize`     | CNN inference + geo-referencing (steps ii–iii) |
//! | 17 | `tc_track_deterministic` | criteria detector + trajectory stitcher |
//! | 18 | `render_maps`         | yearly map products (workflow step 6, Figure 4) |
//!
//! Tasks exchange lightweight references ([`WfData`]): file paths for
//! everything that crosses the simulation/analytics boundary, and cube ids
//! into the shared datacube store for in-memory analytics handoff (the
//! paper's "data could be kept in memory ... as the workflow progresses").
//! The daily fields themselves reach the tasks that read them as a
//! `YearSource`: in-memory blocks on the streaming plane, daily files
//! otherwise.

use crate::error::{WorkflowError, WorkflowStage};
use crate::params::WorkflowParams;
use crate::reporting::{RunReport, StreamSummary, YearReport};
use datacube::ops::ReduceOp;
use datacube::{Client, CubeCache, CubeHandle, CubeId};
use dataflow::prelude::*;
use dataflow::stream::{bounded, DirWatcher, RecvTimeout, StreamSender, YearlyRule};
use dataflow::Error;
use esm::output::DayBlock;
use esm::{Simulation, YearEvents};
use extremes::heatwave::{self, WaveParams};
use extremes::incremental::{EtccdiState, WaveState};
use extremes::tc::cnn::{CnnDetection, FieldSet, TcCnn};
use extremes::tc::detect::{detect_timestep, DetectorParams};
use extremes::tc::serve::{BatchPolicy, CnnService};
use extremes::tc::track::{stitch_tracks, TrackParams};
use extremes::validate::validate_indices;
use gridded::Field2;
use ncformat::Reader;
use parking_lot::Mutex;

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Payload exchanged between workflow tasks.
#[derive(Debug, Clone, PartialEq)]
pub enum WfData {
    /// Pure control token.
    Unit,
    /// Small textual result (reports, CSV blobs).
    Text(String),
    /// One file path.
    Path(PathBuf),
    /// Several file paths (a year of daily files, export bundles).
    Paths(Vec<PathBuf>),
    /// A number (year, count...).
    Num(f64),
    /// Reference to a cube in the shared datacube store.
    CubeRef(u64),
}

impl WfData {
    /// The cube id, when this is a [`WfData::CubeRef`].
    pub fn cube_id(&self) -> Option<CubeId> {
        match self {
            WfData::CubeRef(id) => Some(CubeId(*id)),
            _ => None,
        }
    }

    /// The paths, when this is a [`WfData::Paths`].
    pub fn paths(&self) -> Option<&[PathBuf]> {
        match self {
            WfData::Paths(p) => Some(p),
            _ => None,
        }
    }

    /// The text, when this is a [`WfData::Text`].
    pub fn text(&self) -> Option<&str> {
        match self {
            WfData::Text(t) => Some(t),
            _ => None,
        }
    }
}

impl Payload for WfData {
    fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            WfData::Unit => out.push(0),
            WfData::Text(s) => {
                out.push(1);
                out.extend_from_slice(s.as_bytes());
            }
            WfData::Path(p) => {
                out.push(2);
                out.extend_from_slice(p.to_string_lossy().as_bytes());
            }
            WfData::Paths(ps) => {
                out.push(3);
                let joined: Vec<String> =
                    ps.iter().map(|p| p.to_string_lossy().into_owned()).collect();
                out.extend_from_slice(joined.join("\n").as_bytes());
            }
            WfData::Num(v) => {
                out.push(4);
                out.extend_from_slice(&v.to_le_bytes());
            }
            WfData::CubeRef(id) => {
                out.push(5);
                out.extend_from_slice(&id.to_le_bytes());
            }
        }
        out
    }

    fn decode(bytes: &[u8]) -> Option<Self> {
        let (&tag, rest) = bytes.split_first()?;
        Some(match tag {
            0 => WfData::Unit,
            1 => WfData::Text(String::from_utf8(rest.to_vec()).ok()?),
            2 => WfData::Path(PathBuf::from(String::from_utf8(rest.to_vec()).ok()?)),
            3 => {
                let s = String::from_utf8(rest.to_vec()).ok()?;
                WfData::Paths(if s.is_empty() {
                    Vec::new()
                } else {
                    s.lines().map(PathBuf::from).collect()
                })
            }
            4 => WfData::Num(f64::from_le_bytes(rest.try_into().ok()?)),
            5 => WfData::CubeRef(u64::from_le_bytes(rest.try_into().ok()?)),
            _ => return None,
        })
    }

    fn approx_size(&self) -> u64 {
        self.encode().len() as u64
    }
}

/// One simulated year as the streaming plane hands it to analytics: the
/// daily fields as shared in-memory blocks plus the daily files the same
/// year was durably written to.
pub struct StreamedYear {
    pub year: i32,
    pub files: Vec<PathBuf>,
    pub days: Vec<DayBlock>,
}

/// How one year's daily fields reach its analysis tasks, fixed when the
/// year is submitted and captured by each task that reads the fields
/// (`import_tmax`, `import_tmin`, `tc_preprocess`). Either way a consumer
/// sees one day's variable stack at a time, so the analysis bodies exist
/// once; the blocks die with the last of those tasks.
#[derive(Clone)]
pub(crate) enum YearSource {
    /// Handed over in memory by the streaming plane.
    Blocks(Arc<StreamedYear>),
    /// Read back from the year's daily files (staged and sequential runs,
    /// checkpoint-restored years).
    Files(Vec<PathBuf>),
}

impl YearSource {
    /// The year's daily files, in day order.
    fn files(&self) -> &[PathBuf] {
        match self {
            YearSource::Blocks(sy) => &sy.files,
            YearSource::Files(files) => files,
        }
    }

    /// Number of days in the year.
    fn days(&self) -> usize {
        self.files().len()
    }

    /// `(lats, lons, steps_per_day)` of the daily fields.
    fn layout(&self) -> ncformat::Result<(Vec<f64>, Vec<f64>, usize)> {
        let empty = || ncformat::Error::Corrupt("year without days".into());
        match self {
            YearSource::Blocks(sy) => {
                let b = sy.days.first().ok_or_else(empty)?;
                Ok((b.grid.lats(), b.grid.lons(), b.steps_per_day))
            }
            YearSource::Files(files) => {
                let rd = Reader::open(files.first().ok_or_else(empty)?)?;
                Ok((rd.read_all_f64("lat")?, rd.read_all_f64("lon")?, rd.dimension("time")?.size))
            }
        }
    }

    /// The `(time, lat, lon)` stack of `var` on day `day`. The file source
    /// decodes just that variable of that day.
    fn stack(&self, day: usize, var: &str) -> ncformat::Result<Cow<'_, [f32]>> {
        match self {
            YearSource::Blocks(sy) => sy.days[day]
                .var(var)
                .map(|v| Cow::Borrowed(&v[..]))
                .ok_or_else(|| ncformat::Error::UnknownVariable(var.into())),
            YearSource::Files(files) => {
                Ok(Cow::Owned(Reader::open(&files[day])?.read_all_f32(var)?))
            }
        }
    }
}

/// Record-to-date incremental index accumulators (streaming runs): the
/// heat/cold run-length machines and ETCCDI counters carried across year
/// boundaries by the chained `stream_record` tasks.
struct RecordState {
    heat: Option<WaveState>,
    cold: Option<WaveState>,
    etccdi: Option<EtccdiState>,
    /// Years folded in, ascending.
    years: Vec<i32>,
}

impl RecordState {
    fn empty() -> Self {
        RecordState { heat: None, cold: None, etccdi: None, years: Vec::new() }
    }

    fn init_if_needed(
        &mut self,
        base_tmax: &datacube::model::Cube,
        base_tmin: &datacube::model::Cube,
        nfrag: usize,
        io_servers: usize,
    ) {
        if self.heat.is_none() {
            self.heat =
                Some(WaveState::new(base_tmax, WaveParams::default(), false, nfrag, io_servers));
            self.cold =
                Some(WaveState::new(base_tmin, WaveParams::default(), true, nfrag, io_servers));
            self.etccdi = Some(EtccdiState::new(base_tmax.rows()));
        }
    }

    fn fold(
        &mut self,
        year: i32,
        tmax: &datacube::model::Cube,
        tmin: &datacube::model::Cube,
    ) -> datacube::Result<()> {
        self.heat.as_mut().expect("initialized").update(tmax)?;
        self.cold.as_mut().expect("initialized").update(tmin)?;
        self.etccdi.as_mut().expect("initialized").update(tmax, tmin)?;
        self.years.push(year);
        Ok(())
    }
}

/// Handles to the shared (non-task) resources of the workflow — the same
/// role the `client` object plays in the paper's Listing 1.
pub struct CaseStudy {
    pub params: WorkflowParams,
    pub rt: Runtime<WfData>,
    pub client: Client,
    /// The pre-trained CNN, loaded once per run and shared immutably by
    /// every staged CNN chunk and by the streaming inference service.
    pub cnn: Arc<TcCnn>,
    sim: Arc<Mutex<Simulation>>,
    truth: Arc<Mutex<Vec<YearEvents>>>,
    /// Shared batched CNN inference service (streaming runs only).
    cnn_service: Option<Arc<CnnService>>,
    /// Record-to-date incremental index state (streaming runs only).
    record: Arc<Mutex<RecordState>>,
    /// Every streamed year the driver took over the channel, so tests can
    /// check that its blocks die with their last consumer task.
    #[cfg(test)]
    handed_over: Mutex<Vec<std::sync::Weak<StreamedYear>>>,
}

impl CaseStudy {
    /// Prepares the workflow: output directories, datacube client, the
    /// pre-trained CNN (loaded from `model_path` or trained on synthetic
    /// patches and cached), the ESM simulation and the dataflow runtime.
    pub fn new(params: WorkflowParams) -> Result<Self, WorkflowError> {
        let esm_dir = params.esm_dir();
        let products_dir = params.products_dir();
        std::fs::create_dir_all(&esm_dir)
            .map_err(WorkflowError::io(WorkflowStage::Setup, &esm_dir))?;
        std::fs::create_dir_all(&products_dir)
            .map_err(WorkflowError::io(WorkflowStage::Setup, &products_dir))?;

        let model_file =
            params.model_path.clone().unwrap_or_else(|| params.out_dir.join("tc_cnn.tml"));
        let cnn = if model_file.exists() {
            TcCnn::load(params.patch, &model_file)
                .map_err(|e| WorkflowError::Model { message: e.to_string() })?
        } else {
            let m = pretrain_cnn(&params);
            m.save(&model_file).map_err(|e| WorkflowError::Model { message: e.to_string() })?;
            m
        };

        let sim = Simulation::new(params.esm_config(), &params.esm_dir())
            .map_err(|e| WorkflowError::Simulation { message: e.to_string() })?;

        let mut config = RuntimeConfig::with_cpu_workers(params.workers.max(2))
            .with_seed(params.seed)
            .with_policy(params.sched_policy);
        if let Some(ckpt) = &params.checkpoint {
            config = config.with_checkpoint(ckpt);
        }
        let rt = Runtime::new(config);
        let cnn = Arc::new(cnn);
        // The batched inference service only exists on the streaming
        // plane; staged chunks call the shared model directly.
        let cnn_service = params.streaming.then(|| {
            Arc::new(CnnService::new(
                Arc::clone(&cnn),
                BatchPolicy { max_batch: params.cnn_batch, ..BatchPolicy::default() },
            ))
        });
        Ok(CaseStudy {
            client: Client::connect(params.io_servers),
            cnn,
            sim: Arc::new(Mutex::new(sim)),
            truth: Arc::new(Mutex::new(Vec::new())),
            cnn_service,
            record: Arc::new(Mutex::new(RecordState::empty())),
            #[cfg(test)]
            handed_over: Mutex::new(Vec::new()),
            rt,
            params,
        })
    }

    /// Ground truth collected so far (one entry per completed year).
    pub fn truth(&self) -> Vec<YearEvents> {
        self.truth.lock().clone()
    }

    /// Failure policy of ordinary tasks: fail-fast historically, retry
    /// with seeded-jitter exponential backoff when a retry budget is set.
    fn recovery_policy(&self) -> FailurePolicy {
        if self.params.task_retries > 0 {
            FailurePolicy::RetryBackoff {
                max_retries: self.params.task_retries,
                base_ms: self.params.retry_base_ms,
                cap_ms: self.params.retry_base_ms.saturating_mul(64).max(1000),
            }
        } else {
            FailurePolicy::FailFast
        }
    }

    /// Submits task #1 for one simulated year, chained on the previous
    /// year's state token (the ESM "runs iteratively"). With `stream`,
    /// the completed year is also handed to analytics in memory: the
    /// send blocks while the channel is full (backpressure on the
    /// simulation), and a failed send is ignored — it only fails once
    /// the driver has given up, and the daily files are on disk anyway.
    pub(crate) fn submit_esm_year(
        &self,
        year_index: usize,
        prev: Option<&DataRef>,
        stream: Option<StreamSender<Arc<StreamedYear>>>,
    ) -> Result<TaskHandle, Error> {
        let sim = Arc::clone(&self.sim);
        let truth = Arc::clone(&self.truth);
        let corrupt = self.params.corrupt_file;
        let esm_dir = self.params.esm_dir();
        let builder = self
            .rt
            .task("esm_simulation")
            .constraint(Constraint::cores(4))
            .key(&format!("esm-year-{year_index}"))
            .on_failure(self.recovery_policy());
        let builder = match prev {
            Some(p) => builder.updates(std::slice::from_ref(p)),
            None => builder.writes(&["esm_state"]),
        };
        builder.run(move |_| {
            let mut sim = sim.lock();
            // Checkpoint resume: earlier years restored from the log never
            // executed in this process, so fast-forward the model through
            // them (their daily files already exist from the previous run)
            // to keep this and all later years bit-identical.
            while sim.years_completed() < year_index {
                let skipped = sim.skip_years(1);
                truth.lock().extend(skipped);
            }
            let summary = match &stream {
                Some(tx) => sim
                    .run_years_streamed(1, |year, blocks, files| {
                        let days = blocks.len();
                        let bytes: u64 = blocks.iter().map(DayBlock::payload_bytes).sum();
                        let sy = Arc::new(StreamedYear { year, files, days: blocks });
                        if tx.send(sy).is_ok() {
                            obs::emit_with(|| obs::EventKind::YearStreamed { year, days, bytes });
                        }
                    })
                    .map_err(|e| e.to_string())?,
                None => sim.run_years(1, |_, _, _| {}).map_err(|e| e.to_string())?,
            };
            truth.lock().extend(summary.truth);
            let year = summary.years[0];
            // Fault-injection hook (resilience tests): trash one daily file.
            if let Some((y, day)) = corrupt {
                if y == year_index {
                    let victim = esm_dir.join(esm::output::file_name(year, day));
                    let _ = std::fs::write(victim, b"corrupted by fault injection");
                }
            }
            Ok(vec![WfData::Num(year as f64)])
        })
    }

    /// Submits task #2: the day-of-year baseline climatology (tmax and
    /// tmin cubes, kept in memory for the whole run).
    pub(crate) fn submit_load_baseline(&self) -> Result<TaskHandle, Error> {
        let client = self.client.clone();
        let params = self.params.clone();
        self.rt.task("load_baseline").writes(&["baseline_tmax", "baseline_tmin"]).run(move |_| {
            let cfg = params.esm_config();
            // Reference warming: the historical end-of-record level, so
            // projection years carry their climate-change signal in the
            // anomalies (as the paper's future-vs-historical setup does).
            let ref_warming = esm::Scenario::Historical.warming_k(2014);
            // The climatology is a pure function of the grid, year length
            // and fragmentation (`expected_daily_extremes` has no RNG and
            // the reference warming is pinned), so concurrent tenants with
            // overlapping configurations share one copy — and one build —
            // through the process-wide cube cache.
            let key_of = |measure: &str| {
                format!(
                    "baseline:{measure}:{}x{}:{}d:f{}:s{}",
                    params.grid.nlat,
                    params.grid.nlon,
                    params.days_per_year,
                    params.nfrag,
                    params.io_servers
                )
            };
            let build = |pick_max: bool, name: &str| {
                let mut days = Vec::with_capacity(cfg.days_per_year);
                for day in 0..cfg.days_per_year {
                    let (tmax, tmin) = esm::model::expected_daily_extremes(&cfg, day, ref_warming);
                    days.push(if pick_max { tmax } else { tmin });
                }
                fields_to_year_cube(&days, name, &params)
            };
            let cache = CubeCache::global();
            let tmax = cache
                .get_or_load(&key_of("tasmax"), || build(true, "tasmax_baseline"))
                .map_err(|e| e.to_string())?;
            let tmin = cache
                .get_or_load(&key_of("tasmin"), || build(false, "tasmin_baseline"))
                .map_err(|e| e.to_string())?;
            // Shallow clones: fragments share their payload buffers, so
            // adopting into this run's store copies no data.
            let h1 = client.adopt((*tmax).clone());
            let h2 = client.adopt((*tmin).clone());
            Ok(vec![WfData::CubeRef(h1.id().0), WfData::CubeRef(h2.id().0)])
        })
    }

    /// Submits task #3: publish the pre-trained CNN (a readiness token —
    /// the weights already live in shared memory, as PyCOMPSs workers share
    /// the mounted model file).
    pub(crate) fn submit_load_model(&self) -> Result<TaskHandle, Error> {
        let cnn = Arc::clone(&self.cnn);
        self.rt.task("load_model").writes(&["tc_model"]).run(move |_| {
            let n = cnn.param_count();
            Ok(vec![WfData::Num(n as f64)])
        })
    }

    /// Submits the full per-year analysis chain (tasks #4–#18, plus #19
    /// `stream_record` on the streaming plane) for one complete year. The
    /// tasks that read the daily fields capture `source`, so the same
    /// graph and the same bodies serve streamed, staged and
    /// checkpoint-restored years.
    pub(crate) fn submit_year_analysis(
        &self,
        year_key: &str,
        source: YearSource,
        baseline_tmax: &DataRef,
        baseline_tmin: &DataRef,
        model_token: &DataRef,
        record_prev: Option<&DataRef>,
    ) -> Result<YearTaskRefs, Error> {
        let params = self.params.clone();
        let client = self.client.clone();

        // #4 stage_year — the streaming hand-off node.
        let files = source.files().to_vec();
        let n_files = files.len();
        let stage = self
            .rt
            .task("stage_year")
            .key(&format!("stage-{year_key}"))
            .on_failure(self.recovery_policy())
            .writes(&[format!("year-{year_key}").as_str()])
            .run(move |_| Ok(vec![WfData::Paths(files.clone())]))?;

        // #5/#6 import daily extreme cubes from the year's source.
        let import = |task: &str, reduce: ReduceOp, measure: &'static str| {
            let client = client.clone();
            let params = params.clone();
            let source = source.clone();
            self.rt
                .task(task)
                .reads(&[stage.outputs[0].clone()])
                .on_failure(FailurePolicy::IgnoreCancelSuccessors)
                .writes(&[format!("{task}-{year_key}").as_str()])
                .run(move |_| {
                    let cube = import_daily_extreme(&source, reduce, measure, &params, &client)
                        .map_err(|e| e.to_string())?;
                    Ok(vec![WfData::CubeRef(cube.id().0)])
                })
        };
        let tmax = import("import_tmax", ReduceOp::Max, "tasmax")?;
        let tmin = import("import_tmin", ReduceOp::Min, "tasmin")?;

        // #7..#12 the six index tasks (each independent, like the paper's
        // separate colored tasks).
        let index_task =
            |name: &'static str,
             daily: &TaskHandle,
             base: &DataRef,
             cold: bool,
             pick: fn(heatwave::HeatwaveIndices) -> datacube::model::Cube| {
                let client = client.clone();
                let params = params.clone();
                self.rt
                    .task(name)
                    .reads(&[daily.outputs[0].clone(), base.clone()])
                    .on_failure(self.recovery_policy())
                    .writes(&[format!("{name}-{year_key}").as_str()])
                    .run(move |inp: &[Arc<WfData>]| {
                        let daily = client
                            .open(inp[0].cube_id().ok_or("expected cube ref")?)
                            .map_err(|e| e.to_string())?;
                        let base = client
                            .open(inp[1].cube_id().ok_or("expected cube ref")?)
                            .map_err(|e| e.to_string())?;
                        let idx = heatwave::compute_indices(
                            daily.cube().map_err(|e| e.to_string())?.as_ref(),
                            base.cube().map_err(|e| e.to_string())?.as_ref(),
                            WaveParams::default(),
                            cold,
                            datacube::ExecConfig::with_servers(params.io_servers),
                        )
                        .map_err(|e| e.to_string())?;
                        let out = client.adopt(pick(idx));
                        Ok(vec![WfData::CubeRef(out.id().0)])
                    })
            };
        let hwd = index_task("hw_duration_max", &tmax, baseline_tmax, false, |i| i.duration_max)?;
        let hwn = index_task("hw_number", &tmax, baseline_tmax, false, |i| i.number)?;
        let hwf = index_task("hw_frequency", &tmax, baseline_tmax, false, |i| i.frequency)?;
        let cwd = index_task("cw_duration_max", &tmin, baseline_tmin, true, |i| i.duration_max)?;
        let cwn = index_task("cw_number", &tmin, baseline_tmin, true, |i| i.number)?;
        let cwf = index_task("cw_frequency", &tmin, baseline_tmin, true, |i| i.frequency)?;

        // #13 validation over the heat and cold index triples.
        let validation = {
            let client = client.clone();
            let days = self.params.days_per_year;
            self.rt
                .task("validate_indices")
                .on_failure(FailurePolicy::IgnoreCancelSuccessors)
                .key(&format!("validate-{year_key}"))
                .reads(&[
                    hwd.outputs[0].clone(),
                    hwn.outputs[0].clone(),
                    hwf.outputs[0].clone(),
                    cwd.outputs[0].clone(),
                    cwn.outputs[0].clone(),
                    cwf.outputs[0].clone(),
                ])
                .writes(&[format!("validation-{year_key}").as_str()])
                .run(move |inp: &[Arc<WfData>]| {
                    let cube = |d: &Arc<WfData>| -> Result<_, String> {
                        client
                            .open(d.cube_id().ok_or("expected cube ref")?)
                            .and_then(|h| h.cube())
                            .map_err(|e| e.to_string())
                    };
                    let heat = heatwave::HeatwaveIndices {
                        duration_max: (*cube(&inp[0])?).clone(),
                        number: (*cube(&inp[1])?).clone(),
                        frequency: (*cube(&inp[2])?).clone(),
                    };
                    let cold = heatwave::HeatwaveIndices {
                        duration_max: (*cube(&inp[3])?).clone(),
                        number: (*cube(&inp[4])?).clone(),
                        frequency: (*cube(&inp[5])?).clone(),
                    };
                    let rh = validate_indices(&heat, WaveParams::default(), days);
                    let rc = validate_indices(&cold, WaveParams::default(), days);
                    if rh.passed() && rc.passed() {
                        Ok(vec![WfData::Text("ok".into())])
                    } else {
                        Err(format!(
                            "validation failed: heat {:?} cold {:?}",
                            rh.findings, rc.findings
                        ))
                    }
                })?
        };

        // #14 export the six index maps as NCX files (gated on validation).
        let export = {
            let client = client.clone();
            let dir = self.params.products_dir();
            let year_key_owned = year_key.to_string();
            self.rt
                .task("export_indices")
                .key(&format!("export-{year_key}"))
                .on_failure(self.recovery_policy())
                .reads(&[
                    hwd.outputs[0].clone(),
                    hwn.outputs[0].clone(),
                    hwf.outputs[0].clone(),
                    cwd.outputs[0].clone(),
                    cwn.outputs[0].clone(),
                    cwf.outputs[0].clone(),
                    validation.outputs[0].clone(),
                ])
                .writes(&[format!("exports-{year_key}").as_str()])
                .run(move |inp: &[Arc<WfData>]| {
                    let names = ["hwd", "hwn", "hwf", "cwd", "cwn", "cwf"];
                    let mut paths = Vec::new();
                    for (d, name) in inp.iter().zip(names) {
                        let h = client
                            .open(d.cube_id().ok_or("expected cube ref")?)
                            .map_err(|e| e.to_string())?;
                        let path = dir.join(format!("{name}-{year_key_owned}.ncx"));
                        h.exportnc(&path).map_err(|e| e.to_string())?;
                        paths.push(path);
                    }
                    Ok(vec![WfData::Paths(paths)])
                })?
        };

        // #15 TC preprocessing: bundle the four needed fields per timestep
        // into one analysis-ready file.
        let tc_input = {
            let out = self.params.products_dir().join(format!("tcinput-{year_key}.ncx"));
            self.rt
                .task("tc_preprocess")
                .on_failure(FailurePolicy::IgnoreCancelSuccessors)
                .key(&format!("tcpre-{year_key}"))
                .reads(&[stage.outputs[0].clone()])
                .writes(&[format!("tcinput-{year_key}").as_str()])
                .run(move |_| {
                    build_tc_input(&source, &out).map_err(|e| e.to_string())?;
                    Ok(vec![WfData::Path(out.clone())])
                })?
        };

        // #16 CNN localization (+ geo-referencing) over every timestep,
        // run as a gang-scheduled data-parallel task (the PyCOMPSs `@mpi`
        // integration): replica r processes timesteps r, r+size, ...;
        // rank 0 assembles the year's CSV.
        let cnn_out = {
            let replicas = if self.params.workers >= 4 { 2u32 } else { 1 };
            let dir = self.params.products_dir();
            let year_key_owned = year_key.to_string();
            let patch = self.params.patch;
            let parts: Arc<Mutex<BTreeMap<u32, String>>> = Arc::new(Mutex::new(BTreeMap::new()));
            let engine = match &self.cnn_service {
                Some(svc) => CnnEngine::Service(Arc::clone(svc)),
                None => CnnEngine::Chunks(Arc::clone(&self.cnn)),
            };
            self.rt
                .task("tc_cnn_localize")
                .key(&format!("tccnn-{year_key}"))
                .reads(&[tc_input.outputs[0].clone(), model_token.clone()])
                .constraint(Constraint::any())
                .replicated(replicas)
                .writes(&[format!("tc-cnn-{year_key}").as_str()])
                .run_replicated(move |inp: &[Arc<WfData>], replica| {
                    let WfData::Path(path) = &*inp[0] else {
                        return Err("expected tc input path".into());
                    };
                    let part =
                        cnn_localize_steps(path, patch, &engine, replica.rank, replica.size)?;
                    parts.lock().insert(replica.rank, part);
                    if replica.rank != 0 {
                        return Ok(vec![]);
                    }
                    // Rank 0 gathers every replica's rows.
                    let deadline = Instant::now() + Duration::from_secs(600);
                    while parts.lock().len() < replica.size as usize {
                        if Instant::now() > deadline {
                            return Err("timed out gathering CNN replicas".into());
                        }
                        std::thread::sleep(Duration::from_millis(2));
                    }
                    let mut rows: Vec<String> = std::mem::take(&mut *parts.lock())
                        .into_values()
                        .flat_map(|part| part.lines().map(str::to_string).collect::<Vec<_>>())
                        .collect();
                    rows.sort_by_key(|l| {
                        let mut it = l.split(',');
                        let day: usize = it.next().and_then(|v| v.parse().ok()).unwrap_or(0);
                        let step: usize = it.next().and_then(|v| v.parse().ok()).unwrap_or(0);
                        (day, step)
                    });
                    let mut csv = String::from("day,step,lat,lon,confidence\n");
                    for r in rows {
                        csv.push_str(&r);
                        csv.push('\n');
                    }
                    let out = dir.join(format!("tc-cnn-{year_key_owned}.csv"));
                    std::fs::write(&out, &csv).map_err(|e| e.to_string())?;
                    Ok(vec![WfData::Text(csv)])
                })?
        };

        // #17 deterministic detection + tracking.
        let tracks_out = {
            let dir = self.params.products_dir();
            let year_key_owned = year_key.to_string();
            self.rt
                .task("tc_track_deterministic")
                .key(&format!("tctracks-{year_key}"))
                .on_failure(self.recovery_policy())
                .reads(&[tc_input.outputs[0].clone()])
                .writes(&[format!("tc-tracks-{year_key}").as_str()])
                .run(move |inp: &[Arc<WfData>]| {
                    let WfData::Path(path) = &*inp[0] else {
                        return Err("expected tc input path".into());
                    };
                    let csv = track_year(path).map_err(|e| e.to_string())?;
                    let out = dir.join(format!("tc-tracks-{year_key_owned}.csv"));
                    std::fs::write(&out, &csv).map_err(|e| e.to_string())?;
                    Ok(vec![WfData::Text(csv)])
                })?
        };

        // #18 map products (Figure 4: the Heat Wave Number map, plus the
        // cold equivalent).
        let maps = {
            let client = client.clone();
            let dir = self.params.products_dir();
            let year_key_owned = year_key.to_string();
            self.rt
                .task("render_maps")
                .key(&format!("maps-{year_key}"))
                .on_failure(self.recovery_policy())
                .reads(&[
                    hwn.outputs[0].clone(),
                    cwn.outputs[0].clone(),
                    validation.outputs[0].clone(),
                ])
                .writes(&[format!("maps-{year_key}").as_str()])
                .run(move |inp: &[Arc<WfData>]| {
                    let mut paths = Vec::new();
                    for (d, name) in inp.iter().take(2).zip(["hwn", "cwn"]) {
                        let h = client
                            .open(d.cube_id().ok_or("expected cube ref")?)
                            .map_err(|e| e.to_string())?;
                        let cube = h.cube().map_err(|e| e.to_string())?;
                        let ppm = dir.join(format!("{name}-map-{year_key_owned}.ppm"));
                        extremes::maps::write_ppm(&cube, &ppm).map_err(|e| e.to_string())?;
                        let txt = dir.join(format!("{name}-map-{year_key_owned}.txt"));
                        let art =
                            extremes::maps::ascii_map(&cube, 24, 72).map_err(|e| e.to_string())?;
                        std::fs::write(&txt, art).map_err(|e| e.to_string())?;
                        paths.push(ppm);
                        paths.push(txt);
                    }
                    Ok(vec![WfData::Paths(paths)])
                })?
        };

        // #19 (streaming plane only) stream_record: fold this year into
        // the record-to-date incremental indices. Chained through the
        // previous year's record token so years fold in calendar order —
        // the run-length machines carry open spells across the boundary.
        let record = if self.params.streaming {
            let client = client.clone();
            let params = params.clone();
            let state = Arc::clone(&self.record);
            let year_key_owned = year_key.to_string();
            let mut reads = vec![
                tmax.outputs[0].clone(),
                tmin.outputs[0].clone(),
                baseline_tmax.clone(),
                baseline_tmin.clone(),
            ];
            if let Some(p) = record_prev {
                reads.push(p.clone());
            }
            // No checkpoint key: the record state lives in this process, so
            // a resumed run re-folds every year through its import tasks
            // (which never restore either).
            let h = self
                .rt
                .task("stream_record")
                .on_failure(FailurePolicy::IgnoreCancelSuccessors)
                .reads(&reads)
                .writes(&[format!("record-{year_key}").as_str()])
                .run(move |inp: &[Arc<WfData>]| {
                    let cube = |d: &Arc<WfData>| {
                        client
                            .open(d.cube_id().ok_or("expected cube ref")?)
                            .and_then(|h| h.cube())
                            .map_err(|e| e.to_string())
                    };
                    let tmax = cube(&inp[0])?;
                    let tmin = cube(&inp[1])?;
                    let base_tmax = cube(&inp[2])?;
                    let base_tmin = cube(&inp[3])?;
                    let year: i32 =
                        year_key_owned.parse().map_err(|_| "bad year key".to_string())?;
                    let mut st = state.lock();
                    st.init_if_needed(&base_tmax, &base_tmin, params.nfrag, params.io_servers);
                    if !st.years.contains(&year) {
                        st.fold(year, &tmax, &tmin).map_err(|e| e.to_string())?;
                    }
                    Ok(vec![WfData::Num(st.years.len() as f64)])
                })?;
            Some(h.outputs[0].clone())
        } else {
            None
        };

        Ok(YearTaskRefs {
            year_key: year_key.to_string(),
            n_files,
            hwn: hwn.outputs[0].clone(),
            cwn: cwn.outputs[0].clone(),
            validation: validation.outputs[0].clone(),
            exports: export.outputs[0].clone(),
            cnn_csv: cnn_out.outputs[0].clone(),
            tracks_csv: tracks_out.outputs[0].clone(),
            maps: maps.outputs[0].clone(),
            record,
        })
    }

    /// Runs the full pipelined workflow: simulation years chained, per-year
    /// analysis submitted as years complete, everything concurrent. With
    /// `params.streaming`, years hand over in memory through a bounded
    /// channel; otherwise analysis keys off the daily files.
    pub fn run(&self) -> Result<RunReport, WorkflowError> {
        self.drive(false)
    }

    /// Runs the sequential baseline (experiment C1): the ESM completes all
    /// years first, then the per-year analyses are submitted from the
    /// daily files. Same tasks and products, no overlap with the
    /// simulation; with `params.streaming` the record products are
    /// exported as on a pipelined streaming run.
    pub fn run_sequential(&self) -> Result<RunReport, WorkflowError> {
        self.drive(true)
    }

    /// The one arrival loop behind [`CaseStudy::run`] and
    /// [`CaseStudy::run_sequential`]. A year travels over the channel when
    /// it was simulated in this process on a pipelined streaming run.
    /// Every other year comes from its daily files: through the directory
    /// watcher on staged and sequential runs, or straight away when its
    /// `esm_simulation` task was restored from the checkpoint (it never
    /// runs, so it never streams).
    fn drive(&self, sequential: bool) -> Result<RunReport, WorkflowError> {
        let start = Instant::now();
        let baseline = self
            .submit_load_baseline()
            .map_err(WorkflowError::dataflow(WorkflowStage::Baseline))?;
        let model =
            self.submit_load_model().map_err(WorkflowError::dataflow(WorkflowStage::ModelLoad))?;

        // Chain the simulation years (#1 runs iteratively).
        let via_channel = self.params.streaming && !sequential;
        let (tx, rx) = bounded::<Arc<StreamedYear>>("esm-years", self.params.stream_depth);
        let start_year = self.params.esm_config().start_year;
        let esm_dir = self.params.esm_dir();
        let mut arrivals: Vec<(String, YearSource)> = Vec::new();
        let mut prev: Option<DataRef> = None;
        for y in 0..self.params.years {
            // Submission replays a checkpointed task synchronously, so the
            // restored count moves during this call iff the year is restored.
            let restored = self.rt.metrics().restored;
            let h = self
                .submit_esm_year(y, prev.as_ref(), via_channel.then(|| tx.clone()))
                .map_err(WorkflowError::dataflow(WorkflowStage::Simulation))?;
            if via_channel && self.rt.metrics().restored > restored {
                let year = start_year + y as i32;
                let files = (0..self.params.days_per_year)
                    .map(|d| esm_dir.join(esm::output::file_name(year, d)))
                    .collect();
                arrivals.push((year.to_string(), YearSource::Files(files)));
            }
            prev = Some(h.outputs[0].clone());
        }
        drop(tx);
        if sequential {
            self.rt.barrier().map_err(WorkflowError::dataflow(WorkflowStage::Barrier))?;
        }

        let mut watcher = (!via_channel).then(|| {
            DirWatcher::new(
                esm_dir.clone(),
                YearlyRule { prefix: "esm".into(), days_per_year: self.params.days_per_year },
            )
        });
        let mut year_refs = Vec::new();
        let mut record_prev: Option<DataRef> = None;
        let mut streamed = 0;
        const WAIT_SECS: u64 = 3600;
        let deadline = Instant::now() + Duration::from_secs(WAIT_SECS);
        loop {
            // Years arrive calendar-ascending, which keeps the record-task
            // chain in calendar order.
            for (key, source) in arrivals.drain(..) {
                streamed += matches!(source, YearSource::Blocks(_)) as usize;
                let refs = self
                    .submit_year_analysis(
                        &key,
                        source,
                        &baseline.outputs[0],
                        &baseline.outputs[1],
                        &model.outputs[0],
                        record_prev.as_ref(),
                    )
                    .map_err(WorkflowError::dataflow(WorkflowStage::Analysis))?;
                record_prev = refs.record.clone();
                year_refs.push(refs);
            }
            if year_refs.len() >= self.params.years {
                break;
            }
            if Instant::now() > deadline {
                return Err(WorkflowError::Timeout {
                    stage: WorkflowStage::Streaming,
                    waited_secs: WAIT_SECS,
                });
            }
            // A fail-fast abort (e.g. an injected fault exhausting its
            // retries) means the year this loop is waiting for will never
            // arrive; surface the abort instead of spinning to the deadline.
            if let Some(err) = self.rt.aborted() {
                return Err(WorkflowError::Aborted { source: err });
            }
            match &mut watcher {
                Some(w) => {
                    let groups =
                        w.poll().map_err(WorkflowError::io(WorkflowStage::Streaming, &esm_dir))?;
                    arrivals
                        .extend(groups.into_iter().map(|g| (g.key, YearSource::Files(g.files))));
                    std::thread::sleep(Duration::from_millis(5));
                }
                // The receive doubles as the loop's pacing.
                None => match rx.recv_timeout(Duration::from_millis(20)) {
                    RecvTimeout::Item(sy) => {
                        #[cfg(test)]
                        self.handed_over.lock().push(Arc::downgrade(&sy));
                        arrivals.push((sy.year.to_string(), YearSource::Blocks(sy)));
                    }
                    RecvTimeout::Disconnected => std::thread::sleep(Duration::from_millis(5)),
                    RecvTimeout::TimedOut => {}
                },
            }
        }

        self.rt.barrier().map_err(WorkflowError::dataflow(WorkflowStage::Barrier))?;
        if !self.params.streaming {
            return self.collect_report(start.elapsed(), &year_refs);
        }
        let record_paths = self.export_record_products(&baseline)?;
        let mut report = self.collect_report(start.elapsed(), &year_refs)?;
        let stats = self.cnn_service.as_ref().map(|s| s.stats()).unwrap_or_default();
        report.stream = Some(StreamSummary {
            years_streamed: streamed,
            fallback_years: year_refs.len() - streamed,
            stall_us: rx.stall_micros(),
            record_years: self.record.lock().years.len(),
            cnn_batches: stats.batches,
            cnn_items: stats.items,
            cnn_mean_batch: stats.mean_occupancy(),
            record_paths,
        });
        Ok(report)
    }

    /// Exports the record-to-date (cross-year) index products accumulated
    /// by the `stream_record` chain: the six heat/cold maps as NCX plus
    /// one NCX of the ETCCDI counters. A year whose analysis failed is
    /// missing from the record, as `StreamSummary::record_years` shows.
    fn export_record_products(&self, baseline: &TaskHandle) -> Result<Vec<PathBuf>, WorkflowError> {
        let malformed =
            |message: String| WorkflowError::Malformed { stage: WorkflowStage::Report, message };
        let fetch_cube = |r: &DataRef| {
            let d = self.rt.fetch(r).map_err(WorkflowError::dataflow(WorkflowStage::Report))?;
            self.client
                .open(d.cube_id().ok_or_else(|| malformed("baseline is not a cube".into()))?)
                .and_then(|h| h.cube())
                .map_err(WorkflowError::cube(WorkflowStage::Report))
        };
        let base_tmax = fetch_cube(&baseline.outputs[0])?;
        let base_tmin = fetch_cube(&baseline.outputs[1])?;
        let mut st = self.record.lock();
        st.init_if_needed(&base_tmax, &base_tmin, self.params.nfrag, self.params.io_servers);

        let dir = self.params.products_dir();
        let heat = st
            .heat
            .as_ref()
            .expect("initialized")
            .indices()
            .map_err(WorkflowError::cube(WorkflowStage::Report))?;
        let cold = st
            .cold
            .as_ref()
            .expect("initialized")
            .indices()
            .map_err(WorkflowError::cube(WorkflowStage::Report))?;
        let mut paths = Vec::new();
        for (cube, name) in [
            (heat.duration_max, "record-hwd"),
            (heat.number, "record-hwn"),
            (heat.frequency, "record-hwf"),
            (cold.duration_max, "record-cwd"),
            (cold.number, "record-cwn"),
            (cold.frequency, "record-cwf"),
        ] {
            let path = dir.join(format!("{name}.ncx"));
            self.client
                .adopt(cube)
                .exportnc(&path)
                .map_err(WorkflowError::cube(WorkflowStage::Report))?;
            paths.push(path);
        }

        let et = st.etccdi.as_ref().expect("initialized");
        let (frost, summer, txx, tnn) = et.values();
        let grid = &self.params.grid;
        let path = dir.join("record-etccdi.ncx");
        let write = || -> ncformat::Result<()> {
            let mut w = ncformat::Writer::create(&path)?;
            w.set_attribute("days", ncformat::Value::from(et.days() as i64));
            w.add_dimension("lat", grid.nlat)?;
            w.add_dimension("lon", grid.nlon)?;
            w.add_variable_f64("lat", &["lat"], &grid.lats(), vec![])?;
            w.add_variable_f64("lon", &["lon"], &grid.lons(), vec![])?;
            for (name, data) in
                [("frost_days", frost), ("summer_days", summer), ("txx", txx), ("tnn", tnn)]
            {
                w.add_variable_f32(name, &["lat", "lon"], data, vec![])?;
            }
            w.finish()
        };
        write().map_err(|e| malformed(e.to_string()))?;
        paths.push(path);
        Ok(paths)
    }

    /// Assembles the run report by fetching task outputs and comparing the
    /// TC products against the ground truth.
    pub(crate) fn collect_report(
        &self,
        wall: Duration,
        year_refs: &[YearTaskRefs],
    ) -> Result<RunReport, WorkflowError> {
        let truth = self.truth();
        let mut years = Vec::new();
        for refs in year_refs {
            let year: i32 = refs.year_key.parse().map_err(|_| WorkflowError::Malformed {
                stage: WorkflowStage::Report,
                message: format!("bad year key '{}'", refs.year_key),
            })?;
            // A failed/cancelled analysis subtree (per-task failure
            // management, Section 4.2.1) leaves the year marked failed in
            // the report while the rest of the campaign stands.
            if self.rt.fetch(&refs.validation).is_err() {
                years.push(YearReport {
                    year,
                    failed: true,
                    files: refs.n_files,
                    validated: false,
                    heatwave_cells: 0,
                    coldspell_cells: 0,
                    cnn_detections: 0,
                    deterministic_track_points: 0,
                    truth_tcs: 0,
                    truth_thermal_events: 0,
                    export_paths: Vec::new(),
                    map_paths: Vec::new(),
                    cnn_scores: None,
                    deterministic_scores: None,
                });
                continue;
            }
            let fetch = |r: &DataRef| {
                self.rt.fetch(r).map_err(WorkflowError::dataflow(WorkflowStage::Report))
            };
            let not_a_cube = |what: &str| WorkflowError::Malformed {
                stage: WorkflowStage::Report,
                message: format!("{what} output is not a cube reference"),
            };
            let hwn_cube = self
                .client
                .open(fetch(&refs.hwn)?.cube_id().ok_or_else(|| not_a_cube("hwn"))?)
                .and_then(|h| h.cube())
                .map_err(WorkflowError::cube(WorkflowStage::Report))?;
            let cwn_cube = self
                .client
                .open(fetch(&refs.cwn)?.cube_id().ok_or_else(|| not_a_cube("cwn"))?)
                .and_then(|h| h.cube())
                .map_err(WorkflowError::cube(WorkflowStage::Report))?;
            let hw_cells = hwn_cube.to_dense().iter().filter(|v| **v > 0.0).count();
            let cw_cells = cwn_cube.to_dense().iter().filter(|v| **v > 0.0).count();

            let cnn_csv = fetch(&refs.cnn_csv)?.text().unwrap_or_default().to_string();
            let tracks_csv = fetch(&refs.tracks_csv)?.text().unwrap_or_default().to_string();
            let exports = fetch(&refs.exports)?.paths().unwrap_or_default().to_vec();
            let maps = fetch(&refs.maps)?.paths().unwrap_or_default().to_vec();
            let validated = fetch(&refs.validation)?.text() == Some("ok");
            let year_truth = truth.iter().find(|t| t.year == year);
            let (cnn_scores, det_scores) = match year_truth {
                Some(t) => {
                    let truth_centers = truth_centers(t, self.params.days_per_year);
                    (
                        Some(extremes::tc::metrics::verify(
                            &truth_centers,
                            &parse_centers_cnn(&cnn_csv),
                            1200.0,
                        )),
                        Some(extremes::tc::metrics::verify(
                            &truth_centers,
                            &parse_centers_tracks(&tracks_csv),
                            1200.0,
                        )),
                    )
                }
                None => (None, None),
            };

            years.push(YearReport {
                year,
                failed: false,
                files: refs.n_files,
                validated,
                heatwave_cells: hw_cells,
                coldspell_cells: cw_cells,
                cnn_detections: cnn_csv.lines().count().saturating_sub(1),
                deterministic_track_points: tracks_csv.lines().count().saturating_sub(1),
                truth_tcs: year_truth.map(|t| t.tcs.len()).unwrap_or(0),
                truth_thermal_events: year_truth.map(|t| t.thermal.len()).unwrap_or(0),
                export_paths: exports,
                map_paths: maps,
                cnn_scores,
                deterministic_scores: det_scores,
            });
        }

        let (tasks, edges, critical_path) = self.rt.graph_stats();
        let dot = self.rt.graph_dot();
        let dot_path = self.params.out_dir.join("taskgraph.dot");
        std::fs::write(&dot_path, &dot)
            .map_err(WorkflowError::io(WorkflowStage::Report, &dot_path))?;

        // Provenance export (Section 2's provenance capability): the full
        // used/wasGeneratedBy record of the run, in PROV-style text.
        let prov_path = self.params.out_dir.join("provenance.prov.txt");
        std::fs::write(&prov_path, self.rt.provenance().to_prov_text())
            .map_err(WorkflowError::io(WorkflowStage::Report, &prov_path))?;

        Ok(RunReport {
            wall_time: wall,
            years,
            tasks,
            edges,
            critical_path,
            function_counts: self.rt.function_counts(),
            dot_path,
            prov_path,
            metrics: self.rt.metrics(),
            timed: self.rt.timing_report(),
            policy: self.rt.policy_name(),
            placements: self.rt.scheduler_decisions(),
            stream: None,
        })
    }
}

/// Per-year output references used by the report collector.
pub(crate) struct YearTaskRefs {
    year_key: String,
    n_files: usize,
    hwn: DataRef,
    cwn: DataRef,
    validation: DataRef,
    exports: DataRef,
    cnn_csv: DataRef,
    tracks_csv: DataRef,
    maps: DataRef,
    /// Record token of the `stream_record` task (streaming plane only);
    /// the next year's record task chains on it.
    pub(crate) record: Option<DataRef>,
}

/// Pre-trains the TC-localization CNN the way the workflow's `load_model`
/// task expects it: a synthetic-vortex warm-up followed by fine-tuning on
/// labelled output of a historical reference run of the same model — the
/// reproduction's stand-in for "a CNN previously trained on historical
/// data" (Section 5.4).
pub fn pretrain_cnn(params: &WorkflowParams) -> TcCnn {
    let mut m = TcCnn::new(params.patch, params.seed);
    m.train_synthetic(params.train_samples, params.train_epochs, params.seed ^ 0xC0_FFEE);
    if params.finetune_days > 0 {
        let steps = reference_training_steps(params);
        let mut data = extremes::tc::cnn::extract_labeled_patches(
            &steps,
            params.patch,
            3,
            params.seed ^ 0xF17E,
        );
        // The boosted reference season yields thousands of patches; cap the
        // set (deterministic stride subsample) so pre-training stays a
        // seconds-scale step, matching `train_samples`'s budget intent.
        let cap = (params.train_samples * 3).max(300);
        if data.len() > cap {
            let stride = data.len().div_ceil(cap);
            data = data.into_iter().step_by(stride).collect();
        }
        // Rehearsal: mix synthetic patches back in so fine-tuning cannot
        // collapse onto the (imbalanced, correlated) reference batch.
        let rehearsal = tinyml::data::generate_patches(
            &tinyml::data::PatchGenConfig { size: params.patch, ..Default::default() },
            data.len().max(32) / 2,
            params.seed ^ 0xBEEF,
        );
        data.extend(rehearsal);
        m.train_on(data, params.finetune_epochs, 0.02);
    }
    m
}

/// Generates the CNN fine-tuning dataset: a historical reference run of
/// the same model (distinct seed, boosted cyclone activity so positives
/// are plentiful) stepped day by day, with per-timestep truth centers.
fn reference_training_steps(
    params: &WorkflowParams,
) -> Vec<(extremes::tc::cnn::FieldSet, Vec<(f64, f64)>)> {
    use extremes::tc::cnn::FieldSet;
    let mut cfg = params.esm_config();
    cfg.scenario = esm::Scenario::Historical;
    cfg.start_year = 1995;
    cfg.seed ^= 0x05EE_D0FF;
    cfg.tc_per_year *= 4.0;
    cfg.days_per_year = cfg.days_per_year.max(params.finetune_days);
    let mut model = esm::CoupledModel::new(cfg.clone());
    let events = model.year_events().clone();
    let analysis =
        extremes::tc::cnn::analysis_grid(esm::atmos::tc_radius_deg(&cfg.grid), params.patch);
    let mut steps = Vec::new();
    for _ in 0..params.finetune_days.min(cfg.days_per_year) {
        let fields = model.step_day();
        for s in 0..cfg.timesteps_per_day {
            let level = |name: &str| fields.get(name).expect("model output variable").level(s);
            let centers: Vec<(f64, f64)> = events
                .tcs
                .iter()
                .filter_map(|t| t.at(fields.day, s))
                .map(|p| (p.lat, p.lon))
                .collect();
            let native = FieldSet {
                psl: level("psl"),
                wind: level("sfcWind"),
                tas: level("tas"),
                vort: level("vort"),
            };
            steps.push((native.regrid(&analysis), centers));
        }
    }
    steps
}

/// Stacks per-day fields into a `(lat, lon | day)` cube.
fn fields_to_year_cube(
    days: &[Field2],
    measure: &str,
    params: &WorkflowParams,
) -> datacube::Result<datacube::model::Cube> {
    use datacube::model::{Cube, Dimension, SharedData};
    let grid = &days[0].grid;
    let nlat = grid.nlat;
    let nlon = grid.nlon;
    let nday = days.len();
    // (lat, lon | day): per cell, the day series. Built straight into the
    // shared payload the fragments will window into — no staging vector.
    let data = SharedData::from_fn(nlat * nlon * nday, |data| {
        for (d, f) in days.iter().enumerate() {
            for (idx, &v) in f.data.iter().enumerate() {
                data[idx * nday + d] = v;
            }
        }
    });
    let dims = vec![
        Dimension::explicit("lat", grid.lats()),
        Dimension::explicit("lon", grid.lons()),
        Dimension::implicit("day", (0..nday).map(|d| d as f64).collect::<Vec<_>>()),
    ];
    Cube::from_shared(measure, dims, data, params.nfrag, params.io_servers)
}

/// Task #5/#6 body: the daily-extreme year cube `(lat, lon | day)`, folded
/// straight from the year's source one day of `tas` at a time. The fold
/// is [`ReduceOp`]'s own (same begin value, same `max`/`min` chain over
/// the sub-daily steps), so the cube is bitwise what the datacube route
/// `import_transposed → reduce → add_singleton_implicit → concat_implicit`
/// builds from the same files.
fn import_daily_extreme(
    source: &YearSource,
    op: ReduceOp,
    measure: &str,
    params: &WorkflowParams,
    client: &Client,
) -> datacube::Result<CubeHandle> {
    use datacube::model::{Cube, Dimension, SharedData};
    let pick_max = match op {
        ReduceOp::Max => true,
        ReduceOp::Min => false,
        other => return Err(datacube::Error::Expr(format!("no daily-extreme fold for {other:?}"))),
    };
    let (lats, lons, spd) = source.layout()?;
    let n = lats.len() * lons.len();
    let nday = source.days();
    let mut failed = None;
    let data = SharedData::from_fn(n * nday, |data| {
        for d in 0..nday {
            let stack = match source.stack(d, "tas") {
                Ok(stack) if stack.len() == spd * n => stack,
                Ok(stack) => {
                    failed = Some(ncformat::Error::ShapeMismatch {
                        expected: spd * n,
                        actual: stack.len(),
                    });
                    return;
                }
                Err(e) => {
                    failed = Some(e);
                    return;
                }
            };
            for idx in 0..n {
                let mut acc = if pick_max { f32::NEG_INFINITY } else { f32::INFINITY };
                for t in 0..spd {
                    let v = stack[t * n + idx];
                    acc = if pick_max { acc.max(v) } else { acc.min(v) };
                }
                data[idx * nday + d] = acc;
            }
        }
    });
    if let Some(e) = failed {
        return Err(e.into());
    }
    let dims = vec![
        Dimension::explicit("lat", lats),
        Dimension::explicit("lon", lons),
        Dimension::implicit("day", (0..nday).map(|d| d as f64).collect::<Vec<_>>()),
    ];
    Cube::from_shared(measure, dims, data, params.nfrag, params.io_servers).map(|c| client.adopt(c))
}

/// The four fields the TC analysis reads at every timestep.
const TC_VARS: [&str; 4] = ["psl", "sfcWind", "tas", "vort"];

/// Task #15 body: bundle `(psl, sfcWind, tas, vort)` for every timestep of
/// the year into one analysis-ready NCX file with a `step` axis, streamed
/// one day's stack at a time.
fn build_tc_input(source: &YearSource, out: &Path) -> ncformat::Result<()> {
    let (lats, lons, spd) = source.layout()?;
    let mut w = ncformat::Writer::create(out)?;
    w.add_dimension("step", source.days() * spd)?;
    w.add_dimension("lat", lats.len())?;
    w.add_dimension("lon", lons.len())?;
    w.add_variable_f64("lat", &["lat"], &lats, vec![])?;
    w.add_variable_f64("lon", &["lon"], &lons, vec![])?;
    for var in TC_VARS {
        w.begin_variable_f32(var, &["step", "lat", "lon"], vec![])?;
        for d in 0..source.days() {
            w.write_chunk_f32(&source.stack(d, var)?)?;
        }
        w.end_variable()?;
    }
    w.set_attribute("steps_per_day", ncformat::Value::from(spd as i64));
    w.finish()
}

/// A year's TC input file (`tcinput-{y}.ncx`, written by
/// [`build_tc_input`]), read one timestep plane at a time. Both CNN engines
/// and the deterministic tracker read through it.
struct TcInput {
    rd: Reader,
    grid: gridded::Grid,
    steps: usize,
    steps_per_day: usize,
}

impl TcInput {
    fn open(path: &Path) -> ncformat::Result<Self> {
        let rd = Reader::open(path)?;
        let grid = gridded::Grid::global(rd.dimension("lat")?.size, rd.dimension("lon")?.size);
        let steps = rd.dimension("step")?.size;
        let spd = rd.attribute("steps_per_day").and_then(|v| v.as_f64()).unwrap_or(4.0) as usize;
        for var in TC_VARS {
            let shape = rd.shape(var)?;
            if shape != [steps, grid.nlat, grid.nlon] {
                return Err(ncformat::Error::Corrupt(format!("{var} has shape {shape:?}")));
            }
        }
        Ok(TcInput { rd, grid, steps, steps_per_day: spd })
    }

    /// The four fields of global timestep `s`, each plane read in one
    /// contiguous run (the shapes were checked at open).
    fn fields(&self, s: usize) -> ncformat::Result<FieldSet> {
        let read = |var: &str| -> ncformat::Result<Field2> {
            let mut data = vec![0.0; self.grid.len()];
            self.rd.read_f32_into(var, s * data.len(), &mut data)?;
            Ok(Field2::from_vec(self.grid.clone(), data))
        };
        Ok(FieldSet {
            psl: read("psl")?,
            wind: read("sfcWind")?,
            tas: read("tas")?,
            vort: read("vort")?,
        })
    }
}

/// Which engine localizes cyclones in a replica's timesteps. Both run
/// the same shared model and give identical rows; they stay split only
/// because the service holds every queued request's fields, which costs
/// the staged run more peak memory than reading steps chunk by chunk.
enum CnnEngine {
    /// The shared batched inference service (streaming runs).
    Service(Arc<CnnService>),
    /// Pool chunks of timesteps calling the shared model (staged runs).
    Chunks(Arc<TcCnn>),
}

/// Task #16 body (one replica's share): CNN localization over timesteps
/// `rank, rank+size, ...` of the TC input; returns header-less CSV rows
/// `day,step,lat,lon,confidence`, step-ascending.
///
/// The service path submits every request up front (so the service can
/// batch them) and awaits them in step order. The chunk path splits the
/// timesteps into at most pool-width contiguous chunks that run
/// concurrently on the shared [`par`] pool and concatenate in chunk order.
fn cnn_localize_steps(
    input: &Path,
    patch: usize,
    engine: &CnnEngine,
    rank: u32,
    size: u32,
) -> Result<String, String> {
    let tc = TcInput::open(input).map_err(|e| e.to_string())?;
    let analysis = extremes::tc::cnn::analysis_grid(esm::atmos::tc_radius_deg(&tc.grid), patch);
    let my_steps: Vec<usize> = (rank as usize..tc.steps).step_by((size as usize).max(1)).collect();
    let mut csv = String::new();
    let push_rows = |csv: &mut String, s: usize, dets: &[CnnDetection]| {
        for det in dets {
            csv.push_str(&format!(
                "{},{},{:.3},{:.3},{:.3}\n",
                s / tc.steps_per_day,
                s % tc.steps_per_day,
                det.lat,
                det.lon,
                det.confidence
            ));
        }
    };
    match engine {
        CnnEngine::Service(svc) => {
            let mut tickets = Vec::with_capacity(my_steps.len());
            for &s in &my_steps {
                let set = tc.fields(s).map_err(|e| e.to_string())?;
                tickets.push((s, svc.submit(set, analysis.clone())));
            }
            for (s, ticket) in tickets {
                push_rows(&mut csv, s, &ticket.wait());
            }
        }
        CnnEngine::Chunks(model) => {
            if my_steps.is_empty() {
                return Ok(csv);
            }
            let width = par::global().threads().min(my_steps.len());
            let chunks: Vec<&[usize]> = my_steps.chunks(my_steps.len().div_ceil(width)).collect();
            let parts: Vec<Result<String, String>> = par::par_map(&chunks, |chunk| {
                let mut part = String::new();
                for &s in chunk.iter() {
                    let set = tc.fields(s).map_err(|e| e.to_string())?.regrid(&analysis);
                    push_rows(&mut part, s, &model.localize_set(&set));
                }
                Ok(part)
            });
            for p in parts {
                csv.push_str(&p?);
            }
        }
    }
    Ok(csv)
}

/// Task #17 body: deterministic detection per timestep + trajectory
/// stitching; CSV output `track,day,step,lat,lon,psl_pa,wind_ms`.
fn track_year(input: &Path) -> ncformat::Result<String> {
    let tc = TcInput::open(input)?;
    let params = DetectorParams::default();
    let mut per_step = Vec::with_capacity(tc.steps);
    for s in 0..tc.steps {
        let f = tc.fields(s)?;
        per_step.push(detect_timestep(&f.psl, &f.wind, &f.tas, &f.vort, &params));
    }
    let tracks = stitch_tracks(&per_step, &TrackParams::default());
    let spd = tc.steps_per_day;
    let mut csv = String::from("track,day,step,lat,lon,psl_pa,wind_ms\n");
    for (ti, tr) in tracks.iter().enumerate() {
        for (s, d) in &tr.points {
            csv.push_str(&format!(
                "{ti},{},{},{:.3},{:.3},{:.1},{:.1}\n",
                s / spd,
                s % spd,
                d.lat,
                d.lon,
                d.min_psl_pa,
                d.max_wind_ms
            ));
        }
    }
    Ok(csv)
}

/// Ground-truth TC centers as `(global timestep, lat, lon)` tuples.
fn truth_centers(events: &YearEvents, _days_per_year: usize) -> Vec<(usize, f64, f64)> {
    let mut out = Vec::new();
    for tc in &events.tcs {
        for p in &tc.points {
            // Global step index within the year (4 steps per day).
            out.push((p.day * 4 + p.step, p.lat, p.lon));
        }
    }
    out
}

/// Parses the CNN CSV back into `(timestep, lat, lon)` centers.
fn parse_centers_cnn(csv: &str) -> Vec<(usize, f64, f64)> {
    csv.lines()
        .skip(1)
        .filter_map(|l| {
            let mut it = l.split(',');
            let day: usize = it.next()?.parse().ok()?;
            let step: usize = it.next()?.parse().ok()?;
            let lat: f64 = it.next()?.parse().ok()?;
            let lon: f64 = it.next()?.parse().ok()?;
            Some((day * 4 + step, lat, lon))
        })
        .collect()
}

/// Parses the deterministic-track CSV back into `(timestep, lat, lon)`.
fn parse_centers_tracks(csv: &str) -> Vec<(usize, f64, f64)> {
    csv.lines()
        .skip(1)
        .filter_map(|l| {
            let mut it = l.split(',');
            let _track: usize = it.next()?.parse().ok()?;
            let day: usize = it.next()?.parse().ok()?;
            let step: usize = it.next()?.parse().ok()?;
            let lat: f64 = it.next()?.parse().ok()?;
            let lon: f64 = it.next()?.parse().ok()?;
            Some((day * 4 + step, lat, lon))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use datacube::model::Cube;

    #[test]
    fn wfdata_roundtrips() {
        for v in [
            WfData::Unit,
            WfData::Text("hello".into()),
            WfData::Path(PathBuf::from("/a/b.ncx")),
            WfData::Paths(vec![PathBuf::from("/a"), PathBuf::from("/b")]),
            WfData::Paths(vec![]),
            WfData::Num(3.5),
            WfData::CubeRef(42),
        ] {
            let enc = v.encode();
            assert_eq!(WfData::decode(&enc), Some(v));
        }
        assert_eq!(WfData::decode(&[]), None);
        assert_eq!(WfData::decode(&[99]), None);
    }

    #[test]
    fn accessor_helpers() {
        assert_eq!(WfData::CubeRef(7).cube_id(), Some(CubeId(7)));
        assert_eq!(WfData::Unit.cube_id(), None);
        assert_eq!(WfData::Text("x".into()).text(), Some("x"));
        assert!(WfData::Paths(vec![]).paths().unwrap().is_empty());
    }

    #[test]
    fn csv_parsers_roundtrip() {
        let csv = "day,step,lat,lon,confidence\n3,2,15.500,140.250,0.93\n";
        let centers = parse_centers_cnn(csv);
        assert_eq!(centers, vec![(14, 15.5, 140.25)]);

        let csv = "track,day,step,lat,lon,psl_pa,wind_ms\n0,3,2,15.5,140.25,98000.0,33.0\n";
        let centers = parse_centers_tracks(csv);
        assert_eq!(centers, vec![(14, 15.5, 140.25)]);

        assert!(parse_centers_cnn("header only\n").is_empty());
        assert!(parse_centers_tracks("h\ngarbage,line\n").is_empty());
    }

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("casestudy-tests").join(name);
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// A few simulated days written as daily files through `esm::output`,
    /// as both year sources: the files and the in-memory blocks.
    fn simulated_days(dir: &Path, days: usize) -> (WorkflowParams, YearSource, YearSource) {
        let params = WorkflowParams::test_scale(dir.to_path_buf());
        let mut model = esm::CoupledModel::new(params.esm_config().with_days_per_year(days));
        let (mut files, mut blocks) = (Vec::new(), Vec::new());
        for _ in 0..days {
            let fields = model.step_day();
            files.push(esm::output::write_daily(dir, &fields).unwrap());
            blocks.push(DayBlock::from_fields(&fields));
        }
        let year = blocks[0].year;
        let streamed = StreamedYear { year, files: files.clone(), days: blocks };
        (params, YearSource::Files(files), YearSource::Blocks(Arc::new(streamed)))
    }

    /// The datacube-operator import the workflow used before the single
    /// fold, kept as its oracle: per day import, reduce over the sub-daily
    /// steps, add the day axis; then stack the days.
    fn datacube_route(files: &[PathBuf], op: ReduceOp, params: &WorkflowParams) -> Cube {
        let cfg = datacube::ExecConfig::with_servers(params.io_servers);
        let days: Vec<Cube> = files
            .iter()
            .enumerate()
            .map(|(d, f)| {
                let rd = Reader::open(f).unwrap();
                let cube = datacube::ops::import_transposed(
                    &rd,
                    "tas",
                    "time",
                    "lat",
                    "lon",
                    params.nfrag,
                    cfg,
                )
                .unwrap();
                let daily = datacube::ops::reduce(&cube, op, "time", cfg).unwrap();
                datacube::ops::add_singleton_implicit(&daily, "day", d as f64).unwrap()
            })
            .collect();
        datacube::ops::concat_implicit(&days.iter().collect::<Vec<_>>(), "day").unwrap()
    }

    #[test]
    fn import_fold_matches_datacube_route_bitwise() {
        let dir = tmp("import-oracle");
        let (params, files, blocks) = simulated_days(&dir, 3);
        let client = Client::connect(params.io_servers);
        for (op, measure) in [(ReduceOp::Max, "tasmax"), (ReduceOp::Min, "tasmin")] {
            let mut oracle = datacube_route(files.files(), op, &params);
            oracle.measure = measure.to_string();
            let bits = |c: &Cube| c.to_dense().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            for (name, source) in [("files", &files), ("blocks", &blocks)] {
                let fold = import_daily_extreme(source, op, measure, &params, &client).unwrap();
                let cube = fold.cube().unwrap();
                assert_eq!(bits(&cube), bits(&oracle), "{measure} fold from {name}");
                assert_eq!(cube.frags.len(), oracle.frags.len(), "{measure} fragments");
                // Whole export, coordinates included; only the provenance
                // text names the operator that built each cube.
                oracle.description.clone_from(&cube.description);
                let (got, want) =
                    (dir.join(format!("{name}-{measure}.ncx")), dir.join("oracle.ncx"));
                fold.exportnc(&got).unwrap();
                datacube::ops::exportnc(&oracle, &want).unwrap();
                assert_eq!(
                    std::fs::read(&got).unwrap(),
                    std::fs::read(&want).unwrap(),
                    "{measure} export from {name}"
                );
            }
        }
        let err = import_daily_extreme(&files, ReduceOp::Avg, "x", &params, &client);
        assert!(err.is_err(), "only max/min have a daily-extreme fold");
    }

    #[test]
    fn tc_input_is_byte_identical_from_either_source() {
        let dir = tmp("tc-input");
        let (_, files, blocks) = simulated_days(&dir, 2);
        let (a, b) = (dir.join("from-files.ncx"), dir.join("from-blocks.ncx"));
        build_tc_input(&files, &a).unwrap();
        build_tc_input(&blocks, &b).unwrap();
        assert_eq!(std::fs::read(&a).unwrap(), std::fs::read(&b).unwrap());
        let tc = TcInput::open(&a).unwrap();
        assert_eq!((tc.steps, tc.steps_per_day), (8, 4));
        let YearSource::Blocks(sy) = &blocks else { unreachable!() };
        let plane = tc.grid.len();
        let day1_step2 = &sy.days[1].var("vort").unwrap()[2 * plane..3 * plane];
        assert_eq!(tc.fields(6).unwrap().vort.data, day1_step2);
        assert!(tc.fields(8).is_err(), "step past the end");

        // A bundle whose field is not a (step, lat, lon) stack is refused.
        let bad = dir.join("bad.ncx");
        let mut w = ncformat::Writer::create(&bad).unwrap();
        for (dim, n) in [("step", 2), ("lat", 2), ("lon", 2)] {
            w.add_dimension(dim, n).unwrap();
        }
        w.add_variable_f32("psl", &["lat", "lon"], &[0.0; 4], vec![]).unwrap();
        w.finish().unwrap();
        assert!(TcInput::open(&bad).is_err());
    }

    /// Every streamed year's blocks are freed once the last task that
    /// captured them finished: the runtime drops a task's closure when it
    /// completes, and no other owner keeps the year alive.
    #[test]
    fn streamed_blocks_die_with_their_last_consumer() {
        let mut params = WorkflowParams::test_scale(tmp("block-lifetime"));
        params.years = 2;
        params.days_per_year = 6;
        params.train_samples = 80;
        params.train_epochs = 2;
        params.streaming = true;
        let cs = CaseStudy::new(params).unwrap();
        let report = cs.run().unwrap();
        let handed = std::mem::take(&mut *cs.handed_over.lock());
        cs.rt.shutdown();
        assert_eq!(report.stream.as_ref().map(|s| s.years_streamed), Some(2));
        assert_eq!(handed.len(), 2, "both years travel over the channel");
        for (y, year) in handed.iter().enumerate() {
            assert!(year.upgrade().is_none(), "streamed year {y} outlived its consumers");
        }
    }

    /// The model is loaded once, in `CaseStudy::new`; an unreadable model
    /// file fails set-up with a typed error, before any task runs.
    #[test]
    fn missing_model_file_surfaces_as_error() {
        let dir = tmp("bad-model");
        let junk = dir.join("junk.tml");
        std::fs::write(&junk, b"not a model").unwrap();
        for path in [junk, dir.join("no-such-dir").join("model.tml")] {
            let mut params = WorkflowParams::test_scale(dir.clone());
            params.model_path = Some(path.clone());
            params.train_samples = 8;
            params.train_epochs = 1;
            params.finetune_days = 0;
            match CaseStudy::new(params) {
                Err(WorkflowError::Model { .. }) => {}
                Err(e) => panic!("{path:?}: expected a model error, got {e}"),
                Ok(_) => panic!("{path:?}: set-up succeeded without a usable model file"),
            }
        }
    }

    #[test]
    fn fields_to_year_cube_layout() {
        let params = WorkflowParams::test_scale(std::env::temp_dir().join("cs-layout"));
        let g = gridded::Grid::global(4, 6);
        let days: Vec<Field2> = (0..3).map(|d| Field2::constant(g.clone(), d as f32)).collect();
        let cube = fields_to_year_cube(&days, "t", &params).unwrap();
        assert_eq!(cube.rows(), 24);
        assert_eq!(cube.implicit_len(), 3);
        assert_eq!(cube.row_series(5).unwrap(), &[0.0, 1.0, 2.0]);
    }
}
