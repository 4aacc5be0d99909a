//! C7 — tropical-cyclone pipelines: CNN localization vs deterministic
//! detection (Section 5.4).
//!
//! Throughput per timestep of the two approaches the workflow integrates,
//! on real simulated fields containing cyclones. The CNN path includes
//! its full preprocessing (regrid → tile → scale), matching the paper's
//! pipeline; `cnn_inference_only_step` drops the regrid and
//! `cnn_inference_batch_step` times the batched model forward alone. The
//! deterministic path is the criteria detector. Accuracy
//! for both is reported by `tests/detection_quality.rs` and EXPERIMENTS.md.

use bench::{quiet_fields, sample_fieldset, trained_cnn};
use criterion::{criterion_group, criterion_main, Criterion};
use extremes::tc::cnn::analysis_grid;
use extremes::tc::detect::{detect_timestep, DetectorParams};

fn bench(c: &mut Criterion) {
    let active = sample_fieldset(1);
    let quiet = quiet_fields(48, 72);
    let params = DetectorParams::default();
    let cnn = trained_cnn();
    let grid = analysis_grid(esm::atmos::tc_radius_deg(&active.psl.grid), cnn.patch);

    let mut g = c.benchmark_group("c7_tc_detect");

    g.bench_function("deterministic_active_step", |b| {
        b.iter(|| {
            std::hint::black_box(detect_timestep(
                &active.psl,
                &active.wind,
                &active.tas,
                &active.vort,
                &params,
            ))
        });
    });

    g.bench_function("deterministic_quiet_step", |b| {
        b.iter(|| {
            std::hint::black_box(detect_timestep(
                &quiet.psl,
                &quiet.wind,
                &quiet.tas,
                &quiet.vort,
                &params,
            ))
        });
    });

    g.bench_function("cnn_full_pipeline_step", |b| {
        b.iter(|| {
            let regridded = active.regrid(&grid);
            std::hint::black_box(cnn.localize_set(&regridded))
        });
    });

    g.bench_function("cnn_inference_only_step", |b| {
        let regridded = active.regrid(&grid);
        b.iter(|| std::hint::black_box(cnn.localize_set(&regridded)));
    });

    // The model alone: one step's tiles, already extracted and
    // standardized, as a single batch through the inference net.
    g.bench_function("cnn_inference_batch_step", |b| {
        let r = active.regrid(&grid);
        let (_, batch) = cnn.tile_batch([&r.psl, &r.wind, &r.tas, &r.vort]);
        b.iter(|| std::hint::black_box(cnn.infer_batch(&batch)));
    });

    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
