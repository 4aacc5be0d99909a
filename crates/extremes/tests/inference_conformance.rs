//! Differential conformance of the inference-only CNN path.
//!
//! `tinyml::InferenceNet` (packed weights, weight-stationary conv, fused
//! ReLU + max-pool, no caches) must reproduce the training stack's
//! `Sequential::forward` bit for bit on the TC-localization architecture,
//! and `TcCnn::localize` (whole-step batch, standardization fused into
//! tile extraction) must reproduce the per-tile tile → standardize →
//! forward pipeline it replaced. Every comparison is on `f32::to_bits`.
//! Run it at several `PAR_THREADS`: the reference forward fans its conv
//! out on the pool, the inference path never does.

use extremes::tc::cnn::{FieldSet, TcCnn};
use gridded::{Field2, Grid, TileSpec, Tiling};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tinyml::infer::{InferenceNet, LANES};
use tinyml::net::Sequential;
use tinyml::serialize::load_model;
use tinyml::tensor::Tensor;

const PATCH: usize = 16;

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// The TC architecture with trained weights (a short synthetic run), as
/// a training-stack `Sequential` loaded from the saved model.
fn trained_pair() -> (TcCnn, Sequential) {
    let mut model = TcCnn::new(PATCH, 21);
    model.train_synthetic(64, 3, 5);
    let dir = std::env::temp_dir().join("extremes-inference-conformance");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("tc-{}.tml", std::process::id()));
    model.save(&path).unwrap();
    let mut net = TcCnn::architecture(PATCH, 0);
    load_model(&mut net, &path).unwrap();
    std::fs::remove_file(&path).ok();
    (model, net)
}

/// Standardized 4-channel patches: random fields, with constant and
/// all-zero planes (the `ZScoreScaler` std-0 case) mixed in.
fn patches(n: usize, seed: u64) -> Vec<Tensor> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|i| {
            let mut t = Tensor::uniform(&[4, PATCH, PATCH], 3.0, seed * 1000 + i as u64);
            let plane = PATCH * PATCH;
            match i % 4 {
                1 => t.data[..plane].fill(0.0),
                2 => t.data[plane..2 * plane].fill(rng.gen_range(-50.0f32..50.0)),
                3 => t.data.fill(0.0),
                _ => {}
            }
            TcCnn::standardize(&mut t);
            t
        })
        .collect()
}

#[test]
fn inference_net_matches_sequential_forward_bitwise() {
    let (_, mut trained) = trained_pair();
    let mut untrained = TcCnn::architecture(PATCH, 77);
    for net in [&mut trained, &mut untrained] {
        let inf = InferenceNet::new(net, &[4, PATCH, PATCH]);
        for (n, seed) in [(1, 1), (2, 2), (LANES - 1, 3), (LANES + 1, 4), (3 * LANES + 5, 5)] {
            let batch = patches(n, seed);
            let flat: Vec<f32> = batch.iter().flat_map(|t| t.data.iter().copied()).collect();
            let got = inf.forward_batch(&flat);
            assert_eq!(got.len(), n * 3);
            for (i, (x, y)) in batch.iter().zip(got.chunks_exact(3)).enumerate() {
                let want = net.forward(x);
                assert_eq!(bits(y), bits(&want.data), "batch {n}, sample {i}");
            }
        }
    }
}

#[test]
fn infer_patch_matches_sequential_forward_bitwise() {
    let (model, mut net) = trained_pair();
    for x in patches(12, 9) {
        let (p, cy, cx) = model.infer_patch(&x);
        assert_eq!(bits(&[p, cy, cx]), bits(&net.forward(&x).data));
    }
}

/// A native-resolution field set with random values and one all-zero
/// and one constant field region, so some tiles standardize to zeros.
fn field_set(grid: &Grid, seed: u64) -> FieldSet {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut mk = |scale: f32, offset: f32| {
        let mut f = Field2::constant(grid.clone(), 0.0);
        for v in &mut f.data {
            *v = offset + rng.gen_range(-scale..scale);
        }
        f
    };
    let mut set = FieldSet {
        psl: mk(800.0, 101_000.0),
        wind: mk(15.0, 5.0),
        tas: mk(10.0, 290.0),
        vort: mk(1e-4, 0.0),
    };
    // Flat rows: a zero strip in vort, a constant strip in tas.
    let strip = PATCH * grid.nlon;
    set.vort.data[..strip].fill(0.0);
    set.tas.data[strip..2 * strip].fill(288.0);
    set
}

#[test]
fn localize_batch_matches_per_tile_forward_bitwise() {
    let (mut model, mut net) = trained_pair();
    // A low threshold so many tiles report, confidence bits included.
    model.threshold = 0.05;
    let grid = Grid::global(4 * PATCH, 6 * PATCH);
    for seed in 0..3 {
        let set = field_set(&grid, seed);
        let got = model.localize_set(&set);
        let tiling = Tiling::plan(grid.clone(), TileSpec { patch: PATCH });
        let mut want = Vec::new();
        for r in 0..tiling.rows {
            for c in 0..tiling.cols {
                let mut x = set.tile(&tiling, r, c);
                TcCnn::standardize(&mut x);
                let y = net.forward(&x);
                if y.data[0] > model.threshold {
                    let py = ((y.data[1] * PATCH as f32) as usize).min(PATCH - 1);
                    let px = ((y.data[2] * PATCH as f32) as usize).min(PATCH - 1);
                    let (lat, lon) = tiling.to_latlon(r, c, py, px);
                    want.push(((r, c), lat.to_bits(), lon.to_bits(), y.data[0].to_bits()));
                }
            }
        }
        let got: Vec<_> = got
            .iter()
            .map(|d| (d.tile, d.lat.to_bits(), d.lon.to_bits(), d.confidence.to_bits()))
            .collect();
        assert!(!want.is_empty(), "seed {seed}: no tile reported; the check would be vacuous");
        assert_eq!(got, want, "seed {seed}");
    }
}
