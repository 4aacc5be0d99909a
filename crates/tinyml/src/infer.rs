//! Inference-only forward path.
//!
//! [`InferenceNet`] is an immutable snapshot of a trained [`Sequential`]
//! for one fixed input shape. It holds a copy of the weights and nothing
//! else: no activation caches, no gradients, so `forward_batch` takes
//! `&self` and one instance can be shared by every thread of a process.
//!
//! A batch runs in groups of [`LANES`] samples with the sample index as
//! the innermost (lane) dimension: every activation is stored
//! `[C, H, W, LANES]`, so each weight is applied to eight samples with
//! one contiguous update. A group is serial; callers parallelize over
//! batches or chunks of them, never inside a sample. Every output
//! element keeps the float order of the training stack's
//! [`Layer::forward`](crate::layers::Layer):
//!
//! - a convolution output starts at its bias and adds taps in ascending
//!   `(c, ky, kx)` order, skipping taps that fall outside the input;
//! - a dense output starts at its bias and adds inputs in ascending order;
//! - ReLU is `v.max(0.0)` and max-pooling keeps the first strict maximum.
//!
//! So inference is bitwise equal to [`Sequential::forward`]
//! (`tests/inference_conformance.rs` pins this with `f32::to_bits`).
//!
//! The convolution is direct and weight-stationary: one output plane
//! starts at the bias, then each tap is one contiguous row update (all
//! in-bounds columns × all lanes) per output row it reaches. A following
//! ReLU and max-pool are fused into the plane's write-out, so the
//! full-resolution activation never leaves a single plane-sized scratch
//! buffer.

use crate::net::Sequential;

/// Samples processed together, one per lane of every activation. A
/// batch whose size is not a multiple runs its last group with idle
/// (zero) lanes.
pub const LANES: usize = 8;

/// An element-wise activation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Activation {
    ReLU,
    Sigmoid,
    Tanh,
}

impl Activation {
    /// The same expression the training layer evaluates.
    #[inline]
    pub fn apply(self, v: f32) -> f32 {
        match self {
            Activation::ReLU => v.max(0.0),
            Activation::Sigmoid => 1.0 / (1.0 + (-v).exp()),
            Activation::Tanh => v.tanh(),
        }
    }
}

/// What inference needs of one layer: its kind, geometry and weights.
#[derive(Debug, Clone)]
pub enum Frozen {
    /// Weights `[out_ch, in_ch, kernel, kernel]`, bias `[out_ch]`.
    Conv2d {
        w: Vec<f32>,
        b: Vec<f32>,
        in_ch: usize,
        out_ch: usize,
        kernel: usize,
        pad: usize,
    },
    /// Weights `[output, input]`, bias `[output]`.
    Dense {
        w: Vec<f32>,
        b: Vec<f32>,
        input: usize,
        output: usize,
    },
    MaxPool2d {
        k: usize,
    },
    Flatten,
    Act(Activation),
}

/// One compiled stage of the inference pipeline.
enum Stage {
    Conv {
        w: Vec<f32>,
        b: Vec<f32>,
        geometry: ConvGeometry,
        relu: bool,
        /// Max-pool window; 1 means no pooling.
        pool: usize,
    },
    Dense {
        /// Weights `[output, input]`.
        w: Vec<f32>,
        b: Vec<f32>,
        input: usize,
        output: usize,
        act: Option<Activation>,
    },
    Pool {
        ch: usize,
        h: usize,
        wd: usize,
        k: usize,
    },
    Act(Activation),
}

/// Convolution geometry: `in_ch` input planes of `h × w`, `out_ch`
/// output planes of `oh × ow` (before pooling), square `k × k` kernel.
#[derive(Clone, Copy)]
struct ConvGeometry {
    in_ch: usize,
    out_ch: usize,
    k: usize,
    pad: usize,
    h: usize,
    w: usize,
    oh: usize,
    ow: usize,
}

/// An immutable, `Sync` inference snapshot of a [`Sequential`].
pub struct InferenceNet {
    stages: Vec<Stage>,
    in_len: usize,
    out_len: usize,
    /// Largest activation any stage reads or writes (scratch sizing).
    max_len: usize,
    /// Largest convolution plane (scratch sizing).
    max_plane: usize,
}

impl InferenceNet {
    /// Compiles `net` for inputs of `input_shape` (`[C, H, W]` when the
    /// net starts with a convolution, `[N]` when it starts dense).
    ///
    /// Panics when a layer's geometry does not fit the shape flowing
    /// into it, as the training layers do on a mismatched forward.
    pub fn new(net: &Sequential, input_shape: &[usize]) -> Self {
        let mut layers = net.freeze().into_iter().peekable();
        let mut shape = input_shape.to_vec();
        let in_len: usize = shape.iter().product();
        assert!(in_len > 0, "input shape must be non-empty");
        let mut max_len = in_len;
        let mut max_plane = 0;
        let mut stages = Vec::new();
        while let Some(layer) = layers.next() {
            match layer {
                Frozen::Conv2d { w, b, in_ch, out_ch, kernel: k, pad } => {
                    assert_eq!(shape.len(), 3, "conv2d expects [C,H,W]");
                    assert_eq!(shape[0], in_ch, "conv2d channel mismatch");
                    let (h, wd) = (shape[1], shape[2]);
                    let (oh, ow) = (h + 2 * pad + 1 - k, wd + 2 * pad + 1 - k);
                    let relu =
                        layers.next_if(|l| matches!(l, Frozen::Act(Activation::ReLU))).is_some();
                    let pool = match layers.next_if(|l| matches!(l, Frozen::MaxPool2d { .. })) {
                        Some(Frozen::MaxPool2d { k }) => k,
                        _ => 1,
                    };
                    assert!(oh % pool == 0 && ow % pool == 0, "pool window must divide plane");
                    max_plane = max_plane.max(oh * ow);
                    shape = vec![out_ch, oh / pool, ow / pool];
                    let geometry = ConvGeometry { in_ch, out_ch, k, pad, h, w: wd, oh, ow };
                    stages.push(Stage::Conv { w, b, geometry, relu, pool });
                }
                Frozen::Dense { w, b, input, output } => {
                    assert_eq!(
                        shape.iter().product::<usize>(),
                        input,
                        "dense input length mismatch"
                    );
                    let act = match layers.next_if(|l| matches!(l, Frozen::Act(_))) {
                        Some(Frozen::Act(a)) => Some(a),
                        _ => None,
                    };
                    shape = vec![output];
                    stages.push(Stage::Dense { w, b, input, output, act });
                }
                Frozen::MaxPool2d { k } => {
                    assert_eq!(shape.len(), 3, "maxpool expects [C,H,W]");
                    let (ch, h, wd) = (shape[0], shape[1], shape[2]);
                    assert!(h % k == 0 && wd % k == 0, "pool window must divide plane");
                    shape = vec![ch, h / k, wd / k];
                    stages.push(Stage::Pool { ch, h, wd, k });
                }
                Frozen::Flatten => shape = vec![shape.iter().product()],
                Frozen::Act(a) => stages.push(Stage::Act(a)),
            }
            max_len = max_len.max(shape.iter().product());
        }
        InferenceNet { stages, in_len, out_len: shape.iter().product(), max_len, max_plane }
    }

    /// Runs every sample of `x` (a whole number of input-shape samples,
    /// back to back) and returns their outputs back to back.
    pub fn forward_batch(&self, x: &[f32]) -> Vec<f32> {
        let (in_len, out_len) = (self.in_len, self.out_len);
        assert_eq!(x.len() % in_len, 0, "batch is not a whole number of samples");
        let mut y = vec![0.0; x.len() / in_len * out_len];
        let mut cur = vec![0.0; self.max_len * LANES];
        let mut next = vec![0.0; self.max_len * LANES];
        let mut plane = vec![0.0; self.max_plane * LANES];
        for (group, out) in x.chunks(in_len * LANES).zip(y.chunks_mut(out_len * LANES)) {
            // Interleave the group's samples into lanes; idle lanes are zero.
            cur[..in_len * LANES].fill(0.0);
            for (l, sample) in group.chunks_exact(in_len).enumerate() {
                for (i, &v) in sample.iter().enumerate() {
                    cur[i * LANES + l] = v;
                }
            }
            let mut len = in_len;
            for stage in &self.stages {
                len = stage.run(&cur[..len * LANES], &mut next, &mut plane);
                std::mem::swap(&mut cur, &mut next);
            }
            for (l, sample) in out.chunks_exact_mut(out_len).enumerate() {
                for (i, v) in sample.iter_mut().enumerate() {
                    *v = cur[i * LANES + l];
                }
            }
        }
        y
    }
}

impl Stage {
    /// Runs the stage on one lane group `x` (`[.., LANES]`), writing
    /// `out[..n * LANES]`; returns the per-sample output length `n`.
    fn run(&self, x: &[f32], out: &mut [f32], plane: &mut [f32]) -> usize {
        const L: usize = LANES;
        match self {
            Stage::Conv { w, b, geometry, relu, pool } => {
                let ConvGeometry { in_ch, out_ch, k, pad, h, w: wd, oh, ow } = *geometry;
                let pool = *pool;
                let plane = &mut plane[..oh * ow * L];
                let out_plane = (oh / pool) * (ow / pool) * L;
                let taps = in_ch * k * k;
                for o in 0..out_ch {
                    plane.fill(b[o]);
                    for c in 0..in_ch {
                        let xc = &x[c * h * wd * L..(c + 1) * h * wd * L];
                        for ky in 0..k {
                            // Output rows whose input row `yy + ky - pad` exists.
                            let y_lo = pad.saturating_sub(ky);
                            let y_hi = (h + pad).saturating_sub(ky).min(oh);
                            for kx in 0..k {
                                // Output columns whose input column exists.
                                let x_lo = pad.saturating_sub(kx);
                                let x_hi = (wd + pad).saturating_sub(kx).min(ow);
                                if x_lo >= x_hi {
                                    continue;
                                }
                                let wv = w[o * taps + (c * k + ky) * k + kx];
                                let run = (x_hi - x_lo) * L;
                                for yy in y_lo..y_hi {
                                    let src = ((yy + ky - pad) * wd + x_lo + kx - pad) * L;
                                    let dst = (yy * ow + x_lo) * L;
                                    let dst = &mut plane[dst..dst + run];
                                    for (d, s) in dst.iter_mut().zip(&xc[src..src + run]) {
                                        *d += wv * s;
                                    }
                                }
                            }
                        }
                    }
                    let dst = &mut out[o * out_plane..(o + 1) * out_plane];
                    write_out(plane, ow, *relu, pool, dst);
                }
                out_ch * out_plane / L
            }
            Stage::Dense { w, b, input, output, act } => {
                for (o, (row, ys)) in
                    w.chunks_exact(*input).zip(out.chunks_exact_mut(L)).enumerate()
                {
                    let mut acc = [b[o]; L];
                    for (&wv, xs) in row.iter().zip(x.chunks_exact(L)) {
                        for l in 0..L {
                            acc[l] += wv * xs[l];
                        }
                    }
                    for (y, a) in ys.iter_mut().zip(acc) {
                        *y = act.map_or(a, |f| f.apply(a));
                    }
                }
                *output
            }
            Stage::Pool { ch, h, wd, k } => {
                let (plane_in, plane_out) = (h * wd * L, (h / k) * (wd / k) * L);
                for c in 0..*ch {
                    let src = &x[c * plane_in..(c + 1) * plane_in];
                    write_out(src, *wd, false, *k, &mut out[c * plane_out..(c + 1) * plane_out]);
                }
                ch * plane_out / L
            }
            Stage::Act(a) => {
                for (y, &v) in out.iter_mut().zip(x) {
                    *y = a.apply(v);
                }
                x.len() / L
            }
        }
    }
}

/// Writes one `[H, W, LANES]` plane (width `w`) to `dst`, applying ReLU
/// when `relu` and max-pooling over `pool × pool` windows (1 = no
/// pooling). The pool keeps each lane's first strict maximum in
/// row-major window order, starting from `-inf`, as
/// [`crate::layers::MaxPool2d`] does.
fn write_out(plane: &[f32], w: usize, relu: bool, pool: usize, dst: &mut [f32]) {
    const L: usize = LANES;
    let act = |v: f32| if relu { Activation::ReLU.apply(v) } else { v };
    if pool == 1 {
        for (d, &v) in dst.iter_mut().zip(plane) {
            *d = act(v);
        }
        return;
    }
    let ow = w / pool;
    for (i, d) in dst.chunks_exact_mut(L).enumerate() {
        let (oy, ox) = (i / ow, i % ow);
        let mut best = [f32::NEG_INFINITY; L];
        for dy in 0..pool {
            let row = ((oy * pool + dy) * w + ox * pool) * L;
            for px in plane[row..row + pool * L].chunks_exact(L) {
                for l in 0..L {
                    let v = act(px[l]);
                    if v > best[l] {
                        best[l] = v;
                    }
                }
            }
        }
        d.copy_from_slice(&best);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Conv2d, Dense, Flatten, MaxPool2d, ReLU, Sigmoid, Tanh};
    use crate::tensor::Tensor;

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn conv_relu_pool_dense_matches_layer_stack() {
        let mut net = Sequential::new()
            .add(Conv2d::new(2, 3, 3, 1, 5))
            .add(ReLU::new())
            .add(MaxPool2d::new(2))
            .add(Flatten::new())
            .add(Dense::new(3 * 3 * 4, 11, 6))
            .add(Tanh::new());
        let inf = InferenceNet::new(&net, &[2, 6, 8]);
        let x = Tensor::uniform(&[2, 6, 8], 2.0, 9);
        assert_eq!(bits(&inf.forward_batch(&x.data)), bits(&net.forward(&x).data));
    }

    #[test]
    fn unfused_stages_and_valid_padding_match() {
        // Pool after a bare conv, an activation that follows nothing
        // fusable, and a conv whose kernel is wider than its padding.
        let mut net = Sequential::new()
            .add(Conv2d::new(1, 2, 5, 1, 3))
            .add(MaxPool2d::new(2))
            .add(ReLU::new())
            .add(Sigmoid::new())
            .add(Flatten::new())
            .add(Dense::new(2 * 2 * 3, 2, 4));
        let inf = InferenceNet::new(&net, &[1, 6, 8]);
        let x = Tensor::uniform(&[1, 6, 8], 1.0, 2);
        assert_eq!(bits(&inf.forward_batch(&x.data)), bits(&net.forward(&x).data));
    }

    #[test]
    fn batch_is_samples_back_to_back() {
        let mut net = Sequential::new().add(Dense::new(3, 2, 1)).add(Sigmoid::new());
        let inf = InferenceNet::new(&net, &[3]);
        let x = Tensor::uniform(&[4, 3], 1.0, 8);
        let y = inf.forward_batch(&x.data);
        for (s, got) in x.data.chunks(3).zip(y.chunks(2)) {
            let want = net.forward(&Tensor::from_vec(&[3], s.to_vec()));
            assert_eq!(bits(got), bits(&want.data));
        }
        assert!(inf.forward_batch(&[]).is_empty());
    }

    #[test]
    fn inference_net_is_shareable() {
        fn assert_sync<T: Send + Sync>() {}
        assert_sync::<InferenceNet>();
    }
}
