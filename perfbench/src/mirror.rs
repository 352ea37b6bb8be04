//! Kernel mirrors: one training step of a model rebuilt from the public
//! kernels it calls, with a span around every kernel call.
//!
//! A mirror computes exactly what the model computes: the same kernels on
//! the same tensors in the same order. Its loss and gradients are compared
//! bit for bit with the model's, so the kernel time split it records
//! describes the code that actually ran.

use crate::trace::Tracer;
use sgnn_graph::spmm::{spmm_bytes, spmm_flops, spmm_into};
use sgnn_graph::CsrGraph;
use sgnn_linalg::reduce::{accumulate_fx, colsum_fx, grad_fx};
use sgnn_linalg::{vecops, DenseMatrix};
use sgnn_nn::layers::Dropout;
use sgnn_nn::loss::softmax_cross_entropy;
use sgnn_nn::optim::Optimizer;
use sgnn_sample::Block;

/// The bit patterns of a matrix.
pub fn bits(m: &DenseMatrix) -> Vec<u32> {
    m.data().iter().map(|v| v.to_bits()).collect()
}

/// Reads every `(param, grad)` pair a model's `step` visits, leaving the
/// parameters untouched.
#[derive(Default)]
pub struct Tap {
    /// Parameters in slot order.
    pub params: Vec<DenseMatrix>,
    /// Gradient bits in slot order.
    pub grads: Vec<Vec<u32>>,
}

impl Optimizer for Tap {
    fn update(&mut self, _slot: usize, param: &mut DenseMatrix, grad: &DenseMatrix) {
        self.params.push(param.clone());
        self.grads.push(bits(grad));
    }
}

/// What a mirrored step produced.
pub struct Mirrored {
    /// Training loss.
    pub loss: f32,
    /// Gradient bits in `step` slot order.
    pub grads: Vec<Vec<u32>>,
    /// `spmm_flops` of the SpMM calls.
    pub spmm_flops: u64,
    /// `spmm_bytes` of the SpMM calls.
    pub spmm_bytes: u64,
}

/// `Linear::forward`: `x·W` then the bias on every row.
fn linear(
    tr: &mut Tracer,
    e: u64,
    x: &DenseMatrix,
    w: &DenseMatrix,
    b: &DenseMatrix,
) -> DenseMatrix {
    let mut y = tr.time("linalg.matmul", e, || x.matmul(w).expect("layer shapes"));
    for r in 0..y.rows() {
        vecops::axpy(1.0, b.row(0), y.row_mut(r));
    }
    y
}

/// `Linear::backward`: the `(gW, gb)` bits a zeroed gradient buffer ends
/// with, and `dX = dY·Wᵀ`.
fn linear_backward(
    tr: &mut Tracer,
    e: u64,
    x: &DenseMatrix,
    dy: &DenseMatrix,
    w: &DenseMatrix,
    b: &DenseMatrix,
) -> (Vec<u32>, Vec<u32>, DenseMatrix) {
    let mut gw_fx = vec![0i128; w.rows() * w.cols()];
    let mut gb_fx = vec![0i128; b.cols()];
    tr.time("linalg.grad_fx", e, || grad_fx(x, dy, &mut gw_fx));
    tr.time("linalg.colsum_fx", e, || colsum_fx(dy, &mut gb_fx));
    let mut gw = DenseMatrix::zeros(w.rows(), w.cols());
    let mut gb = DenseMatrix::zeros(1, b.cols());
    accumulate_fx(gw.data_mut(), &gw_fx);
    accumulate_fx(gb.data_mut(), &gb_fx);
    let dx = tr.time("linalg.matmul", e, || dy.matmul(&w.transpose()).expect("layer shapes"));
    (bits(&gw), bits(&gb), dx)
}

/// `ReLU` then inverted `Dropout` forward; returns the output and the two
/// masks backward needs.
fn relu_dropout(y: &DenseMatrix, call_seed: u64, p: f32) -> (DenseMatrix, Vec<bool>, Vec<f32>) {
    let relu: Vec<bool> = y.data().iter().map(|&v| v > 0.0).collect();
    let mut h = y.map(|v| v.max(0.0));
    let drop: Vec<f32> =
        (0..h.data().len()).map(|k| Dropout::element_scale(call_seed, p, k as u64)).collect();
    for (v, &s) in h.data_mut().iter_mut().zip(&drop) {
        *v *= s;
    }
    (h, relu, drop)
}

/// A stack of `Linear` layers with `ReLU` and `Dropout` between them, as
/// `Mlp` computes it, or as `Gcn` does when `op` is set: then every layer
/// first propagates through the operator with `spmm_into`.
pub struct Stack<'a> {
    /// The GCN operator, or `None` for an MLP.
    pub op: Option<&'a CsrGraph>,
    /// `W, b` per layer, in `step` slot order, as of the forward pass.
    pub params: &'a [DenseMatrix],
    /// Dropout call seed of each hidden layer for this step.
    pub drop_seeds: &'a [u64],
    /// Drop probability.
    pub p: f32,
}

impl Stack<'_> {
    /// One forward/backward step on `x`. The loss covers `rows` of the
    /// output (all rows when `None`) with `labels`.
    pub fn step(
        &self,
        tr: &mut Tracer,
        e: u64,
        x: &DenseMatrix,
        rows: Option<&[usize]>,
        labels: &[usize],
    ) -> Mirrored {
        let layers = self.params.len() / 2;
        let (mut flops, mut bytes) = (0u64, 0u64);
        let mut propagate = |tr: &mut Tracer, h: DenseMatrix| match self.op {
            None => h,
            Some(op) => {
                let mut out = DenseMatrix::zeros(h.rows(), h.cols());
                tr.time("graph.spmm", e, || spmm_into(op, &h, &mut out));
                flops += spmm_flops(op, h.cols());
                bytes += spmm_bytes(op, h.cols());
                out
            }
        };
        let mut h = x.clone();
        let mut inputs = Vec::new();
        let mut masks = Vec::new();
        for i in 0..layers {
            let xi = propagate(tr, h);
            let y = linear(tr, e, &xi, &self.params[2 * i], &self.params[2 * i + 1]);
            inputs.push(xi);
            h = if i + 1 < layers {
                let (h, relu, drop) = relu_dropout(&y, self.drop_seeds[i], self.p);
                masks.push((relu, drop));
                h
            } else {
                y
            };
        }
        let (loss, mut g) = match rows {
            None => softmax_cross_entropy(&h, labels, None),
            Some(rows) => {
                let (loss, dl) = softmax_cross_entropy(&h.gather_rows(rows), labels, None);
                let mut g = DenseMatrix::zeros(h.rows(), h.cols());
                g.scatter_rows(rows, &dl);
                (loss, g)
            }
        };
        let mut grads = vec![Vec::new(); 2 * layers];
        for i in (0..layers).rev() {
            if i + 1 < layers {
                let (relu, drop) = &masks[i];
                for ((v, &s), &keep) in g.data_mut().iter_mut().zip(drop).zip(relu) {
                    *v *= s;
                    if !keep {
                        *v = 0.0;
                    }
                }
            }
            let (gw, gb, dx) = linear_backward(
                tr,
                e,
                &inputs[i],
                &g,
                &self.params[2 * i],
                &self.params[2 * i + 1],
            );
            grads[2 * i] = gw;
            grads[2 * i + 1] = gb;
            g = propagate(tr, dx);
        }
        Mirrored { loss, grads, spmm_flops: flops, spmm_bytes: bytes }
    }
}

/// One `Sage` batch as `Sage::forward`/`Sage::backward` compute it.
/// `params` are in `step` slot order: per layer `W_self, b_self, W_neigh,
/// b_neigh`.
pub fn sage_step(
    tr: &mut Tracer,
    e: u64,
    blocks: &[Block],
    x_in: &DenseMatrix,
    labels: &[usize],
    params: &[DenseMatrix],
) -> Mirrored {
    let layers = blocks.len();
    let mut h = x_in.clone();
    let mut cache = Vec::new();
    let mut masks = Vec::new();
    for (i, block) in blocks.iter().enumerate() {
        let p = &params[4 * i..4 * i + 4];
        let h_dst = h.gather_rows(&(0..block.num_dst()).collect::<Vec<_>>());
        let agg = tr.time("sample.aggregate", e, || block.aggregate(&h));
        let mut z = linear(tr, e, &h_dst, &p[0], &p[1]);
        z.add_scaled(1.0, &linear(tr, e, &agg, &p[2], &p[3])).expect("shapes fixed");
        cache.push((h_dst, agg));
        h = if i + 1 == layers {
            z
        } else {
            masks.push(z.data().iter().map(|&v| v > 0.0).collect::<Vec<bool>>());
            z.map(|v| v.max(0.0))
        };
    }
    let (loss, mut g) = softmax_cross_entropy(&h, labels, None);
    let mut grads = vec![Vec::new(); 4 * layers];
    for i in (0..layers).rev() {
        let p = &params[4 * i..4 * i + 4];
        if i + 1 < layers {
            for (v, &keep) in g.data_mut().iter_mut().zip(&masks[i]) {
                if !keep {
                    *v = 0.0;
                }
            }
        }
        let (h_dst, agg) = &cache[i];
        let (gws, gbs, d_hdst) = linear_backward(tr, e, h_dst, &g, &p[0], &p[1]);
        let (gwn, gbn, d_agg) = linear_backward(tr, e, agg, &g, &p[2], &p[3]);
        let mut d_h = tr.time("sample.aggregate", e, || blocks[i].aggregate_backward(&d_agg));
        for r in 0..blocks[i].num_dst() {
            vecops::axpy(1.0, d_hdst.row(r), d_h.row_mut(r));
        }
        grads[4 * i..4 * i + 4].clone_from_slice(&[gws, gbs, gwn, gbn]);
        g = d_h;
    }
    Mirrored { loss, grads, spmm_flops: 0, spmm_bytes: 0 }
}
