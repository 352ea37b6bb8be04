//! Training loops — one per scalability family, all run by one epoch
//! driver and all producing a common [`TrainReport`] with accuracy, wall
//! time, and peak-memory accounting.
//!
//! | trainer | family | survey anchor |
//! |---|---|---|
//! | [`train_full_gcn`] | full-graph message passing | §3.1.1 baseline |
//! | [`train_decoupled`] | decoupled precompute + MLP | §3.1.2, APPNP/SGC/SCARA/LD2 |
//! | [`train_sampled`] | neighbor-sampled mini-batch | §3.1.2/§3.3.2, GraphSAGE/LADIES/LABOR |
//! | [`train_saint`] | subgraph sampling | §3.3.2, GraphSAINT |
//! | [`train_cluster_gcn`] | partition batches | §3.1.2, Cluster-GCN |
//! | [`train_coarse`] | coarse-graph training | §3.3.4 |
//! | [`crate::trainer_ext::train_history`] | historical embeddings | §3.3.2, HDSGNN/GNNAutoScale |
//! | [`crate::trainer_ext::train_seignn`] | coarse-node-augmented batches | §3.2.3, SEIGNN |
//! | [`crate::shard::train_sharded_gcn`] | shard-parallel full graph | §3.1.2, distributed full-batch |
//!
//! Each trainer supplies only its setup, a per-epoch step closure and an
//! evaluation closure; `EpochDriver` owns everything between them —
//! resume, kill polls, the `trainer.epoch` span, early stopping,
//! checkpoints, the final evaluation and the report (DESIGN.md §8).

use crate::ckpt::{ckpt_path, save_epoch, try_restore, CkptSidecar, ResumeState, SlotParams};
use crate::error::{TrainError, TrainResult};
use crate::memory::{matrix_bytes, Ledger};
use crate::models::decoupled::{DecoupledModel, PrecomputeMethod};
use crate::models::gcn::{gcn_operator, Gcn, GcnConfig};
use crate::models::sage::Sage;
use crate::pipeline::BatchPipeline;
use crate::shard_comm::CommRegime;
use sgnn_data::Dataset;
use sgnn_fault::FaultPlan;
use sgnn_graph::{CsrGraph, NodeId};
use sgnn_linalg::DenseMatrix;
use sgnn_nn::loss::{accuracy, softmax_cross_entropy};
use sgnn_nn::optim::Adam;
use sgnn_obs::{Phase, PhaseBreakdown};
use std::cell::OnceCell;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// Shared hyperparameters.
#[derive(Debug, Clone)]
pub struct TrainConfig {
    /// Training epochs.
    pub epochs: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// L2 weight decay.
    pub weight_decay: f32,
    /// Mini-batch size (where applicable).
    pub batch_size: usize,
    /// Hidden widths.
    pub hidden: Vec<usize>,
    /// Dropout.
    pub dropout: f32,
    /// Seed for weights/sampling.
    pub seed: u64,
    /// Early stopping: stop after this many epochs without validation
    /// improvement (`None` disables). Applies to all nine trainers; each
    /// scores validation with its own final-evaluation path. Halts
    /// training in place — no best-weight rollback — so values below ~10
    /// can stop inside the optimizer's warmup.
    pub patience: Option<usize>,
    /// Overlap batch sampling with compute via the
    /// [`crate::pipeline::BatchPipeline`] (mini-batch trainers only).
    /// Results are bitwise identical either way; with a single configured
    /// thread the trainers fall back to the inline path regardless.
    pub prefetch: bool,
    /// Directory for rolling post-epoch checkpoints (one
    /// `<trainer>.ckpt` file per trainer, atomically replaced each
    /// epoch). Applies to all nine trainers. `None` disables
    /// checkpointing.
    pub ckpt_dir: Option<PathBuf>,
    /// Checkpoint file to restore before training, for any of the nine
    /// trainers. A missing file is a cold start (the
    /// killed-before-first-checkpoint case); a corrupt or mismatched file
    /// is an error. Resumed runs reproduce the uninterrupted run
    /// bit-for-bit (DESIGN.md §8).
    pub resume_from: Option<PathBuf>,
    /// Deterministic fault injector polled at epoch/superstep/batch
    /// boundaries (tests and chaos drills). `None` means no polls — and
    /// no checksum-verification overhead on the halo path.
    pub fault_plan: Option<Arc<FaultPlan>>,
    /// Explicit memory budget in bytes; combined (min) with
    /// `SGNN_MEM_BUDGET` and any fault-plan budget. Exceeding it makes
    /// trainers return [`TrainError::BudgetExceeded`].
    pub mem_budget: Option<usize>,
    /// Halo-exchange regime for [`crate::shard::train_sharded_gcn`]:
    /// `Exact` (default, bitwise-identical to the reference) or
    /// `Compressed` (quantized / stale-tolerant / overlapped, DESIGN.md
    /// §11). Ignored by the single-process trainers.
    pub comm_regime: CommRegime,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            epochs: 60,
            lr: 0.01,
            weight_decay: 5e-5,
            batch_size: 256,
            hidden: vec![32],
            dropout: 0.2,
            seed: 0,
            patience: None,
            prefetch: true,
            ckpt_dir: None,
            resume_from: None,
            fault_plan: None,
            mem_budget: None,
            comm_regime: CommRegime::Exact,
        }
    }
}

/// Validation-accuracy early stopper.
struct EarlyStopper {
    patience: Option<usize>,
    best: f64,
    bad: usize,
}

impl EarlyStopper {
    fn new(patience: Option<usize>) -> Self {
        EarlyStopper { patience, best: f64::NEG_INFINITY, bad: 0 }
    }

    /// Records a validation score; returns `true` when training should
    /// stop.
    fn should_stop(&mut self, val: f64) -> bool {
        let Some(p) = self.patience else { return false };
        if val > self.best + 1e-9 {
            self.best = val;
            self.bad = 0;
            false
        } else {
            self.bad += 1;
            self.bad >= p
        }
    }
}

/// Outcome of one training run.
#[derive(Debug, Clone)]
pub struct TrainReport {
    /// Method label for tables.
    pub name: String,
    /// Final test accuracy.
    pub test_acc: f64,
    /// Final validation accuracy.
    pub val_acc: f64,
    /// Final training loss.
    pub final_loss: f32,
    /// Graph-side precompute seconds (0 for coupled models).
    pub precompute_secs: f64,
    /// Training-loop seconds.
    pub train_secs: f64,
    /// Peak resident bytes charged to the memory ledger.
    pub peak_mem_bytes: usize,
    /// Epochs executed.
    pub epochs_run: usize,
    /// Wall-clock seconds per phase, summed over the whole run.
    pub phases: PhaseBreakdown,
}

serde::impl_serialize!(TrainReport {
    name,
    test_acc,
    val_acc,
    final_loss,
    precompute_secs,
    train_secs,
    peak_mem_bytes,
    epochs_run,
    phases
});

/// What a trainer's step closure gets besides the model and optimizer:
/// the epoch index, and the phase clock and memory ledger it charges.
pub(crate) struct Epoch<'r> {
    /// Zero-based epoch index.
    pub(crate) index: usize,
    pub(crate) phases: &'r mut PhaseBreakdown,
    pub(crate) ledger: &'r mut Ledger,
}

/// Trainer-side state passed to the step and eval closures next to the
/// model; the part of it that evolves across epochs rides in the
/// checkpoint as a [`CkptSidecar`]. `()` for trainers with none.
pub(crate) trait Sidecar {
    fn sidecar(&mut self) -> Option<&mut dyn CkptSidecar>;
}

impl Sidecar for () {
    fn sidecar(&mut self) -> Option<&mut dyn CkptSidecar> {
        None
    }
}

/// The one epoch loop behind every trainer. Built at trainer entry (so
/// setup can charge [`ledger`](EpochDriver::ledger)), then
/// [`run`](EpochDriver::run) with the trainer's model and closures.
pub(crate) struct EpochDriver<'a> {
    ds: &'a Dataset,
    cfg: &'a TrainConfig,
    /// Ledger with the effective budget: the tightest of the config
    /// budget, the fault plan's simulated budget, and `SGNN_MEM_BUDGET`.
    pub(crate) ledger: Ledger,
}

impl<'a> EpochDriver<'a> {
    /// Rejects a dataset with zero classes — every per-row argmax would
    /// be undefined — so the inner loops can assume `num_classes ≥ 1`.
    pub(crate) fn new(ds: &'a Dataset, cfg: &'a TrainConfig) -> TrainResult<Self> {
        if ds.num_classes == 0 {
            return Err(TrainError::EmptyLogits);
        }
        let plan_budget = cfg.fault_plan.as_ref().and_then(|p| p.budget()).map(|b| b as usize);
        let explicit = match (cfg.mem_budget, plan_budget) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        Ok(EpochDriver { ds, cfg, ledger: Ledger::budgeted(explicit) })
    }

    /// Trains `model` for the configured epochs and reports.
    ///
    /// `step` runs one epoch and returns the loss of its last trained
    /// batch (`None` when no batch had a training node). `eval` returns
    /// the accuracy on each given split; the driver calls it for the
    /// validation split after every epoch when `patience` is set, and
    /// once for validation and test after training. `name` labels the
    /// report and the checkpoint file. `train_secs` spans resume and the
    /// epochs, not setup or the final evaluation.
    pub(crate) fn run<M, X, S, E>(
        mut self,
        name: String,
        precompute_secs: f64,
        model: &mut M,
        extra: &mut X,
        mut step: S,
        mut eval: E,
    ) -> TrainResult<TrainReport>
    where
        M: SlotParams,
        X: Sidecar,
        S: FnMut(&mut M, &mut Adam, &mut X, &mut Epoch<'_>) -> TrainResult<Option<f32>>,
        E: FnMut(&M, &mut X, &[&[NodeId]]) -> TrainResult<Vec<f64>>,
    {
        let (cfg, splits) = (self.cfg, &self.ds.splits);
        let mut opt = Adam::new(cfg.lr).with_weight_decay(cfg.weight_decay);
        let mut stopper = EarlyStopper::new(cfg.patience);
        let mut phases = PhaseBreakdown::new();
        let t1 = Instant::now();
        let (start, mut epochs_run, mut final_loss) =
            apply_resume(cfg, &name, &mut opt, model, extra.sidecar(), &mut stopper)?;
        for epoch in start..cfg.epochs {
            poll_epoch_kill(cfg, epoch)?;
            let _ep = sgnn_obs::span!("trainer.epoch");
            epochs_run += 1;
            let mut ctx = Epoch { index: epoch, phases: &mut phases, ledger: &mut self.ledger };
            if let Some(loss) = step(model, &mut opt, extra, &mut ctx)? {
                final_loss = loss;
            }
            let mut stop = false;
            if cfg.patience.is_some() {
                let val = phases.time(Phase::Eval, || eval(model, extra, &[&splits.val]))?[0];
                stop = stopper.should_stop(val);
            }
            let state = ResumeState {
                epoch_done: epoch + 1,
                final_loss,
                stopper_best: stopper.best,
                stopper_bad: stopper.bad,
                stopped: stop,
            };
            maybe_checkpoint(cfg, &name, &state, &opt, model, extra.sidecar().map(|s| &*s))?;
            sgnn_obs::mark_epoch(epoch as u64);
            if stop {
                break;
            }
        }
        let train_secs = t1.elapsed().as_secs_f64();
        let accs = eval(model, extra, &[&splits.val, &splits.test])?;
        sgnn_obs::export_now();
        Ok(TrainReport {
            name,
            test_acc: accs[1],
            val_acc: accs[0],
            final_loss,
            precompute_secs,
            train_secs,
            peak_mem_bytes: self.ledger.peak(),
            epochs_run,
            phases,
        })
    }
}

/// Polls the fault plan's epoch-kill site.
fn poll_epoch_kill(cfg: &TrainConfig, epoch: usize) -> TrainResult<()> {
    if let Some(plan) = &cfg.fault_plan {
        if plan.poll_kill_epoch(epoch) {
            return Err(TrainError::InjectedCrash { site: "epoch", at: epoch as u64 });
        }
    }
    Ok(())
}

/// Loads `cfg.resume_from` (if set) into the optimizer, model, sidecar
/// and stopper. Returns `(start epoch, epochs run, last loss)`.
fn apply_resume(
    cfg: &TrainConfig,
    trainer: &str,
    opt: &mut Adam,
    model: &mut dyn SlotParams,
    sidecar: Option<&mut dyn CkptSidecar>,
    stopper: &mut EarlyStopper,
) -> TrainResult<(usize, usize, f32)> {
    let Some(path) = &cfg.resume_from else { return Ok((0, 0, 0.0)) };
    let Some(st) = try_restore(path, trainer, opt, model, sidecar)? else {
        return Ok((0, 0, 0.0));
    };
    // Bit-exact, so a resumed run makes the same stop decisions.
    (stopper.best, stopper.bad) = (st.stopper_best, st.stopper_bad);
    // A run that already stopped early replays its break: no more epochs.
    let start = if st.stopped { usize::MAX } else { st.epoch_done };
    Ok((start, st.epoch_done, st.final_loss))
}

/// Writes the rolling post-epoch checkpoint when `cfg.ckpt_dir` is set.
fn maybe_checkpoint(
    cfg: &TrainConfig,
    trainer: &str,
    state: &ResumeState,
    opt: &Adam,
    model: &mut dyn SlotParams,
    sidecar: Option<&dyn CkptSidecar>,
) -> TrainResult<()> {
    let Some(dir) = &cfg.ckpt_dir else { return Ok(()) };
    let bytes = save_epoch(&ckpt_path(dir, trainer), trainer, state, opt, model, sidecar)?;
    sgnn_fault::record_ckpt_bytes(bytes);
    Ok(())
}

/// Runs one epoch's `n` batches through a [`BatchPipeline`]. `prepare`
/// builds batch `b` — on the producer thread when pipelined — after the
/// fault plan's producer-panic site for global batch `epoch·n + b` is
/// polled (one restart is budgeted whenever a plan is armed); `consume`
/// trains on it. The first `consume` error skips the remaining batches
/// and is returned. Returns the seconds to charge to `Phase::Sample`.
fn run_batches<T, P, C>(
    cfg: &TrainConfig,
    epoch: usize,
    n: usize,
    prepare: P,
    mut consume: C,
) -> TrainResult<f64>
where
    T: Send,
    P: Fn(usize) -> T + Sync,
    C: FnMut(usize, T) -> TrainResult<()>,
{
    let restarts = if cfg.fault_plan.is_some() { 1 } else { 0 };
    let mut failed = None;
    let secs = BatchPipeline::with_restarts(cfg.prefetch, restarts).run(
        n,
        |b| {
            if let Some(plan) = &cfg.fault_plan {
                if plan.poll_producer_panic(epoch * n + b) {
                    panic!("injected: pipeline producer fault at batch {b}");
                }
            }
            prepare(b)
        },
        |b, batch| {
            if failed.is_none() {
                failed = consume(b, batch).err();
            }
        },
    );
    failed.map_or(Ok(secs), Err)
}

/// Rows `nodes` of `m`, a matrix with one row per node.
pub(crate) fn gather_nodes(m: &DenseMatrix, nodes: &[NodeId]) -> DenseMatrix {
    m.gather_rows(&nodes.iter().map(|&u| u as usize).collect::<Vec<_>>())
}

/// `in_train[u]` is true for training-split nodes.
pub(crate) fn train_mask(ds: &Dataset) -> Vec<bool> {
    let mut in_train = vec![false; ds.num_nodes()];
    for &u in &ds.splits.train {
        in_train[u as usize] = true;
    }
    in_train
}

/// Local rows and labels of the training nodes in a batch whose row `l`
/// is global node `nodes[l]`; ids past the mask (augmented coarse
/// nodes) are never training nodes.
pub(crate) fn local_train_rows(
    nodes: &[NodeId],
    in_train: &[bool],
    ds: &Dataset,
) -> (Vec<usize>, Vec<usize>) {
    nodes
        .iter()
        .enumerate()
        .filter(|&(_, &g)| in_train.get(g as usize) == Some(&true))
        .map(|(local, &g)| (local, ds.labels[g as usize]))
        .unzip()
}

/// The GCN every GCN-family trainer starts from.
pub(crate) fn new_gcn(ds: &Dataset, cfg: &TrainConfig) -> Gcn {
    let gcn_cfg = GcnConfig { hidden: cfg.hidden.clone(), dropout: cfg.dropout, seed: cfg.seed };
    Gcn::new(ds.feature_dim(), ds.num_classes, &gcn_cfg)
}

/// One GCN training step on operator `op` and features `x`, with the
/// loss over rows `rows` only: forward, gather, loss, scatter the
/// gradient back, backward, optimizer step. Returns the loss.
pub(crate) fn gcn_step(
    gcn: &mut Gcn,
    opt: &mut Adam,
    phases: &mut PhaseBreakdown,
    op: &CsrGraph,
    x: &DenseMatrix,
    rows: &[usize],
    labels: &[usize],
    weights: Option<&[f32]>,
) -> f32 {
    let (loss, dl_batch) = phases.time(Phase::Forward, || {
        let logits = gcn.forward(op, x);
        softmax_cross_entropy(&logits.gather_rows(rows), labels, weights)
    });
    phases.time(Phase::Backward, || {
        let mut dl = DenseMatrix::zeros(x.rows(), dl_batch.cols());
        dl.scatter_rows(rows, &dl_batch);
        gcn.zero_grad();
        gcn.backward(op, &dl);
    });
    phases.time(Phase::Step, || gcn.step(opt));
    loss
}

/// Accuracy on each split of whole-graph `logits` (one row per node).
pub(crate) fn split_accs(logits: &DenseMatrix, ds: &Dataset, splits: &[&[NodeId]]) -> Vec<f64> {
    splits.iter().map(|s| accuracy(&gather_nodes(logits, s), &ds.labels_of(s))).collect()
}

/// Accuracy over `nodes`, scored 1024 at a time on the logits
/// `logits_of` returns for each chunk.
pub(crate) fn chunked_accuracy(
    ds: &Dataset,
    nodes: &[NodeId],
    mut logits_of: impl FnMut(&[NodeId]) -> DenseMatrix,
) -> f64 {
    let mut correct = 0usize;
    for chunk in nodes.chunks(1024) {
        let labels = ds.labels_of(chunk);
        let pred = logits_of(chunk).argmax_rows();
        correct += pred.iter().zip(&labels).filter(|&(p, t)| p == t).count();
    }
    correct as f64 / nodes.len().max(1) as f64
}

/// Trains a full-batch GCN (experiment baseline).
pub fn train_full_gcn(ds: &Dataset, cfg: &TrainConfig) -> TrainResult<(Gcn, TrainReport)> {
    let mut run = EpochDriver::new(ds, cfg)?;
    let t0 = Instant::now();
    let op = gcn_operator(&ds.graph);
    let precompute_secs = t0.elapsed().as_secs_f64();
    run.ledger.try_alloc(op.nbytes())?;
    run.ledger.try_alloc(ds.features.nbytes())?;
    let mut gcn = new_gcn(ds, cfg);
    // Full-batch training keeps every layer activation resident.
    run.ledger.try_transient(gcn.step_bytes(ds.num_nodes(), ds.feature_dim()))?;
    let train_rows: Vec<usize> = ds.splits.train.iter().map(|&u| u as usize).collect();
    let train_labels = ds.labels_of(&ds.splits.train);
    let report = run.run(
        "gcn-full".into(),
        precompute_secs,
        &mut gcn,
        &mut (),
        |gcn, opt, _, ep| {
            let x = &ds.features;
            Ok(Some(gcn_step(gcn, opt, ep.phases, &op, x, &train_rows, &train_labels, None)))
        },
        |gcn, _, splits| Ok(split_accs(&gcn.forward_inference(&op, &ds.features), ds, splits)),
    )?;
    Ok((gcn, report))
}

/// Trains a decoupled model (precompute + mini-batch MLP).
pub fn train_decoupled(
    ds: &Dataset,
    method: &PrecomputeMethod,
    cfg: &TrainConfig,
) -> TrainResult<(DecoupledModel, TrainReport)> {
    let mut run = EpochDriver::new(ds, cfg)?;
    let t0 = Instant::now();
    let DecoupledModel { embedding, mut mlp } =
        DecoupledModel::new(ds, method, &cfg.hidden, cfg.dropout, cfg.seed);
    let precompute_secs = t0.elapsed().as_secs_f64();
    // The embedding is the only graph-scale resident object; training
    // touches batch-sized slices.
    run.ledger.try_alloc(embedding.nbytes())?;
    run.ledger.try_transient(
        matrix_bytes(cfg.batch_size, embedding.cols())
            + matrix_bytes(cfg.batch_size, ds.num_classes)
            + mlp.nbytes(),
    )?;
    let name = match method {
        PrecomputeMethod::None => "mlp-raw".to_string(),
        PrecomputeMethod::Sgc { k } => format!("sgc-k{k}"),
        PrecomputeMethod::Appnp { .. } => "appnp".to_string(),
        PrecomputeMethod::Scara { .. } => "scara-push".to_string(),
        PrecomputeMethod::Heat { .. } => "heat".to_string(),
        PrecomputeMethod::Ld2(_) => "ld2".to_string(),
    };
    let report = run.run(
        name,
        precompute_secs,
        &mut mlp,
        &mut (),
        |mlp, opt, _, ep| {
            let mut last = None;
            for chunk in ds.splits.train.chunks(cfg.batch_size) {
                let x = ep.phases.time(Phase::Sample, || gather_nodes(&embedding, chunk));
                let (loss, dl) = ep.phases.time(Phase::Forward, || {
                    softmax_cross_entropy(&mlp.forward(&x), &ds.labels_of(chunk), None)
                });
                ep.phases.time(Phase::Backward, || {
                    mlp.zero_grad();
                    mlp.backward(&dl);
                });
                ep.phases.time(Phase::Step, || mlp.step(opt));
                last = Some(loss);
            }
            Ok(last)
        },
        |mlp, _, splits| {
            let logits = |s: &[NodeId]| mlp.forward_inference(&gather_nodes(&embedding, s));
            Ok(splits.iter().map(|s| accuracy(&logits(s), &ds.labels_of(s))).collect())
        },
    )?;
    Ok((DecoupledModel { embedding, mlp }, report))
}

/// Neighbor-sampling strategy for [`train_sampled`].
#[derive(Debug, Clone)]
pub enum SamplerKind {
    /// GraphSAGE node-wise fanouts (outermost layer first).
    NodeWise(Vec<usize>),
    /// LADIES layer sizes.
    LayerWise(Vec<usize>),
    /// LABOR fanouts.
    Labor(Vec<usize>),
}

impl SamplerKind {
    fn layers(&self) -> usize {
        match self {
            SamplerKind::NodeWise(f) | SamplerKind::LayerWise(f) | SamplerKind::Labor(f) => f.len(),
        }
    }

    fn sample(
        &self,
        g: &sgnn_graph::CsrGraph,
        targets: &[NodeId],
        seed: u64,
    ) -> Vec<sgnn_sample::Block> {
        match self {
            SamplerKind::NodeWise(f) => sgnn_sample::node_wise::sample_blocks(g, targets, f, seed),
            SamplerKind::LayerWise(s) => {
                sgnn_sample::layer_wise::ladies_blocks(g, targets, s, seed)
            }
            SamplerKind::Labor(f) => sgnn_sample::labor::labor_blocks(g, targets, f, seed),
        }
    }
}

/// Trains a sampled GraphSAGE model with the given sampler.
pub fn train_sampled(
    ds: &Dataset,
    sampler: &SamplerKind,
    cfg: &TrainConfig,
) -> TrainResult<(Sage, TrainReport)> {
    let mut run = EpochDriver::new(ds, cfg)?;
    run.ledger.try_alloc(ds.features.nbytes())?; // feature store stays host-side resident
    let mut dims = vec![ds.feature_dim()];
    dims.extend_from_slice(&cfg.hidden);
    dims.push(ds.num_classes);
    assert_eq!(dims.len() - 1, sampler.layers(), "one fanout per layer");
    let name = match sampler {
        SamplerKind::NodeWise(_) => "sage-nodewise",
        SamplerKind::LayerWise(_) => "sage-ladies",
        SamplerKind::Labor(_) => "sage-labor",
    };
    let mut sage = Sage::new(&dims, cfg.seed);
    let chunks: Vec<&[NodeId]> = ds.splits.train.chunks(cfg.batch_size).collect();
    // The double buffer keeps at most one prefetched batch alive next to
    // the one being computed.
    let buffered = if BatchPipeline::new(cfg.prefetch).is_pipelined() { 2 } else { 1 };
    let report = run.run(
        name.into(),
        0.0,
        &mut sage,
        &mut (),
        |sage, opt, _, ep| {
            let epoch = ep.index;
            let mut last = None;
            let sample_secs = run_batches(
                cfg,
                epoch,
                chunks.len(),
                |bi| {
                    let seed = cfg
                        .seed
                        .wrapping_add((epoch * 10_000 + bi) as u64)
                        .wrapping_mul(0x9E37_79B9);
                    let blocks = sampler.sample(&ds.graph, chunks[bi], seed);
                    let x_in = gather_nodes(&ds.features, &blocks[0].src);
                    (blocks, x_in)
                },
                |bi, (blocks, x_in)| {
                    // Batch-resident: input features + per-layer
                    // activations (≈2× input) + block structure.
                    let batch_bytes =
                        3 * x_in.nbytes() + blocks.iter().map(|b| b.nbytes()).sum::<usize>();
                    ep.ledger.try_transient(buffered * batch_bytes)?;
                    let (loss, dl) = ep.phases.time(Phase::Forward, || {
                        let logits = sage.forward(&blocks, &x_in);
                        softmax_cross_entropy(&logits, &ds.labels_of(chunks[bi]), None)
                    });
                    ep.phases.time(Phase::Backward, || {
                        sage.zero_grad();
                        sage.backward(&blocks, &dl);
                    });
                    ep.phases.time(Phase::Step, || sage.step(opt));
                    last = Some(loss);
                    Ok(())
                },
            )?;
            ep.phases.add(Phase::Sample, sample_secs);
            Ok(last)
        },
        |sage, _, splits| {
            // Evaluate with wide fanouts for near-exact aggregation.
            let wide = vec![25usize; sampler.layers()];
            let logits_of = |chunk: &[NodeId]| {
                let blocks =
                    sgnn_sample::node_wise::sample_blocks(&ds.graph, chunk, &wide, 123_456);
                sage.forward_inference(&blocks, &gather_nodes(&ds.features, &blocks[0].src))
            };
            Ok(splits.iter().map(|s| chunked_accuracy(ds, s, logits_of)).collect())
        },
    )?;
    Ok((sage, report))
}

/// Trains a GCN on GraphSAINT subgraph batches.
pub fn train_saint(
    ds: &Dataset,
    sampler: sgnn_sample::SaintSampler,
    batches_per_epoch: usize,
    cfg: &TrainConfig,
) -> TrainResult<(Gcn, TrainReport)> {
    let mut run = EpochDriver::new(ds, cfg)?;
    run.ledger.try_alloc(ds.features.nbytes())?;
    let t0 = Instant::now();
    let norms = sgnn_sample::saint::estimate_norms(&ds.graph, sampler, 20, cfg.seed);
    let precompute_secs = t0.elapsed().as_secs_f64();
    let sampler_name = match sampler {
        sgnn_sample::SaintSampler::Node { .. } => "node",
        sgnn_sample::SaintSampler::Edge { .. } => "edge",
        sgnn_sample::SaintSampler::RandomWalk { .. } => "rw",
    };
    let mut gcn = new_gcn(ds, cfg);
    let in_train = train_mask(ds);
    // Full-graph inference for evaluation, built on first use.
    let full_op = OnceCell::new();
    let report = run.run(
        format!("saint-{sampler_name}"),
        precompute_secs,
        &mut gcn,
        &mut (),
        |gcn, opt, _, ep| {
            let epoch = ep.index;
            let mut last = None;
            let sample_secs = run_batches(
                cfg,
                epoch,
                batches_per_epoch,
                |b| {
                    let seed = cfg.seed.wrapping_add((epoch * 1_000 + b) as u64 + 17);
                    let mut sub = sgnn_sample::saint::sample_subgraph(&ds.graph, sampler, seed);
                    sgnn_sample::saint::apply_norms(&mut sub, &norms);
                    let op = gcn_operator(&sub.graph);
                    let x = gather_nodes(&ds.features, &sub.nodes);
                    // Only training nodes in the subgraph contribute to the loss.
                    let (idx, labels) = local_train_rows(&sub.nodes, &in_train, ds);
                    let weights: Vec<f32> = idx.iter().map(|&l| sub.loss_weights[l]).collect();
                    (op, x, idx, labels, weights)
                },
                |_, (op, x, idx, labels, weights)| {
                    // Batch residency: the subgraph operator and gathered
                    // features are live alongside the layer activations.
                    let acts = gcn.step_bytes(x.rows(), ds.feature_dim());
                    ep.ledger.try_transient(op.nbytes() + x.nbytes() + acts)?;
                    if !idx.is_empty() {
                        let w = Some(weights.as_slice());
                        last = Some(gcn_step(gcn, opt, ep.phases, &op, &x, &idx, &labels, w));
                    }
                    Ok(())
                },
            )?;
            ep.phases.add(Phase::Sample, sample_secs);
            Ok(last)
        },
        |gcn, _, splits| {
            let op = full_op.get_or_init(|| gcn_operator(&ds.graph));
            Ok(split_accs(&gcn.forward_inference(op, &ds.features), ds, splits))
        },
    )?;
    Ok((gcn, report))
}

/// Trains a GCN on Cluster-GCN partition batches.
pub fn train_cluster_gcn(
    ds: &Dataset,
    num_clusters: usize,
    clusters_per_batch: usize,
    cfg: &TrainConfig,
) -> TrainResult<(Gcn, TrainReport)> {
    let mut run = EpochDriver::new(ds, cfg)?;
    run.ledger.try_alloc(ds.features.nbytes())?;
    let t0 = Instant::now();
    let batcher = sgnn_partition::cluster::ClusterBatcher::new(&ds.graph, num_clusters, cfg.seed);
    let precompute_secs = t0.elapsed().as_secs_f64();
    let mut gcn = new_gcn(ds, cfg);
    let in_train = train_mask(ds);
    let full_op = OnceCell::new();
    let report = run.run(
        "cluster-gcn".into(),
        precompute_secs,
        &mut gcn,
        &mut (),
        |gcn, opt, _, ep| {
            let epoch = ep.index;
            // Partition assignment is one epoch-level shuffle, not
            // per-batch work — it stays inline; only per-batch
            // operator/feature construction rides the prefetch pipeline.
            let batches = ep.phases.time(Phase::Sample, || {
                batcher.epoch_batches(&ds.graph, clusters_per_batch, cfg.seed + epoch as u64)
            });
            let mut last = None;
            let sample_secs = run_batches(
                cfg,
                epoch,
                batches.len(),
                |b| {
                    let batch = &batches[b];
                    let op = gcn_operator(&batch.graph);
                    let x = gather_nodes(&ds.features, &batch.nodes);
                    let (idx, labels) = local_train_rows(&batch.nodes, &in_train, ds);
                    (op, x, idx, labels)
                },
                |_, (op, x, idx, labels)| {
                    // Batch residency: the partition's operator and
                    // gathered features are live alongside the layer
                    // activations.
                    let acts = gcn.step_bytes(x.rows(), ds.feature_dim());
                    ep.ledger.try_transient(op.nbytes() + x.nbytes() + acts)?;
                    if !idx.is_empty() {
                        last = Some(gcn_step(gcn, opt, ep.phases, &op, &x, &idx, &labels, None));
                    }
                    Ok(())
                },
            )?;
            ep.phases.add(Phase::Sample, sample_secs);
            Ok(last)
        },
        |gcn, _, splits| {
            let op = full_op.get_or_init(|| gcn_operator(&ds.graph));
            Ok(split_accs(&gcn.forward_inference(op, &ds.features), ds, splits))
        },
    )?;
    Ok((gcn, report))
}

/// Trains a GCN on a coarsened graph and lifts predictions (E12).
pub fn train_coarse(ds: &Dataset, ratio: f64, cfg: &TrainConfig) -> TrainResult<TrainReport> {
    let t0 = Instant::now();
    let coarse = sgnn_coarsen::coarsen_to_ratio(&ds.graph, ratio, cfg.seed);
    let coarsen_secs = t0.elapsed().as_secs_f64();
    let mut r = train_coarse_with(ds, &coarse, cfg, &format!("coarse-r{ratio}"))?;
    r.precompute_secs += coarsen_secs;
    Ok(r)
}

/// Trains a GCN on a *given* coarsening (HEM, ConvMatch, …) and lifts
/// predictions back to the fine graph.
pub fn train_coarse_with(
    ds: &Dataset,
    coarse: &sgnn_coarsen::CoarseGraph,
    cfg: &TrainConfig,
    name: &str,
) -> TrainResult<TrainReport> {
    let mut run = EpochDriver::new(ds, cfg)?;
    let t0 = Instant::now();
    // Projection reads the fine feature matrix while the coarse one is
    // being built, so both are briefly resident together.
    run.ledger.try_alloc(ds.features.nbytes())?;
    let cx = coarse.project_features(&ds.features);
    let precompute_secs = t0.elapsed().as_secs_f64();
    run.ledger.try_alloc(cx.nbytes())?;
    run.ledger.free(ds.features.nbytes());
    run.ledger.try_alloc(coarse.graph.nbytes())?;
    // Coarse training labels: majority vote over *train-split members*
    // only, so test labels never leak into training.
    let cn = coarse.num_coarse();
    let mut votes = vec![0u32; cn * ds.num_classes];
    for &u in &ds.splits.train {
        let c = coarse.map[u as usize] as usize;
        votes[c * ds.num_classes + ds.labels[u as usize]] += 1;
    }
    let mut train_coarse_nodes = Vec::new();
    let mut train_labels = Vec::new();
    for (c, row) in votes.chunks(ds.num_classes).enumerate() {
        if row.iter().any(|&v| v > 0) {
            train_coarse_nodes.push(c);
            // Non-empty by the driver's entry guard: `row` has
            // `num_classes ≥ 1` elements.
            let (label, _) = row
                .iter()
                .enumerate()
                .max_by_key(|&(i, &v)| (v, std::cmp::Reverse(i)))
                .expect("num_classes >= 1 checked at trainer entry");
            train_labels.push(label);
        }
    }
    let op = gcn_operator(&coarse.graph);
    let mut gcn = new_gcn(ds, cfg);
    run.ledger.try_transient(gcn.step_bytes(cn, ds.feature_dim()))?;
    run.run(
        name.to_string(),
        precompute_secs,
        &mut gcn,
        &mut (),
        |gcn, opt, _, ep| {
            let (rows, labels) = (&train_coarse_nodes, &train_labels);
            Ok(Some(gcn_step(gcn, opt, ep.phases, &op, &cx, rows, labels, None)))
        },
        // Lift coarse logits to fine nodes and evaluate on the real splits.
        |gcn, _, splits| {
            Ok(split_accs(&coarse.lift_rows(&gcn.forward_inference(&op, &cx)), ds, splits))
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgnn_data::sbm_dataset;

    fn small_ds() -> Dataset {
        sbm_dataset(600, 3, 10.0, 0.9, 6, 0.8, 0, 0.5, 0.25, 1)
    }

    fn fast_cfg() -> TrainConfig {
        TrainConfig { epochs: 40, hidden: vec![16], dropout: 0.1, ..Default::default() }
    }

    #[test]
    fn full_gcn_report_is_complete_and_accurate() {
        let ds = small_ds();
        let (_, r) = train_full_gcn(&ds, &fast_cfg()).unwrap();
        assert!(r.test_acc > 0.8, "acc {}", r.test_acc);
        assert!(r.peak_mem_bytes > 0);
        assert!(r.train_secs > 0.0);
        // Phase totals are always measured (observability off included) and
        // must account for nearly all of the training-loop wall time.
        let phase_sum = r.phases.total_secs();
        assert!(phase_sum > 0.0);
        assert!(phase_sum <= r.train_secs * 1.01 + 1e-3, "{phase_sum} vs {}", r.train_secs);
        assert!(phase_sum >= r.train_secs * 0.5, "{phase_sum} vs {}", r.train_secs);
        let json = serde::json::to_string(&r);
        assert!(json.starts_with("{\"name\":\"gcn-full\""));
        assert!(json.contains("\"phases\":{\"sample_secs\":"));
    }

    #[test]
    fn decoupled_sgc_matches_gcn_accuracy_with_less_memory() {
        let ds = small_ds();
        let (_, gcn) = train_full_gcn(&ds, &fast_cfg()).unwrap();
        let (_, sgc) = train_decoupled(&ds, &PrecomputeMethod::Sgc { k: 2 }, &fast_cfg()).unwrap();
        assert!(sgc.test_acc > gcn.test_acc - 0.07, "sgc {} vs gcn {}", sgc.test_acc, gcn.test_acc);
        assert!(
            sgc.peak_mem_bytes < gcn.peak_mem_bytes,
            "decoupled {} !< full {}",
            sgc.peak_mem_bytes,
            gcn.peak_mem_bytes
        );
    }

    #[test]
    fn sampled_trainers_learn() {
        let ds = small_ds();
        let cfg =
            TrainConfig { epochs: 25, hidden: vec![16], batch_size: 128, ..Default::default() };
        let (_, nw) = train_sampled(&ds, &SamplerKind::NodeWise(vec![5, 5]), &cfg).unwrap();
        assert!(nw.test_acc > 0.7, "node-wise {}", nw.test_acc);
        let (_, lb) = train_sampled(&ds, &SamplerKind::Labor(vec![5, 5]), &cfg).unwrap();
        assert!(lb.test_acc > 0.7, "labor {}", lb.test_acc);
    }

    #[test]
    fn saint_and_cluster_trainers_learn() {
        let ds = small_ds();
        let cfg = TrainConfig { epochs: 25, hidden: vec![16], ..Default::default() };
        let (_, saint) = train_saint(
            &ds,
            sgnn_sample::SaintSampler::RandomWalk { roots: 40, length: 6 },
            4,
            &cfg,
        )
        .unwrap();
        assert!(saint.test_acc > 0.7, "saint {}", saint.test_acc);
        let (_, cgcn) = train_cluster_gcn(&ds, 8, 2, &cfg).unwrap();
        assert!(cgcn.test_acc > 0.7, "cluster {}", cgcn.test_acc);
    }

    #[test]
    fn early_stopping_halts_before_epoch_budget() {
        let ds = small_ds();
        let cfg = TrainConfig { epochs: 500, patience: Some(20), ..fast_cfg() };
        let (_, r) = train_full_gcn(&ds, &cfg).unwrap();
        assert!(r.epochs_run < 500, "ran all {} epochs", r.epochs_run);
        assert!(r.test_acc > 0.8, "acc {}", r.test_acc);
        let (_, rd) = train_decoupled(&ds, &PrecomputeMethod::Sgc { k: 2 }, &cfg).unwrap();
        assert!(rd.epochs_run < 500);
        assert!(rd.test_acc > 0.8);
    }

    #[test]
    fn coarse_training_trades_accuracy_for_cost() {
        let ds = small_ds();
        let cfg = fast_cfg();
        let full = train_full_gcn(&ds, &cfg).unwrap().1;
        let half = train_coarse(&ds, 0.5, &cfg).unwrap();
        assert!(half.test_acc > 0.6, "coarse acc {}", half.test_acc);
        // Coarse training uses less peak memory than full training.
        assert!(half.peak_mem_bytes < full.peak_mem_bytes);
    }
}
