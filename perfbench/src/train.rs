//! The `train-full` and `train-sampled` workloads.
//!
//! End-to-end: repeated set-up, one warm-up trainer call, then timed
//! trainer calls until the budget is spent (at least [`MIN_CALLS`]), each
//! followed by timed whole-graph inference with the model it returned.
//! Traced: phase times from trainer calls, then replayed epochs through
//! the model's public forward/backward/step, each followed by a mirror of
//! the same epoch built from the public kernels (`spmm_into`, `matmul`,
//! `grad_fx`, `colsum_fx`, block aggregation) with a span around every
//! kernel call. The mirror's gradients must equal the model's bit for
//! bit, so its kernel split describes the code that actually ran.

use crate::inputs;
use crate::mirror::{self, Stack, Tap};
use crate::report::Report;
use crate::stats::{mean, median};
use crate::trace::Tracer;
use crate::{sys, Ledger, Run};
use sgnn_core::models::gcn::{gcn_operator, Gcn, GcnConfig};
use sgnn_core::models::sage::Sage;
use sgnn_core::pipeline::BatchPipeline;
use sgnn_core::shard::train_sharded_gcn;
use sgnn_core::trainer::{train_full_gcn, train_sampled, SamplerKind, TrainConfig, TrainReport};
use sgnn_data::Dataset;
use sgnn_graph::NodeId;
use sgnn_linalg::DenseMatrix;
use sgnn_nn::layers::Dropout;
use sgnn_nn::loss::softmax_cross_entropy;
use sgnn_nn::optim::Adam;
use sgnn_partition::multilevel::{multilevel_partition, MultilevelConfig};
use sgnn_partition::{Partition, ShardPlan};
use sgnn_sample::node_wise::{input_nodes, sample_blocks};
use std::hint::black_box;
use std::time::Instant;

/// No timing comes from fewer samples than this.
pub const MIN_CALLS: usize = 10;
/// Timed `train-full` set-ups before each timed trainer call.
const FULL_SETUPS_PER_CALL: usize = 4;
/// Timed `train-sampled` set-ups before each timed trainer call.
const SAMPLED_SETUPS_PER_CALL: usize = 20;
/// Shard count of the sharded trainer.
const SHARDS: usize = 2;
/// Epochs per full-batch trainer call.
const FULL_EPOCHS: usize = 3;
/// Node-wise fanouts of the sampled trainer (outermost first).
const FANOUTS: [usize; 2] = [5, 5];
/// Epochs of the sampled trainer's first call, whose model gives
/// `test_acc` (the timed calls run one epoch each).
const SAMPLED_ACC_EPOCHS: usize = 5;
/// Minimum test accuracy of the full-batch model after one call.
const FULL_ACC_FLOOR: f64 = 0.85;
/// Minimum test accuracy of the sampled model after its first call.
const SAMPLED_ACC_FLOOR: f64 = 0.8;
/// Replayed epochs in the traced run.
const REPLAY_EPOCHS: usize = 4;
/// Drop probability of the hidden layer (the trainer default).
const DROPOUT: f32 = 0.2;
/// Timed whole-graph inference passes after each timed full-batch call.
const FULL_INFER_REPS: usize = 3;
/// Fanouts of sampled inference: the trainer's own evaluation fanouts,
/// wide enough for near-exact aggregation.
const INFER_FANOUTS: [usize; 2] = [25, 25];
/// Sampling seed of sampled inference (the trainer's evaluation seed).
const INFER_SEED: u64 = 123_456;
/// Target nodes per block batch of sampled inference (the trainer's
/// evaluation batch).
const INFER_CHUNK: usize = 1_024;

fn full_cfg(seed: u64, epochs: usize) -> TrainConfig {
    TrainConfig { epochs, lr: 0.1, hidden: vec![32], dropout: DROPOUT, seed, ..Default::default() }
}

fn sampled_cfg(seed: u64, epochs: usize) -> TrainConfig {
    TrainConfig {
        epochs,
        lr: 0.03,
        batch_size: 512,
        hidden: vec![32],
        prefetch: true,
        seed,
        ..Default::default()
    }
}

/// Weight seed of timed call `k`. Each call trains from its own
/// initialisation, so the median over calls does not ride on one draw.
fn call_seed(seed: u64, k: usize) -> u64 {
    seed.wrapping_mul(1_000).wrapping_add(k as u64)
}

fn per_epoch(r: &TrainReport) -> f64 {
    r.train_secs / r.epochs_run.max(1) as f64
}

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

fn rows_of(nodes: &[NodeId]) -> Vec<usize> {
    nodes.iter().map(|&u| u as usize).collect()
}

/// Share of predicted classes that equal the labels.
fn accuracy(pred: &[usize], labels: &[usize]) -> f64 {
    let hits = pred.iter().zip(labels).filter(|(p, t)| p == t).count();
    hits as f64 / labels.len().max(1) as f64
}

/// Times `FULL_INFER_REPS` runs of `infer`, each answering `answers`
/// nodes, and returns their rates restated at the reference speed
/// (answers per second) and the last run's logits.
fn time_inference(
    answers: usize,
    mut infer: impl FnMut() -> DenseMatrix,
) -> (Vec<f64>, DenseMatrix) {
    let speed = sys::speed();
    let mut rates = Vec::new();
    let mut logits = DenseMatrix::zeros(0, 0);
    for _ in 0..FULL_INFER_REPS {
        let t = Instant::now();
        logits = black_box(infer());
        rates.push(answers as f64 / secs(t) / speed);
    }
    (rates, logits)
}

/// Timed set-up of `train-full`: operator build, multilevel partition,
/// shard plan. Returns the partition and per-repeat seconds of
/// (total, operator, partition).
fn full_setup(
    ds: &Dataset,
    seed: u64,
    repeats: usize,
    ledger: &mut Ledger,
) -> (Partition, Vec<[f64; 3]>) {
    let mut times = Vec::new();
    let mut first: Option<Partition> = None;
    for _ in 0..repeats {
        let t = Instant::now();
        let op = gcn_operator(&ds.graph);
        let t_op = secs(t);
        let part = multilevel_partition(
            &ds.graph,
            SHARDS,
            &MultilevelConfig { seed, ..Default::default() },
        );
        let t_part = secs(t) - t_op;
        let plan = ShardPlan::build(&op, &part);
        let total = secs(t);
        ledger.op(plan.is_ok());
        black_box(plan.ok());
        times.push([total, t_op, t_part]);
        match &first {
            None => first = Some(part),
            Some(p) => ledger
                .check(p.parts == part.parts, || "multilevel partition not deterministic".into()),
        }
    }
    (first.expect("at least one repeat"), times)
}

/// The `train-full` workload.
pub fn full(run: &Run, report: &mut Report, ledger: &mut Ledger) {
    let ds = inputs::dataset(run.seed);
    // Set-up is timed in small groups spread over the run, not in one
    // burst at its start: a shared host's speed changes within a second,
    // and the median of a burst would describe one moment of it.
    let (part, _) = full_setup(&ds, run.seed, 1, ledger);
    let op = gcn_operator(&ds.graph);
    let mut setup = Vec::new();
    // Warm-up: lazy pool spawn and first-touch allocation.
    let warm = full_cfg(run.seed, 1);
    ledger.op(train_full_gcn(&ds, &warm).is_ok());
    ledger.op(train_sharded_gcn(&ds, &part, &warm).is_ok());

    let (min_calls, budget) = if run.trace { (3, 0.0) } else { (MIN_CALLS, run.seconds) };
    let t0 = Instant::now();
    let mut full_ep = Vec::new();
    let mut shard_ep = Vec::new();
    let mut qps = Vec::new();
    let mut served_acc = None;
    let mut reports = Vec::new();
    let mut shard_stats = Vec::new();
    for k in 0..10 * MIN_CALLS {
        if full_ep.len() >= min_calls && secs(t0) >= budget {
            break;
        }
        let speed = if run.trace { 1.0 } else { sys::speed() };
        let (p, times) = full_setup(&ds, run.seed, FULL_SETUPS_PER_CALL, ledger);
        ledger.check(p.parts == part.parts, || "multilevel partition not deterministic".into());
        setup.extend(times.iter().map(|t| t.map(|s| s * speed)));
        let cfg = full_cfg(call_seed(run.seed, k), FULL_EPOCHS);
        let f = train_full_gcn(&ds, &cfg);
        ledger.op(f.is_ok());
        let s = train_sharded_gcn(&ds, &part, &cfg);
        ledger.op(s.is_ok());
        let (Ok((gcn, f)), Ok((_, s, stats))) = (f, s) else { continue };
        ledger.check(f.final_loss.to_bits() == s.final_loss.to_bits(), || {
            format!("sharded final loss {} != full-batch {}", s.final_loss, f.final_loss)
        });
        ledger.check(f.test_acc == s.test_acc, || "sharded test accuracy differs".into());
        full_ep.push(per_epoch(&f) * speed);
        shard_ep.push(per_epoch(&s) * speed);
        if !run.trace {
            let (rates, logits) =
                time_inference(ds.num_nodes(), || gcn.forward_inference(&op, &ds.features));
            qps.extend(rates);
            served_acc.get_or_insert_with(|| accuracy(&logits.argmax_rows(), &ds.labels));
        }
        reports.push(f);
        shard_stats.push(stats);
    }
    let Some(first) = reports.first() else {
        ledger.check(false, || "no trainer call succeeded".into());
        return;
    };
    let test_acc = first.test_acc;
    ledger.check(test_acc >= FULL_ACC_FLOOR, || format!("test_acc {test_acc} < {FULL_ACC_FLOOR}"));
    let setup_total: Vec<f64> = setup.iter().map(|s| s[0]).collect();
    eprintln!("setup_s: median {:.4} of {} repeats", median(&setup_total), setup.len());
    eprintln!(
        "epoch_s: median {:.4} of {} calls x {FULL_EPOCHS} epochs; sharded epoch: median {:.4} of {}",
        median(&full_ep),
        full_ep.len(),
        median(&shard_ep),
        shard_ep.len()
    );
    if !run.trace {
        let served_acc = served_acc.unwrap_or(0.0);
        ledger.check(served_acc >= FULL_ACC_FLOOR, || {
            format!("served_acc {served_acc} < {FULL_ACC_FLOOR}")
        });
        eprintln!(
            "sat_qps: median {:.0}/s of {} whole-graph inference passes of {} nodes",
            median(&qps),
            qps.len(),
            ds.num_nodes()
        );
        report.put("setup_s", median(&setup_total));
        report.put("epoch_s", median(&full_ep));
        report.put("test_acc", test_acc);
        report.put("sat_qps", median(&qps));
        report.put("served_acc", served_acc);
        return;
    }
    report.put(
        "graph.gcn_operator_ms",
        1e3 * median(&setup.iter().map(|s| s[1]).collect::<Vec<_>>()),
    );
    report.put(
        "partition.multilevel_ms",
        1e3 * median(&setup.iter().map(|s| s[2]).collect::<Vec<_>>()),
    );
    put_phases(report, &reports, false);
    report.put("core.shard.epoch_s", median(&shard_ep));
    let st = &shard_stats[0];
    report.put("core.shard.halo_bytes", st.halo_bytes_per_epoch as f64);
    report.put("core.shard.allreduce_bytes", st.allreduce_bytes_per_epoch as f64);
    report.put("core.shard.nnz_skew", st.nnz_skew);
    gcn_replay(&ds, run.seed, report, ledger);
}

/// Per-epoch phase seconds from the trainer's own `PhaseBreakdown`,
/// medians over calls. `sample_stall` is set for the sampled trainer,
/// the only one whose sample phase is a pipeline's wait for a batch.
pub fn put_phases(report: &mut Report, reports: &[TrainReport], sample_stall: bool) {
    let per = |f: &dyn Fn(&TrainReport) -> f64| {
        median(&reports.iter().map(|r| f(r) / r.epochs_run.max(1) as f64).collect::<Vec<_>>())
    };
    report.put("core.forward_s", per(&|r| r.phases.forward_secs));
    report.put("core.backward_s", per(&|r| r.phases.backward_secs));
    report.put("core.step_s", per(&|r| r.phases.step_secs));
    if sample_stall {
        report.put("core.sample_stall_s", per(&|r| r.phases.sample_secs));
    }
    eprintln!("core.*_s: per-epoch medians of {} trainer calls", reports.len());
}

/// Span ids of the reported replay epochs.
fn replayed() -> Vec<u64> {
    (0..REPLAY_EPOCHS as u64).collect()
}

/// Kernel spans the attribution coverage sums.
const KERNELS: [&str; 5] =
    ["graph.spmm", "linalg.matmul", "linalg.grad_fx", "linalg.colsum_fx", "sample.aggregate"];

/// Per-epoch kernel metrics from the replay spans of epochs `ids`,
/// medians over epochs. `agg` names the aggregation kernel's span and
/// metric, if the model has one.
pub fn put_kernels(report: &mut Report, tr: &Tracer, ids: &[u64], agg: Option<(&str, &str)>) {
    let per =
        |name: &str| median(&ids.iter().map(|&e| tr.total_id_s(name, e) * 1e3).collect::<Vec<_>>());
    let epochs = ids.len();
    let (gfx, mm) = (per("linalg.grad_fx"), per("linalg.matmul"));
    report.put("linalg.grad_fx_ms", gfx);
    report.put("linalg.colsum_fx_ms", per("linalg.colsum_fx"));
    report.put("linalg.matmul_ms", mm);
    eprintln!(
        "linalg: grad_fx {gfx:.3} ms / matmul {mm:.3} ms per epoch over {epochs} replayed epochs"
    );
    report.put("linalg.grad_fx_per_matmul", gfx / mm);
    if let Some((span, metric)) = agg {
        report.put(metric, per(span));
    }
    let cov: Vec<f64> = ids
        .iter()
        .map(|&e| {
            let named: f64 = KERNELS.iter().map(|k| tr.total_id_s(k, e)).sum();
            let phases: f64 = ["core.forward", "core.backward", "core.step"]
                .iter()
                .map(|p| tr.total_id_s(p, e))
                .sum();
            named / phases
        })
        .collect();
    report.put("core.attrib_coverage", median(&cov));
    report.put("core.replay_epochs", epochs as f64);
    eprintln!(
            "core.attrib_coverage: median {:.3} of {epochs} epochs; self time of core.backward {:.3} s total",
            median(&cov),
            tr.self_s("core.backward")
        );
}

/// Replays `REPLAY_EPOCHS` full-batch GCN epochs with phase spans, each
/// followed by the kernel mirror, and checks the mirror's gradients.
fn gcn_replay(ds: &Dataset, seed: u64, report: &mut Report, ledger: &mut Ledger) {
    let op = gcn_operator(&ds.graph);
    let gcfg = GcnConfig { hidden: vec![32], dropout: DROPOUT, seed };
    let mut gcn = Gcn::new(ds.feature_dim(), ds.num_classes, &gcfg);
    let mut opt =
        Adam::new(full_cfg(seed, 1).lr).with_weight_decay(TrainConfig::default().weight_decay);
    let train_rows = rows_of(&ds.splits.train);
    let labels = ds.labels_of(&ds.splits.train);
    let n = ds.num_nodes();
    let mut tr = Tracer::new();
    let mut flops = 0u64;
    let mut bytes = 0u64;
    // Epoch id u64::MAX is the untimed warm-up; ids 0.. are reported.
    for e in (0..=REPLAY_EPOCHS as u64).map(|e| e.wrapping_sub(1)) {
        let mut before = Tap::default();
        gcn.step(&mut before);
        let drop_seeds: Vec<u64> = (gcn.dropout_calls().iter().enumerate())
            .map(|(i, &c)| Dropout::call_seed(seed.wrapping_add(100 + i as u64), c + 1))
            .collect();
        let fw = tr.begin("core.forward", e);
        let logits = gcn.forward(&op, &ds.features);
        let (loss, dl_batch) =
            softmax_cross_entropy(&logits.gather_rows(&train_rows), &labels, None);
        tr.end(fw);
        let bw = tr.begin("core.backward", e);
        let mut dl = DenseMatrix::zeros(n, ds.num_classes);
        dl.scatter_rows(&train_rows, &dl_batch);
        gcn.zero_grad();
        gcn.backward(&op, &dl);
        tr.end(bw);
        let mut tap = Tap::default();
        gcn.step(&mut tap);
        tr.time("core.step", e, || gcn.step(&mut opt));

        let m = tr.begin("bench.mirror", e);
        let stack =
            Stack { op: Some(&op), params: &before.params, drop_seeds: &drop_seeds, p: DROPOUT };
        let mirrored = stack.step(&mut tr, e, &ds.features, Some(&train_rows), &labels);
        tr.end(m);
        if e != u64::MAX {
            flops += mirrored.spmm_flops;
            bytes += mirrored.spmm_bytes;
        }
        ledger.check(
            mirrored.loss.to_bits() == loss.to_bits() && mirrored.grads == tap.grads,
            || format!("GCN kernel mirror diverged from Gcn::backward at replay epoch {e}"),
        );
    }
    put_kernels(report, &tr, &replayed(), Some(("graph.spmm", "graph.spmm_ms")));
    report.put("graph.spmm_flops", flops as f64 / REPLAY_EPOCHS as f64);
    report.put("graph.spmm_bytes", bytes as f64 / REPLAY_EPOCHS as f64);
    write_trace(&tr, "train-full", seed);
}

/// Writes the span file of a traced run next to the benchmark.
pub fn write_trace(tr: &Tracer, workload: &str, seed: u64) {
    let path = std::path::PathBuf::from(format!("perfbench/out/trace-{workload}-seed{seed}.jsonl"));
    match tr.write_jsonl(&path) {
        Ok(()) => eprintln!("trace: {} spans written to {}", tr.len(), path.display()),
        Err(e) => eprintln!("trace: not written ({e})"),
    }
}

/// The batch seed `train_sampled` derives for `(epoch, batch)`.
fn batch_seed(seed: u64, epoch: usize, bi: usize) -> u64 {
    seed.wrapping_add((epoch * 10_000 + bi) as u64).wrapping_mul(0x9E37_79B9)
}

/// The `train-sampled` workload.
pub fn sampled(run: &Run, report: &mut Report, ledger: &mut Ledger) {
    // The budget covers the first, accuracy-giving call too.
    let t0 = Instant::now();
    // End-to-end runs use one thread: with two, each of the many small
    // kernel dispatches per batch waits for the pool worker's vCPU to
    // wake, and on a 2-vCPU VM that made epoch time swing 2x between runs.
    // With one thread `BatchPipeline` takes its inline path, so prefetch
    // is inert there. The traced run's trainer calls use every CPU, so
    // prefetch overlaps sampling and `core.sample_stall_s` is the
    // consumer's wait for a batch; its kernel replay goes back to one
    // thread, as in the end-to-end runs.
    sgnn_linalg::par::set_threads(if run.trace { sys::nproc() } else { 1 });
    let ds = inputs::dataset(run.seed);
    let cfg = sampled_cfg(run.seed, 1);
    let dims = [ds.feature_dim(), 32, ds.num_classes];
    let sampler = SamplerKind::NodeWise(FANOUTS.to_vec());
    // Set-up a user pays before the first step: model build and the first
    // batch (node-wise sample + feature gather). It is timed in groups
    // spread over the run, as on train-full.
    let first_chunk = &ds.splits.train[..cfg.batch_size.min(ds.splits.train.len())];
    let set_up = |n: usize| -> Vec<f64> {
        (0..n)
            .map(|_| {
                let t = Instant::now();
                let sage = Sage::new(&dims, run.seed);
                let blocks =
                    sample_blocks(&ds.graph, first_chunk, &FANOUTS, batch_seed(run.seed, 0, 0));
                let x_in = ds.features.gather_rows(&rows_of(&blocks[0].src));
                let s = secs(t);
                black_box((sage.num_params(), x_in));
                s
            })
            .collect()
    };
    set_up(1);
    let mut setup = Vec::new();
    // The first call doubles as warm-up: untimed, and its longer training
    // gives the model whose accuracy is reported.
    let acc_call = train_sampled(&ds, &sampler, &sampled_cfg(run.seed, SAMPLED_ACC_EPOCHS));
    ledger.op(acc_call.is_ok());
    // Inference answers every node the way the trainer's own evaluation
    // answers its splits: wide node-wise blocks per batch, gather, forward.
    // Each batch is one rate sample; the pass's answers and per-batch
    // answers per second (raw) are returned.
    let nodes: Vec<NodeId> = (0..ds.num_nodes() as NodeId).collect();
    let infer = |sage: &Sage| -> (Vec<usize>, Vec<f64>) {
        let mut pred = Vec::with_capacity(nodes.len());
        let mut rates = Vec::new();
        for chunk in nodes.chunks(INFER_CHUNK) {
            let t = Instant::now();
            let blocks = sample_blocks(&ds.graph, chunk, &INFER_FANOUTS, INFER_SEED);
            let x_in = ds.features.gather_rows(&rows_of(&blocks[0].src));
            pred.extend(sage.forward_inference(&blocks, &x_in).argmax_rows());
            rates.push(chunk.len() as f64 / secs(t));
        }
        (pred, rates)
    };
    let (test_acc, served_acc) = acc_call
        .map_or((0.0, 0.0), |(sage, r)| (r.test_acc, accuracy(&infer(&sage).0, &ds.labels)));

    let (min_calls, budget) = if run.trace { (3, 0.0) } else { (MIN_CALLS, run.seconds) };
    let mut reports: Vec<TrainReport> = Vec::new();
    let mut ep = Vec::new();
    let mut qps = Vec::new();
    for k in 0..10 * MIN_CALLS {
        if reports.len() >= min_calls && secs(t0) >= budget {
            break;
        }
        let speed = if run.trace { 1.0 } else { sys::speed() };
        setup.extend(set_up(SAMPLED_SETUPS_PER_CALL).iter().map(|s| s * speed));
        let r = train_sampled(&ds, &sampler, &sampled_cfg(call_seed(run.seed, k), 1));
        ledger.op(r.is_ok());
        if let Ok((sage, r)) = r {
            ep.push(per_epoch(&r) * speed);
            reports.push(r);
            if !run.trace {
                let speed = sys::speed();
                qps.extend(infer(&sage).1.iter().map(|r| r / speed));
            }
        }
    }
    let Some(first) = reports.first() else {
        ledger.check(false, || "no trainer call succeeded".into());
        return;
    };
    // Determinism: the first timed call, run again, gives the same bits.
    let again = train_sampled(&ds, &sampler, &sampled_cfg(call_seed(run.seed, 0), 1));
    ledger.op(again.is_ok());
    ledger.check(
        again.is_ok_and(|(_, r)| r.final_loss.to_bits() == first.final_loss.to_bits()),
        || "sampled trainer not deterministic: a repeated call changed its loss".into(),
    );
    ledger.check(test_acc >= SAMPLED_ACC_FLOOR, || {
        format!("test_acc {test_acc} < {SAMPLED_ACC_FLOOR}")
    });
    ledger.check(served_acc >= SAMPLED_ACC_FLOOR, || {
        format!("served_acc {served_acc} < {SAMPLED_ACC_FLOOR}")
    });
    eprintln!("setup_s: median {:.6} of {} repeats", median(&setup), setup.len());
    eprintln!("epoch_s: median {:.4} of {} calls x 1 epoch: {ep:.3?}", median(&ep), ep.len());
    if !run.trace {
        eprintln!(
            "sat_qps: median {:.0}/s of {} inference batches of {INFER_CHUNK} nodes",
            median(&qps),
            qps.len()
        );
        report.put("setup_s", median(&setup));
        report.put("epoch_s", median(&ep));
        report.put("test_acc", test_acc);
        report.put("sat_qps", median(&qps));
        report.put("served_acc", served_acc);
        return;
    }
    eprintln!(
        "core.*_s: trainer calls on {} threads, prefetch pipelined: {}",
        sgnn_linalg::par::num_threads(),
        BatchPipeline::new(cfg.prefetch).is_pipelined()
    );
    put_phases(report, &reports, true);
    sgnn_linalg::par::set_threads(1);
    sage_replay(&ds, &cfg, report, ledger);
}

/// Replays `REPLAY_EPOCHS` sampled epochs batch by batch with phase spans
/// and a kernel mirror per batch.
fn sage_replay(ds: &Dataset, cfg: &TrainConfig, report: &mut Report, ledger: &mut Ledger) {
    let dims = [ds.feature_dim(), 32, ds.num_classes];
    let mut sage = Sage::new(&dims, cfg.seed);
    let mut opt = Adam::new(cfg.lr).with_weight_decay(cfg.weight_decay);
    let chunks: Vec<&[NodeId]> = ds.splits.train.chunks(cfg.batch_size).collect();
    let mut tr = Tracer::new();
    let mut input_counts = Vec::new();
    let mut diverged = 0usize;
    for (epoch, e) in (0..=REPLAY_EPOCHS as u64).map(|e| e.wrapping_sub(1)).enumerate() {
        for (bi, chunk) in chunks.iter().enumerate() {
            let blocks = tr.time("sample.blocks", e, || {
                sample_blocks(&ds.graph, chunk, &FANOUTS, batch_seed(cfg.seed, epoch, bi))
            });
            input_counts.push(input_nodes(&blocks) as f64);
            let x_in = ds.features.gather_rows(&rows_of(&blocks[0].src));
            let labels = ds.labels_of(chunk);
            let mut before = Tap::default();
            sage.step(&mut before);
            let fw = tr.begin("core.forward", e);
            let logits = sage.forward(&blocks, &x_in);
            let (loss, dl) = softmax_cross_entropy(&logits, &labels, None);
            tr.end(fw);
            let bw = tr.begin("core.backward", e);
            sage.zero_grad();
            sage.backward(&blocks, &dl);
            tr.end(bw);
            let mut tap = Tap::default();
            sage.step(&mut tap);
            tr.time("core.step", e, || sage.step(&mut opt));
            let m = tr.begin("bench.mirror", e);
            let mirrored = mirror::sage_step(&mut tr, e, &blocks, &x_in, &labels, &before.params);
            tr.end(m);
            if mirrored.loss.to_bits() != loss.to_bits() || mirrored.grads != tap.grads {
                diverged += 1;
            }
        }
    }
    ledger.check(diverged == 0, || format!("SAGE kernel mirror diverged on {diverged} batches"));
    let blocks_ms = 1e3 * tr.total_s("sample.blocks") / tr.count("sample.blocks").max(1) as f64;
    report.put("sample.blocks_ms", blocks_ms);
    report.put("sample.input_nodes", mean(&input_counts));
    eprintln!(
        "sample.blocks_ms: mean of {} batches; input_nodes mean of {}",
        tr.count("sample.blocks"),
        input_counts.len()
    );
    put_kernels(report, &tr, &replayed(), Some(("sample.aggregate", "sample.aggregate_ms")));
    write_trace(&tr, "train-sampled", cfg.seed);
}
