//! Extension trainers: historical-embedding training (HDSGNN [21] /
//! GNNAutoScale lineage) and SEIGNN [29]-style coarse-node-augmented
//! mini-batching.
//!
//! Both answer the same §3.3.2/§3.2.3 question — *how does a mini-batch
//! see beyond its own boundary without recursive expansion?* — with the
//! two surveyed mechanisms: cached (stale) out-of-batch embeddings, and a
//! coarse summary layer every batch can reach.

use crate::ckpt::{CkptSidecar, SlotParams};
use crate::error::TrainResult;
use crate::models::gcn::gcn_operator;
use crate::trainer::{
    chunked_accuracy, gather_nodes, gcn_step, local_train_rows, new_gcn, split_accs, train_mask,
    EpochDriver, Sidecar, TrainConfig, TrainReport,
};
use sgnn_data::Dataset;
use sgnn_fault::{Ckpt, CkptError};
use sgnn_graph::NodeId;
use sgnn_linalg::DenseMatrix;
use sgnn_nn::layers::{Linear, ReLU};
use sgnn_nn::loss::softmax_cross_entropy;
use sgnn_nn::optim::Optimizer;
use sgnn_obs::Phase;
use sgnn_sample::node_wise::sample_blocks;
use sgnn_sample::HistoryCache;
use std::cell::OnceCell;

/// Statistics specific to the history trainer.
#[derive(Debug, Clone, Default)]
pub struct HistoryStats {
    /// Cache hit rate over all out-of-batch fetches.
    pub hit_rate: f64,
    /// Mean staleness (iterations) of served embeddings.
    pub mean_age: f64,
}

/// The history trainer's two layers, each a self and a neighbor
/// `Linear`: features → hidden (ReLU), hidden → classes.
struct HistoryNet {
    self1: Linear,
    neigh1: Linear,
    relu1: ReLU,
    self2: Linear,
    neigh2: Linear,
}

impl HistoryNet {
    /// The four linears in optimizer slot order.
    fn linears(&mut self) -> [&mut Linear; 4] {
        [&mut self.self1, &mut self.neigh1, &mut self.self2, &mut self.neigh2]
    }

    /// Exact 2-hop inference logits for `chunk` with wide fanout (no
    /// cache).
    fn logits_inference(&self, ds: &Dataset, chunk: &[NodeId]) -> DenseMatrix {
        let blocks = sample_blocks(&ds.graph, chunk, &[25, 25], 777);
        // Layer 1 over the inner block.
        let inner = &blocks[0];
        let agg1 = inner.aggregate(&gather_nodes(&ds.features, &inner.src));
        let x_dst = gather_nodes(&ds.features, &inner.dst);
        let mut z1 = self.self1.forward_inference(&x_dst);
        z1.add_scaled(1.0, &self.neigh1.forward_inference(&agg1)).expect("shapes");
        let h1 = self.relu1.forward_inference(&z1);
        // Layer 2 over the outer block.
        let outer = &blocks[1];
        let agg2 = outer.aggregate(&h1);
        let h1_batch = h1.gather_rows(&(0..outer.num_dst()).collect::<Vec<_>>());
        let mut logits = self.self2.forward_inference(&h1_batch);
        logits.add_scaled(1.0, &self.neigh2.forward_inference(&agg2)).expect("shapes");
        logits
    }
}

impl SlotParams for HistoryNet {
    fn visit_params_mut(&mut self, f: &mut dyn FnMut(&mut DenseMatrix)) {
        for l in self.linears() {
            l.visit_params(&mut |p, _| f(p));
        }
    }
}

/// The history trainer's state besides its weights: the embedding cache
/// and the staleness tallies, checkpointed so a resumed run serves the
/// same cached rows and reports the same [`HistoryStats`].
struct HistoryState {
    cache: HistoryCache,
    nodes: usize,
    /// Batches trained so far — the cache's version clock.
    iter: u64,
    fetches: u64,
    hits: u64,
    age_sum: f64,
}

impl CkptSidecar for HistoryState {
    fn save(&self, c: &mut Ckpt) {
        let dim = self.cache.dim();
        let mut rows = vec![0f32; self.nodes * dim];
        let mut versions = vec![u64::MAX; self.nodes];
        for (u, version) in versions.iter_mut().enumerate() {
            // Every write happened at or before `iter`, so the age
            // recovers the write's version exactly.
            let row = &mut rows[u * dim..(u + 1) * dim];
            if let Some(age) = self.cache.fetch(u as NodeId, self.iter, row) {
                *version = self.iter - age;
            }
        }
        c.put_f32s("history.rows", &rows);
        c.put_u64s("history.versions", &versions);
        c.put_u64("history.iter", self.iter);
        c.put_u64("history.fetches", self.fetches);
        c.put_u64("history.hits", self.hits);
        c.put_f64("history.age_sum", self.age_sum);
    }

    /// Restores into the trainer's fresh (never-written) cache.
    fn restore(&mut self, c: &Ckpt) -> Result<(), CkptError> {
        let dim = self.cache.dim();
        let rows = c.f32s("history.rows")?;
        let versions = c.u64s("history.versions")?;
        // Byte lengths, as `WrongShape` reports them.
        let checks = [
            ("history.rows", rows.len() * 4, self.nodes * dim * 4),
            ("history.versions", versions.len() * 8, self.nodes * 8),
        ];
        for (field, found, expected) in checks {
            if found != expected {
                return Err(CkptError::WrongShape { field: field.into(), expected, found });
            }
        }
        let (iter, fetches) = (c.u64("history.iter")?, c.u64("history.fetches")?);
        let (hits, age_sum) = (c.u64("history.hits")?, c.f64("history.age_sum")?);
        for (u, &v) in versions.iter().enumerate() {
            if v != u64::MAX {
                self.cache.push(u as NodeId, v, &rows[u * dim..(u + 1) * dim]);
            }
        }
        (self.iter, self.fetches, self.hits, self.age_sum) = (iter, fetches, hits, age_sum);
        Ok(())
    }
}

impl Sidecar for HistoryState {
    fn sidecar(&mut self) -> Option<&mut dyn CkptSidecar> {
        Some(self)
    }
}

/// Trains a 2-layer GNN where the second layer's out-of-batch inputs come
/// from a historical-embedding cache instead of recursive sampling.
///
/// The computation graph per batch is **one** sampled hop regardless of
/// depth; the price is staleness, which the returned [`HistoryStats`]
/// quantifies.
pub fn train_history(
    ds: &Dataset,
    fanout: usize,
    cfg: &TrainConfig,
) -> TrainResult<(TrainReport, HistoryStats)> {
    let mut run = EpochDriver::new(ds, cfg)?;
    let hidden = *cfg.hidden.first().unwrap_or(&32);
    let d = ds.feature_dim();
    let n = ds.num_nodes();
    run.ledger.try_alloc(ds.features.nbytes())?;
    let cache = HistoryCache::new(n, hidden);
    run.ledger.try_alloc(cache.nbytes())?;
    let mut net = HistoryNet {
        self1: Linear::new(d, hidden, cfg.seed),
        neigh1: Linear::new(d, hidden, cfg.seed + 1),
        relu1: ReLU::new(),
        self2: Linear::new(hidden, ds.num_classes, cfg.seed + 2),
        neigh2: Linear::new(hidden, ds.num_classes, cfg.seed + 3),
    };
    let mut st = HistoryState { cache, nodes: n, iter: 0, fetches: 0, hits: 0, age_sum: 0.0 };
    let in_train = train_mask(ds);
    // Aggregation scratch reused across every batch of every epoch.
    let mut agg1 = DenseMatrix::default();
    let mut agg2 = DenseMatrix::default();
    // GAS-style schedule: batches cover *every* node (so each node's
    // history refreshes once per epoch); the loss only uses train members.
    let mut schedule: Vec<NodeId> = (0..n as NodeId).collect();
    let mut shuffled = 0usize;
    let report = run.run(
        "history-cache".into(),
        0.0,
        &mut net,
        &mut st,
        |net, opt, st, ep| {
            let epoch = ep.index;
            // Deterministic reshuffle per epoch. Each one permutes the
            // previous epoch's order, so a resumed run first replays the
            // shuffles of the epochs it skipped.
            while shuffled <= epoch {
                let mut rng = sgnn_linalg::rng::seeded(cfg.seed.wrapping_add(shuffled as u64));
                for i in (1..schedule.len()).rev() {
                    use rand::RngExt;
                    let j = rng.random_range(0..=i);
                    schedule.swap(i, j);
                }
                shuffled += 1;
            }
            let mut last = None;
            for (bi, chunk) in schedule.chunks(cfg.batch_size).enumerate() {
                st.iter += 1;
                let iter = st.iter;
                let seed = cfg.seed.wrapping_add((epoch * 7919 + bi) as u64);
                let (blocks, blocks1, x_src1, x_batch) = ep.phases.time(Phase::Sample, || {
                    // One sampled hop for layer 2's neighborhood.
                    let blocks = sample_blocks(&ds.graph, chunk, &[fanout], seed);
                    // Fresh layer-1 activations for the *batch* nodes only.
                    let blocks1 = sample_blocks(&ds.graph, chunk, &[fanout], seed ^ 0xABCD);
                    let x_src1 = gather_nodes(&ds.features, &blocks1[0].src);
                    let x_batch = gather_nodes(&ds.features, chunk);
                    (blocks, blocks1, x_src1, x_batch)
                });
                let block = &blocks[0];
                let b1 = &blocks1[0];
                let (h1_batch, h1_src, logits) = ep.phases.time(Phase::Forward, || {
                    agg1.reshape_scratch(b1.num_dst(), x_src1.cols());
                    b1.aggregate_into(&x_src1, &mut agg1);
                    let mut z1 = net.self1.forward(&x_batch);
                    let z1n = net.neigh1.forward(&agg1);
                    z1.add_scaled(1.0, &z1n).expect("shapes fixed");
                    let h1_batch = net.relu1.forward(&z1);
                    // Layer-2 inputs: fresh h1 for the batch prefix, cached
                    // h1 for the out-of-batch sources (stop-gradient).
                    let (cached, hit, age) = st.cache.fetch_batch(&block.src[chunk.len()..], iter);
                    st.fetches += (block.src.len() - chunk.len()) as u64;
                    st.hits += hit as u64;
                    st.age_sum += age * hit as f64;
                    let h1_src = h1_batch.concat_rows(&cached).expect("widths equal");
                    agg2.reshape_scratch(block.num_dst(), h1_src.cols());
                    block.aggregate_into(&h1_src, &mut agg2);
                    let mut logits = net.self2.forward(&h1_batch);
                    let l2n = net.neigh2.forward(&agg2);
                    logits.add_scaled(1.0, &l2n).expect("shapes fixed");
                    (h1_batch, h1_src, logits)
                });
                // Loss over the chunk's train members only; other rows get
                // zero gradient (their forward still refreshes the cache).
                let weights: Vec<f32> =
                    chunk.iter().map(|&u| if in_train[u as usize] { 1.0 } else { 0.0 }).collect();
                if weights.iter().all(|&w| w == 0.0) {
                    st.cache.push_batch(chunk, iter, &h1_batch);
                    continue;
                }
                let (loss, dl) = ep.phases.time(Phase::Forward, || {
                    softmax_cross_entropy(&logits, &ds.labels_of(chunk), Some(&weights))
                });
                last = Some(loss);
                ep.phases.time(Phase::Backward, || {
                    for l in net.linears() {
                        l.zero_grad();
                    }
                    let d_h1_direct = net.self2.backward(&dl);
                    let d_agg2 = net.neigh2.backward(&dl);
                    let d_h1_src = block.aggregate_backward(&d_agg2);
                    // Only the fresh prefix is differentiable; cached rows
                    // are constants.
                    let mut d_h1 = d_h1_direct;
                    for r in 0..chunk.len() {
                        sgnn_linalg::vecops::axpy(1.0, d_h1_src.row(r), d_h1.row_mut(r));
                    }
                    let d_z1 = net.relu1.backward(&d_h1);
                    let _ = net.self1.backward(&d_z1);
                    let _ = net.neigh1.backward(&d_z1);
                });
                ep.phases.time(Phase::Step, || {
                    let mut slot = 0usize;
                    for l in net.linears() {
                        l.visit_params(&mut |p, g| {
                            opt.update(slot, p, g);
                            slot += 1;
                        });
                    }
                    opt.step_done();
                });
                // Refresh the cache with this batch's fresh activations.
                st.cache.push_batch(chunk, iter, &h1_batch);
                ep.ledger.try_transient(
                    x_src1.nbytes() + h1_src.nbytes() + 2 * h1_batch.nbytes() + agg2.nbytes(),
                )?;
            }
            Ok(last)
        },
        |net, _, splits| {
            let logits_of = |chunk: &[NodeId]| net.logits_inference(ds, chunk);
            Ok(splits.iter().map(|s| chunked_accuracy(ds, s, logits_of)).collect())
        },
    )?;
    let stats = HistoryStats {
        hit_rate: st.hits as f64 / st.fetches.max(1) as f64,
        mean_age: if st.hits > 0 { st.age_sum / st.hits as f64 } else { 0.0 },
    };
    Ok((report, stats))
}

/// SEIGNN-style training: partition into subgraphs, add linked coarse
/// nodes, and train GCN batches of (one subgraph + all coarse nodes) so
/// inter-subgraph information keeps flowing.
pub fn train_seignn(ds: &Dataset, parts: usize, cfg: &TrainConfig) -> TrainResult<TrainReport> {
    let mut run = EpochDriver::new(ds, cfg)?;
    let t0 = std::time::Instant::now();
    let p = sgnn_partition::multilevel_partition(
        &ds.graph,
        parts,
        &sgnn_partition::multilevel::MultilevelConfig { seed: cfg.seed, ..Default::default() },
    );
    let aug = sgnn_coarsen::seignn::augment(&ds.graph, &p);
    let ax = aug.augment_features(&ds.features);
    let precompute_secs = t0.elapsed().as_secs_f64();
    run.ledger.try_alloc(ax.nbytes())?;
    let mut gcn = new_gcn(ds, cfg);
    let in_train = train_mask(ds);
    let full_op = OnceCell::new();
    run.run(
        format!("seignn-p{parts}"),
        precompute_secs,
        &mut gcn,
        &mut (),
        |gcn, opt, _, ep| {
            let mut last = None;
            for part in 0..parts as u32 {
                let (op, x, idx, labels) = ep.phases.time(Phase::Sample, || {
                    let (sub, map) = aug.batch_subgraph(part);
                    let x = gather_nodes(&ax, &map);
                    // Coarse nodes sit past the original ids: never trained on.
                    let (idx, labels) = local_train_rows(&map, &in_train, ds);
                    (gcn_operator(&sub), x, idx, labels)
                });
                // Batch residency: the subgraph operator and gathered
                // features are live alongside the layer activations.
                let acts = gcn.step_bytes(x.rows(), ds.feature_dim());
                ep.ledger.try_transient(op.nbytes() + x.nbytes() + acts)?;
                if !idx.is_empty() {
                    last = Some(gcn_step(gcn, opt, ep.phases, &op, &x, &idx, &labels, None));
                }
            }
            Ok(last)
        },
        // Evaluate on the full augmented graph; read original-node logits.
        |gcn, _, splits| {
            let op = full_op.get_or_init(|| gcn_operator(&aug.graph));
            Ok(split_accs(&gcn.forward_inference(op, &ax), ds, splits))
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgnn_data::sbm_dataset;

    #[test]
    fn history_trainer_learns_with_warm_cache() {
        let ds = sbm_dataset(800, 3, 10.0, 0.9, 8, 0.8, 0, 0.5, 0.25, 1);
        let cfg =
            TrainConfig { epochs: 30, hidden: vec![16], batch_size: 100, ..Default::default() };
        let (report, stats) = train_history(&ds, 5, &cfg).unwrap();
        assert!(report.test_acc > 0.75, "acc {}", report.test_acc);
        // After the first epoch the cache serves most fetches.
        assert!(stats.hit_rate > 0.5, "hit rate {}", stats.hit_rate);
        assert!(stats.mean_age > 0.0);
    }

    #[test]
    fn history_sidecar_round_trips_and_rejects_a_mismatched_cache_untouched() {
        let fresh = |n| HistoryState {
            cache: HistoryCache::new(n, 3),
            nodes: n,
            iter: 0,
            fetches: 0,
            hits: 0,
            age_sum: 0.0,
        };
        let mut src = fresh(10);
        src.cache.push(4, 2, &[1.0, 2.0, 3.0]);
        (src.iter, src.fetches, src.hits, src.age_sum) = (5, 7, 6, 1.5);
        let mut c = Ckpt::new();
        src.save(&mut c);
        let mut row = [0f32; 3];
        let mut dst = fresh(10);
        dst.restore(&c).unwrap();
        assert_eq!(dst.cache.fetch(4, 5, &mut row), Some(3), "version restored");
        assert_eq!(row, [1.0, 2.0, 3.0]);
        assert_eq!(dst.cache.fetch(5, 5, &mut row), None, "unwritten rows stay unwritten");
        assert_eq!((dst.iter, dst.fetches, dst.hits, dst.age_sum), (5, 7, 6, 1.5));
        let mut other = fresh(12);
        let err = other.restore(&c).unwrap_err();
        assert!(matches!(err, CkptError::WrongShape { .. }), "{err:?}");
        assert_eq!(other.cache.fetch(4, 5, &mut row), None, "failed restore copied a row");
        assert_eq!(other.iter, 0);
    }

    #[test]
    fn seignn_trainer_learns_and_beats_isolated_batches() {
        let ds = sbm_dataset(900, 3, 8.0, 0.85, 6, 0.8, 0, 0.5, 0.25, 2);
        let cfg = TrainConfig { epochs: 30, hidden: vec![16], ..Default::default() };
        let r = train_seignn(&ds, 6, &cfg).unwrap();
        assert!(r.test_acc > 0.75, "seignn acc {}", r.test_acc);
    }
}
