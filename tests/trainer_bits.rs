//! Golden bits for every trainer (DESIGN.md §8): each of the nine
//! `train_*` functions, run on one small SBM with a fixed config, must
//! reproduce the pinned final-loss bits, split accuracies and epoch
//! count exactly. The sharded trainer is pinned under the exact and a
//! lossy compressed halo regime.
//!
//! The values were recorded before the trainers shared one epoch
//! driver; a refactor of the loop skeleton that changes any of them
//! changed behaviour. All training randomness is stateless, so the
//! values hold at any thread count — CI runs this binary at
//! `SGNN_THREADS=1` and `2`.

use sgnn::coarsen::coarsen_to_ratio;
use sgnn::core::models::decoupled::PrecomputeMethod;
use sgnn::core::shard::train_sharded_gcn;
use sgnn::core::trainer::{
    train_cluster_gcn, train_coarse_with, train_decoupled, train_full_gcn, train_saint,
    train_sampled, SamplerKind, TrainConfig, TrainReport,
};
use sgnn::core::trainer_ext::{train_history, train_seignn};
use sgnn::core::CommRegime;
use sgnn::data::{sbm_dataset, Dataset};
use sgnn::linalg::QuantMode;
use sgnn::partition::hash_partition;
use sgnn::sample::SaintSampler;

/// `(label, final_loss bits, val_acc, test_acc, epochs_run)`.
type Pin = (&'static str, u32, f64, f64, usize);

const PINS: [Pin; 10] = [
    ("gcn-full", 0x3f3f8ec1, 0.9833333333333333, 0.9833333333333333, 4),
    ("decoupled-sgc", 0x3f43de9d, 0.9666666666666667, 0.9666666666666667, 4),
    ("sampled-nodewise", 0x3f1bf8d0, 0.9166666666666666, 0.8666666666666667, 4),
    ("saint-rw", 0x3eb25da8, 1.0, 0.9666666666666667, 4),
    ("cluster-gcn", 0x3e524fbe, 0.9833333333333333, 0.9833333333333333, 4),
    ("coarse-hem", 0x3f5de40b, 0.9, 0.8666666666666667, 4),
    ("history", 0x3e7050f1, 0.9833333333333333, 0.9833333333333333, 4),
    ("seignn", 0x3e95f32a, 1.0, 0.9666666666666667, 4),
    ("sharded-exact", 0x3f3f8ec1, 0.9833333333333333, 0.9833333333333333, 4),
    ("sharded-int8-s2", 0x3f420499, 0.9833333333333333, 0.9833333333333333, 4),
];

fn dataset() -> Dataset {
    sbm_dataset(240, 3, 8.0, 0.85, 6, 0.8, 0, 0.5, 0.25, 41)
}

fn config() -> TrainConfig {
    TrainConfig { epochs: 4, hidden: vec![8], batch_size: 64, lr: 0.05, ..Default::default() }
}

fn run_all(ds: &Dataset, cfg: &TrainConfig) -> Vec<(&'static str, TrainReport)> {
    let part = hash_partition(ds.num_nodes(), 2);
    let sharded = |regime: CommRegime| {
        let cfg = TrainConfig { comm_regime: regime, ..cfg.clone() };
        train_sharded_gcn(ds, &part, &cfg).unwrap().1
    };
    let int8 = CommRegime::Compressed { quant: QuantMode::Int8, staleness: 2 };
    vec![
        ("gcn-full", train_full_gcn(ds, cfg).unwrap().1),
        ("decoupled-sgc", train_decoupled(ds, &PrecomputeMethod::Sgc { k: 2 }, cfg).unwrap().1),
        ("sampled-nodewise", train_sampled(ds, &SamplerKind::NodeWise(vec![4, 4]), cfg).unwrap().1),
        (
            "saint-rw",
            train_saint(ds, SaintSampler::RandomWalk { roots: 30, length: 4 }, 3, cfg).unwrap().1,
        ),
        ("cluster-gcn", train_cluster_gcn(ds, 6, 2, cfg).unwrap().1),
        (
            "coarse-hem",
            train_coarse_with(ds, &coarsen_to_ratio(&ds.graph, 0.5, cfg.seed), cfg, "coarse-hem")
                .unwrap(),
        ),
        ("history", train_history(ds, 4, cfg).unwrap().0),
        ("seignn", train_seignn(ds, 4, cfg).unwrap()),
        ("sharded-exact", sharded(CommRegime::Exact)),
        ("sharded-int8-s2", sharded(int8)),
    ]
}

#[test]
fn every_trainer_reproduces_its_golden_bits() {
    let got = run_all(&dataset(), &config());
    // On a mismatch, print the whole observed table so a deliberate
    // behaviour change can be re-pinned in one step.
    let table: Vec<String> = got
        .iter()
        .map(|(label, r)| {
            format!(
                "(\"{label}\", {:#010x}, {:?}, {:?}, {}),",
                r.final_loss.to_bits(),
                r.val_acc,
                r.test_acc,
                r.epochs_run
            )
        })
        .collect();
    assert_eq!(got.len(), PINS.len());
    for ((label, r), &(pin_label, loss_bits, val, test, epochs)) in got.iter().zip(&PINS) {
        assert_eq!(*label, pin_label);
        let ok = r.final_loss.to_bits() == loss_bits
            && r.val_acc == val
            && r.test_acc == test
            && r.epochs_run == epochs;
        assert!(ok, "{label} diverged from its golden bits; observed:\n{}", table.join("\n"));
    }
}
