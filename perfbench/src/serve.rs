//! The `serve-zipf` and `serve-uniform` workloads.
//!
//! Set-up trains a decoupled SCARA head and builds a `ServeEngine` with a
//! `Hot` store and an LRU cache. After a warm-up that fills the cache, a
//! generator thread offers open-loop Poisson arrivals at the workload's
//! fixed rate while `run_server` coalesces them; latency runs from each
//! request's due time to its answer. Timed set-ups then alternate with
//! closed-loop chunks that measure the capacity `sat_qps`; the traced run
//! instead searches offered rates for the open-loop knee `max_qps`. While load is offered the worker pool is
//! pinned to one thread, so only the generator and the server run.
//!
//! The traced run replays the recorded batches through `QueryPlanner`,
//! `LruCache`, `fresh_row` and the head with a span per call; its
//! strategy counts must equal the engine's `ServeStats`.

use crate::inputs::{self, Popularity, SplitMix};
use crate::mirror::{Stack, Tap};
use crate::report::{Report, Workload};
use crate::stats::{mean, median, quantile};
use crate::sys;
use crate::trace::Tracer;
use crate::train::{put_kernels, put_phases, write_trace};
use crate::{Ledger, Run};
use sgnn_core::models::decoupled::{DecoupledModel, PrecomputeMethod};
use sgnn_core::trainer::{train_decoupled, TrainConfig, TrainReport};
use sgnn_data::Dataset;
use sgnn_graph::NodeId;
use sgnn_linalg::{vecops, DenseMatrix};
use sgnn_nn::layers::Dropout;
use sgnn_nn::loss::softmax_cross_entropy;
use sgnn_nn::optim::Adam;
use sgnn_nn::Mlp;
use sgnn_serve::{
    fresh_row, run_server, AdmissionQueue, BatchConfig, EmbeddingStore, LruCache, PlannerConfig,
    PrecomputePolicy, QueryPlanner, ServeConfig, ServeEngine, ServeStats, ServedQuery, Strategy,
};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// PPR restart probability of training precompute and serving.
const ALPHA: f64 = 0.15;
/// SCARA push threshold of the training precompute.
const SCARA_EPS: f64 = 1e-4;
/// Per-node push tolerance of `FullProp` answers and the hot store.
const FULL_EPS: f64 = 1e-5;
/// Per-node push tolerance of `Sampled` answers.
const SAMPLED_EPS: f64 = 1e-3;
/// Rows the hot store precomputes (the top 5% by degree).
const HOT_ROWS: usize = 1_000;
/// LRU capacity for on-demand rows.
const CACHE_ROWS: usize = 2_048;
/// Head-training epochs during set-up.
const HEAD_EPOCHS: usize = 8;
/// Set-up repeats of an end-to-end run; `setup_s` and `epoch_s` are
/// medians over them.
const SETUP_REPEATS: usize = 10;
/// Set-up repeats of a traced run.
const TRACED_SETUP_REPEATS: usize = 5;
/// Minimum test accuracy of the head.
const ACC_FLOOR: f64 = 0.8;
/// Minimum accuracy of the served answers.
const SERVED_ACC_FLOOR: f64 = 0.7;
/// Requests of the batched-vs-one-at-a-time prefix check.
const PREFIX: usize = 256;
/// Generator lateness (p99) past which a load run is invalid, ms.
const MAX_GEN_LAG_MS: f64 = 20.0;
/// Requests per latency window: each window's p99 has 10 samples beyond
/// it, and the reported percentiles are medians over windows.
const WINDOW: usize = 1_000;
/// Fewest windows in the fixed-rate phase of the traced run.
const MIN_WINDOWS: usize = 5;

/// The traffic shape of one serve workload.
struct Shape {
    pop: Popularity,
    /// Fixed offered rate of the latency phase, requests per second.
    rate: f64,
    /// Latency limit on p99 (and on every request at the fixed rate), ms.
    limit_ms: f64,
    /// Requests of the cache warm-up.
    warm: usize,
}

fn shape(w: Workload) -> Shape {
    match w {
        Workload::ServeZipf => {
            Shape { pop: Popularity::Zipf(0.9), rate: 2_000.0, limit_ms: 250.0, warm: 6_000 }
        }
        _ => Shape { pop: Popularity::Uniform, rate: 650.0, limit_ms: 250.0, warm: 600 },
    }
}

fn planner_cfg() -> PlannerConfig {
    // Nodes above the ~90th percentile of degree or 2-hop frontier on the
    // quickstart graph are hubs and answered `Sampled`.
    PlannerConfig {
        hub_degree: 18,
        hub_frontier: 170,
        full_eps: FULL_EPS,
        sampled_eps: SAMPLED_EPS,
        escalate_below: None,
    }
}

fn serve_cfg() -> ServeConfig {
    ServeConfig {
        alpha: ALPHA,
        policy: PrecomputePolicy::Hot { count: HOT_ROWS, eps: FULL_EPS },
        planner: planner_cfg(),
        cache_capacity: CACHE_ROWS,
        ..Default::default()
    }
}

fn batch_cfg() -> BatchConfig {
    BatchConfig { deadline: Duration::from_micros(200), max_batch: 64, overload: None }
}

fn head_cfg(seed: u64) -> TrainConfig {
    TrainConfig { epochs: HEAD_EPOCHS, lr: 0.02, hidden: vec![32], seed, ..Default::default() }
}

fn scara() -> PrecomputeMethod {
    PrecomputeMethod::Scara { alpha: ALPHA, eps: SCARA_EPS }
}

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

fn engine(ds: &Dataset, head: &Mlp) -> ServeEngine {
    ServeEngine::new(ds.graph.clone(), ds.features.clone(), head.clone(), serve_cfg())
}

/// One open-loop load run.
struct Load {
    /// Per request, due time to answer, ms (request order).
    lat_ms: Vec<f64>,
    /// Per request, push time minus due time, ms.
    lag_ms: Vec<f64>,
    /// What `run_server` reported, in completion (= arrival) order.
    served: Vec<ServedQuery>,
    /// Requests the queue refused.
    refused: usize,
}

impl Load {
    /// The `q`-quantile of latency over the whole run.
    fn p(&self, q: f64) -> f64 {
        quantile(&self.lat_ms, q)
    }

    /// Median over consecutive `WINDOW`-request windows of each window's
    /// `q`-quantile, and the window count. A stall of the machine spoils
    /// the windows it overlaps, not the whole run.
    fn windowed(&self, q: f64) -> (f64, usize) {
        let per: Vec<f64> = self.lat_ms.chunks_exact(WINDOW).map(|w| quantile(w, q)).collect();
        (median(&per), per.len())
    }

    /// Sizes of the served batches, in order.
    fn batches(&self) -> Vec<usize> {
        let mut out = Vec::new();
        let mut i = 0;
        while i < self.served.len() {
            let b = self.served[i].batch_size.max(1);
            out.push(b);
            i += b;
        }
        out
    }
}

/// Offers `nodes` at due times `due_s` (seconds from start) from a
/// generator thread while this thread runs `run_server`.
fn offer(engine: &mut ServeEngine, nodes: &[NodeId], due_s: &[f64]) -> Load {
    let queue = AdmissionQueue::new();
    let cfg = batch_cfg();
    let (served, (lag_ms, refused)) = std::thread::scope(|s| {
        let gen = s.spawn(|| {
            let start = Instant::now() + Duration::from_millis(1);
            let mut lag_ms = Vec::with_capacity(nodes.len());
            let mut refused = 0usize;
            for (&u, &d) in nodes.iter().zip(due_s) {
                let due = start + Duration::from_secs_f64(d);
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                let pushed = Instant::now();
                if !queue.push(u) {
                    refused += 1;
                }
                lag_ms.push(pushed.duration_since(due).as_secs_f64() * 1e3);
            }
            queue.close();
            (lag_ms, refused)
        });
        let served = run_server(engine, &queue, &cfg);
        (served, gen.join().expect("generator thread panicked"))
    });
    let lat_ms =
        served.iter().zip(&lag_ms).map(|(q, lag)| lag + q.latency_ns as f64 * 1e-6).collect();
    Load { lat_ms, lag_ms, served, refused }
}

/// Pre-drawn request nodes and unit-rate arrivals of one stream, consumed
/// front to back so no two load runs offer the same requests.
struct Schedule {
    nodes: Vec<NodeId>,
    unit: Vec<f64>,
    next: usize,
}

impl Schedule {
    fn new(ds: &Dataset, pop: Popularity, len: usize, seed: u64, stream: u64) -> Self {
        let mut rng = SplitMix::new(seed, stream);
        let nodes = inputs::request_nodes(&ds.graph, pop, len, &mut rng);
        let unit = inputs::unit_arrivals(len, &mut rng);
        Schedule { nodes, unit, next: 0 }
    }

    /// The next `len` requests at `rate` per second, due times relative
    /// to the first.
    fn take(&mut self, rate: f64, len: usize) -> (&[NodeId], Vec<f64>) {
        let (a, b) = (self.next, (self.next + len).min(self.nodes.len()));
        assert!(b > a, "request schedule exhausted");
        self.next = b;
        let t0 = if a == 0 { 0.0 } else { self.unit[a - 1] };
        (&self.nodes[a..b], self.unit[a..b].iter().map(|t| (t - t0) / rate).collect())
    }
}

/// A load run passes when p99 and the last request's latency are under
/// the limit, the queue refused nothing and every request was answered.
fn passes(load: &Load, want: usize, limit_ms: f64) -> bool {
    load.served.len() == want
        && load.refused == 0
        && load.p(0.99) <= limit_ms
        && load.lat_ms.last().is_some_and(|&l| l <= limit_ms)
}

/// Seconds of offered load per `max_qps` probe.
const PROBE_S: f64 = 1.0;

/// One `max_qps` probe: offers the next `PROBE_S` seconds of `sched` at
/// `rate` and reports whether the run passes. A failed run is offered
/// once more with new requests, so one stall of the machine does not
/// fail a rate the server sustains.
fn probe(engine: &mut ServeEngine, sched: &mut Schedule, rate: f64, limit_ms: f64) -> bool {
    let len = ((rate * PROBE_S) as usize).max(WINDOW);
    (0..2).any(|attempt| {
        let (nodes, due) = sched.take(rate, len);
        let load = offer(engine, nodes, &due);
        let ok = passes(&load, nodes.len(), limit_ms);
        eprintln!(
            "  max_qps probe {rate:.0}/s attempt {attempt}: {} requests p99 {:.3} ms -> {}",
            nodes.len(),
            load.p(0.99),
            if ok { "pass" } else { "fail" }
        );
        ok
    })
}

/// Highest offered rate that passes, to a resolution of 2%. The fixed
/// rate `known` passed; the search starts at twice it, climbs in steps
/// of 15% while probes pass, then bisects geometrically. Returns the
/// rate and the number of probes.
fn max_qps(
    engine: &mut ServeEngine,
    sched: &mut Schedule,
    known: f64,
    limit_ms: f64,
) -> (f64, usize) {
    const STEP: f64 = 1.15;
    const RESOLUTION: f64 = 1.02;
    const MAX_PROBES: usize = 12;
    let mut probes = 1;
    let (mut lo, mut hi) = (known, 2.0 * known);
    while probe(engine, sched, hi, limit_ms) {
        probes += 1;
        if probes > MAX_PROBES {
            return (hi, probes);
        }
        (lo, hi) = (hi, hi * STEP);
    }
    while hi / lo > RESOLUTION && probes < MAX_PROBES {
        probes += 1;
        let mid = (lo * hi).sqrt();
        if probe(engine, sched, mid, limit_ms) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    (lo, probes)
}

/// Closed-loop capacity chunks after each timed set-up.
const SAT_CHUNKS_PER_SETUP: usize = 2;

/// Closed-loop capacity: `chunks` chunks of `chunk` new requests,
/// each queued in full before `run_server` starts and served with no
/// batching window, so the server is never idle and nothing else runs.
/// Returns requests per second per chunk.
fn sat_qps(
    engine: &mut ServeEngine,
    sched: &mut Schedule,
    chunk: usize,
    chunks: usize,
    ledger: &mut Ledger,
) -> Vec<f64> {
    let cfg = BatchConfig { deadline: Duration::ZERO, ..batch_cfg() };
    (0..chunks)
        .map(|_| {
            let (nodes, _) = sched.take(1.0, chunk);
            let speed = sys::speed();
            let queue = AdmissionQueue::new();
            for &u in nodes {
                ledger.op(queue.push(u));
            }
            queue.close();
            let t = Instant::now();
            let served = run_server(engine, &queue, &cfg);
            let rate = served.len() as f64 / secs(t) / speed;
            ledger.check(served.len() == nodes.len(), || "closed-loop run dropped requests".into());
            rate
        })
        .collect()
}

/// Serves `batches` (consecutive groups of `nodes`) on `engine`, returning
/// logits rows in request order and strategies, plus per-batch seconds.
fn serve_batches(
    engine: &mut ServeEngine,
    nodes: &[NodeId],
    batches: &[usize],
) -> (Vec<Vec<u32>>, Vec<Strategy>, Vec<f64>) {
    let mut rows = Vec::with_capacity(nodes.len());
    let mut strategies = Vec::with_capacity(nodes.len());
    let mut times = Vec::with_capacity(batches.len());
    let mut i = 0;
    for &b in batches {
        let t = Instant::now();
        let (logits, s) = engine.serve_batch_with_strategies(&nodes[i..i + b]);
        times.push(secs(t));
        for r in 0..b {
            rows.push(logits.row(r).iter().map(|v| v.to_bits()).collect());
        }
        strategies.extend(s);
        i += b;
    }
    (rows, strategies, times)
}

fn argmax_bits(row: &[u32]) -> usize {
    let vals: Vec<f32> = row.iter().map(|&b| f32::from_bits(b)).collect();
    vecops::argmax(&vals)
}

/// Serve set-ups: decoupled precompute + head training + engine build.
#[derive(Default)]
struct SetUps {
    /// Seconds of each timed set-up, times its speed factor.
    secs: Vec<f64>,
    /// Head-training seconds per epoch of each timed set-up, likewise.
    epoch: Vec<f64>,
    /// The head trainer's report of each timed set-up.
    reports: Vec<TrainReport>,
}

impl SetUps {
    /// Runs one set-up on `nproc` threads and returns its engine and head.
    /// With `speed`, the set-up is timed and restated by that factor.
    fn run(
        &mut self,
        ds: &Dataset,
        seed: u64,
        speed: Option<f64>,
        ledger: &mut Ledger,
    ) -> Option<(ServeEngine, Mlp)> {
        sgnn_linalg::par::set_threads(sys::nproc());
        let (g, x) = (ds.graph.clone(), ds.features.clone());
        let t = Instant::now();
        let trained = train_decoupled(ds, &scara(), &head_cfg(seed));
        ledger.op(trained.is_ok());
        let (model, rep) = trained.ok()?;
        let head = model.mlp.clone();
        let engine = ServeEngine::new(g, x, model.mlp, serve_cfg());
        if let Some(speed) = speed {
            self.secs.push(secs(t) * speed);
            self.epoch.push(rep.train_secs / rep.epochs_run.max(1) as f64 * speed);
            self.reports.push(rep);
        }
        Some((engine, head))
    }

    /// Checks the timed heads (same loss bits, accuracy floor) and returns
    /// their test accuracy.
    fn test_acc(&self, ledger: &mut Ledger) -> f64 {
        let Some(first) = self.reports.first() else {
            ledger.check(false, || "no timed set-up succeeded".into());
            return 0.0;
        };
        ledger.check(
            self.reports.iter().all(|r| r.final_loss.to_bits() == first.final_loss.to_bits()),
            || "head training not deterministic across set-up repeats".into(),
        );
        let acc = first.test_acc;
        ledger.check(acc >= ACC_FLOOR, || format!("test_acc {acc} < {ACC_FLOOR}"));
        eprintln!("setup_s: median {:.4} of {} repeats", median(&self.secs), self.secs.len());
        eprintln!(
            "epoch_s: median {:.4} of {} head trainings x {HEAD_EPOCHS} epochs",
            median(&self.epoch),
            self.epoch.len()
        );
        acc
    }
}

/// The `serve-*` workloads; `w` gives the traffic shape.
pub fn run(run: &Run, w: Workload, report: &mut Report, ledger: &mut Ledger) {
    let ds = inputs::dataset(run.seed);
    let shape = shape(w);
    // An untimed first set-up is the warm-up; its engine serves.
    let mut su = SetUps::default();
    let Some((mut live, head)) = su.run(&ds, run.seed, None, ledger) else {
        ledger.check(false, || "head training failed".into());
        return;
    };
    if run.trace {
        for _ in 0..TRACED_SETUP_REPEATS {
            su.run(&ds, run.seed, Some(1.0), ledger);
        }
    }

    // Warm-up: fill the cache (and spawn the pool) before any timing.
    let warm = Schedule::new(&ds, shape.pop, shape.warm, run.seed, inputs::STREAM_WARM);
    for chunk in warm.nodes.chunks(64) {
        black_box(live.serve_batch(chunk));
    }

    // Fixed-rate latency phase.
    let n_fixed = if run.trace {
        ((shape.rate * run.seconds * 0.25) as usize).max(MIN_WINDOWS * WINDOW)
    } else {
        ((shape.rate * run.seconds * 0.2) as usize).max(2 * WINDOW)
    };
    let mut fixed = Schedule::new(&ds, shape.pop, n_fixed, run.seed, inputs::STREAM_NODES);
    sgnn_linalg::par::set_threads(1);
    let stats_before = live.stats().clone();
    let (nodes, due) = fixed.take(shape.rate, n_fixed);
    let load = offer(&mut live, nodes, &due);
    let over = load.lat_ms.iter().filter(|&&l| l > shape.limit_ms).count();
    let unanswered = n_fixed - load.served.len().min(n_fixed);
    for i in 0..n_fixed {
        ledger.op(i >= over + unanswered);
    }
    let in_order = load.served.iter().zip(nodes).all(|(q, &u)| q.node == u);
    ledger.check(in_order, || "run_server answered out of arrival order".into());
    let gen_lag = quantile(&load.lag_ms, 0.99);
    ledger.check(gen_lag <= MAX_GEN_LAG_MS, || {
        format!("generator ran late: p99 lag {gen_lag:.3} ms > {MAX_GEN_LAG_MS} ms; run invalid")
    });
    let batches = load.batches();
    let ((p50, windows), (p99, _)) = (load.windowed(0.5), load.windowed(0.99));
    eprintln!(
        "fixed rate {:.0}/s: {} requests; p50 {p50:.4} ms, p99 {p99:.4} ms (medians over {windows} windows of {WINDOW}); \
         whole-run p50 {:.4} ms p99 {:.4} ms; {} over {} ms, gen lag p99 {:.4} ms, {} batches",
        shape.rate,
        n_fixed,
        load.p(0.5),
        load.p(0.99),
        over,
        shape.limit_ms,
        gen_lag,
        batches.len()
    );

    let mut probe_sched = Schedule::new(&ds, shape.pop, 600_000, run.seed, inputs::STREAM_PROBE);
    if !run.trace {
        // Timed set-ups alternate with capacity chunks, so both medians
        // span the whole run rather than one stretch of it.
        let chunk = shape.rate as usize;
        let mut sat = Vec::new();
        for _ in 0..SETUP_REPEATS {
            su.run(&ds, run.seed, Some(sys::speed()), ledger);
            sgnn_linalg::par::set_threads(1);
            sat.extend(sat_qps(&mut live, &mut probe_sched, chunk, SAT_CHUNKS_PER_SETUP, ledger));
        }
        let test_acc = su.test_acc(ledger);
        eprintln!(
            "sat_qps: median {:.1}/s of {} chunks of {chunk} requests: {sat:.0?}",
            median(&sat),
            sat.len()
        );
        sgnn_linalg::par::set_threads(sys::nproc());
        // Served answers replay exactly on a fresh engine in the recorded
        // batch compositions.
        let mut fresh = engine(&ds, &head);
        let (rows, _, _) = serve_batches(&mut fresh, nodes, &batches);
        let hits = rows
            .iter()
            .zip(nodes)
            .filter(|(r, &u)| argmax_bits(r) == ds.labels[u as usize])
            .count();
        let served_acc = hits as f64 / nodes.len() as f64;
        ledger.check(served_acc >= SERVED_ACC_FLOOR, || {
            format!("served_acc {served_acc} < {SERVED_ACC_FLOOR}")
        });
        let mut solo = engine(&ds, &head);
        let same = nodes[..PREFIX].iter().zip(&rows).all(|(&u, want)| {
            let (one, _) = solo.serve_one(u);
            one.iter().map(|v| v.to_bits()).eq(want.iter().copied())
        });
        ledger.check(same, || "batched answers differ from serve_one on a fresh engine".into());
        report.put("setup_s", median(&su.secs));
        report.put("epoch_s", median(&su.epoch));
        report.put("test_acc", test_acc);
        report.put("sat_qps", median(&sat));
        report.put("served_acc", served_acc);
        return;
    }
    su.test_acc(ledger);
    let head_reports = &su.reports;
    let stats_fixed = live.stats().clone();
    let (qps, probes) = max_qps(&mut live, &mut probe_sched, shape.rate, shape.limit_ms);
    eprintln!("serve.max_qps: {qps:.1}/s after {probes} probes");
    report.put("serve.max_qps", qps);
    sgnn_linalg::par::set_threads(sys::nproc());
    report.put(
        "prop.scara_ms",
        1e3 * median(&head_reports.iter().map(|r| r.precompute_secs).collect::<Vec<_>>()),
    );
    report.put(
        "core.head_train_s",
        median(&head_reports.iter().map(|r| r.train_secs).collect::<Vec<_>>()),
    );
    put_phases(report, head_reports, false);
    report.put("serve.p50_ms", p50);
    report.put("serve.p99_ms", p99);
    report.put("serve.gen_lag_ms", gen_lag);
    report.put("serve.batch_size_mean", n_fixed as f64 / batches.len() as f64);

    // Replay warm-up + fixed phase through the serving layers.
    let mut all_nodes: Vec<NodeId> = warm.nodes.clone();
    all_nodes.extend_from_slice(nodes);
    let mut all_batches: Vec<usize> = warm.nodes.chunks(64).map(|c| c.len()).collect();
    let warm_batches = all_batches.len();
    all_batches.extend_from_slice(&batches);
    let mut tr = Tracer::new();
    let rep = replay(&ds, &head, &all_nodes, &all_batches, &mut tr, report);
    ledger.check(stats_fixed == rep.stats, || {
        format!("replay counters {:?} != engine ServeStats {:?}", rep.stats, stats_fixed)
    });
    let d = |f: fn(&ServeStats) -> u64| (f(&stats_fixed) - f(&stats_before)) as f64;
    let reqs = d(|s| s.requests);
    report.put("serve.requests", reqs);
    report.put("serve.plan_cached", d(|s| s.plan_cached) / reqs);
    report.put("serve.plan_full", d(|s| s.plan_full) / reqs);
    report.put("serve.plan_sampled", d(|s| s.plan_sampled) / reqs);
    let probes = d(|s| s.cache_hits) + d(|s| s.cache_misses);
    report.put("serve.cache_probes", probes);
    report.put("serve.cache_hit_ratio", d(|s| s.cache_hits) / probes.max(1.0));
    eprintln!(
        "serve.plan_*: fractions of {reqs} fixed-rate requests; cache_hit_ratio of {probes} probes"
    );

    // The engine on the same batches: answers and strategies must match
    // the replay, and its per-batch time is the engine-level cost.
    let mut fresh = engine(&ds, &head);
    let (rows, strategies, times) = serve_batches(&mut fresh, &all_nodes, &all_batches);
    ledger.check(rows == rep.rows && strategies == rep.strategies, || {
        "engine answers differ from the layer replay".into()
    });
    report.put("serve.engine_batch_us", 1e6 * mean(&times[warm_batches..]));
    report.put(
        "serve.head_us",
        1e6 * tr.total_s("serve.head") / tr.count("serve.head").max(1) as f64,
    );

    // Per-call push cost on the trace's miss nodes, at both tolerances.
    let misses: Vec<NodeId> = all_nodes
        .iter()
        .zip(&rep.strategies)
        .filter(|(_, s)| matches!(s, Strategy::FullProp | Strategy::Sampled))
        .map(|(&u, _)| u)
        .take(200)
        .collect();
    let per_call_us = |eps: f64| {
        let t = Instant::now();
        for &u in &misses {
            black_box(fresh_row(&ds.graph, &ds.features, u, ALPHA, eps));
        }
        1e6 * secs(t) / misses.len().max(1) as f64
    };
    report.put("serve.fresh_row_full_us", per_call_us(FULL_EPS));
    report.put("serve.fresh_row_sampled_us", per_call_us(SAMPLED_EPS));
    eprintln!("serve.fresh_row_*_us: means over {} miss nodes", misses.len());

    store_metrics(&ds, report);
    head_replay(&ds, run.seed, &mut tr, report, ledger);
    write_trace(&tr, w.name(), run.seed);
}

/// What the layer replay produced.
struct Replayed {
    rows: Vec<Vec<u32>>,
    strategies: Vec<Strategy>,
    stats: ServeStats,
}

/// Replays batches through store, planner, cache, `fresh_row` and head
/// exactly as the engine acquires rows at zero pressure.
fn replay(
    ds: &Dataset,
    head: &Mlp,
    nodes: &[NodeId],
    batches: &[usize],
    tr: &mut Tracer,
    report: &mut Report,
) -> Replayed {
    let (g, x) = (&ds.graph, &ds.features);
    let t = Instant::now();
    let store = EmbeddingStore::build(
        g,
        x,
        ALPHA,
        &PrecomputePolicy::Hot { count: HOT_ROWS, eps: FULL_EPS },
    );
    report.put("serve.store_build_ms", 1e3 * secs(t));
    report.put("serve.store_rows", store.rows_built() as f64);
    let mut planner = QueryPlanner::new(g, planner_cfg());
    let mut cache = LruCache::new(CACHE_ROWS);
    let mut out =
        Replayed { rows: Vec::new(), strategies: Vec::new(), stats: ServeStats::default() };
    let mut i = 0;
    for (bi, &b) in batches.iter().enumerate() {
        let id = bi as u64;
        let batch = tr.begin("serve.batch", id);
        let mut emb = DenseMatrix::zeros(b, x.cols());
        for (r, &u) in nodes[i..i + b].iter().enumerate() {
            let (row, s) = if let Some(row) = store.get(u) {
                out.stats.store_hits += 1;
                (row.to_vec(), tr.time("serve.plan", id, || planner.plan(u, true)))
            } else if let Some(row) =
                tr.time("serve.cache", id, || cache.get(u).map(<[f32]>::to_vec))
            {
                (row, tr.time("serve.plan", id, || planner.plan(u, true)))
            } else {
                let s = tr.time("serve.plan", id, || planner.plan(u, false));
                let eps = if s == Strategy::FullProp { FULL_EPS } else { SAMPLED_EPS };
                let row = tr.time("serve.fresh_row", id, || fresh_row(g, x, u, ALPHA, eps));
                if s == Strategy::FullProp {
                    tr.time("serve.cache", id, || cache.insert(u, row.clone()));
                }
                (row, s)
            };
            emb.row_mut(r).copy_from_slice(&row);
            out.strategies.push(s);
        }
        let logits = tr.time("serve.head", id, || head.forward_inference(&emb));
        for r in 0..b {
            out.rows.push(logits.row(r).iter().map(|v| v.to_bits()).collect());
        }
        tr.end(batch);
        i += b;
    }
    out.stats.requests = nodes.len() as u64;
    out.stats.batches = batches.len() as u64;
    out.stats.cache_hits = cache.hits;
    out.stats.cache_misses = cache.misses;
    out.stats.cache_evictions = cache.evictions;
    out.stats.plan_cached = planner.cached;
    out.stats.plan_full = planner.full;
    out.stats.plan_sampled = planner.sampled;
    out
}

/// Push work of the hot store: Σ edge touches of the per-node pushes that
/// build its rows (the `Hot` policy's `push_stats()` is zero by design).
fn store_metrics(ds: &Dataset, report: &mut Report) {
    let g = &ds.graph;
    let mut by_degree: Vec<NodeId> = (0..g.num_nodes() as NodeId).collect();
    by_degree.sort_by_key(|&u| (std::cmp::Reverse(g.degree(u)), u));
    let touches: u64 = by_degree[..HOT_ROWS]
        .iter()
        .map(|&u| sgnn_prop::forward_push(g, u, ALPHA, FULL_EPS).1.edge_touches)
        .sum();
    report.put("serve.store_edge_touches", touches as f64);
}

/// Replays two head-training epochs of the decoupled trainer (the first
/// untimed) with phase spans and a kernel mirror per batch, for the
/// `linalg.*` metrics and the attribution coverage of the set-up's head
/// training.
fn head_replay(ds: &Dataset, seed: u64, tr: &mut Tracer, report: &mut Report, ledger: &mut Ledger) {
    let cfg = head_cfg(seed);
    let mut model = DecoupledModel::new(ds, &scara(), &cfg.hidden, cfg.dropout, cfg.seed);
    let mut opt = Adam::new(cfg.lr).with_weight_decay(cfg.weight_decay);
    let mut call = 0u64;
    let mut diverged = 0usize;
    let epoch_id = 1u64 << 40;
    for epoch in 0..2u64 {
        let e = epoch_id + epoch;
        for chunk in ds.splits.train.chunks(cfg.batch_size) {
            call += 1;
            let rows: Vec<usize> = chunk.iter().map(|&u| u as usize).collect();
            let x = model.embedding.gather_rows(&rows);
            let labels = ds.labels_of(chunk);
            let mut before = Tap::default();
            model.mlp.step(&mut before);
            let fw = tr.begin("core.forward", e);
            let logits = model.mlp.forward(&x);
            let (loss, dl) = softmax_cross_entropy(&logits, &labels, None);
            tr.end(fw);
            let bw = tr.begin("core.backward", e);
            model.mlp.zero_grad();
            model.mlp.backward(&dl);
            tr.end(bw);
            let mut tap = Tap::default();
            model.mlp.step(&mut tap);
            tr.time("core.step", e, || model.mlp.step(&mut opt));
            let seeds: Vec<u64> = (0..before.params.len() / 2 - 1)
                .map(|i| Dropout::call_seed(cfg.seed.wrapping_add(1000 + i as u64), call))
                .collect();
            let stack =
                Stack { op: None, params: &before.params, drop_seeds: &seeds, p: cfg.dropout };
            let mirrored = stack.step(tr, e, &x, None, &labels);
            if mirrored.loss.to_bits() != loss.to_bits() || mirrored.grads != tap.grads {
                diverged += 1;
            }
        }
    }
    ledger.check(diverged == 0, || format!("MLP kernel mirror diverged on {diverged} batches"));
    put_kernels(report, tr, &[epoch_id + 1], None);
}
