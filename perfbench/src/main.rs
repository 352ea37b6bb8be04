//! `perfbench` — the end-to-end and per-layer benchmark of sgnn.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload train-full --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Workloads: `train-full`, `train-sampled`, `serve-zipf`, `serve-uniform`
//! (see `perfbench/README.md`). `--trace 0` prints the end-to-end metrics,
//! `--trace 1` runs the traced replay and prints the per-layer metrics.
//! Every workload prints every metric of its kind: a traced run measures
//! its own workload's layers first, then the layers only the other
//! workloads exercise, on the same inputs.
//! Diagnostics go to stderr; the last line of stdout is one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`.

mod inputs;
mod mirror;
mod report;
mod serve;
mod stats;
mod sys;
mod trace;
mod train;

use report::{Kind, Report, Workload};
use std::process::ExitCode;

/// Command-line settings of one run.
pub struct Run {
    /// Workload to run.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Measurement budget, seconds.
    pub seconds: f64,
    /// Traced per-layer run instead of the end-to-end run.
    pub trace: bool,
}

/// Operations attempted and failed, and the output-check violations.
#[derive(Default)]
pub struct Ledger {
    /// Trainer calls, requests and output checks attempted.
    pub attempted: u64,
    /// Of those, the ones that failed.
    pub failed: u64,
    /// One line per failed output check.
    pub violations: Vec<String>,
}

impl Ledger {
    /// Counts one operation.
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Counts one output check; a violation fails the run.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.op(ok);
        if !ok {
            let msg = what();
            eprintln!("CHECK FAILED: {msg}");
            self.violations.push(msg);
        }
    }
}

fn parse_args() -> Result<Run, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(val).ok_or_else(|| format!("unknown workload {val}"))?)
            }
            "--seed" => seed = Some(val.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = val.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {val}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Run {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let run = match parse_args() {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <train-full|train-sampled|serve-zipf|serve-uniform> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    // Pin the pool to the hardware so runnable threads never exceed it.
    sgnn_linalg::par::set_threads(sys::nproc());
    eprintln!(
        "perfbench: {} seed {} seconds {} trace {} on {} hardware threads",
        run.workload.name(),
        run.seed,
        run.seconds,
        run.trace as u8,
        sys::nproc()
    );
    let calib_start = sys::calib_ms();
    let kind = if run.trace { Kind::PerLayer } else { Kind::EndToEnd };
    let mut report = Report::new(run.workload, kind);
    let mut ledger = Ledger::default();
    let family = |w: Workload, report: &mut Report, ledger: &mut Ledger| {
        sgnn_linalg::par::set_threads(sys::nproc());
        match w {
            Workload::TrainFull => train::full(&run, report, ledger),
            Workload::TrainSampled => train::sampled(&run, report, ledger),
            Workload::ServeZipf | Workload::ServeUniform => serve::run(&run, w, report, ledger),
        }
    };
    family(run.workload, &mut report, &mut ledger);
    if run.trace {
        // Every per-layer name is printed on every workload: the layers
        // this workload does not run are measured by the traced code of
        // the workloads that do, on the same inputs.
        report.fill_rest();
        let serving = if run.workload.serves() { run.workload } else { Workload::ServeZipf };
        for w in [Workload::TrainFull, Workload::TrainSampled, serving] {
            if w != run.workload {
                eprintln!("perfbench: layers of {} for the metrics still missing", w.name());
                family(w, &mut report, &mut ledger);
            }
        }
    }
    let calib_end = sys::calib_ms();
    eprintln!("bench.calib_ms: start {calib_start:.3} end {calib_end:.3} (median of 11 each)");
    if run.trace {
        report.put("bench.calib_ms", calib_start);
        report.put("bench.calib_drift", calib_end / calib_start);
        report.put("bench.trace_overhead_frac", sys::trace_overhead_ratio());
    } else {
        let rss = sys::peak_rss_mib();
        ledger.check(rss.is_some(), || "VmHWM unreadable".into());
        report.put("peak_rss_mib", rss.unwrap_or(f64::NAN));
        report.put("ok_frac", 1.0 - ledger.failed as f64 / ledger.attempted.max(1) as f64);
    }
    let missing = report.missing();
    ledger.check(missing.is_empty(), || format!("metrics not measured: {missing:?}"));
    println!("{}", report.json(ledger.violations.is_empty(), ledger.attempted, ledger.failed));
    ExitCode::SUCCESS
}
