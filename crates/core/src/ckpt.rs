//! Trainer checkpoints: what gets saved, and why resume is bitwise-equal.
//!
//! The recovery determinism contract (DESIGN.md §8) rests on one
//! observation: after PR 3/4, *all* randomness in training is stateless —
//! dropout masks are per-element hashes of `(layer seed, epoch, row,
//! col)`, sampler seeds are derived from `(config seed, epoch, batch)`,
//! and cross-row reductions are exact fixed-point folds. The only state
//! that evolves across epochs is therefore:
//!
//! 1. model parameters (slot-ordered tensors),
//! 2. Adam's step counter and per-slot moment buffers,
//! 3. the early stopper's `(best, bad, stopped)`,
//! 4. the epoch counter and last training loss,
//! 5. the model's dropout call counters (each mask is a pure hash of
//!    `(layer seed, call number, element)`, but the call *number* itself
//!    advances once per training forward).
//!
//! Checkpoint exactly that — bit patterns, not decimal strings — and a
//! run resumed at epoch `e` replays epochs `e..` with inputs identical to
//! an uninterrupted run, so losses, accuracies, and final weights match
//! to the bit. The container is [`sgnn_fault::Ckpt`]: CRC-32 per record,
//! written atomically (temp + rename), so the rolling per-trainer file is
//! either the previous epoch's complete checkpoint or this epoch's —
//! never a torn mix.
//!
//! Spans: saves run under `trainer.checkpoint`, restores under
//! `trainer.recover`.

use crate::error::TrainError;
use sgnn_fault::{Ckpt, CkptError};
use sgnn_linalg::DenseMatrix;
use sgnn_nn::optim::Adam;
use std::path::{Path, PathBuf};

/// Models whose parameters are visitable in a stable slot order (the
/// same order their `step` feeds the optimizer). This is the whole
/// model-side checkpoint contract: save writes `param.{slot}` records in
/// visit order, restore copies them back in the same order.
pub trait SlotParams {
    /// Visits every parameter tensor, mutably, in slot order.
    fn visit_params_mut(&mut self, f: &mut dyn FnMut(&mut DenseMatrix));

    /// RNG-stream positions the model carries besides its parameters
    /// (dropout forward-call counters, in layer order). Stateless models
    /// return the empty default.
    fn rng_calls(&self) -> Vec<u64> {
        Vec::new()
    }

    /// Restores the counters reported by [`rng_calls`](Self::rng_calls).
    fn restore_rng_calls(&mut self, _calls: &[u64]) {}
}

/// Extra trainer-side state checkpointed alongside the model — e.g. the
/// compressed-exchange comm state (error-feedback residuals, ghost
/// caches, staleness clocks), which evolves across epochs just like
/// Adam's moments and must survive a kill for compressed resume to be
/// bitwise (DESIGN.md §11). Implementors write namespaced records in
/// [`save`](CkptSidecar::save) and must validate every record against
/// the live state before mutating anything in
/// [`restore`](CkptSidecar::restore).
pub trait CkptSidecar {
    /// Appends this state's records to the epoch checkpoint.
    fn save(&self, c: &mut Ckpt);

    /// Restores the records written by [`save`](CkptSidecar::save);
    /// errors (missing records, shape mismatches) must leave the live
    /// state untouched.
    fn restore(&mut self, c: &Ckpt) -> Result<(), CkptError>;
}

/// Trainer state recovered from a checkpoint.
#[derive(Debug, Clone)]
pub struct ResumeState {
    /// Completed epochs (training resumes at this epoch index).
    pub epoch_done: usize,
    /// Training loss of the last completed epoch.
    pub final_loss: f32,
    /// Early stopper's best validation score (bit-exact f64).
    pub stopper_best: f64,
    /// Early stopper's bad-epoch streak.
    pub stopper_bad: usize,
    /// True when training already stopped early — resume runs no more
    /// epochs (replaying the reference run's break).
    pub stopped: bool,
}

/// The rolling checkpoint file for `trainer` under `dir`.
pub fn ckpt_path(dir: &Path, trainer: &str) -> PathBuf {
    dir.join(format!("{trainer}.ckpt"))
}

/// Saves a post-epoch checkpoint atomically; returns bytes written.
pub fn save_epoch(
    path: &Path,
    trainer: &str,
    state: &ResumeState,
    opt: &Adam,
    model: &mut dyn SlotParams,
    sidecar: Option<&dyn CkptSidecar>,
) -> Result<u64, TrainError> {
    static CKPT_WRITE_NS: sgnn_obs::Histogram = sgnn_obs::Histogram::new("ckpt.write.ns");
    let _sp = sgnn_obs::span!("trainer.checkpoint");
    let _ht = CKPT_WRITE_NS.time();
    let mut c = Ckpt::new();
    c.put_str("meta.trainer", trainer);
    c.put_u64("meta.epoch_done", state.epoch_done as u64);
    c.put_u64("meta.final_loss_bits", state.final_loss.to_bits() as u64);
    c.put_f64("stopper.best", state.stopper_best);
    c.put_u64("stopper.bad", state.stopper_bad as u64);
    c.put_u64("meta.stopped", state.stopped as u64);
    let mut slots = 0u64;
    model.visit_params_mut(&mut |p| {
        c.put_f32s(&format!("param.{slots}"), p.data());
        slots += 1;
    });
    c.put_u64("meta.slots", slots);
    let rng = model.rng_calls();
    c.put_u64("rng.slots", rng.len() as u64);
    for (i, calls) in rng.iter().enumerate() {
        c.put_u64(&format!("rng.calls.{i}"), *calls);
    }
    let (t, m, v) = opt.export_state();
    c.put_u64("adam.t", t as u64);
    for (i, buf) in m.iter().enumerate() {
        c.put_f32s(&format!("adam.m.{i}"), buf);
    }
    for (i, buf) in v.iter().enumerate() {
        c.put_f32s(&format!("adam.v.{i}"), buf);
    }
    c.put_u64("adam.slots", m.len() as u64);
    if let Some(side) = sidecar {
        side.save(&mut c);
    }
    Ok(c.save(path)?)
}

/// Restores a checkpoint into `opt` and `model`.
///
/// Returns `Ok(None)` — cold start — when the file does not exist (the
/// "killed before the first checkpoint" case). Everything else is strict:
/// corruption, a different trainer's checkpoint, or a parameter shape
/// mismatch all error; nothing is partially restored on the error paths
/// that precede the copy-back.
pub fn try_restore(
    path: &Path,
    trainer: &str,
    opt: &mut Adam,
    model: &mut dyn SlotParams,
    sidecar: Option<&mut dyn CkptSidecar>,
) -> Result<Option<ResumeState>, TrainError> {
    let _sp = sgnn_obs::span!("trainer.recover");
    let c = match Ckpt::load(path) {
        Ok(c) => c,
        Err(CkptError::Io(e)) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e.into()),
    };
    let found = c.str_("meta.trainer")?.to_string();
    if found != trainer {
        return Err(TrainError::CheckpointMismatch { expected: trainer.to_string(), found });
    }
    // Validate every parameter record against the live model before
    // touching any tensor, so a shape mismatch cannot half-restore.
    let mut shapes = Vec::new();
    model.visit_params_mut(&mut |p| shapes.push(p.data().len()));
    let slots = c.u64("meta.slots")? as usize;
    if slots != shapes.len() {
        return Err(TrainError::CheckpointMismatch {
            expected: format!("{} param slots", shapes.len()),
            found: format!("{slots} param slots"),
        });
    }
    let mut params = Vec::with_capacity(slots);
    for (i, &len) in shapes.iter().enumerate() {
        let vals = c.f32s(&format!("param.{i}"))?;
        if vals.len() != len {
            return Err(TrainError::CheckpointMismatch {
                expected: format!("param.{i} with {len} values"),
                found: format!("{} values", vals.len()),
            });
        }
        params.push(vals);
    }
    let rng_slots = c.u64("rng.slots")? as usize;
    if rng_slots != model.rng_calls().len() {
        return Err(TrainError::CheckpointMismatch {
            expected: format!("{} rng slots", model.rng_calls().len()),
            found: format!("{rng_slots} rng slots"),
        });
    }
    let mut rng = Vec::with_capacity(rng_slots);
    for i in 0..rng_slots {
        rng.push(c.u64(&format!("rng.calls.{i}"))?);
    }
    let adam_slots = c.u64("adam.slots")? as usize;
    let mut m = Vec::with_capacity(adam_slots);
    let mut v = Vec::with_capacity(adam_slots);
    for i in 0..adam_slots {
        m.push(c.f32s(&format!("adam.m.{i}"))?);
        v.push(c.f32s(&format!("adam.v.{i}"))?);
    }
    let state = ResumeState {
        epoch_done: c.u64("meta.epoch_done")? as usize,
        final_loss: f32::from_bits(c.u64("meta.final_loss_bits")? as u32),
        stopper_best: c.f64("stopper.best")?,
        stopper_bad: c.u64("stopper.bad")? as usize,
        stopped: c.u64("meta.stopped")? != 0,
    };
    let t = c.u64("adam.t")? as i32;
    // Sidecar restores before the model copy-back: its contract is
    // validate-then-copy, so a sidecar error leaves model and optimizer
    // untouched, and a sidecar success cannot be followed by a failure.
    if let Some(side) = sidecar {
        side.restore(&c)?;
    }
    // All records verified — copy back.
    let mut it = params.into_iter();
    model.visit_params_mut(&mut |p| {
        let vals = it.next().expect("slot count validated");
        p.data_mut().copy_from_slice(&vals);
    });
    model.restore_rng_calls(&rng);
    opt.restore_state(t, m, v);
    Ok(Some(state))
}

impl SlotParams for crate::models::gcn::Gcn {
    fn visit_params_mut(&mut self, f: &mut dyn FnMut(&mut DenseMatrix)) {
        crate::models::gcn::Gcn::visit_params_mut(self, f)
    }

    fn rng_calls(&self) -> Vec<u64> {
        self.dropout_calls()
    }

    fn restore_rng_calls(&mut self, calls: &[u64]) {
        self.restore_dropout_calls(calls)
    }
}

impl SlotParams for crate::models::sage::Sage {
    fn visit_params_mut(&mut self, f: &mut dyn FnMut(&mut DenseMatrix)) {
        crate::models::sage::Sage::visit_params_mut(self, f)
    }
}

impl SlotParams for sgnn_nn::Mlp {
    fn visit_params_mut(&mut self, f: &mut dyn FnMut(&mut DenseMatrix)) {
        sgnn_nn::Mlp::visit_params_mut(self, f)
    }

    fn rng_calls(&self) -> Vec<u64> {
        self.dropout_calls()
    }

    fn restore_rng_calls(&mut self, calls: &[u64]) {
        self.restore_dropout_calls(calls)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::gcn::{Gcn, GcnConfig};

    fn tmp(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("sgnn_core_ckpt_{}_{tag}.ckpt", std::process::id()))
    }

    fn bits_of(g: &mut Gcn) -> Vec<u32> {
        let mut out = Vec::new();
        g.visit_params_mut(&mut |p| out.extend(p.data().iter().map(|v| v.to_bits())));
        out
    }

    #[test]
    fn save_restore_round_trips_model_and_adam() {
        let path = tmp("roundtrip");
        let mut src = Gcn::new(5, 3, &GcnConfig { hidden: vec![4], dropout: 0.1, seed: 11 });
        let opt = Adam::new(0.01);
        // Give Adam some non-trivial state.
        src.visit_params_mut(&mut |p| {
            for (i, v) in p.data_mut().iter_mut().enumerate() {
                *v += (i as f32) * 1e-3;
            }
        });
        let state = ResumeState {
            epoch_done: 9,
            final_loss: 0.4375,
            stopper_best: 0.87,
            stopper_bad: 2,
            stopped: false,
        };
        save_epoch(&path, "gcn-full", &state, &opt, &mut src, None).unwrap();

        let mut dst = Gcn::new(5, 3, &GcnConfig { hidden: vec![4], dropout: 0.1, seed: 999 });
        let mut opt2 = Adam::new(0.01);
        let back =
            try_restore(&path, "gcn-full", &mut opt2, &mut dst, None).unwrap().expect("present");
        assert_eq!(back.epoch_done, 9);
        assert_eq!(back.final_loss.to_bits(), 0.4375f32.to_bits());
        assert_eq!(back.stopper_best.to_bits(), 0.87f64.to_bits());
        assert_eq!(back.stopper_bad, 2);
        assert!(!back.stopped);
        assert_eq!(bits_of(&mut src), bits_of(&mut dst), "weights must round-trip bit-exact");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn missing_file_is_cold_start() {
        let mut g = Gcn::new(3, 2, &GcnConfig::default());
        let mut opt = Adam::new(0.01);
        let r =
            try_restore(Path::new("/nonexistent/dir/x.ckpt"), "gcn-full", &mut opt, &mut g, None)
                .unwrap();
        assert!(r.is_none());
    }

    #[test]
    fn wrong_trainer_is_a_mismatch() {
        let path = tmp("mismatch");
        let mut g = Gcn::new(3, 2, &GcnConfig { hidden: vec![2], dropout: 0.0, seed: 1 });
        let mut opt = Adam::new(0.01);
        let st = ResumeState {
            epoch_done: 1,
            final_loss: 1.0,
            stopper_best: f64::NEG_INFINITY,
            stopper_bad: 0,
            stopped: false,
        };
        save_epoch(&path, "gcn-full", &st, &opt, &mut g, None).unwrap();
        let before = bits_of(&mut g);
        let err = try_restore(&path, "saint-rw", &mut opt, &mut g, None).unwrap_err();
        assert!(matches!(err, TrainError::CheckpointMismatch { .. }), "{err:?}");
        assert_eq!(bits_of(&mut g), before, "failed restore must not touch the model");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn shape_mismatch_does_not_half_restore() {
        let path = tmp("shape");
        let mut small = Gcn::new(3, 2, &GcnConfig { hidden: vec![2], dropout: 0.0, seed: 1 });
        let mut opt = Adam::new(0.01);
        let st = ResumeState {
            epoch_done: 3,
            final_loss: 1.0,
            stopper_best: 0.0,
            stopper_bad: 0,
            stopped: false,
        };
        save_epoch(&path, "gcn-full", &st, &opt, &mut small, None).unwrap();
        let mut big = Gcn::new(6, 4, &GcnConfig { hidden: vec![8], dropout: 0.0, seed: 2 });
        let before = bits_of(&mut big);
        let err = try_restore(&path, "gcn-full", &mut opt, &mut big, None).unwrap_err();
        assert!(matches!(err, TrainError::CheckpointMismatch { .. }), "{err:?}");
        assert_eq!(bits_of(&mut big), before);
        let _ = std::fs::remove_file(&path);
    }
}
