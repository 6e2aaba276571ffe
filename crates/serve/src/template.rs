//! Replay templates: measure one job's exact span schedule once, then
//! re-run it for free.
//!
//! The simulator's cost model is content-independent — a frame's simulated
//! cost depends on shapes and calibration, never on pixel values — and
//! every fleet device is configured identically. So the full span schedule
//! of one *functional* job is an exact timing witness for every other job of
//! the same shape. A [`JobTemplate`] holds that [`ScheduleWitness`];
//! replaying it on a synchronized device advances clocks, engines and the
//! profiler exactly as the functional run would, at zero compute cost. This
//! is the serving-scale version of the `BatchScheduler`'s own warm-frame
//! timing replay, through the same witness type.

use mdarray::NdArray;
use simgpu::{
    BatchOutput, BatchScheduler, Device, ExecOptions, LaunchPlan, RunStats, ScheduleError,
    ScheduleWitness,
};

use crate::engine::ServeError;

/// The measured schedule of one job shape, keyed by its frame count.
#[derive(Debug, Clone)]
pub struct JobTemplate {
    /// Frames a job of this shape charges (functional + replayed).
    pub total_frames: usize,
    /// Simulated duration of the job on an idle device, µs.
    pub dur_us: f64,
    witness: ScheduleWitness,
}

impl JobTemplate {
    /// Measure a `total_frames`-frame job on `device` and capture its
    /// schedule. `probe_frames` supplies at least one functional frame (the
    /// scheduler measures frame 0 and replays the rest, so one frame is
    /// enough); the probe's outputs are discarded. The device is left
    /// synchronized — callers typically probe on a scratch clone so the
    /// serving fleet's clocks stay untouched.
    pub fn capture(
        plan: &LaunchPlan<'_>,
        device: &mut Device,
        exec: &ExecOptions,
        probe_frames: &[Vec<NdArray<i64>>],
        total_frames: usize,
    ) -> Result<JobTemplate, ServeError> {
        if probe_frames.is_empty() {
            return Err(ServeError::Config(
                "template capture needs at least one functional probe frame".into(),
            ));
        }
        let (_, template) = JobTemplate::run(plan, device, exec, probe_frames, total_frames)?;
        Ok(template)
    }

    /// Run a `total_frames`-frame job functionally on `device`, returning
    /// its outputs and counters together with the template its measured
    /// schedule witnesses.
    pub(crate) fn run(
        plan: &LaunchPlan<'_>,
        device: &mut Device,
        exec: &ExecOptions,
        frames: &[Vec<NdArray<i64>>],
        total_frames: usize,
    ) -> Result<(BatchOutput, JobTemplate), ScheduleError> {
        let span_mark = device.profiler.spans().count();
        let t0 = device.now_us();
        let opts = ExecOptions { total_frames, ..*exec };
        let (outputs, stats) = BatchScheduler::new(plan).run(device, frames, &opts)?;
        let witness = ScheduleWitness::capture(&device.profiler, span_mark, stats.clone());
        let template = JobTemplate { total_frames, dur_us: device.now_us() - t0, witness };
        Ok(((outputs, stats), template))
    }

    /// Replay the captured schedule on `device`, which must be idle
    /// (synchronized). Lane slot `k` runs on the device's stream `k`, the
    /// same stream set its functional jobs use, and the witness holds every
    /// ordering the job had (a carry plan is one lane), so the replay is
    /// exact by construction. Returns the per-job [`RunStats`]; the device
    /// ends synchronized, its clock advanced by [`JobTemplate::dur_us`] up
    /// to f64 accumulation ulps (the replay runs at a different clock
    /// offset than the capture, and summation is not shift-invariant at the
    /// last bit). The drift is deterministic — pure IEEE arithmetic, no
    /// libm — so replayed traces remain golden-able byte for byte.
    pub(crate) fn replay(&self, device: &mut Device) -> Result<RunStats, ScheduleError> {
        let streams = device.lane_streams(self.witness.lanes());
        let stats = self.witness.replay(device, &streams)?.clone();
        device.synchronize();
        Ok(stats)
    }
}
