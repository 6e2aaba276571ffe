//! A fleet of independent simulated devices driven from one shared plan.
//!
//! The simulator is deterministic and cheap, so scale-out is simulated the
//! honest way: a [`Fleet`] owns N fully independent [`Device`]s — each with
//! its own clocks, stream set, memory pool, and profiler — and drives a
//! per-device [`BatchScheduler`] from a *shared* [`LaunchPlan`]. Nothing in
//! the plan or the scheduler is device-count aware, which is exactly the
//! point of the route-agnostic launch-plan layer: one lowered plan runs on
//! any number of devices without either compilation route changing.
//!
//! Fleet-level observability is a roll-up, not a shared object:
//! [`Fleet::merged_profiler`] folds every device's records, spans, notes and
//! allocation counters into one [`Profiler`] via [`Profiler::merge`], and
//! batch runs accumulate their per-device [`RunStats`] with
//! [`RunStats::accumulate`]. Each device's clock starts at zero and advances
//! only with its own work, so [`Fleet::makespan_us`] — the slowest device —
//! is the fleet's batch completion time when all devices start together.
//!
//! Job-level scheduling (arrival traces, admission control, tenant
//! fairness) lives above this module in the `serve` crate; this module only
//! provides the device pool and the static frame-sharding primitive
//! [`Fleet::run_round_robin`].

use crate::cost::Calibration;
use crate::device::{Device, DeviceConfig};
use crate::profiler::Profiler;
use crate::schedule::{
    BatchOutput, BatchScheduler, ExecOptions, LaunchPlan, RunStats, ScheduleError,
};
use mdarray::NdArray;

/// A pool of N independent simulated devices.
#[derive(Debug, Clone)]
pub struct Fleet {
    devices: Vec<Device>,
}

impl Fleet {
    /// A fleet of `n` identical devices built from one config/calibration
    /// pair. Rejects `n == 0` with a typed [`ScheduleError::Config`] — an
    /// empty fleet is a configuration mistake, not a degenerate run.
    pub fn homogeneous(
        n: usize,
        config: DeviceConfig,
        calib: Calibration,
    ) -> Result<Fleet, ScheduleError> {
        if n == 0 {
            return Err(ScheduleError::Config(
                "devices must be >= 1 (1 = the single-device baseline)".into(),
            ));
        }
        Ok(Fleet { devices: (0..n).map(|_| Device::new(config.clone(), calib.clone())).collect() })
    }

    /// A fleet of `n` simulated GTX480s at the paper calibration.
    pub fn gtx480(n: usize) -> Result<Fleet, ScheduleError> {
        Fleet::homogeneous(n, DeviceConfig::gtx480(), Calibration::gtx480())
    }

    /// Number of devices.
    pub fn len(&self) -> usize {
        self.devices.len()
    }

    /// Always false: construction rejects empty fleets.
    pub fn is_empty(&self) -> bool {
        self.devices.is_empty()
    }

    /// Device `i` (panics when out of range, like slice indexing).
    pub fn device(&self, i: usize) -> &Device {
        &self.devices[i]
    }

    /// Mutable device `i`.
    pub fn device_mut(&mut self, i: usize) -> &mut Device {
        &mut self.devices[i]
    }

    /// All devices, in index order.
    pub fn devices(&self) -> &[Device] {
        &self.devices
    }

    /// All devices, mutably.
    pub fn devices_mut(&mut self) -> &mut [Device] {
        &mut self.devices
    }

    /// Enable or disable the size-class memory pool on every device.
    pub fn set_pool_enabled(&mut self, enabled: bool) {
        for d in &mut self.devices {
            d.set_pool_enabled(enabled);
        }
    }

    /// The slowest device's clock, µs — the fleet's batch completion time
    /// when all devices started at zero together.
    pub fn makespan_us(&self) -> f64 {
        self.devices.iter().map(Device::now_us).fold(0.0, f64::max)
    }

    /// Fold every device's profiler into one fleet-level [`Profiler`]: the
    /// roll-up the serving layer reports from. See [`Profiler::merge`] for
    /// the merge semantics (record sums, appended spans/notes, added
    /// allocation counters).
    pub fn merged_profiler(&self) -> Profiler {
        let mut merged = Profiler::new();
        for d in &self.devices {
            merged.merge(&d.profiler);
        }
        merged
    }

    /// Shard a batch of frames round-robin across the fleet (frame `f` runs
    /// on device `f % len`), each device executing its subsequence as one
    /// [`BatchScheduler`] batch over the shared `plan`, and reassemble the
    /// outputs in original frame order.
    ///
    /// The frame→lane assignment inside each device's batch is unchanged
    /// (lane = position `% opts.streams`), and frame results never depend on
    /// which device or lane computed them, so the reassembled outputs are
    /// bit-identical to a single-device run at every fleet width.
    /// [`ExecOptions::total_frames`] replay extends each shard the same way
    /// the frames themselves are dealt: replayed frame `f` is charged to
    /// device `f % len`. Per-device stats are folded into one [`RunStats`].
    pub fn run_round_robin(
        &mut self,
        plan: &LaunchPlan<'_>,
        frames: &[Vec<NdArray<i64>>],
        opts: &ExecOptions,
    ) -> Result<BatchOutput, ScheduleError> {
        opts.validate().map_err(ScheduleError::Config)?;
        let n = self.devices.len();
        // Frame sharding assumes frames are independent; a plan with carries
        // chains frame f+1 on frame f's host result, which round-robin
        // dealing across devices would silently break (each device would
        // thread only its own subsequence). Rejected as configuration, not
        // worked around: a temporal workload needs a single device batch.
        if !plan.carries.is_empty() && n > 1 {
            return Err(ScheduleError::Config(format!(
                "plan carries cross-frame state; round-robin frame sharding across {n} devices \
                 would break the carry chain (run temporal plans on one device)"
            )));
        }
        let total = if opts.total_frames == 0 { frames.len() } else { opts.total_frames };
        if total < frames.len() {
            return Err(ScheduleError::Config(format!(
                "total_frames {total} is less than the {} supplied frames",
                frames.len()
            )));
        }
        let mut stats = RunStats::default();
        let mut outputs: Vec<Option<Vec<NdArray<i64>>>> = vec![None; frames.len()];
        let scheduler = BatchScheduler::new(plan);
        for (d, device) in self.devices.iter_mut().enumerate() {
            let indices: Vec<usize> = (d..frames.len()).step_by(n).collect();
            let shard: Vec<Vec<NdArray<i64>>> =
                indices.iter().map(|&f| frames[f].clone()).collect();
            let shard_total = (d..total).step_by(n).count();
            if shard_total == 0 {
                continue;
            }
            let shard_opts = ExecOptions { total_frames: shard_total, ..*opts };
            let (outs, st) = if shard.is_empty() {
                // A device whose shard is pure replay still needs one
                // functional frame to measure: reuse frame `d % frames.len()`
                // as the template and discard its outputs.
                if frames.is_empty() {
                    continue;
                }
                let probe = vec![frames[d % frames.len()].clone()];
                let (_, st) = scheduler.run(device, &probe, &shard_opts)?;
                (Vec::new(), st)
            } else {
                scheduler.run(device, &shard, &shard_opts)?
            };
            for (&f, out) in indices.iter().zip(outs) {
                outputs[f] = Some(out);
            }
            stats.accumulate(&st);
        }
        let outputs: Vec<Vec<NdArray<i64>>> = outputs
            .into_iter()
            .enumerate()
            .map(|(f, o)| {
                o.ok_or_else(|| ScheduleError::Plan(format!("frame {f} was never executed")))
            })
            .collect::<Result<_, _>>()?;
        Ok((outputs, stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::LaunchConfig;
    use crate::kir::{BinOp, Kernel, KernelBuilder, KernelFlavor, Special};
    use crate::schedule::{ArrayDecl, PlanKernel, PlanStep};

    /// x[i] = 2 * x[i].
    fn double_kernel(n: usize) -> (Kernel, LaunchConfig) {
        let mut b = KernelBuilder::new("dbl", KernelFlavor::Cuda);
        let x = b.buffer_param("x", true);
        let gid = b.special(Special::GlobalIdX);
        let v = b.load(x, gid);
        let two = b.constant(2);
        let w = b.bin(BinOp::Mul, v, two);
        b.store(x, gid, w);
        (b.finish(), LaunchConfig::cover_1d(n, n.min(64) as u32))
    }

    fn double_plan(kernel: &Kernel, config: LaunchConfig, n: usize) -> LaunchPlan<'_> {
        LaunchPlan {
            arrays: vec![ArrayDecl { name: "a".into(), shape: vec![n] }],
            inputs: vec![0],
            outputs: vec![0],
            kernels: vec![PlanKernel::new(kernel, config, vec![0])],
            host_ops: Vec::new(),
            steps: vec![
                PlanStep::Upload { array: 0, chunks: 1 },
                PlanStep::Launch { kernel: 0 },
                PlanStep::Download { array: 0, chunks: 1 },
            ],
            prologue: Vec::new(),
            invariant: Vec::new(),
            batches: Vec::new(),
            carries: Vec::new(),
            lane_label: "stream lanes",
        }
    }

    fn frames(count: usize, n: usize) -> Vec<Vec<NdArray<i64>>> {
        (0..count).map(|f| vec![NdArray::from_fn([n], |ix| (f * 100 + ix[0]) as i64)]).collect()
    }

    #[test]
    fn empty_fleet_is_a_typed_config_error() {
        let err = Fleet::gtx480(0);
        assert!(
            matches!(&err, Err(ScheduleError::Config(m)) if m.contains("devices must be >= 1")),
            "{err:?}"
        );
    }

    #[test]
    fn round_robin_sharding_is_bit_identical_at_every_width() {
        let n = 16;
        let (kernel, config) = double_kernel(n);
        let plan = double_plan(&kernel, config, n);
        let fr = frames(7, n);

        let mut single = Fleet::gtx480(1).unwrap();
        let (expect, expect_stats) =
            single.run_round_robin(&plan, &fr, &ExecOptions::default()).unwrap();
        for (f, out) in expect.iter().enumerate() {
            assert_eq!(out[0], NdArray::from_fn([n], |ix| 2 * (f * 100 + ix[0]) as i64));
        }

        for width in [2, 3, 4, 8] {
            let mut fleet = Fleet::gtx480(width).unwrap();
            let (outs, stats) = fleet.run_round_robin(&plan, &fr, &ExecOptions::default()).unwrap();
            assert_eq!(outs, expect, "width {width}");
            assert_eq!(stats, expect_stats, "width {width}");
            // Devices split the work, so the slowest device finishes earlier
            // than the single device did (7 frames over >=2 devices).
            assert!(fleet.makespan_us() < single.makespan_us(), "width {width}");
        }
    }

    #[test]
    fn merged_profiler_rolls_up_all_devices() {
        let n = 16;
        let (kernel, config) = double_kernel(n);
        let plan = double_plan(&kernel, config, n);
        let fr = frames(6, n);

        let mut fleet = Fleet::gtx480(3).unwrap();
        fleet.run_round_robin(&plan, &fr, &ExecOptions::default()).unwrap();
        let merged = fleet.merged_profiler();
        // 6 launches fleet-wide even though each device saw only 2.
        assert_eq!(merged.class_calls(crate::profiler::OpClass::Kernel), 6);
        for d in fleet.devices() {
            assert_eq!(d.profiler.class_calls(crate::profiler::OpClass::Kernel), 2);
        }
        // Busy time rolls up: merged engine busy is the sum over devices.
        let merged_busy = merged.engine_busy_us(crate::profiler::OpClass::Kernel);
        let sum: f64 = fleet
            .devices()
            .iter()
            .map(|d| d.profiler.engine_busy_us(crate::profiler::OpClass::Kernel))
            .sum();
        // Same spans, possibly summed in a different order.
        assert!((merged_busy - sum).abs() < 1e-9, "{merged_busy} vs {sum}");
    }

    #[test]
    fn replay_extends_each_shard_in_deal_order() {
        let n = 16;
        let (kernel, config) = double_kernel(n);
        let plan = double_plan(&kernel, config, n);
        let fr = frames(2, n);

        // 2 functional frames, 10 total over 2 devices: each device replays
        // to its 5-frame shard.
        let mut fleet = Fleet::gtx480(2).unwrap();
        let (outs, stats) = fleet
            .run_round_robin(&plan, &fr, &ExecOptions { total_frames: 10, ..Default::default() })
            .unwrap();
        assert_eq!(outs.len(), 2);
        assert_eq!(stats.launches, 10);
        // Both devices did the same amount of (uniform-cost) work.
        let d0 = fleet.device(0).now_us();
        let d1 = fleet.device(1).now_us();
        assert_eq!(d0, d1);

        // And the replayed fleet matches a replayed single device per shard:
        // a 5-frame single-device run has the same clock as each device.
        let mut single = Device::gtx480();
        BatchScheduler::new(&plan)
            .run(&mut single, &fr[0..1], &ExecOptions { total_frames: 5, ..Default::default() })
            .unwrap();
        assert_eq!(single.now_us(), d0);
    }

    #[test]
    fn replay_only_shards_still_charge_their_devices() {
        let n = 16;
        let (kernel, config) = double_kernel(n);
        let plan = double_plan(&kernel, config, n);
        // 1 functional frame, 6 total, 3 devices: devices 1 and 2 receive no
        // functional frame but still owe 2 replayed frames each.
        let fr = frames(1, n);
        let mut fleet = Fleet::gtx480(3).unwrap();
        let (outs, stats) = fleet
            .run_round_robin(&plan, &fr, &ExecOptions { total_frames: 6, ..Default::default() })
            .unwrap();
        assert_eq!(outs.len(), 1);
        // The probe frame doubles as the shard's first charged frame, so the
        // fleet launches exactly total_frames kernels — no double counting.
        assert_eq!(stats.launches, 6);
        for d in fleet.devices() {
            assert!(d.now_us() > 0.0);
        }
    }

    #[test]
    fn carry_plans_are_rejected_at_fleet_width_above_one() {
        let n = 16;
        let (kernel, config) = double_kernel(n);
        let mut plan = double_plan(&kernel, config, n);
        plan.carries = vec![crate::schedule::Carry { from: 0, to: 0 }];

        // Width 1 is fine: one device threads the whole chain.
        let mut single = Fleet::gtx480(1).unwrap();
        single.run_round_robin(&plan, &frames(3, n), &ExecOptions::default()).unwrap();

        // Width > 1 would silently break the chain — typed rejection.
        let mut fleet = Fleet::gtx480(2).unwrap();
        let err = fleet.run_round_robin(&plan, &frames(3, n), &ExecOptions::default());
        assert!(
            matches!(&err, Err(ScheduleError::Config(m)) if m.contains("carry chain")),
            "{err:?}"
        );
    }

    #[test]
    fn total_frames_below_supplied_frames_is_rejected() {
        let n = 16;
        let (kernel, config) = double_kernel(n);
        let plan = double_plan(&kernel, config, n);
        let mut fleet = Fleet::gtx480(2).unwrap();
        let err = fleet.run_round_robin(
            &plan,
            &frames(4, n),
            &ExecOptions { total_frames: 2, ..Default::default() },
        );
        assert!(matches!(err, Err(ScheduleError::Config(_))), "{err:?}");
    }
}
