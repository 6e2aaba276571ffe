//! A fleet of independent simulated devices driven from one shared plan.
//!
//! The simulator is deterministic and cheap, so scale-out is simulated the
//! honest way: a [`Fleet`] owns N fully independent [`Device`]s — each with
//! its own clocks, stream set, memory pool, and profiler — and each device
//! runs a [`BatchScheduler`](crate::schedule::BatchScheduler) over a
//! *shared* [`LaunchPlan`](crate::schedule::LaunchPlan). Nothing in
//! the plan or the scheduler is device-count aware, which is exactly the
//! point of the route-agnostic launch-plan layer: one lowered plan runs on
//! any number of devices without either compilation route changing.
//!
//! Fleet-level observability is a roll-up, not a shared object:
//! [`Fleet::merged_profiler`] folds every device's records, spans, notes and
//! allocation counters into one [`Profiler`] via [`Profiler::merge`], and
//! batch runs accumulate their per-device
//! [`RunStats`](crate::schedule::RunStats) with `RunStats::accumulate`.
//! Each device's clock starts at zero and advances only with its own work.
//!
//! Job-level scheduling (arrival traces, admission control, tenant
//! fairness, sharding) lives above this module in the `serve` crate; this
//! module only provides the device pool.

use crate::cost::{Calibration, CostModel};
use crate::device::{Device, DeviceConfig};
use crate::profiler::Profiler;
use crate::schedule::ScheduleError;

/// A pool of N independent simulated devices.
#[derive(Debug, Clone)]
pub struct Fleet {
    devices: Vec<Device>,
}

impl Fleet {
    /// A fleet of `n` identical devices built from one config and cost
    /// model. Rejects `n == 0` with a typed [`ScheduleError::Config`] — an
    /// empty fleet is a configuration mistake, not a degenerate run.
    pub fn homogeneous(
        n: usize,
        config: DeviceConfig,
        model: impl Into<CostModel>,
    ) -> Result<Fleet, ScheduleError> {
        if n == 0 {
            return Err(ScheduleError::Config(
                "devices must be >= 1 (1 = the single-device baseline)".into(),
            ));
        }
        let model = model.into();
        Ok(Fleet { devices: (0..n).map(|_| Device::new(config.clone(), model)).collect() })
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::LaunchConfig;
    use crate::kir::{BinOp, KernelBuilder, KernelFlavor, Special};
    use crate::profiler::OpClass;
    use crate::schedule::{
        ArrayDecl, BatchScheduler, ExecOptions, LaunchPlan, PlanKernel, PlanStep,
    };
    use mdarray::NdArray;

    #[test]
    fn empty_fleet_is_a_typed_config_error() {
        let err = Fleet::gtx480(0);
        assert!(
            matches!(&err, Err(ScheduleError::Config(m)) if m.contains("devices must be >= 1")),
            "{err:?}"
        );
    }

    #[test]
    fn merged_profiler_rolls_up_all_devices() {
        // x[i] = 2 * x[i], one upload / launch / download per frame.
        let n = 16;
        let mut b = KernelBuilder::new("dbl", KernelFlavor::Cuda);
        let x = b.buffer_param("x", true);
        let gid = b.special(Special::GlobalIdX);
        let v = b.load(x, gid);
        let two = b.constant(2);
        let w = b.bin(BinOp::Mul, v, two);
        b.store(x, gid, w);
        let kernel = b.finish();
        let plan = LaunchPlan {
            arrays: vec![ArrayDecl { name: "a".into(), shape: vec![n] }],
            inputs: vec![0],
            outputs: vec![0],
            kernels: vec![PlanKernel::new(&kernel, LaunchConfig::cover_1d(n, 16), vec![0])],
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
        };
        let frames: Vec<Vec<NdArray<i64>>> =
            (0..2).map(|f| vec![NdArray::from_fn([n], |ix| (f * 100 + ix[0]) as i64)]).collect();

        let mut fleet = Fleet::gtx480(3).unwrap();
        for device in fleet.devices_mut() {
            BatchScheduler::new(&plan).run(device, &frames, &ExecOptions::default()).unwrap();
        }
        let merged = fleet.merged_profiler();
        // 6 launches fleet-wide even though each device saw only 2.
        assert_eq!(merged.class_calls(OpClass::Kernel), 6);
        for d in fleet.devices() {
            assert_eq!(d.profiler.class_calls(OpClass::Kernel), 2);
        }
        // Busy time rolls up: merged engine busy is the sum over devices.
        let merged_busy = merged.engine_busy_us(OpClass::Kernel);
        let sum: f64 =
            fleet.devices().iter().map(|d| d.profiler.engine_busy_us(OpClass::Kernel)).sum();
        // Same spans, possibly summed in a different order.
        assert!((merged_busy - sum).abs() < 1e-9, "{merged_busy} vs {sum}");
    }
}
