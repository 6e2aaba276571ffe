//! Step-by-step execution of one plan frame through `Device`'s public API,
//! so each kernel interpretation (`Device::launch`) is timed on its own.
//! The batch scheduler runs the same steps internally; this walk exists only
//! to split the `simgpu` layer out of the `schedule` layer in a traced run.

use std::time::Instant;

use mdarray::NdArray;
use simgpu::schedule::{LaunchPlan, PlanStep};
use simgpu::{BufferId, Device, KernelArg};

use crate::trace::span;

/// Dynamic counters of one walked frame.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WalkStats {
    /// Dynamic KIR instructions.
    pub instrs: u64,
    /// Modelled L1 hits and distinct (DRAM) accesses.
    pub l1_hits: u64,
    pub distinct: u64,
    /// Host time inside `Device::launch`, ns.
    pub launch_ns: u64,
}

/// Execute one frame of `plan` (prologue, then steps) on `dev` and return
/// its outputs in declared order.
pub fn walk_frame(
    plan: &LaunchPlan<'_>,
    dev: &mut Device,
    inputs: &[NdArray<i64>],
) -> Result<(Vec<NdArray<i64>>, WalkStats), String> {
    let n = plan.arrays.len();
    let mut host: Vec<Option<NdArray<i64>>> = vec![None; n];
    let mut bufs: Vec<Option<BufferId>> = vec![None; n];
    for (&a, arr) in plan.inputs.iter().zip(inputs) {
        host[a] = Some(arr.clone());
    }
    let mut st = WalkStats::default();
    let e = |e: simgpu::SimError| e.to_string();
    let buffer = |dev: &mut Device, bufs: &mut [Option<BufferId>], a: usize| match bufs[a] {
        Some(b) => Ok(b),
        None => {
            let b = dev.malloc(plan.arrays[a].len()).map_err(e)?;
            bufs[a] = Some(b);
            Ok::<_, String>(b)
        }
    };
    for step in plan.prologue.iter().chain(&plan.steps) {
        let (uploads, downloads): (&[usize], &[usize]) = match step {
            PlanStep::Upload { array, .. } => (std::slice::from_ref(array), &[]),
            PlanStep::UploadBatch { batch } => (&plan.batches[*batch], &[]),
            PlanStep::Download { array, .. } => (&[], std::slice::from_ref(array)),
            PlanStep::DownloadBatch { batch } => (&[], &plan.batches[*batch]),
            PlanStep::Alloc { array } => {
                buffer(dev, &mut bufs, *array)?;
                (&[], &[])
            }
            PlanStep::Launch { kernel } => {
                let pk = &plan.kernels[*kernel];
                let args: Vec<KernelArg> = pk
                    .args
                    .iter()
                    .map(|&a| bufs[a].map(|b| KernelArg::Buffer(b.0)))
                    .collect::<Option<_>>()
                    .ok_or("launch argument not on the device")?;
                let t0 = Instant::now();
                let ls = span("simgpu.launch", || dev.launch(&pk.kernel, pk.config, &args))
                    .map_err(e)?;
                st.launch_ns += t0.elapsed().as_nanos() as u64;
                st.instrs += ls.instructions;
                st.l1_hits += ls.l1_hits;
                st.distinct += ls.distinct_accesses;
                (&[], &[])
            }
            PlanStep::Host { op } => {
                let h = &plan.host_ops[*op];
                let reads: Vec<NdArray<i64>> = h
                    .reads
                    .iter()
                    .map(|&a| host[a].clone())
                    .collect::<Option<_>>()
                    .ok_or("host step input missing")?;
                host[h.target] = Some((h.run)(&reads)?.0);
                (&[], &[])
            }
        };
        for &a in uploads {
            let data: Vec<i32> = host[a]
                .as_ref()
                .ok_or("upload of an uncomputed array")?
                .as_slice()
                .iter()
                .map(|&v| v as i32)
                .collect();
            let b = buffer(dev, &mut bufs, a)?;
            dev.host2device(&data, b).map_err(e)?;
        }
        for &a in downloads {
            let b = bufs[a].ok_or("download of an array not on the device")?;
            let data = dev.device2host(b).map_err(e)?;
            let arr = NdArray::from_vec(
                plan.arrays[a].shape.clone(),
                data.into_iter().map(i64::from).collect(),
            )
            .map_err(|e| e.to_string())?;
            host[a] = Some(arr);
        }
    }
    let outs = plan
        .outputs
        .iter()
        .map(|&a| host[a].take())
        .collect::<Option<_>>()
        .ok_or("an output never reached the host")?;
    Ok((outs, st))
}
