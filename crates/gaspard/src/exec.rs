//! Lowering of generated OpenCL programs for the simulator.
//!
//! The generated host code's behaviour (per the paper's profile in Table I):
//! per frame, every source array is written to the device
//! (`clEnqueueWriteBuffer` ⇒ `memcpyHtoDasync`), all kernels run back to
//! back with intermediates staying in device memory, and every sink array is
//! read back (`memcpyDtoHasync`).
//!
//! This module contains no executor: [`lower_plan`] projects a scheduled
//! model's kernel list onto the route-agnostic
//! [`simgpu::schedule::LaunchPlan`] IR, and [`simgpu::run_plan`] runs it —
//! the same engine that runs the SaC→CUDA route, so command-queue
//! pipelining, OOM degradation and timing replay are shared code, not
//! reimplementations. Frame `f` of a batch runs on command queue
//! `f % streams` (an OpenCL command queue is the simulator's stream) with
//! that queue's private buffer set; the plan's inputs bind positionally to
//! the scheduled model's source arrays and its outputs are the sink arrays,
//! in model order.

use crate::codegen::OpenClProgram;
use simgpu::schedule::{ArrayDecl, LaunchPlan, PlanKernel, PlanStep};

/// Where the generated host loop keeps intermediate arrays.
///
/// The MDE-generated host code the paper profiles keeps intermediates
/// device-resident ([`Placement::Resident`]); [`Placement::PerKernelRoundTrip`]
/// lowers the naive placement a straight per-tiler translation would emit —
/// upload each kernel's input, download its output, every kernel, every
/// frame. It exists as the planopt baseline: the residency and dead-transfer
/// passes must recover the resident placement from it mechanically.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// Intermediates stay in device memory between kernels (paper-faithful).
    Resident,
    /// Every kernel's input is uploaded and its output downloaded — the
    /// maximally redundant placement used as the planopt ablation baseline.
    PerKernelRoundTrip,
}

/// Lower a generated OpenCL program to the route-agnostic launch-plan IR.
///
/// The plan mirrors the generated host loop exactly: one `Upload` per source
/// array (whole-buffer writes — the MDE chain does not chunk transfers), one
/// `Alloc` + `Launch` per scheduled kernel with the `[output, input]`
/// argument convention of the generated kernels, and one `Download` per sink
/// array, in model order. The chain performs no host fallbacks, so the plan
/// has no host ops.
pub fn lower_plan(prog: &OpenClProgram) -> LaunchPlan<'_> {
    lower_plan_with(prog, Placement::Resident)
}

/// [`lower_plan`] with an explicit intermediate [`Placement`].
///
/// `PerKernelRoundTrip` emits, per kernel in model order: upload its input,
/// alloc its output, launch, download its output — so every intermediate
/// makes a full host round trip between producer and consumer, and inputs
/// shared by several kernels are uploaded once per reader. This is the
/// placement a per-tiler translation without cross-kernel analysis produces;
/// `simgpu::planopt`'s residency + dead-transfer passes reduce it back to
/// the `Resident` step list.
pub fn lower_plan_with(prog: &OpenClProgram, placement: Placement) -> LaunchPlan<'_> {
    let sm = &prog.model;
    let arrays: Vec<ArrayDecl> = sm
        .arrays
        .iter()
        .map(|a| ArrayDecl { name: a.name.clone(), shape: a.shape.clone() })
        .collect();
    // Each generated kernel pairs 1:1 with its scheduled task, whose tilers
    // describe the access; attaching them lets `simgpu::planopt`'s fusion
    // pass re-fuse the plan without consulting GASPARD2 internals.
    let kernels: Vec<PlanKernel<'_>> = prog
        .kernels
        .iter()
        .zip(&sm.kernels)
        .map(|(k, sk)| {
            PlanKernel::new(&k.kernel, k.config, vec![k.output, k.input])
                .with_access(crate::codegen::access_of(sk))
        })
        .collect();
    let mut steps = Vec::with_capacity(sm.inputs.len() + 2 * prog.kernels.len() + sm.outputs.len());
    match placement {
        Placement::Resident => {
            for &id in &sm.inputs {
                steps.push(PlanStep::Upload { array: id, chunks: 1 });
            }
            for (i, k) in prog.kernels.iter().enumerate() {
                steps.push(PlanStep::Alloc { array: k.output });
                steps.push(PlanStep::Launch { kernel: i });
            }
            for &id in &sm.outputs {
                steps.push(PlanStep::Download { array: id, chunks: 1 });
            }
        }
        Placement::PerKernelRoundTrip => {
            for (i, k) in prog.kernels.iter().enumerate() {
                steps.push(PlanStep::Upload { array: k.input, chunks: 1 });
                steps.push(PlanStep::Alloc { array: k.output });
                steps.push(PlanStep::Launch { kernel: i });
                steps.push(PlanStep::Download { array: k.output, chunks: 1 });
            }
        }
    }
    LaunchPlan {
        arrays,
        inputs: sm.inputs.clone(),
        outputs: sm.outputs.clone(),
        kernels,
        host_ops: Vec::new(),
        steps,
        prologue: Vec::new(),
        invariant: Vec::new(),
        batches: Vec::new(),
        carries: Vec::new(),
        lane_label: "command queues",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codegen::generate_opencl;
    use crate::fixtures::mini_two_stage_model;
    use crate::model::Platform;
    use crate::transform::{deploy, schedule, to_arrayol};
    use arrayol::exec::execute;
    use mdarray::NdArray;
    use simgpu::{run_plan, Device, ExecOptions, ScheduleError};
    use std::collections::HashMap;

    type Frames = Vec<Vec<NdArray<i64>>>;

    /// Lower `prog` with `placement` and run `frames` through [`run_plan`].
    fn run_with_placement(
        prog: &OpenClProgram,
        device: &mut Device,
        frames: &[Vec<NdArray<i64>>],
        opts: ExecOptions,
        placement: Placement,
    ) -> Result<simgpu::BatchOutput, ScheduleError> {
        run_plan(lower_plan_with(prog, placement), device, frames, &opts)
    }

    /// [`run_with_placement`] at the paper's resident placement, outputs only.
    fn run(
        prog: &OpenClProgram,
        device: &mut Device,
        frames: &[Vec<NdArray<i64>>],
        opts: ExecOptions,
    ) -> Result<Frames, ScheduleError> {
        Ok(run_with_placement(prog, device, frames, opts, Placement::Resident)?.0)
    }

    /// [`run`] on one frame with the default options.
    fn run_once(
        prog: &OpenClProgram,
        device: &mut Device,
        inputs: &[NdArray<i64>],
    ) -> Result<Vec<NdArray<i64>>, ScheduleError> {
        let mut outs = run(prog, device, &[inputs.to_vec()], ExecOptions::default())?;
        Ok(outs.pop().expect("one frame"))
    }

    fn compiled() -> OpenClProgram {
        let (model, alloc) = mini_two_stage_model();
        let dep = deploy(model, Platform::cpu_gpu(), alloc).unwrap();
        let sm = schedule(&dep).unwrap();
        generate_opencl(&sm).unwrap()
    }

    #[test]
    fn generated_opencl_matches_arrayol_reference() {
        let prog = compiled();
        let frame = NdArray::from_fn([4usize, 16], |ix| ((ix[0] * 37 + ix[1] * 11) % 256) as i64);

        // Reference: the ArrayOL projection of the same scheduled model.
        let g = to_arrayol(&prog.model).unwrap();
        let mut inputs = HashMap::new();
        inputs.insert(g.external_inputs[0], frame.clone());
        let expect = execute(&g, &inputs).unwrap();
        let expect = &expect[&g.external_outputs[0]];

        // Generated OpenCL on the simulator.
        let mut device = Device::gtx480();
        let got = run_once(&prog, &mut device, &[frame]).unwrap();
        assert_eq!(&got[0], expect);
        assert!(device.now_us() > 0.0);
    }

    #[test]
    fn profiler_shows_paper_operations() {
        let prog = compiled();
        let frame = NdArray::filled([4usize, 16], 9i64);
        let mut device = Device::gtx480();
        run_once(&prog, &mut device, &[frame]).unwrap();
        let names: Vec<&str> = device.profiler.records().map(|r| r.name.as_str()).collect();
        assert!(names.contains(&"memcpyHtoDasync"));
        assert!(names.contains(&"memcpyDtoHasync"));
        assert!(names.contains(&"s1"));
        assert!(names.contains(&"s2"));
    }

    #[test]
    fn input_validation() {
        let prog = compiled();
        let mut device = Device::gtx480();
        let err = run_once(&prog, &mut device, &[]);
        assert!(matches!(err, Err(ScheduleError::Input(_))), "{err:?}");
        let wrong = NdArray::filled([3usize, 3], 0i64);
        let err = run_once(&prog, &mut device, &[wrong]);
        assert!(matches!(err, Err(ScheduleError::Input(_))), "{err:?}");
    }

    #[test]
    fn zero_queues_is_rejected_by_the_unified_validation() {
        let prog = compiled();
        let mut device = Device::gtx480();
        let err = run(
            &prog,
            &mut device,
            &queue_frames(2),
            ExecOptions { streams: 0, ..Default::default() },
        );
        assert!(matches!(err, Err(ScheduleError::Config(_))), "{err:?}");
        assert_eq!(device.now_us(), 0.0);
        assert_eq!(device.profiler.records().count(), 0);
    }

    fn queue_frames(n: usize) -> Vec<Vec<NdArray<i64>>> {
        (0..n)
            .map(|f| {
                vec![NdArray::from_fn([4usize, 16], |ix| {
                    ((f * 31 + ix[0] * 37 + ix[1] * 11) % 256) as i64
                })]
            })
            .collect()
    }

    #[test]
    fn one_queue_pipeline_matches_serial_executor_exactly() {
        let prog = compiled();
        let frames = queue_frames(4);

        let mut serial = Device::gtx480();
        let mut serial_outs = Vec::new();
        for f in &frames {
            serial_outs.push(run_once(&prog, &mut serial, f).unwrap());
        }

        let mut piped = Device::gtx480();
        let outs =
            run(&prog, &mut piped, &frames, ExecOptions { streams: 1, ..Default::default() })
                .unwrap();

        assert_eq!(outs, serial_outs);
        assert_eq!(piped.now_us(), serial.now_us());
        let a: Vec<_> = serial.profiler.records().collect();
        let b: Vec<_> = piped.profiler.records().collect();
        assert_eq!(a, b);
    }

    #[test]
    fn two_queues_overlap_and_preserve_results() {
        let prog = compiled();
        let frames = queue_frames(6);

        let mut sync = Device::gtx480();
        let expect =
            run(&prog, &mut sync, &frames, ExecOptions { streams: 1, ..Default::default() })
                .unwrap();

        let mut db = Device::gtx480();
        let got =
            run(&prog, &mut db, &frames, ExecOptions { streams: 2, ..Default::default() }).unwrap();

        assert_eq!(got, expect);
        assert!(db.now_us() < sync.now_us(), "{} !< {}", db.now_us(), sync.now_us());
        assert!(db.profiler.overlap_percent() > 0.0);
        assert_eq!(db.allocated_bytes(), 0);
    }

    #[test]
    fn naive_placement_with_planopt_recovers_resident_transfers() {
        let prog = compiled();
        let frames = queue_frames(4);
        let opts = ExecOptions { streams: 2, ..Default::default() };

        let mut resident = Device::gtx480();
        let expect = run(&prog, &mut resident, &frames, opts).unwrap();

        // The per-kernel round-trip placement is correct but moves more data.
        let mut naive = Device::gtx480();
        let (naive_outs, naive_stats) =
            run_with_placement(&prog, &mut naive, &frames, opts, Placement::PerKernelRoundTrip)
                .unwrap();
        assert_eq!(naive_outs, expect);
        assert!(naive.now_us() > resident.now_us());

        // planopt strips the round trips back out of the naive placement.
        let mut opt = Device::gtx480();
        let (opt_outs, opt_stats) = run_with_placement(
            &prog,
            &mut opt,
            &frames,
            ExecOptions { optimize: simgpu::PlanOptLevel::ALL, ..opts },
            Placement::PerKernelRoundTrip,
        )
        .unwrap();
        assert_eq!(opt_outs, expect);
        assert!(
            opt_stats.h2d_bytes < naive_stats.h2d_bytes,
            "{} !< {}",
            opt_stats.h2d_bytes,
            naive_stats.h2d_bytes
        );
        assert!(opt_stats.d2h_bytes < naive_stats.d2h_bytes);
        assert!(opt.now_us() < naive.now_us(), "{} !< {}", opt.now_us(), naive.now_us());
        assert!(opt.profiler.notes().any(|n| n.contains("planopt residency")));
    }

    #[test]
    fn replay_extends_timing_to_total_frames() {
        let prog = compiled();

        let mut full = Device::gtx480();
        run(&prog, &mut full, &queue_frames(6), ExecOptions { streams: 2, ..Default::default() })
            .unwrap();

        let mut replay = Device::gtx480();
        let outs = run(
            &prog,
            &mut replay,
            &queue_frames(2),
            ExecOptions { streams: 2, total_frames: 6, ..Default::default() },
        )
        .unwrap();

        assert_eq!(outs.len(), 2);
        assert_eq!(replay.now_us(), full.now_us());
        assert_eq!(replay.profiler.spans().count(), full.profiler.spans().count());
    }

    #[test]
    fn oom_batch_degrades_queues_and_completes() {
        let prog = compiled();
        let frames = queue_frames(6);

        // Per-queue footprint, measured on an unconstrained device.
        let mut probe = Device::gtx480();
        let expect =
            run(&prog, &mut probe, &frames, ExecOptions { streams: 1, ..Default::default() })
                .unwrap();
        let per_queue = probe.peak_allocated_bytes();
        assert!(per_queue > 0);

        // Room for two queues but not four: naive fails, degrading completes
        // with bit-identical outputs and a recorded downgrade.
        let cfg = simgpu::DeviceConfig::toy(per_queue * 2);
        let mut naive = Device::new(cfg.clone(), simgpu::Calibration::gtx480());
        let err = run(&prog, &mut naive, &frames, ExecOptions { streams: 4, ..Default::default() });
        assert!(
            matches!(err, Err(ScheduleError::Sim(simgpu::SimError::OutOfMemory { .. }))),
            "{err:?}"
        );

        let mut degraded = Device::new(cfg, simgpu::Calibration::gtx480());
        let outs = run(
            &prog,
            &mut degraded,
            &frames,
            ExecOptions { streams: 4, degrade_on_oom: true, ..Default::default() },
        )
        .unwrap();
        assert_eq!(outs, expect);
        assert_eq!(degraded.allocated_bytes(), 0);
        assert!(degraded
            .profiler
            .notes()
            .any(|n| n.contains("degraded") && n.contains("command queues")));
    }

    #[test]
    fn repeated_frames_accumulate_profile() {
        let prog = compiled();
        let mut device = Device::gtx480();
        let frame = NdArray::filled([4usize, 16], 1i64);
        for _ in 0..5 {
            run_once(&prog, &mut device, std::slice::from_ref(&frame)).unwrap();
        }
        let h2d = device.profiler.records().find(|r| r.name == "memcpyHtoDasync").unwrap();
        assert_eq!(h2d.calls, 5);
        // All buffers were freed each frame.
        assert_eq!(device.allocated_bytes(), 0);
    }
}
