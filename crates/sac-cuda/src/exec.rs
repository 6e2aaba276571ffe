//! Lowering of compiled SaC→CUDA programs for the simulated device.
//!
//! This module contains no executor: [`lower_plan`] flattens a
//! [`CudaProgram`] into the route-agnostic [`simgpu::schedule::LaunchPlan`]
//! IR (uploads and downloads chunked per colour channel, one `Launch` per
//! compiled kernel, host-fallback steps wrapped as interpreter closures),
//! and [`simgpu::run_plan`] runs it — the shared engine that owns planopt,
//! stream pipelining, buffer sets, pooling, OOM degradation and replay for
//! both compilation routes.

use crate::codegen::CudaProgram;
use crate::CudaError;
use mdarray::NdArray;
use sac_lang::wir::{run_host_step, HostBinding, Step};
use simgpu::schedule::{chunks_for, ArrayDecl, HostOp, LaunchPlan, PlanKernel, PlanStep};

/// Lower a compiled CUDA program to the route-agnostic launch-plan IR.
///
/// The program's plan already is a list of launch-plan steps; lowering only
/// resolves what depends on the run: each `Upload` and `Download` gets the
/// per-channel chunking decision (see [`chunks_for`]) for its array's shape,
/// and each `Host` step becomes a [`HostOp`] closure that runs the step's
/// function in a fresh `sac-lang` interpreter and reports the abstract op
/// count for host-time accounting.
pub fn lower_plan(prog: &CudaProgram, channel_chunks: usize) -> Result<LaunchPlan<'_>, CudaError> {
    let flat = &prog.flat;
    let arrays: Vec<ArrayDecl> = flat
        .arrays
        .iter()
        .map(|a| ArrayDecl { name: a.name.clone(), shape: a.shape.clone() })
        .collect();
    // Where a kernel is a recognisable single-source affine gather, attach
    // its tiled-access description so `simgpu::planopt`'s fusion pass can
    // compose launches even on this route, where WITH-loop folding has
    // already erased the model-level structure.
    let kernels: Vec<PlanKernel<'_>> = prog
        .kernels
        .iter()
        .map(|ck| {
            let pk = PlanKernel::new(&ck.kernel, ck.config, ck.buffers.clone());
            if ck.gen_index != usize::MAX {
                if let Some((src, access)) =
                    crate::access::recognize(flat, ck.step_index, ck.gen_index)
                {
                    if ck.buffers.len() == 2 && ck.buffers[0] == ck.target && ck.buffers[1] == src {
                        return pk.with_access(access);
                    }
                }
            }
            pk
        })
        .collect();
    let mut host_ops: Vec<HostOp<'_>> = Vec::new();
    let mut steps = Vec::with_capacity(prog.plan.len());
    for &step in &prog.plan {
        match step {
            PlanStep::Upload { array, .. } => steps.push(PlanStep::Upload {
                array,
                chunks: chunks_for(&flat.arrays[array].shape, channel_chunks),
            }),
            PlanStep::Download { array, .. } => steps.push(PlanStep::Download {
                array,
                chunks: chunks_for(&flat.arrays[array].shape, channel_chunks),
            }),
            PlanStep::Host { op: step } => {
                let Step::Host { target, fun, bindings, .. } = &flat.steps[step] else {
                    return Err(CudaError::Host("plan points at a non-host step".into()));
                };
                let reads: Vec<usize> = bindings
                    .iter()
                    .filter_map(|b| match b {
                        HostBinding::Array(a) => Some(*a),
                        HostBinding::Const(_) => None,
                    })
                    .collect();
                let run = std::rc::Rc::new(move |arrs: &[NdArray<i64>]| {
                    let mut supplied = arrs.iter();
                    run_host_step(fun, bindings, |_| {
                        Ok(supplied
                            .next()
                            .expect("scheduler supplies one array per declared read")
                            .clone())
                    })
                    .map_err(|e| e.to_string())
                });
                host_ops.push(HostOp { name: fun.name.clone(), target: *target, reads, run });
                steps.push(PlanStep::Host { op: host_ops.len() - 1 });
            }
            other => steps.push(other),
        }
    }
    Ok(LaunchPlan {
        arrays,
        inputs: flat.inputs.clone(),
        outputs: vec![flat.result],
        kernels,
        host_ops,
        steps,
        prologue: Vec::new(),
        invariant: Vec::new(),
        batches: Vec::new(),
        carries: Vec::new(),
        lane_label: "stream lanes",
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codegen::compile_flat_program;
    use sac_lang::eval::Interp;
    use sac_lang::opt::{optimize, ArgDesc, OptConfig};
    use sac_lang::parser::parse_program;
    use sac_lang::value::Value;
    use simgpu::{run_plan, Device, ExecOptions, RunStats, ScheduleError};

    /// Lower `prog` and run `frames` through [`run_plan`]; one output array
    /// per functionally executed frame.
    fn run(
        prog: &CudaProgram,
        device: &mut Device,
        frames: &[Vec<NdArray<i64>>],
        opts: ExecOptions,
    ) -> Result<(Vec<NdArray<i64>>, RunStats), ScheduleError> {
        let plan = lower_plan(prog, opts.channel_chunks).unwrap();
        let (outs, stats) = run_plan(plan, device, frames, &opts)?;
        Ok((outs.into_iter().map(|mut f| f.pop().expect("one output")).collect(), stats))
    }

    /// [`run`] on one frame with the default options.
    fn run_once(
        prog: &CudaProgram,
        device: &mut Device,
        inputs: &[NdArray<i64>],
    ) -> Result<(NdArray<i64>, RunStats), ScheduleError> {
        let (mut outs, stats) = run(prog, device, &[inputs.to_vec()], ExecOptions::default())?;
        Ok((outs.pop().expect("one frame"), stats))
    }

    /// End-to-end: SaC source -> optimiser -> CUDA backend -> simulator,
    /// checked against the AST interpreter.
    fn run_src(
        src: &str,
        inputs: &[NdArray<i64>],
        cfg: &OptConfig,
    ) -> (NdArray<i64>, RunStats, CudaProgram) {
        let prog = parse_program(src).unwrap();
        let args: Vec<ArgDesc> = inputs
            .iter()
            .enumerate()
            .map(|(i, a)| ArgDesc::Array {
                name: format!("in{i}"),
                shape: a.shape().dims().to_vec(),
            })
            .collect();
        let (flat, _) = optimize(&prog, "main", &args, cfg).unwrap();
        let cuda = compile_flat_program(&flat).unwrap();
        let mut device = Device::gtx480();
        let (out, stats) = run_once(&cuda, &mut device, inputs).unwrap();
        assert!(device.now_us() > 0.0);
        (out, stats, cuda)
    }

    fn interp_result(src: &str, inputs: &[NdArray<i64>]) -> NdArray<i64> {
        let prog = parse_program(src).unwrap();
        let mut i = Interp::new(&prog);
        let args = inputs.iter().map(|a| Value::Arr(a.clone())).collect();
        i.call("main", args).unwrap().as_array().unwrap().clone()
    }

    #[test]
    fn gpu_matches_interpreter_for_with_loop() {
        let src = r#"
int[*] main(int[8,16] a)
{
    out = with {
        ([0,0] <= iv < [8,16] step [1,2]) : a[iv] * 2;
        ([0,1] <= iv < [8,16] step [1,2]) : a[iv] + 1000;
    } : genarray( [8,16], 0);
    return( out);
}
"#;
        let a = NdArray::from_fn([8usize, 16], |ix| (ix[0] * 16 + ix[1]) as i64);
        let (out, stats, prog) = run_src(src, std::slice::from_ref(&a), &OptConfig::default());
        assert_eq!(out, interp_result(src, &[a]));
        assert_eq!(stats.launches, 2);
        assert_eq!(stats.h2d, 1);
        assert_eq!(stats.d2h, 1);
        assert_eq!(prog.host_steps_per_run(), 0);
    }

    #[test]
    fn host_fallback_roundtrips_through_device() {
        // GPU step, then a host for-loop, matching the generic output tiler
        // flow: H2D, kernel, D2H (forced), host scatter.
        let src = r#"
int[*] main(int[16] a)
{
    doubled = with { (. <= iv <= .) : a[iv] * 2; } : genarray( [16], 0);
    out = with { (. <= iv <= .) : 0; } : genarray( [16]);
    for( i=0; i< 16; i++) {
        out[[i]] = doubled[[i]] + 1;
    }
    return( out);
}
"#;
        let a = NdArray::from_fn([16usize], |ix| ix[0] as i64);
        let (out, stats, _) = run_src(src, std::slice::from_ref(&a), &OptConfig::default());
        assert_eq!(out, interp_result(src, &[a]));
        assert_eq!(stats.host_steps, 1);
        // The intermediate AND the zero seed came back for the host step.
        assert!(stats.d2h >= 2);
        assert!(stats.host_ops > 0);
    }

    #[test]
    fn folded_pipeline_runs_fewer_kernels() {
        let src = r#"
int[*] gather(int[4,16] f)
{
    out = with {
        (. <= rep <= .) {
            tile = with {
                (. <= pat <= .) : f[[rep[0], (rep[1] * 4 + pat[0]) % 16]];
            } : genarray( [6], 0);
        } : tile;
    } : genarray( [4,4]);
    return( out);
}
int[*] main(int[4,16] frame)
{
    inter = gather(frame);
    out = with {
        (. <= rep <= .) : inter[[rep[0], rep[1], 0]] + inter[[rep[0], rep[1], 1]];
    } : genarray( [4,4]);
    return( out);
}
"#;
        let frame = NdArray::from_fn([4usize, 16], |ix| (ix[0] * 16 + ix[1]) as i64);
        let expect = interp_result(src, std::slice::from_ref(&frame));

        let (out_folded, stats_folded, _) =
            run_src(src, std::slice::from_ref(&frame), &OptConfig::default());
        let (out_raw, stats_raw, _) =
            run_src(src, &[frame], &OptConfig { with_loop_folding: false, resolve_modulo: false });
        assert_eq!(out_folded, expect);
        assert_eq!(out_raw, expect);
        assert!(stats_folded.launches < stats_raw.launches);
    }

    #[test]
    fn overflow_is_detected() {
        let src = r#"
int[*] main(int[2] a)
{
    out = with { (. <= iv <= .) : a[iv]; } : genarray( [2], 0);
    return( out);
}
"#;
        let prog = parse_program(src).unwrap();
        let (flat, _) = optimize(
            &prog,
            "main",
            &[ArgDesc::Array { name: "a".into(), shape: vec![2] }],
            &OptConfig::default(),
        )
        .unwrap();
        let cuda = compile_flat_program(&flat).unwrap();
        let mut device = Device::gtx480();
        let too_big = NdArray::from_vec([2usize], vec![1, i64::from(i32::MAX) + 1]).unwrap();
        let err = run_once(&cuda, &mut device, &[too_big]);
        assert!(matches!(err, Err(ScheduleError::Overflow { .. })), "{err:?}");
    }

    fn compile(src: &str, shapes: &[Vec<usize>]) -> CudaProgram {
        let prog = parse_program(src).unwrap();
        let args: Vec<ArgDesc> = shapes
            .iter()
            .enumerate()
            .map(|(i, s)| ArgDesc::Array { name: format!("in{i}"), shape: s.clone() })
            .collect();
        let (flat, _) = optimize(&prog, "main", &args, &OptConfig::default()).unwrap();
        compile_flat_program(&flat).unwrap()
    }

    const PIPE_SRC: &str = r#"
int[*] main(int[8,16] a)
{
    out = with {
        ([0,0] <= iv < [8,16]) : a[iv] * 3 + 7;
    } : genarray( [8,16], 0);
    return( out);
}
"#;

    fn pipe_frames(n: usize) -> Vec<Vec<NdArray<i64>>> {
        (0..n)
            .map(|f| {
                vec![NdArray::from_fn([8usize, 16], |ix| (f * 1000 + ix[0] * 16 + ix[1]) as i64)]
            })
            .collect()
    }

    #[test]
    fn one_stream_pipeline_matches_serial_executor_exactly() {
        let prog = compile(PIPE_SRC, &[vec![8, 16]]);
        let frames = pipe_frames(4);

        let mut serial = Device::gtx480();
        let mut serial_outs = Vec::new();
        for f in &frames {
            let (out, _) = run_once(&prog, &mut serial, f).unwrap();
            serial_outs.push(out);
        }

        let mut piped = Device::gtx480();
        let (outs, _) =
            run(&prog, &mut piped, &frames, ExecOptions { streams: 1, ..Default::default() })
                .unwrap();

        assert_eq!(outs, serial_outs);
        // Bit-identical simulated clock and profiler records.
        assert_eq!(piped.now_us(), serial.now_us());
        let a: Vec<_> = serial.profiler.records().collect();
        let b: Vec<_> = piped.profiler.records().collect();
        assert_eq!(a, b);
    }

    #[test]
    fn two_streams_overlap_and_preserve_results() {
        let prog = compile(PIPE_SRC, &[vec![8, 16]]);
        let frames = pipe_frames(6);

        let mut sync = Device::gtx480();
        let (expect, _) =
            run(&prog, &mut sync, &frames, ExecOptions { streams: 1, ..Default::default() })
                .unwrap();

        let mut db = Device::gtx480();
        let (got, stats) =
            run(&prog, &mut db, &frames, ExecOptions { streams: 2, ..Default::default() }).unwrap();

        assert_eq!(got, expect);
        assert_eq!(stats.launches, 6);
        assert!(db.now_us() < sync.now_us(), "{} !< {}", db.now_us(), sync.now_us());
        assert!(db.profiler.overlap_percent() > 0.0);
        // All buffer sets were released.
        assert_eq!(db.allocated_bytes(), 0);
    }

    #[test]
    fn planopt_coalesces_chunked_transfers_without_changing_results() {
        let prog = compile(PIPE_SRC, &[vec![8, 16]]);
        let frames = pipe_frames(4);
        let opts = ExecOptions { streams: 2, channel_chunks: 8, ..Default::default() };

        let mut base = Device::gtx480();
        let (expect, base_stats) = run(&prog, &mut base, &frames, opts).unwrap();
        assert_eq!(base_stats.h2d, 4 * 8, "per-channel chunking baseline");

        let mut opt = Device::gtx480();
        let (got, stats) = run(
            &prog,
            &mut opt,
            &frames,
            ExecOptions { optimize: simgpu::PlanOptLevel::COALESCE, ..opts },
        )
        .unwrap();

        assert_eq!(got, expect);
        // Same bytes in one transfer per frame per direction, minus the
        // per-chunk latencies.
        assert_eq!(stats.h2d, 4);
        assert_eq!(stats.h2d_bytes, base_stats.h2d_bytes);
        assert_eq!(stats.d2h_bytes, base_stats.d2h_bytes);
        assert!(opt.now_us() < base.now_us(), "{} !< {}", opt.now_us(), base.now_us());
        assert!(opt.profiler.notes().any(|n| n.contains("planopt coalesce")));
    }

    #[test]
    fn replayed_frames_extend_timing_without_execution() {
        let prog = compile(PIPE_SRC, &[vec![8, 16]]);

        // Full functional run of 6 frames...
        let mut full = Device::gtx480();
        run(&prog, &mut full, &pipe_frames(6), ExecOptions { streams: 2, ..Default::default() })
            .unwrap();

        // ...vs 2 functional frames replayed out to 6.
        let mut replay = Device::gtx480();
        let (outs, stats) = run(
            &prog,
            &mut replay,
            &pipe_frames(2),
            ExecOptions { streams: 2, total_frames: 6, ..Default::default() },
        )
        .unwrap();

        assert_eq!(outs.len(), 2);
        assert_eq!(stats.launches, 6);
        assert_eq!(replay.now_us(), full.now_us());
        assert_eq!(replay.profiler.spans().count(), full.profiler.spans().count());
    }

    #[test]
    fn oom_batch_degrades_lanes_and_completes() {
        let prog = compile(PIPE_SRC, &[vec![8, 16]]);
        let frames = pipe_frames(6);

        // Measure the per-lane device footprint on an unconstrained device.
        let mut probe = Device::gtx480();
        let (expect, _) =
            run(&prog, &mut probe, &frames, ExecOptions { streams: 1, ..Default::default() })
                .unwrap();
        let per_lane = probe.peak_allocated_bytes();
        assert!(per_lane > 0);

        // A device with room for two lanes but not four: the naive 4-stream
        // batch dies with OutOfMemory...
        let cfg = simgpu::DeviceConfig::toy(per_lane * 2);
        let mut naive = Device::new(cfg.clone(), simgpu::Calibration::gtx480());
        let err = run(&prog, &mut naive, &frames, ExecOptions { streams: 4, ..Default::default() });
        assert!(
            matches!(err, Err(ScheduleError::Sim(simgpu::SimError::OutOfMemory { .. }))),
            "{err:?}"
        );

        // ...while the degrading batch completes at reduced lanes with
        // bit-identical outputs, and reports the downgrade.
        let mut degraded = Device::new(cfg, simgpu::Calibration::gtx480());
        let (outs, _) = run(
            &prog,
            &mut degraded,
            &frames,
            ExecOptions { streams: 4, degrade_on_oom: true, ..Default::default() },
        )
        .unwrap();
        assert_eq!(outs, expect);
        assert_eq!(degraded.allocated_bytes(), 0);
        let notes: Vec<&str> = degraded.profiler.notes().collect();
        assert!(
            notes.iter().any(|n| n.contains("degraded") && n.contains("stream lanes")),
            "{notes:?}"
        );
    }

    #[test]
    fn zero_streams_is_rejected_by_the_unified_validation() {
        let prog = compile(PIPE_SRC, &[vec![8, 16]]);
        let mut device = Device::gtx480();
        let err = run(
            &prog,
            &mut device,
            &pipe_frames(2),
            ExecOptions { streams: 0, ..Default::default() },
        );
        assert!(matches!(err, Err(ScheduleError::Config(_))), "{err:?}");
        assert_eq!(device.now_us(), 0.0);
    }

    #[test]
    fn profiler_records_kernels_and_transfers() {
        let src = r#"
int[*] main(int[32] a)
{
    out = with { (. <= iv <= .) : a[iv] * a[iv]; } : genarray( [32], 0);
    return( out);
}
"#;
        let prog = parse_program(src).unwrap();
        let (flat, _) = optimize(
            &prog,
            "main",
            &[ArgDesc::Array { name: "a".into(), shape: vec![32] }],
            &OptConfig::default(),
        )
        .unwrap();
        let cuda = compile_flat_program(&flat).unwrap();
        let mut device = Device::gtx480();
        let a = NdArray::from_fn([32usize], |ix| ix[0] as i64);
        run_once(&cuda, &mut device, &[a]).unwrap();
        let names: Vec<String> = device.profiler.records().map(|r| r.name.to_string()).collect();
        assert!(names.iter().any(|n| n == "memcpyHtoDasync"), "{names:?}");
        assert!(names.iter().any(|n| n == "memcpyDtoHasync"), "{names:?}");
        assert!(names.iter().any(|n| n.contains("_k0")), "{names:?}");
    }
}
