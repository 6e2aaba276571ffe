//! One-call builders for each compilation route of the study.

use crate::frames::FrameGenerator;
use crate::sac_src::{program_src, Part, Variant};
use crate::scenario::Scenario;
use gaspard::codegen::{generate_opencl, OpenClProgram};
use gaspard::transform::{deploy, schedule, ScheduledModel};
use gaspard::Platform;
use mdarray::NdArray;
use sac_cuda::codegen::{compile_flat_program, CudaProgram};
use sac_lang::opt::{optimize, ArgDesc, OptConfig, OptReport};
use sac_lang::wir::FlatProgram;
use simgpu::{run_plan, ExecOptions};

/// Errors from route construction.
#[derive(Debug)]
pub enum PipelineError {
    /// SaC front end / optimiser failure.
    Sac(sac_lang::SacError),
    /// CUDA backend failure.
    Cuda(sac_cuda::CudaError),
    /// MDE chain failure.
    Gaspard(gaspard::GaspardError),
    /// Invalid configuration or plan rewrite outside the two routes.
    Config(String),
}

impl std::fmt::Display for PipelineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PipelineError::Sac(e) => write!(f, "sac: {e}"),
            PipelineError::Cuda(e) => write!(f, "cuda backend: {e}"),
            PipelineError::Gaspard(e) => write!(f, "gaspard: {e}"),
            PipelineError::Config(msg) => write!(f, "bad batch options: {msg}"),
        }
    }
}

impl std::error::Error for PipelineError {}

impl From<sac_lang::SacError> for PipelineError {
    fn from(e: sac_lang::SacError) -> Self {
        PipelineError::Sac(e)
    }
}
impl From<sac_cuda::CudaError> for PipelineError {
    fn from(e: sac_cuda::CudaError) -> Self {
        PipelineError::Cuda(e)
    }
}
impl From<gaspard::GaspardError> for PipelineError {
    fn from(e: gaspard::GaspardError) -> Self {
        PipelineError::Gaspard(e)
    }
}

/// A compiled SaC route: source, optimised flat program, and CUDA plan.
#[derive(Debug, Clone)]
pub struct SacRoute {
    /// The SaC source text.
    pub src: String,
    /// The optimised flat program (used directly for SAC-Seq runs).
    pub flat: FlatProgram,
    /// Optimiser statistics (fold counts, kernel counts).
    pub report: OptReport,
    /// The compiled CUDA program (kernels + transfer plan).
    pub cuda: CudaProgram,
}

/// Compile the SaC route for a scenario/variant/part.
pub fn build_sac(
    s: &Scenario,
    variant: Variant,
    part: Part,
    cfg: &OptConfig,
) -> Result<SacRoute, PipelineError> {
    let src = program_src(s, variant, part);
    let prog = sac_lang::parse_program(&src)?;
    let in_shape = match part {
        Part::Vertical => vec![s.channels, s.rows, s.h_out_cols()],
        _ => vec![s.channels, s.rows, s.cols],
    };
    let args = [ArgDesc::Array { name: "frame".into(), shape: in_shape }];
    let (flat, report) = optimize(&prog, "main", &args, cfg)?;
    let cuda = compile_flat_program(&flat)?;
    Ok(SacRoute { src, flat, report, cuda })
}

/// A compiled GASPARD2 route: scheduled model and generated OpenCL.
#[derive(Debug, Clone)]
pub struct GaspardRoute {
    /// The flattened, scheduled model (pre-fusion).
    pub scheduled: ScheduledModel,
    /// The generated OpenCL program (unfused — one kernel per elementary
    /// task; fusion happens plan-level, see [`fused_gaspard_plan`]).
    pub opencl: OpenClProgram,
}

/// Run the full MDE chain for a scenario — the paper-faithful route: no
/// fusion, one kernel per elementary task.
pub fn build_gaspard(s: &Scenario) -> Result<GaspardRoute, PipelineError> {
    let (model, alloc) = crate::model::downscaler_model(s);
    let deployed = deploy(model, Platform::cpu_gpu(), alloc)?;
    let scheduled = schedule(&deployed)?;
    let opencl = generate_opencl(&scheduled)?;
    Ok(GaspardRoute { scheduled, opencl })
}

/// Lower the route's launch plan and fuse the per-channel H→V filter pairs
/// through the plan-level `KernelFusion` pass with the *faithful* tiled
/// codegen ([`simgpu::PlanOptLevel::FUSION_FAITHFUL`]).
///
/// This is the successor of the removed model-level
/// `gaspard::fusion::fuse_model` route: the composition algebra is the same
/// (`arrayol::compose`, reached through `compose_access`), the fused kernels
/// are generated by the same tiled codegen the model-level toolchain used,
/// and the resulting plan schedules bit-identically to the plans the old
/// `generate_opencl_fused` produced — same kernels, configs and timings.
pub fn fused_gaspard_plan<'a>(
    route: &'a GaspardRoute,
) -> Result<simgpu::LaunchPlan<'a>, PipelineError> {
    let mut plan = gaspard::exec::lower_plan(&route.opencl);
    simgpu::optimize(&mut plan, simgpu::PlanOptLevel::FUSION_FAITHFUL)
        .map_err(|e| PipelineError::Config(e.to_string()))?;
    Ok(plan)
}

/// Drive the whole scenario (all `s.frames` frames) through the SaC→CUDA
/// route's stream pipeline, chunking transfers per colour channel. Returns
/// the functionally executed frames' results; `device.now_us()` afterwards
/// is the batch makespan.
pub fn run_sac_batch(
    s: &Scenario,
    route: &SacRoute,
    device: &mut simgpu::Device,
    seed: u64,
    opts: ExecOptions,
) -> Result<Vec<NdArray<i64>>, PipelineError> {
    let gen = FrameGenerator::new(s.channels, s.rows, s.cols, seed);
    let frames: Vec<Vec<NdArray<i64>>> =
        (0..opts.executed_of(s.frames)).map(|f| vec![gen.frame_rank3(f)]).collect();
    let plan = sac_cuda::exec::lower_plan(&route.cuda, s.channels)?;
    let opts = ExecOptions { total_frames: s.frames, ..opts };
    let (outs, _) = run_plan(plan, device, &frames, &opts).map_err(sac_cuda::CudaError::from)?;
    Ok(outs.into_iter().map(|mut frame| frame.pop().expect("one output")).collect())
}

/// Drive the whole scenario through the GASPARD→OpenCL route's command-queue
/// pipeline. Returns per-frame channel planes for the functionally executed
/// frames; `device.now_us()` afterwards is the batch makespan.
pub fn run_gaspard_batch(
    s: &Scenario,
    route: &GaspardRoute,
    device: &mut simgpu::Device,
    seed: u64,
    opts: ExecOptions,
) -> Result<Vec<Vec<NdArray<i64>>>, PipelineError> {
    let gen = FrameGenerator::new(s.channels, s.rows, s.cols, seed);
    let frames: Vec<Vec<NdArray<i64>>> =
        (0..opts.executed_of(s.frames)).map(|f| gen.frame_channels(f)).collect();
    let plan = gaspard::exec::lower_plan(&route.opencl);
    let opts = ExecOptions { total_frames: s.frames, ..opts };
    let (outs, _) = run_plan(plan, device, &frames, &opts).map_err(gaspard::GaspardError::from)?;
    Ok(outs)
}

/// Golden-model downscale of a rank-3 `[channels, rows, cols]` frame.
pub fn reference_downscale(s: &Scenario, frame: &NdArray<i64>) -> NdArray<i64> {
    crate::filter::filter_frame(frame, &s.h, Some(&s.v))
}

/// Golden-model horizontal filter of a rank-3 frame.
pub fn reference_horizontal(s: &Scenario, frame: &NdArray<i64>) -> NdArray<i64> {
    crate::filter::filter_frame(frame, &s.h, None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use simgpu::device::Device;

    /// One frame through the SaC route, chunked per channel.
    fn run_sac_frame(s: &Scenario, route: &SacRoute, frame: NdArray<i64>) -> NdArray<i64> {
        let plan = sac_cuda::exec::lower_plan(&route.cuda, s.channels).unwrap();
        let mut device = Device::gtx480();
        let (mut outs, _) =
            run_plan(plan, &mut device, &[vec![frame]], &ExecOptions::default()).unwrap();
        outs.pop().unwrap().pop().unwrap()
    }

    /// One frame of channel planes through the GASPARD2 route.
    fn run_gaspard_frame(route: &GaspardRoute, channels: Vec<NdArray<i64>>) -> Vec<NdArray<i64>> {
        let plan = gaspard::exec::lower_plan(&route.opencl);
        let mut device = Device::gtx480();
        let (mut outs, _) =
            run_plan(plan, &mut device, &[channels], &ExecOptions::default()).unwrap();
        outs.pop().unwrap()
    }

    #[test]
    fn nongeneric_route_reproduces_paper_kernel_counts() {
        // "the final fused WITH-loop for horizontal filter after applying WLF
        // has 5 generators (the vertical filter has 7 generators)" — §VIII.C.
        let s = Scenario::tiny();
        let h =
            build_sac(&s, Variant::NonGeneric, Part::Horizontal, &OptConfig::default()).unwrap();
        assert_eq!(h.report.generators_after_split, 5, "horizontal: {}", h.flat);
        assert_eq!(h.report.host_steps, 0);

        let v = build_sac(&s, Variant::NonGeneric, Part::Vertical, &OptConfig::default()).unwrap();
        assert_eq!(v.report.generators_after_split, 7, "vertical: {}", v.flat);

        let full = build_sac(&s, Variant::NonGeneric, Part::Full, &OptConfig::default()).unwrap();
        assert_eq!(full.report.generators_after_split, 12, "full: {}", full.flat);
        assert_eq!(full.cuda.launches_per_run(), 12);
    }

    #[test]
    fn generic_route_keeps_host_steps() {
        let s = Scenario::tiny();
        let g = build_sac(&s, Variant::Generic, Part::Full, &OptConfig::default()).unwrap();
        assert_eq!(g.report.host_steps, 2, "{}", g.flat);
        assert!(g.cuda.host_steps_per_run() == 2);
        // The host fallback forces device-to-host downloads mid-pipeline.
        let downloads =
            g.cuda.plan.iter().filter(|op| matches!(op, simgpu::PlanStep::Download { .. })).count();
        assert!(downloads >= 2, "{:?}", g.cuda.plan);
    }

    #[test]
    fn sac_cuda_routes_match_reference() {
        let s = Scenario::tiny();
        let gen = FrameGenerator::new(s.channels, s.rows, s.cols, 99);
        let frame = gen.frame_rank3(0);
        let expect = reference_downscale(&s, &frame);
        for variant in [Variant::Generic, Variant::NonGeneric] {
            let route = build_sac(&s, variant, Part::Full, &OptConfig::default()).unwrap();
            let got = run_sac_frame(&s, &route, frame.clone());
            assert_eq!(got, expect, "variant {variant:?}");
        }
    }

    #[test]
    fn sac_seq_flat_programs_match_reference() {
        let s = Scenario::tiny();
        let gen = FrameGenerator::new(s.channels, s.rows, s.cols, 7);
        let frame = gen.frame_rank3(1);
        let expect = reference_downscale(&s, &frame);
        for variant in [Variant::Generic, Variant::NonGeneric] {
            let route = build_sac(&s, variant, Part::Full, &OptConfig::default()).unwrap();
            let mut ops = 0;
            let got = route.flat.run(std::slice::from_ref(&frame), &mut ops).unwrap();
            assert_eq!(got, expect, "variant {variant:?}");
            assert!(ops > 0);
        }
    }

    #[test]
    fn gaspard_route_matches_reference() {
        let s = Scenario::tiny();
        let route = build_gaspard(&s).unwrap();
        assert_eq!(route.opencl.kernels.len(), 6);

        let gen = FrameGenerator::new(s.channels, s.rows, s.cols, 123);
        let channels = gen.frame_channels(0);
        let outs = run_gaspard_frame(&route, channels.clone());
        for (c, ch) in channels.iter().enumerate() {
            let expect = crate::filter::downscale_channel(ch, &s.h, &s.v);
            assert_eq!(outs[c], expect, "channel {c}");
        }
    }

    #[test]
    fn fused_gaspard_route_matches_reference_with_fewer_kernels() {
        let s = Scenario::tiny();
        let route = build_gaspard(&s).unwrap();
        // One fused launch per channel instead of an H/V pair.
        assert_eq!(route.opencl.kernels.len(), 2 * s.channels);
        let plan = fused_gaspard_plan(&route).unwrap();
        let launches = plan
            .steps
            .iter()
            .filter(|st| matches!(st, simgpu::schedule::PlanStep::Launch { .. }))
            .count();
        assert_eq!(launches, s.channels, "{plan:?}");

        let gen = FrameGenerator::new(s.channels, s.rows, s.cols, 321);
        let channels = gen.frame_channels(0);
        let mut device = Device::gtx480();
        let (outs, _) = simgpu::BatchScheduler::new(&plan)
            .run(&mut device, std::slice::from_ref(&channels), &ExecOptions::default())
            .unwrap();
        for (c, ch) in channels.iter().enumerate() {
            let expect = crate::filter::downscale_channel(ch, &s.h, &s.v);
            assert_eq!(outs[0][c], expect, "channel {c}");
        }
    }

    #[test]
    fn batch_runners_match_reference_and_overlap() {
        let s = Scenario::tiny(); // 2 frames
        let seed = 77;
        let gen = FrameGenerator::new(s.channels, s.rows, s.cols, seed);

        let sac = build_sac(&s, Variant::NonGeneric, Part::Full, &OptConfig::default()).unwrap();
        let gasp = build_gaspard(&s).unwrap();

        let mut sac_sync = Device::gtx480();
        let sync_outs =
            run_sac_batch(&s, &sac, &mut sac_sync, seed, ExecOptions::default()).unwrap();
        let mut sac_db = Device::gtx480();
        let db_outs = run_sac_batch(
            &s,
            &sac,
            &mut sac_db,
            seed,
            ExecOptions { streams: 2, ..Default::default() },
        )
        .unwrap();
        for (f, out) in db_outs.iter().enumerate() {
            assert_eq!(out, &reference_downscale(&s, &gen.frame_rank3(f)), "frame {f}");
        }
        assert_eq!(db_outs, sync_outs);
        assert!(sac_db.now_us() < sac_sync.now_us());

        let mut g_sync = Device::gtx480();
        let g_sync_outs =
            run_gaspard_batch(&s, &gasp, &mut g_sync, seed, ExecOptions::default()).unwrap();
        let mut g_db = Device::gtx480();
        let g_db_outs = run_gaspard_batch(
            &s,
            &gasp,
            &mut g_db,
            seed,
            ExecOptions { streams: 2, ..Default::default() },
        )
        .unwrap();
        assert_eq!(g_db_outs, g_sync_outs);
        assert!(g_db.now_us() < g_sync.now_us());
    }

    #[test]
    fn zero_streams_is_a_typed_config_error() {
        use simgpu::ScheduleError::Config;
        let s = Scenario::tiny();
        let sac = build_sac(&s, Variant::NonGeneric, Part::Full, &OptConfig::default()).unwrap();
        let gasp = build_gaspard(&s).unwrap();
        let bad = ExecOptions { streams: 0, ..Default::default() };

        let mut d = Device::gtx480();
        let err = run_sac_batch(&s, &sac, &mut d, 1, bad);
        assert!(
            matches!(err, Err(PipelineError::Cuda(sac_cuda::CudaError::Schedule(Config(_))))),
            "{err:?}"
        );
        let err = run_gaspard_batch(&s, &gasp, &mut d, 1, bad);
        assert!(
            matches!(err, Err(PipelineError::Gaspard(gaspard::GaspardError::Schedule(Config(_))))),
            "{err:?}"
        );
        // Rejected before anything touched the device.
        assert_eq!(d.now_us(), 0.0);
        assert_eq!(d.profiler.records().count(), 0);
    }

    #[test]
    fn pooled_batch_matches_naive_results() {
        // Pooling changes allocator behaviour, never results or (at the
        // default zero-allocation-cost calibration) timing.
        let s = Scenario::tiny();
        let seed = 5;
        let sac = build_sac(&s, Variant::NonGeneric, Part::Full, &OptConfig::default()).unwrap();

        let mut naive = Device::gtx480();
        let naive_outs = run_sac_batch(&s, &sac, &mut naive, seed, ExecOptions::default()).unwrap();
        let mut pooled = Device::gtx480();
        let pooled_outs = run_sac_batch(
            &s,
            &sac,
            &mut pooled,
            seed,
            ExecOptions { pool: true, ..Default::default() },
        )
        .unwrap();

        assert_eq!(pooled_outs, naive_outs);
        assert_eq!(pooled.now_us(), naive.now_us());
        // The batch's end-of-run frees were cached, not returned.
        assert_eq!(pooled.allocated_bytes(), 0);
        assert!(pooled.pool().cached_bytes() > 0);
        assert_eq!(naive.pool().cached_bytes(), 0);
    }

    #[test]
    fn both_routes_agree_bit_exactly() {
        // The cross-route check the paper's comparison implies: same frames,
        // same downscaled video.
        let s = Scenario::tiny();
        let gen = FrameGenerator::new(s.channels, s.rows, s.cols, 2024);
        let frame_planes = gen.frame_channels(0);
        let frame3 = FrameGenerator::stack(&frame_planes);

        let sac = build_sac(&s, Variant::NonGeneric, Part::Full, &OptConfig::default()).unwrap();
        let sac_out = run_sac_frame(&s, &sac, frame3);

        let gasp = build_gaspard(&s).unwrap();
        let gasp_out = run_gaspard_frame(&gasp, frame_planes);
        let gasp_stacked = FrameGenerator::stack(&gasp_out);
        assert_eq!(sac_out, gasp_stacked);
    }
}
