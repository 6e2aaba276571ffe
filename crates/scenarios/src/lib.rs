//! Multi-pipeline workload registry.
//!
//! The paper's comparison (SaC vs ArrayOL/GASPARD2) is about expressing
//! *families* of array pipelines without losing abstraction, yet every
//! number in the reproduction so far measures the one H.263 downscaler.
//! This crate grows the scenario layer into a registry of genuinely
//! different pipelines, each expressed on **both** compilation routes and
//! bit-checked cross-route:
//!
//! * **imagepipe** — a Halide-style blur → gradient → sharpen multi-stage
//!   column-stencil chain,
//! * **delta** — a temporal delta-encoding workload where frame `N` reads
//!   frame `N-1` through a [`simgpu::schedule::Carry`], breaking free
//!   frame-parallelism (the scheduler serializes lanes honestly),
//! * **blockmean** — block reduction + affine remap (`SumReduce` /
//!   `AffineMap` elementary ops), integer-exact,
//! * **downscale-{thumb,hd1080,uhd}** — the paper's downscaler swept from
//!   thumbnail to 4K.
//!
//! A [`Workload`] is the shape-level description (name, sizes, default
//!   serving job mix); [`Workload::build`] compiles both routes and returns
//! a [`BuiltWorkload`] that can lower a [`LaunchPlan`] per route, generate
//! per-route frame payloads, run batches, and produce the CPU reference —
//! so the bench `reproduce scenarios` ablation and the serve layer
//! enumerate entries uniformly. All construction is panic-free: bad sizes
//! surface as the scenario layer's typed
//! [`PipelineError`](downscaler::pipelines::PipelineError).

#![warn(missing_docs)]

pub mod models;
pub mod sources;
pub mod temporal;

use downscaler::frames::FrameGenerator;
use downscaler::pipelines::{build_gaspard, build_sac, PipelineError};
use downscaler::sac_src::{Part, Variant};
use downscaler::Scenario;
use gaspard::codegen::{generate_opencl, OpenClProgram};
use gaspard::transform::{deploy, schedule};
use gaspard::Platform;
use mdarray::NdArray;
use sac_cuda::codegen::{compile_flat_program, CudaProgram};
use sac_lang::opt::{optimize as sac_optimize, ArgDesc, OptConfig};
use simgpu::schedule::{run_plan, ExecOptions, LaunchPlan, RunStats, ScheduleError};
use simgpu::Device;

/// Which pipeline family a registry entry instantiates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Blur → gradient → sharpen column-stencil chain.
    ImagePipe,
    /// Temporal delta encoding (frame `N` reads frame `N-1` via a carry).
    Delta,
    /// Horizontal 4-pixel block sum + affine remap.
    BlockMean,
    /// The paper's H.263 downscaler at this entry's size.
    Downscale,
}

/// Which compilation route to lower/run a workload on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    /// SaC → CUDA.
    Sac,
    /// GASPARD2 → OpenCL.
    Gaspard,
}

impl Route {
    /// Both routes, in report order.
    pub const BOTH: [Route; 2] = [Route::Sac, Route::Gaspard];

    /// Short stable name used in reports and bench JSON.
    pub fn name(self) -> &'static str {
        match self {
            Route::Sac => "sac",
            Route::Gaspard => "gaspard",
        }
    }
}

/// Default serving job mix for one workload: how the serve layer should
/// turn the entry into an open-loop arrival trace.
#[derive(Debug, Clone, Copy)]
pub struct JobMix {
    /// Jobs in the trace.
    pub jobs: usize,
    /// Mean inter-arrival gap, µs.
    pub mean_gap_us: f64,
    /// Tenants sharing the trace.
    pub tenants: usize,
    /// Frames charged per job (functional + timing-replayed).
    pub frames_per_job: usize,
}

/// One registry entry: the shape-level description plus builders for both
/// routes (via [`Workload::build`]).
#[derive(Debug, Clone)]
pub struct Workload {
    /// Registry-unique name, used in reports, JSON and job labels.
    pub name: &'static str,
    /// One-line description for docs and `reproduce scenarios` output.
    pub summary: &'static str,
    /// Pipeline family.
    pub kind: Kind,
    /// Frame rows.
    pub rows: usize,
    /// Frame columns.
    pub cols: usize,
    /// Default batch length (frames per run).
    pub frames: usize,
    /// Frame-content seed (distinct per entry so workloads do not share
    /// pixel streams).
    pub seed: u64,
    /// Default serving job mix.
    pub mix: JobMix,
}

/// Errors from registry construction or execution.
#[derive(Debug)]
pub enum ScenarioError {
    /// Route construction failed (front end, backend, or config).
    Build(PipelineError),
    /// Plan surgery produced an inconsistent plan.
    Plan(String),
    /// The batch scheduler rejected or failed the run.
    Schedule(ScheduleError),
}

impl std::fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScenarioError::Build(e) => write!(f, "build: {e}"),
            ScenarioError::Plan(msg) => write!(f, "plan: {msg}"),
            ScenarioError::Schedule(e) => write!(f, "schedule: {e}"),
        }
    }
}

impl std::error::Error for ScenarioError {}

impl From<PipelineError> for ScenarioError {
    fn from(e: PipelineError) -> Self {
        ScenarioError::Build(e)
    }
}
impl From<ScheduleError> for ScenarioError {
    fn from(e: ScheduleError) -> Self {
        ScenarioError::Schedule(e)
    }
}

/// The full registry: three new pipelines plus the downscaler size sweep
/// (thumbnail → 1080p → 4K).
pub fn registry() -> Vec<Workload> {
    let mut all = registry_small();
    all.extend([
        Workload {
            name: "downscale-hd1080",
            summary: "the paper's H.263 downscaler at 1080p",
            kind: Kind::Downscale,
            rows: 1080,
            cols: 1920,
            frames: 4,
            seed: 0x5CE4,
            mix: JobMix { jobs: 12, mean_gap_us: 5_000.0, tenants: 4, frames_per_job: 2 },
        },
        Workload {
            name: "downscale-uhd",
            summary: "the paper's H.263 downscaler at 4K",
            kind: Kind::Downscale,
            rows: 2160,
            cols: 3840,
            frames: 2,
            seed: 0x5CE5,
            mix: JobMix { jobs: 8, mean_gap_us: 20_000.0, tenants: 2, frames_per_job: 1 },
        },
    ]);
    all
}

/// [`registry`] plus the extreme-size entries used only by static
/// (plan-metric) sweeps — kept out of [`registry`] so existing ablations
/// and their golden files are unaffected.
pub fn registry_extended() -> Vec<Workload> {
    let mut all = registry();
    all.push(Workload {
        name: "downscale-8k",
        summary: "the paper's H.263 downscaler at 8K (static plan metrics only)",
        kind: Kind::Downscale,
        rows: 4320,
        cols: 7680,
        frames: 1,
        seed: 0x5CE6,
        mix: JobMix { jobs: 4, mean_gap_us: 80_000.0, tenants: 1, frames_per_job: 1 },
    });
    all
}

/// The registry restricted to cheap entries (everything but the large
/// downscaler sizes) — what tests and CI smoke runs enumerate.
pub fn registry_small() -> Vec<Workload> {
    vec![
        Workload {
            name: "imagepipe",
            summary: "blur -> gradient -> sharpen column-stencil chain",
            kind: Kind::ImagePipe,
            rows: 40,
            cols: 64,
            frames: 6,
            seed: 0x5CE0,
            mix: JobMix { jobs: 24, mean_gap_us: 800.0, tenants: 3, frames_per_job: 2 },
        },
        Workload {
            name: "delta",
            summary: "temporal delta encoding: frame N reads frame N-1 via a carry",
            kind: Kind::Delta,
            rows: 32,
            cols: 48,
            frames: 8,
            seed: 0x5CE1,
            mix: JobMix { jobs: 16, mean_gap_us: 1_200.0, tenants: 2, frames_per_job: 4 },
        },
        Workload {
            name: "blockmean",
            summary: "4-pixel block sum + affine remap (integer-exact)",
            kind: Kind::BlockMean,
            rows: 36,
            cols: 64,
            frames: 6,
            seed: 0x5CE2,
            mix: JobMix { jobs: 24, mean_gap_us: 600.0, tenants: 3, frames_per_job: 2 },
        },
        Workload {
            name: "downscale-thumb",
            summary: "the paper's H.263 downscaler at thumbnail size",
            kind: Kind::Downscale,
            rows: 72,
            cols: 128,
            frames: 8,
            seed: 0x5CE3,
            mix: JobMix { jobs: 20, mean_gap_us: 900.0, tenants: 4, frames_per_job: 2 },
        },
    ]
}

impl Workload {
    /// Whether this entry threads state across frames (and therefore
    /// serializes pipeline lanes).
    pub fn temporal(&self) -> bool {
        self.kind == Kind::Delta
    }

    /// Compile both routes.
    ///
    /// Size constraints surface as typed errors, never panics: the
    /// downscaler's divisibility rules come back as the scenario layer's
    /// `PipelineError::Config`, and this crate enforces its own pipelines'
    /// constraints the same way.
    pub fn build(&self) -> Result<BuiltWorkload, ScenarioError> {
        self.build_with_sac_config(&OptConfig::default())
    }

    /// [`Workload::build`] with an explicit SaC optimiser configuration.
    ///
    /// This is the WLF ablation knob at registry level: building with
    /// `with_loop_folding: false` leaves the SaC route's per-stage kernels
    /// unfused, which the plan-level fusion pass
    /// (`simgpu::PlanOptLevel::FUSION`) must then recover. The GASPARD2
    /// route is unaffected.
    pub fn build_with_sac_config(
        &self,
        sac_cfg: &OptConfig,
    ) -> Result<BuiltWorkload, ScenarioError> {
        let cfg = |msg: String| ScenarioError::Build(PipelineError::Config(msg));
        let (cuda, opencl, scenario) = match self.kind {
            Kind::Downscale => {
                let s = Scenario::new(self.name, 3, self.rows, self.cols, self.frames)?;
                let sac = build_sac(&s, Variant::NonGeneric, Part::Full, sac_cfg)?;
                let gasp = build_gaspard(&s)?;
                (sac.cuda, gasp.opencl, Some(s))
            }
            Kind::ImagePipe => {
                if self.cols < 7 || self.rows == 0 {
                    return Err(cfg(format!(
                        "imagepipe needs at least 7 columns (three width-3 stencils), got {}x{}",
                        self.rows, self.cols
                    )));
                }
                let cuda = build_sac_prog(
                    &sources::imagepipe_src(self.rows, self.cols),
                    vec![self.rows, self.cols],
                    sac_cfg,
                )?;
                let opencl = build_opencl(models::imagepipe_model(self.rows, self.cols))?;
                (cuda, opencl, None)
            }
            Kind::Delta => {
                if self.rows == 0 || self.cols == 0 {
                    return Err(cfg("delta needs a non-empty frame".into()));
                }
                let cuda = build_sac_prog(
                    &sources::delta_src(self.rows, self.cols),
                    vec![2, self.rows, self.cols],
                    sac_cfg,
                )?;
                let opencl = build_opencl(models::delta_model(self.rows, self.cols))?;
                (cuda, opencl, None)
            }
            Kind::BlockMean => {
                if self.cols == 0 || !self.cols.is_multiple_of(4) {
                    return Err(cfg(format!(
                        "blockmean needs cols divisible by 4, got {}",
                        self.cols
                    )));
                }
                let cuda = build_sac_prog(
                    &sources::blockmean_src(self.rows, self.cols),
                    vec![self.rows, self.cols],
                    sac_cfg,
                )?;
                let opencl = build_opencl(models::blockmean_model(self.rows, self.cols))?;
                (cuda, opencl, None)
            }
        };
        Ok(BuiltWorkload { spec: self.clone(), cuda, opencl, scenario })
    }
}

/// Parse, optimise and compile one of this crate's SaC sources.
fn build_sac_prog(
    src: &str,
    in_shape: Vec<usize>,
    cfg: &OptConfig,
) -> Result<CudaProgram, ScenarioError> {
    let prog = sac_lang::parse_program(src).map_err(PipelineError::from)?;
    let args = [ArgDesc::Array { name: "frame".into(), shape: in_shape }];
    let (flat, _) = sac_optimize(&prog, "main", &args, cfg).map_err(PipelineError::from)?;
    Ok(compile_flat_program(&flat).map_err(PipelineError::from)?)
}

/// Run the MDE chain over one of this crate's models.
fn build_opencl(
    (model, alloc): (gaspard::model::Model, gaspard::model::Allocation),
) -> Result<OpenClProgram, ScenarioError> {
    let deployed = deploy(model, Platform::cpu_gpu(), alloc).map_err(PipelineError::from)?;
    let scheduled = schedule(&deployed).map_err(PipelineError::from)?;
    Ok(generate_opencl(&scheduled).map_err(PipelineError::from)?)
}

/// A workload compiled on both routes, ready to lower plans, generate
/// frames and run batches.
pub struct BuiltWorkload {
    /// The shape-level entry this was built from.
    pub spec: Workload,
    /// The compiled SaC→CUDA program.
    pub cuda: CudaProgram,
    /// The generated GASPARD2→OpenCL program (unfused; downscaler entries
    /// fuse plan-level in [`BuiltWorkload::plan`]).
    pub opencl: OpenClProgram,
    /// The downscaler scenario, for `Kind::Downscale` entries.
    scenario: Option<Scenario>,
}

impl BuiltWorkload {
    /// Colour channels of this workload's frames (3 for the downscaler,
    /// 1 otherwise).
    pub fn channels(&self) -> usize {
        if self.spec.kind == Kind::Downscale {
            3
        } else {
            1
        }
    }

    /// Lower the launch plan for `route` (temporalized for the delta
    /// entry — identical plan surgery on both routes).
    pub fn plan(&self, route: Route) -> Result<LaunchPlan<'_>, ScenarioError> {
        self.plan_placed(route, self.channels(), gaspard::Placement::Resident)
    }

    /// [`BuiltWorkload::plan`] with the lowering knobs the autotuner
    /// searches made explicit: `channel_chunks` controls transfer chunking
    /// on the SaC route (the Gaspard lowering always moves whole buffers),
    /// and `placement` decides whether the Gaspard route keeps
    /// intermediates device-resident or round-trips them per kernel (the
    /// SaC lowering is always resident).
    pub fn plan_placed(
        &self,
        route: Route,
        channel_chunks: usize,
        placement: gaspard::Placement,
    ) -> Result<LaunchPlan<'_>, ScenarioError> {
        let plan = match route {
            Route::Sac => sac_cuda::exec::lower_plan(&self.cuda, channel_chunks)
                .map_err(PipelineError::from)?,
            Route::Gaspard => {
                let mut plan = gaspard::exec::lower_plan_with(&self.opencl, placement);
                // The downscaler entries ship the fused GASPARD2 route (one
                // kernel per channel): the model-level fusion pass is gone,
                // so fuse the lowered plan with the faithful codegen — the
                // resulting schedule is bit-identical to the old route's.
                // Under round-trip placement the pass refuses (transfers
                // touch the intermediates) and leaves the plan unfused.
                if self.spec.kind == Kind::Downscale {
                    simgpu::planopt::optimize(&mut plan, simgpu::PlanOptLevel::FUSION_FAITHFUL)
                        .map_err(|e| ScenarioError::Build(PipelineError::Config(e.to_string())))?;
                }
                plan
            }
        };
        if self.spec.temporal() {
            temporal::temporalize(plan).map_err(ScenarioError::Plan)
        } else {
            Ok(plan)
        }
    }

    /// The frame generator for this workload's pixel content.
    fn gen(&self) -> FrameGenerator {
        FrameGenerator::new(self.channels(), self.spec.rows, self.spec.cols, self.spec.seed)
    }

    /// The single-plane content of frame `f` (non-downscaler workloads).
    fn plane(&self, f: usize) -> NdArray<i64> {
        self.gen().frame_channels(f).pop().expect("one channel")
    }

    /// Input payloads for frames `start .. start + n`, packaged for
    /// `route`'s plan. For the temporal delta entry each frame supplies
    /// `[cur, prev-seed]`; the zero `prev` seed only matters on the
    /// batch's first frame (the carry rebinds it afterwards).
    pub fn frames_from(&self, route: Route, start: usize, n: usize) -> Vec<Vec<NdArray<i64>>> {
        match self.spec.kind {
            Kind::Downscale => {
                let gen = self.gen();
                (start..start + n)
                    .map(|f| match route {
                        Route::Sac => vec![gen.frame_rank3(f)],
                        Route::Gaspard => gen.frame_channels(f),
                    })
                    .collect()
            }
            Kind::Delta => {
                let zero = NdArray::filled(vec![self.spec.rows, self.spec.cols], 0i64);
                (start..start + n).map(|f| vec![self.plane(f), zero.clone()]).collect()
            }
            Kind::ImagePipe | Kind::BlockMean => {
                (start..start + n).map(|f| vec![self.plane(f)]).collect()
            }
        }
    }

    /// [`BuiltWorkload::frames_from`] starting at frame 0.
    pub fn frames(&self, route: Route, n: usize) -> Vec<Vec<NdArray<i64>>> {
        self.frames_from(route, 0, n)
    }

    /// The golden-model (CPU) result of frame `f`, in canonical layout.
    /// For the delta entry the reference assumes a zero-seeded batch
    /// starting at frame 0 (frame 0's `prev` is all zeros).
    pub fn reference(&self, f: usize) -> NdArray<i64> {
        match self.spec.kind {
            Kind::ImagePipe => {
                let b = col_stencil(&self.plane(f), &[1, 2, 1]);
                let g = col_stencil(&b, &[-1, 0, 1]);
                col_stencil(&g, &[-1, 3, -1])
            }
            Kind::Delta => {
                let cur = self.plane(f);
                if f == 0 {
                    cur
                } else {
                    let prev = self.plane(f - 1);
                    NdArray::from_fn(self.plane_shape(), |ix| {
                        cur.get(ix).unwrap() - prev.get(ix).unwrap()
                    })
                }
            }
            Kind::BlockMean => {
                let p = self.plane(f);
                NdArray::from_fn(vec![self.spec.rows, self.spec.cols / 4], |ix| {
                    let s: i64 = (0..4).map(|k| *p.get(&[ix[0], 4 * ix[1] + k]).unwrap()).sum();
                    2 * s + 10
                })
            }
            Kind::Downscale => {
                let s = self.scenario.as_ref().expect("downscale entries carry a scenario");
                downscaler::pipelines::reference_downscale(s, &self.gen().frame_rank3(f))
            }
        }
    }

    fn plane_shape(&self) -> Vec<usize> {
        vec![self.spec.rows, self.spec.cols]
    }

    /// Collapse one frame's plan outputs into the canonical layout: the
    /// single output array, or (downscaler Gaspard route) the channel
    /// planes stacked rank-3.
    pub fn canon(&self, mut outs: Vec<NdArray<i64>>) -> NdArray<i64> {
        if outs.len() == 1 {
            outs.pop().expect("checked")
        } else {
            FrameGenerator::stack(&outs)
        }
    }

    /// Run a batch of the workload's frames on `device` over `route`.
    ///
    /// `opts.executed` bounds the functionally executed frames (0 = all of
    /// [`Workload::frames`]); the rest are timing-replayed. The plan runs
    /// through [`simgpu::run_plan`], so planopt passes run per
    /// `opts.optimize` with their notes in the device profiler. Returns the
    /// canonical per-frame outputs of the functional frames plus the run
    /// counters.
    pub fn run(
        &self,
        route: Route,
        device: &mut Device,
        opts: &ExecOptions,
    ) -> Result<(Vec<NdArray<i64>>, RunStats), ScenarioError> {
        let plan = self.plan(route)?;
        let frames = self.frames(route, opts.executed_of(self.spec.frames));
        let opts = ExecOptions { total_frames: self.spec.frames, ..*opts };
        let (outs, stats) = run_plan(plan, device, &frames, &opts)?;
        Ok((outs.into_iter().map(|o| self.canon(o)).collect(), stats))
    }
}

/// Slide a width-`w.len()` weighted window along columns (step 1).
fn col_stencil(plane: &NdArray<i64>, w: &[i64]) -> NdArray<i64> {
    let rows = plane.shape().dim(0);
    let cols = plane.shape().dim(1);
    NdArray::from_fn(vec![rows, cols - (w.len() - 1)], |ix| {
        w.iter().enumerate().map(|(p, &wp)| wp * plane.get(&[ix[0], ix[1] + p]).unwrap()).sum()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_builds_without_panicking() {
        // Full registry (including 1080p and 4K): building compiles both
        // routes and lowers valid plans, with no panic reachable from
        // enumeration.
        for w in registry() {
            let built = w.build().unwrap_or_else(|e| panic!("{}: {e}", w.name));
            for route in Route::BOTH {
                let plan = built.plan(route).unwrap_or_else(|e| panic!("{}: {e}", w.name));
                plan.validate().unwrap_or_else(|e| panic!("{} ({}): {e}", w.name, route.name()));
            }
        }
    }

    #[test]
    fn registry_names_are_unique() {
        let names: Vec<&str> = registry().iter().map(|w| w.name).collect();
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len(), "{names:?}");
    }

    #[test]
    fn small_registry_matches_reference_on_both_routes() {
        for w in registry_small() {
            let built = w.build().unwrap();
            for route in Route::BOTH {
                let mut device = Device::gtx480();
                let (outs, _) = built
                    .run(route, &mut device, &ExecOptions::default())
                    .unwrap_or_else(|e| panic!("{} ({}): {e}", w.name, route.name()));
                assert_eq!(outs.len(), w.frames);
                for (f, out) in outs.iter().enumerate() {
                    assert_eq!(
                        out,
                        &built.reference(f),
                        "{} ({}) frame {f} diverges from the CPU reference",
                        w.name,
                        route.name()
                    );
                }
            }
        }
    }

    #[test]
    fn delta_threads_state_across_frames() {
        let w = registry_small().into_iter().find(|w| w.kind == Kind::Delta).unwrap();
        let built = w.build().unwrap();
        // Frame 2's reference really does read frame 1 (not the zero seed).
        let r2 = built.reference(2);
        let p2 = built.plane(2);
        assert_ne!(r2, p2, "reference must subtract the carried previous frame");
        let (outs, _) =
            built.run(Route::Sac, &mut Device::gtx480(), &ExecOptions::default()).unwrap();
        assert_eq!(outs[2], r2);
    }

    #[test]
    fn temporal_plans_serialize_lanes() {
        let w = registry_small().into_iter().find(|w| w.temporal()).unwrap();
        let built = w.build().unwrap();
        let mut serial = Device::gtx480();
        let (a, _) = built.run(Route::Gaspard, &mut serial, &ExecOptions::default()).unwrap();
        let mut piped = Device::gtx480();
        let (b, _) = built
            .run(Route::Gaspard, &mut piped, &ExecOptions { streams: 2, ..Default::default() })
            .unwrap();
        assert_eq!(a, b);
        // The carry chain collapses two lanes back to the serial clock.
        assert_eq!(piped.now_us(), serial.now_us());
    }

    #[test]
    fn bad_sizes_are_typed_errors_not_panics() {
        let mut w = registry_small().into_iter().find(|w| w.kind == Kind::BlockMean).unwrap();
        w.cols = 30; // not divisible by 4
        let err = w.build().map(|_| ()).unwrap_err();
        assert!(
            matches!(&err, ScenarioError::Build(PipelineError::Config(m)) if m.contains("divisible")),
            "{err}"
        );
        // And the downscaler's own divisibility rules surface the same way
        // (the 17x33 hardening fix, reached through registry enumeration).
        let mut d = registry_small().into_iter().find(|w| w.kind == Kind::Downscale).unwrap();
        d.rows = 17;
        d.cols = 33;
        assert!(matches!(d.build(), Err(ScenarioError::Build(PipelineError::Config(_)))));
    }
}
