//! The source → optimised `LaunchPlan` chain, timed call by call, and the
//! `compile` workload built on it.

use std::time::Instant;

use downscaler::sac_src::{program_src, Part, Variant};
use downscaler::Scenario;
use gaspard::codegen::OpenClProgram;
use gaspard::{Placement, Platform};
use sac_cuda::codegen::CudaProgram;
use sac_lang::opt::{ArgDesc, OptConfig};
use scenarios::{BuiltWorkload, JobMix, Kind, Route, Workload};
use simgpu::schedule::{BatchScheduler, ExecOptions, LaunchPlan, PlanStep};
use simgpu::PlanOptLevel;

use crate::harness::{self, metric, Args, Report, SetupClock, Step};
use crate::trace::{self, span};

/// One compile target: a registry program at a size, on one route.
#[derive(Debug, Clone)]
pub struct Item {
    pub kind: Kind,
    pub size: &'static str,
    pub rows: usize,
    pub cols: usize,
    pub route: Route,
}

impl Item {
    pub fn new(kind: Kind, size: &'static str, rows: usize, cols: usize, route: Route) -> Item {
        Item { kind, size, rows, cols, route }
    }

    pub fn label(&self) -> String {
        let program = match self.kind {
            Kind::ImagePipe => "imagepipe",
            Kind::Delta => "delta",
            Kind::BlockMean => "blockmean",
            Kind::Downscale => "downscale",
        };
        format!("{program}-{}/{}", self.size, self.route.name())
    }

    fn channels(&self) -> usize {
        if self.kind == Kind::Downscale {
            3
        } else {
            1
        }
    }

    fn scenario(&self) -> Result<Scenario, String> {
        Scenario::new(self.size, 3, self.rows, self.cols, 1).map_err(|e| e.to_string())
    }

    /// The registry entry this item compiles, with frame content from `seed`
    /// (used for the CPU reference and functional frames).
    pub fn workload(&self, frames: usize, seed: u64) -> Workload {
        Workload {
            name: "perfbench",
            summary: "perfbench compile target",
            kind: self.kind,
            rows: self.rows,
            cols: self.cols,
            frames,
            seed,
            mix: JobMix { jobs: 1, mean_gap_us: 0.0, tenants: 1, frames_per_job: 1 },
        }
    }
}

/// The `compile` cycle: the three small registry programs, then the
/// downscaler at thumb, CIF and HD1080, each on both routes.
pub fn cycle() -> Vec<Item> {
    let mut items = Vec::new();
    for (kind, rows, cols) in
        [(Kind::ImagePipe, 40, 64), (Kind::Delta, 32, 48), (Kind::BlockMean, 36, 64)]
    {
        for route in Route::BOTH {
            items.push(Item::new(kind, "small", rows, cols, route));
        }
    }
    for (size, rows, cols) in [("thumb", 72, 128), ("cif", 288, 352), ("hd1080", 1080, 1920)] {
        for route in Route::BOTH {
            items.push(Item::new(Kind::Downscale, size, rows, cols, route));
        }
    }
    items
}

/// A route's front-end output.
pub enum Front {
    Sac { cuda: CudaProgram, kernels: usize },
    Gaspard(OpenClProgram),
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Front end plus codegen: SaC parse → optimise → CUDA codegen, or MARTE
/// model → deploy → schedule → OpenCL codegen.
pub fn front_end(item: &Item) -> Result<Front, String> {
    match item.route {
        Route::Sac => {
            let (src, shape) = span("scenarios.build", || -> Result<_, String> {
                let (r, c) = (item.rows, item.cols);
                Ok(match item.kind {
                    Kind::ImagePipe => (scenarios::sources::imagepipe_src(r, c), vec![r, c]),
                    Kind::Delta => (scenarios::sources::delta_src(r, c), vec![2, r, c]),
                    Kind::BlockMean => (scenarios::sources::blockmean_src(r, c), vec![r, c]),
                    Kind::Downscale => (
                        program_src(&item.scenario()?, Variant::NonGeneric, Part::Full),
                        vec![3, r, c],
                    ),
                })
            })?;
            let prog = span("sac_lang.parse", || sac_lang::parse_program(&src)).map_err(err)?;
            let args = [ArgDesc::Array { name: "frame".into(), shape }];
            let (flat, report) = span("sac_lang.opt", || {
                sac_lang::opt::optimize(&prog, "main", &args, &OptConfig::default())
            })
            .map_err(err)?;
            let cuda =
                span("sac_cuda.codegen", || sac_cuda::compile_flat_program(&flat)).map_err(err)?;
            Ok(Front::Sac { cuda, kernels: report.generators_after_split })
        }
        Route::Gaspard => {
            let (model, alloc) = span("scenarios.build", || -> Result<_, String> {
                let (r, c) = (item.rows, item.cols);
                Ok(match item.kind {
                    Kind::ImagePipe => scenarios::models::imagepipe_model(r, c),
                    Kind::Delta => scenarios::models::delta_model(r, c),
                    Kind::BlockMean => scenarios::models::blockmean_model(r, c),
                    Kind::Downscale => downscaler::model::downscaler_model(&item.scenario()?),
                })
            })?;
            let deployed =
                span("gaspard.deploy", || gaspard::deploy(model, Platform::cpu_gpu(), alloc))
                    .map_err(err)?;
            let scheduled =
                span("gaspard.schedule", || gaspard::schedule(&deployed)).map_err(err)?;
            let opencl =
                span("gaspard.codegen", || gaspard::generate_opencl(&scheduled)).map_err(err)?;
            Ok(Front::Gaspard(opencl))
        }
    }
}

/// Lower the route's program to a `LaunchPlan` exactly as the registry does:
/// per-channel transfer chunks on SaC, device-resident placement plus the
/// faithful plan-level fusion for the GASPARD2 downscaler, and the carry
/// surgery for `delta`.
///
/// Also returns the launches per frame as lowered, before any `planopt` pass.
pub fn lower<'p>(item: &Item, front: &'p Front) -> Result<(LaunchPlan<'p>, usize), String> {
    let (plan, lowered) = match front {
        Front::Sac { cuda, .. } => {
            let plan = span("lower.sac", || sac_cuda::exec::lower_plan(cuda, item.channels()))
                .map_err(err)?;
            let lowered = launched(&plan).len();
            (plan, lowered)
        }
        Front::Gaspard(opencl) => {
            let mut plan = span("lower.gaspard", || {
                gaspard::exec::lower_plan_with(opencl, Placement::Resident)
            });
            let lowered = launched(&plan).len();
            if item.kind == Kind::Downscale {
                span("planopt.fusion", || {
                    simgpu::optimize(&mut plan, PlanOptLevel::FUSION_FAITHFUL)
                })
                .map_err(err)?;
            }
            (plan, lowered)
        }
    };
    let plan = if item.kind == Kind::Delta {
        span("scenarios.temporalize", || scenarios::temporal::temporalize(plan))?
    } else {
        plan
    };
    Ok((plan, lowered))
}

/// `planopt` at `FULL`, run as its five passes one at a time at their
/// single-pass levels in the pass manager's fixed order. This yields the
/// plan `FULL` yields, and traced and untraced ops run the same calls, so a
/// traced run times each pass on its own.
pub fn optimize_full(plan: &mut LaunchPlan<'_>) -> Result<(), String> {
    let [residency, dead, reorder, coalesce] = crate::harness::TRANSFER_PASSES;
    for (name, level) in [
        ("planopt.fusion", PlanOptLevel::FUSION),
        (residency, PlanOptLevel::RESIDENCY),
        (dead, PlanOptLevel::DEAD_TRANSFERS),
        (reorder, PlanOptLevel::REORDER),
        (coalesce, PlanOptLevel::COALESCE),
    ] {
        span(name, || simgpu::optimize(plan, level)).map_err(err)?;
    }
    Ok(())
}

/// Static shape of an optimised plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PlanShape {
    /// Launches per frame.
    pub launches: usize,
    /// Static KIR instructions of the launched kernels.
    pub kir_instrs: usize,
    /// Launches per frame `planopt` removed.
    pub launches_removed: usize,
    /// Kernels the SaC optimiser produced (0 on the GASPARD2 route).
    pub sac_kernels: usize,
}

fn launched(plan: &LaunchPlan<'_>) -> Vec<usize> {
    plan.steps
        .iter()
        .filter_map(|s| match s {
            PlanStep::Launch { kernel } => Some(*kernel),
            _ => None,
        })
        .collect()
}

/// The whole chain for one item: front end, lowering and `planopt` at FULL.
pub fn compile<'p>(item: &Item, front: &'p Front) -> Result<(LaunchPlan<'p>, PlanShape), String> {
    let (mut plan, before) = lower(item, front)?;
    optimize_full(&mut plan)?;
    let mut kernels = launched(&plan);
    let launches = kernels.len();
    kernels.sort_unstable();
    kernels.dedup();
    let shape = PlanShape {
        launches,
        kir_instrs: kernels.iter().map(|&k| plan.kernels[k].kernel.static_len()).sum(),
        launches_removed: before.saturating_sub(launches),
        sac_kernels: match front {
            Front::Sac { kernels, .. } => *kernels,
            Front::Gaspard(_) => 0,
        },
    };
    Ok((plan, shape))
}

/// One `compile` op: source to optimised plan, returning its shape.
fn compile_op(item: &Item) -> Result<PlanShape, String> {
    let front = front_end(item)?;
    compile(item, &front).map(|(_, shape)| shape)
}

/// Set-up check of the non-HD items: each compiled plan runs one functional
/// frame, which must equal the CPU reference, at 1 interpreter thread and at
/// the benchmark's thread count with bit-identical simulated time.
fn check_small(items: &[Item], seed: u64) -> Result<(), String> {
    for item in items.iter().filter(|i| i.size != "hd1080") {
        let built: BuiltWorkload = span("scenarios.build", || item.workload(1, seed).build())
            .map_err(|e| format!("{}: {e}", item.label()))?;
        let front = front_end(item)?;
        let (plan, _) = compile(item, &front)?;
        let frames = built.frames(item.route, 1);
        let reference = span("scenarios.reference", || built.reference(0));
        let mut clocks = Vec::new();
        for workers in [1, harness::host_workers()] {
            let mut dev = harness::device();
            dev.set_host_workers(workers);
            let (outs, _) = span("schedule.run", || {
                BatchScheduler::new(&plan).run(&mut dev, &frames, &ExecOptions::default())
            })
            .map_err(|e| format!("{}: {e}", item.label()))?;
            let out = outs.into_iter().next().map(|o| built.canon(o));
            if out.as_ref() != Some(&reference) {
                return Err(format!("{}: output differs from the CPU reference", item.label()));
            }
            clocks.push(dev.now_us().to_bits());
        }
        if clocks[0] != clocks[1] {
            return Err(format!("{}: simulated time depends on host_workers", item.label()));
        }
    }
    Ok(())
}

pub fn run(args: &Args, start: Instant) -> Result<Report, String> {
    let mut report = Report { cycle: cycle().len(), ..Default::default() };
    let mut clock = SetupClock::new(start);
    // The cycle order is fixed, since it shapes the allocator's state and
    // with it the op times; the seed picks the set-up checks' content.
    let items = cycle();
    let n = items.len();
    loop {
        check_small(&items, args.seed)?;
        if clock.lap() {
            break;
        }
    }
    report.setup = clock;

    // First pass: the reference shapes every later pass must reproduce.
    let mut expected: Vec<Option<PlanShape>> = vec![None; n];
    let mut problems = Vec::new();
    let mut notes = Vec::new();
    let (untraced, traced) = crate::harness::run_loop(args, 1, &mut problems, |first_op| {
        // One unit is a whole pass, so every phase sees the same mix.
        let mut step = Step { ops: 0, samples: Vec::new(), failed: 0 };
        for (i, item) in items.iter().enumerate() {
            trace::set_op(Some(first_op + i));
            let t0 = Instant::now();
            let shape = span("perfbench.op", || compile_op(item));
            step.samples.push(t0.elapsed().as_secs_f64() * 1e3);
            step.ops += 1;
            match shape {
                Ok(s) if *expected[i].get_or_insert(s) == s => {}
                Ok(s) => {
                    step.failed += 1;
                    notes.push(format!(
                        "{}: plan shape changed between passes: {s:?}",
                        item.label()
                    ));
                }
                Err(e) => {
                    step.failed += 1;
                    notes.push(format!("{}: {e}", item.label()));
                }
            }
        }
        Ok(step)
    });
    problems.extend(notes);
    report.problems = problems;
    let shapes: Vec<PlanShape> = expected.into_iter().flatten().collect();
    let total = |f: fn(&PlanShape) -> usize| shapes.iter().map(f).sum::<usize>() as f64;
    for (i, item) in items.iter().enumerate() {
        let own: Vec<f64> = untraced.samples.iter().skip(i).step_by(n).copied().collect();
        println!("  {:<34} {:>18} ms (median)", item.label(), harness::median(&own));
    }
    report.extra = vec![
        metric("op_ms_p90", harness::percentile(&untraced.samples, 90.0), "ms"),
        metric("launches_per_frame", total(|s| s.launches), "count"),
        metric("kir_instrs", total(|s| s.kir_instrs), "count"),
    ];
    if args.trace {
        let spans = trace::take();
        report.layer = harness::span_metrics(&spans);
        report.layer.push(metric("sac_lang.kernels", total(|s| s.sac_kernels), "count"));
        report.layer.push(metric(
            "planopt.launches_removed",
            total(|s| s.launches_removed),
            "count",
        ));
        harness::write_trace(&args.workload, &spans);
    }
    report.untraced = untraced;
    report.traced = traced;
    Ok(report)
}
