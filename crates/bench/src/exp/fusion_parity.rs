//! Fusion-parity ablation: the route-agnostic plan-level `KernelFusion`
//! pass against each route's own fusion stage.

use super::{config_err, Experiment};
use crate::record;
use crate::record::Record;
use downscaler::pipelines::PipelineError;
use downscaler::Scenario;
use simgpu::profiler::OpClass;
use simgpu::ExecOptions;

/// The `fusion-parity` command.
pub const EXPERIMENT: Experiment = Experiment {
    name: "fusion-parity",
    title: "Ablation: plan-level kernel fusion vs route-local fusion (parity)",
    run: |s| Ok(fusion_parity_ablation(s)?.record()),
};

/// One dynamic row of the fusion-parity ablation: the three-stage imagepipe
/// stencil chain at the scenario's frame size, run under one fusion
/// strategy.
#[derive(Debug, Clone)]
pub struct FusionParityRow {
    /// Configuration label, e.g. `SaC WLF off + plan fusion`.
    pub config: String,
    /// Compilation route (`sac` / `gaspard`).
    pub route: String,
    /// Whether the plan-level `KernelFusion` pass ran for this row.
    pub plan_fusion: bool,
    /// `Launch` steps in the optimized per-frame plan.
    pub launches_per_frame: usize,
    /// Profiler kernel-class calls over the whole batch.
    pub kernel_calls: u64,
    /// Whole-run makespan, simulated seconds.
    pub total_s: f64,
    /// Whether every executed frame matched the CPU reference bit-exactly.
    pub outputs_match: bool,
}

/// One static row of the downscaler size sweep: `Launch` steps per frame of
/// the lowered plan before and after the plan-level fusion pass. Plan
/// metrics only — the 8K entry is never executed.
#[derive(Debug, Clone)]
pub struct FusionParitySweepRow {
    /// Registry entry name, e.g. `downscale-8k`.
    pub scenario: String,
    /// Frame rows.
    pub rows_px: usize,
    /// Frame columns.
    pub cols_px: usize,
    /// Compilation route (`sac` / `gaspard`).
    pub route: String,
    /// `Launch` steps per frame with planopt off.
    pub launches_unfused: usize,
    /// `Launch` steps per frame after `PlanOptLevel::FUSION`.
    pub launches_fused: usize,
}

/// Result of [`fusion_parity_ablation`].
#[derive(Debug, Clone)]
pub struct FusionParityAblation {
    /// Imagepipe rows: SaC {WLF on, WLF off, WLF off + plan fusion},
    /// Gaspard2 {unfused, fuse_model, plan fusion}.
    pub rows: Vec<FusionParityRow>,
    /// Static launch-count sweep over every downscaler registry entry
    /// (thumbnail through 8K), both routes.
    pub sweep: Vec<FusionParitySweepRow>,
    /// Whether SaC with WLF off + plan fusion matched or beat WLF on in
    /// both launches per frame and simulated makespan.
    pub wlf_recovered: bool,
    /// Whether the Gaspard2 stencil chain reached one kernel per frame via
    /// the plan-level pass.
    pub stencil_single_kernel: bool,
    /// Whether every row's outputs were bit-identical to the CPU reference.
    pub outputs_match: bool,
}

impl FusionParityAblation {
    fn record(&self) -> Record {
        let rows: Record = self
            .rows
            .iter()
            .map(|r| {
                record! {
                    "config": &r.config,
                    "route": &r.route,
                    "plan_fusion": r.plan_fusion,
                    "launches_per_frame": r.launches_per_frame,
                    "kernel_calls": r.kernel_calls,
                    "simulated_s": r.total_s,
                    "outputs_match": Record::Verdict(r.outputs_match),
                }
            })
            .collect();
        let sweep: Record = self
            .sweep
            .iter()
            .map(|r| {
                record! {
                    "scenario": &r.scenario,
                    "rows": r.rows_px,
                    "cols": r.cols_px,
                    "route": &r.route,
                    "launches_unfused": r.launches_unfused,
                    "launches_fused": r.launches_fused,
                }
            })
            .collect();
        record! {
            "wlf_recovered": Record::Verdict(self.wlf_recovered),
            "stencil_single_kernel": Record::Verdict(self.stencil_single_kernel),
            "outputs_match": Record::Verdict(self.outputs_match),
            "rows": rows,
            "sweep": sweep,
        }
    }
}

/// Fusion-parity ablation: the route-agnostic plan-level `KernelFusion`
/// pass against each route's own fusion stage, on the same workload with
/// the same batch driver.
///
/// SaC's native fusion is WITH-loop folding (paper §VI); GASPARD2's is the
/// route-local `fuse_model` tiler-composition pass. The plan-level pass
/// subsumes both: it composes tiled-access descriptions *after* lowering,
/// so a SaC plan built with WLF off must recover WLF-on launch counts and
/// makespan, and the GASPARD2 chain must collapse to one kernel per frame
/// without consulting GASPARD2 internals. A static sweep counts launches
/// across the downscaler registry sizes up to 8K, where only plan metrics
/// (never execution) are taken.
pub fn fusion_parity_ablation(s: &Scenario) -> Result<FusionParityAblation, PipelineError> {
    use scenarios::Route;

    let spec = scenarios::Workload {
        name: "imagepipe",
        summary: "blur -> gradient -> sharpen column-stencil chain",
        kind: scenarios::Kind::ImagePipe,
        rows: s.rows,
        cols: s.cols,
        frames: s.frames,
        seed: 0x5CE0,
        mix: scenarios::JobMix { jobs: 1, mean_gap_us: 1_000.0, tenants: 1, frames_per_job: 1 },
    };
    let wlf_on = spec.build().map_err(config_err)?;
    let wlf_off = spec
        .build_with_sac_config(&sac_lang::opt::OptConfig {
            with_loop_folding: false,
            resolve_modulo: true,
        })
        .map_err(config_err)?;

    let base = ExecOptions { executed: 1, ..Default::default() };
    let launch_steps = |plan: &simgpu::LaunchPlan<'_>| {
        plan.steps.iter().filter(|st| matches!(st, simgpu::PlanStep::Launch { .. })).count()
    };

    let row = |label: &str,
               built: &scenarios::BuiltWorkload,
               route: Route,
               level: simgpu::PlanOptLevel|
     -> Result<FusionParityRow, PipelineError> {
        let mut plan = built.plan(route).map_err(config_err)?;
        simgpu::planopt::optimize(&mut plan, level).map_err(config_err)?;
        let mut dev = super::gtx480();
        let (outs, _) = built
            .run(route, &mut dev, &ExecOptions { optimize: level, ..base })
            .map_err(config_err)?;
        Ok(FusionParityRow {
            config: label.into(),
            route: route.name().into(),
            plan_fusion: level.fusion,
            launches_per_frame: launch_steps(&plan),
            kernel_calls: dev.profiler.class_calls(OpClass::Kernel),
            total_s: dev.now_us() / 1e6,
            outputs_match: outs.iter().enumerate().all(|(f, o)| *o == built.reference(f)),
        })
    };

    // The faithful-codegen baseline, keeping the label of the removed
    // model-level `fuse_model` route it schedules bit-identically to:
    // GASPARD2's three-stage model, fused plan-level with the faithful
    // tiled codegen, run through the same batch driver.
    let fuse_model_row = || -> Result<FusionParityRow, PipelineError> {
        let (model, alloc) = scenarios::models::imagepipe_model(s.rows, s.cols);
        let deployed = gaspard::deploy(model, gaspard::Platform::cpu_gpu(), alloc)?;
        let scheduled = gaspard::schedule(&deployed)?;
        let prog = gaspard::generate_opencl(&scheduled)?;
        let mut plan = gaspard::exec::lower_plan(&prog);
        simgpu::planopt::optimize(&mut plan, simgpu::PlanOptLevel::FUSION_FAITHFUL)
            .map_err(config_err)?;
        let mut dev = super::gtx480();
        let frames = wlf_on.frames(Route::Gaspard, 1);
        let (outs, _) = simgpu::BatchScheduler::new(&plan)
            .run(&mut dev, &frames, &ExecOptions { total_frames: spec.frames, ..base })
            .map_err(config_err)?;
        Ok(FusionParityRow {
            config: "Gaspard2 fuse_model".into(),
            route: "gaspard".into(),
            plan_fusion: false,
            launches_per_frame: launch_steps(&plan),
            kernel_calls: dev.profiler.class_calls(OpClass::Kernel),
            total_s: dev.now_us() / 1e6,
            outputs_match: outs
                .iter()
                .enumerate()
                .all(|(f, o)| o.len() == 1 && o[0] == wlf_on.reference(f)),
        })
    };

    let rows = vec![
        row("SaC WLF on", &wlf_on, Route::Sac, simgpu::PlanOptLevel::OFF)?,
        row("SaC WLF off", &wlf_off, Route::Sac, simgpu::PlanOptLevel::OFF)?,
        row("SaC WLF off + plan fusion", &wlf_off, Route::Sac, simgpu::PlanOptLevel::FUSION)?,
        row("Gaspard2 unfused", &wlf_on, Route::Gaspard, simgpu::PlanOptLevel::OFF)?,
        fuse_model_row()?,
        row("Gaspard2 plan fusion", &wlf_on, Route::Gaspard, simgpu::PlanOptLevel::FUSION)?,
    ];

    let mut sweep = Vec::new();
    for w in scenarios::registry_extended() {
        if w.kind != scenarios::Kind::Downscale {
            continue;
        }
        let built = w.build().map_err(config_err)?;
        for route in Route::BOTH {
            let unfused = built.plan(route).map_err(config_err)?;
            let mut fused = built.plan(route).map_err(config_err)?;
            simgpu::planopt::optimize(&mut fused, simgpu::PlanOptLevel::FUSION)
                .map_err(config_err)?;
            sweep.push(FusionParitySweepRow {
                scenario: w.name.into(),
                rows_px: w.rows,
                cols_px: w.cols,
                route: route.name().into(),
                launches_unfused: launch_steps(&unfused),
                launches_fused: launch_steps(&fused),
            });
        }
    }

    let by = |label: &str| rows.iter().find(|r| r.config == label).expect("known row");
    let on = by("SaC WLF on");
    let recovered = by("SaC WLF off + plan fusion");
    Ok(FusionParityAblation {
        wlf_recovered: recovered.launches_per_frame <= on.launches_per_frame
            && recovered.total_s <= on.total_s,
        stencil_single_kernel: by("Gaspard2 plan fusion").launches_per_frame == 1,
        outputs_match: rows.iter().all(|r| r.outputs_match),
        rows,
        sweep,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fusion_parity_ablation_recovers_wlf_and_collapses_the_chain() {
        // The acceptance shape of the HD run at test-friendly scale.
        let s = Scenario::new("hd-ish", 3, 90, 160, 300).unwrap();
        let a = fusion_parity_ablation(&s).unwrap();
        assert_eq!(a.rows.len(), 6);
        assert!(a.outputs_match);
        assert!(a.wlf_recovered);
        assert!(a.stencil_single_kernel);
        let by = |config: &str| {
            a.rows.iter().find(|r| r.config == config).unwrap_or_else(|| panic!("{config}"))
        };
        // WLF off pays three launches per frame; both fusion strategies get
        // back to one, and the plan-level pass matches or beats WLF on.
        assert_eq!(by("SaC WLF off").launches_per_frame, 3);
        assert_eq!(by("SaC WLF off + plan fusion").launches_per_frame, 1);
        assert!(by("SaC WLF off + plan fusion").total_s <= by("SaC WLF on").total_s);
        assert!(by("SaC WLF off + plan fusion").total_s < by("SaC WLF off").total_s);
        // Gaspard2: the plan-level pass reproduces fuse_model's launch
        // counts without touching route internals.
        assert_eq!(by("Gaspard2 unfused").launches_per_frame, 3);
        assert_eq!(
            by("Gaspard2 plan fusion").launches_per_frame,
            by("Gaspard2 fuse_model").launches_per_frame
        );
        assert!(by("Gaspard2 plan fusion").total_s <= by("Gaspard2 fuse_model").total_s);
        // Kernel-class call counts agree with the static plan launch counts
        // over the 300-frame batch.
        for r in &a.rows {
            assert_eq!(r.kernel_calls, (r.launches_per_frame * s.frames) as u64, "{}", r.config);
        }
        // The sweep covers every downscaler size on both routes, including
        // the static-only 8K entry.
        assert_eq!(a.sweep.len(), 8);
        assert!(a.sweep.iter().any(|r| r.scenario == "downscale-8k"));
        for r in &a.sweep {
            assert!(r.launches_fused <= r.launches_unfused, "{}/{}", r.scenario, r.route);
        }
        // A route compiles the downscaler to the same launch count at every
        // size: frame size changes extents, never the program's structure.
        for r in &a.sweep {
            let thumb = a
                .sweep
                .iter()
                .find(|t| t.scenario == "downscale-thumb" && t.route == r.route)
                .expect("thumb row");
            assert_eq!(r.launches_unfused, thumb.launches_unfused, "{}/{}", r.scenario, r.route);
        }
    }
}
