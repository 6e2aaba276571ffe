//! Cross-route kernel-fusion ablation: SaC's WITH-loop folding against the
//! plan-level tiler-composition pass on the Gaspard2 route.

use super::{Experiment, FRAME_SEED};
use crate::record;
use crate::record::Record;
use downscaler::pipelines::{
    build_gaspard, build_sac, run_gaspard_batch, run_sac_batch, PipelineError,
};
use downscaler::sac_src::{Part, Variant};
use downscaler::Scenario;
use simgpu::device::Device;
use simgpu::profiler::OpClass;
use simgpu::ExecOptions;

/// The `fusion` command.
pub const EXPERIMENT: Experiment = Experiment {
    name: "fusion",
    title:
        "Ablation: kernel fusion across routes (each also run under 2 streams + pooled allocator)",
    run: |s| Ok(fusion_ablation(s)?.record()),
};

/// One row of the cross-route kernel-fusion ablation.
#[derive(Debug, Clone)]
pub struct FusionRow {
    /// Configuration label, e.g. `Gaspard2 fused`.
    pub config: String,
    /// Whether the tiler-composition fusion pass ran for this row.
    pub fused: bool,
    /// Streams / command queues this row was driven with.
    pub streams: usize,
    /// Whether the device memory pool was enabled.
    pub pool: bool,
    /// Whole-run makespan, simulated seconds.
    pub total_s: f64,
    /// Kernel launches per frame (profiler `OpClass::Kernel` calls / frames).
    pub launches_per_frame: u64,
    /// Peak device bytes resident at any point of the run.
    pub peak_bytes: usize,
}

/// Result of [`fusion_ablation`].
#[derive(Debug, Clone)]
pub struct FusionAblation {
    /// 4 configurations × 2 option sets, in nested order.
    pub rows: Vec<FusionRow>,
    /// Whether fused Gaspard2 outputs were bit-identical to unfused under
    /// every option set.
    pub fused_outputs_match: bool,
}

impl FusionAblation {
    fn record(&self) -> Record {
        let rows: Record = self
            .rows
            .iter()
            .map(|r| {
                record! {
                    "config": &r.config,
                    "route": if r.config.starts_with("SaC") { "sac" } else { "gaspard" },
                    "fused": r.fused,
                    "options": record! { "streams": r.streams, "pool": r.pool },
                    "simulated_s": r.total_s,
                    "launches_per_frame": r.launches_per_frame,
                    "peak_bytes": r.peak_bytes,
                }
            })
            .collect();
        record! { "fused_outputs_match": Record::Verdict(self.fused_outputs_match), "rows": rows }
    }
}

/// Cross-route kernel-fusion ablation: what each toolchain's fusion stage is
/// worth, measured on the same scenario with the same batch driver.
///
/// SaC's fusion knob is WITH-loop folding (paper §VI); GASPARD2's is the
/// plan-level tiler-composition pass (`simgpu::planopt`, faithful codegen —
/// this reproduction's extension: the paper's GASPARD2 has no inter-task
/// fusion, which is exactly why it pays 6 launches per frame to SaC's
/// folded 12-step chain).
/// Each configuration also runs under the composed option set from the
/// earlier ablations (2 streams + pooled allocator) to show fusion stacks
/// with pipelining and pooling rather than replacing them.
pub fn fusion_ablation(s: &Scenario) -> Result<FusionAblation, PipelineError> {
    let wlf_on = build_sac(s, Variant::NonGeneric, Part::Full, &Default::default())?;
    let wlf_off = build_sac(
        s,
        Variant::NonGeneric,
        Part::Full,
        &sac_lang::opt::OptConfig { with_loop_folding: false, resolve_modulo: true },
    )?;
    let unfused = build_gaspard(s)?;

    let row = |config: &str, fused: bool, streams: usize, pool: bool, dev: &Device| FusionRow {
        config: config.into(),
        fused,
        streams,
        pool,
        total_s: dev.now_us() / 1e6,
        launches_per_frame: dev.profiler.class_calls(OpClass::Kernel) / s.frames as u64,
        peak_bytes: dev.peak_allocated_bytes(),
    };

    let mut rows = Vec::new();
    let mut fused_outputs_match = true;
    for (streams, pool) in [(1usize, false), (2, true)] {
        let opts = ExecOptions { streams, pool, executed: 1, ..Default::default() };
        for (label, route, is_fused) in
            [("SaC (WLF off)", &wlf_off, false), ("SaC (WLF on)", &wlf_on, true)]
        {
            let mut dev = Device::gtx480();
            run_sac_batch(s, route, &mut dev, FRAME_SEED, opts)?;
            rows.push(row(label, is_fused, streams, pool, &dev));
        }
        let mut unf_dev = Device::gtx480();
        let unf_out = run_gaspard_batch(s, &unfused, &mut unf_dev, FRAME_SEED, opts)?;
        rows.push(row("Gaspard2 unfused", false, streams, pool, &unf_dev));
        // The fused route: the same unfused program with the plan-level
        // fusion pass in faithful-codegen mode — bit-identical schedules to
        // the removed model-level `fuse_model` route.
        let mut fus_dev = Device::gtx480();
        let fus_out = run_gaspard_batch(
            s,
            &unfused,
            &mut fus_dev,
            FRAME_SEED,
            ExecOptions { optimize: simgpu::PlanOptLevel::FUSION_FAITHFUL, ..opts },
        )?;
        rows.push(row("Gaspard2 fused", true, streams, pool, &fus_dev));
        fused_outputs_match &= unf_out == fus_out;
    }
    Ok(FusionAblation { rows, fused_outputs_match })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fusion_ablation_fused_strictly_wins() {
        // The acceptance shape of the HD run at test-friendly scale.
        let s = Scenario::new("hd-ish", 3, 90, 160, 300).unwrap();
        let a = fusion_ablation(&s).unwrap();
        assert_eq!(a.rows.len(), 8);
        assert!(a.fused_outputs_match);
        let pick = |config: &str, streams: usize| {
            a.rows
                .iter()
                .find(|r| r.config == config && r.streams == streams)
                .unwrap_or_else(|| panic!("{config}@{streams}"))
        };
        for streams in [1, 2] {
            let unf = pick("Gaspard2 unfused", streams);
            let fus = pick("Gaspard2 fused", streams);
            // Fusion halves the per-channel H→V chain: strictly faster,
            // strictly fewer launches, strictly lower peak residency.
            assert!(fus.total_s < unf.total_s, "{} !< {}", fus.total_s, unf.total_s);
            assert!(fus.launches_per_frame < unf.launches_per_frame);
            assert!(fus.peak_bytes < unf.peak_bytes, "{} !< {}", fus.peak_bytes, unf.peak_bytes);
            assert_eq!(unf.launches_per_frame, 2 * s.channels as u64);
            assert_eq!(fus.launches_per_frame, s.channels as u64);
            // SaC's own fusion stage (WITH-loop folding) also wins, so the
            // cross-route story is symmetric.
            let on = pick("SaC (WLF on)", streams);
            let off = pick("SaC (WLF off)", streams);
            assert!(on.total_s < off.total_s);
            assert!(on.launches_per_frame < off.launches_per_frame);
        }
        // The composed option set (2 streams + pool) stacks with fusion.
        assert!(pick("Gaspard2 fused", 2).total_s < pick("Gaspard2 fused", 1).total_s);
    }
}
