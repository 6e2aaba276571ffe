//! Plan-optimisation ablation: what each `simgpu::planopt` pass is worth in
//! bytes moved and makespan.

use super::{Experiment, FRAME_SEED};
use crate::record;
use crate::record::Record;
use downscaler::frames::FrameGenerator;
use downscaler::pipelines::{build_gaspard, PipelineError};
use downscaler::Scenario;
use gaspard::GaspardError;
use simgpu::device::Device;
use simgpu::{run_plan, ExecOptions};

/// The `planopt` command.
pub const EXPERIMENT: Experiment = Experiment {
    name: "planopt",
    title: "Ablation: plan-level transfer elimination (simgpu::planopt; naive placement vs fused route, each under 1 stream and 2 streams + pool)",
    run: |s| Ok(planopt_ablation(s)?.record()),
};

/// One row of the plan-optimisation ablation.
#[derive(Debug, Clone)]
pub struct PlanoptRow {
    /// Configuration label, e.g. `Gaspard2 naive placement`.
    pub config: String,
    /// Which planopt passes ran: `off`, a single pass name, or `all`.
    pub passes: String,
    /// Streams / command queues this row was driven with.
    pub streams: usize,
    /// Whether the device memory pool was enabled.
    pub pool: bool,
    /// Whole-run makespan, simulated seconds.
    pub total_s: f64,
    /// Host-to-device transfers actually issued per frame.
    pub h2d_per_frame: f64,
    /// Device-to-host transfers actually issued per frame.
    pub d2h_per_frame: f64,
    /// Total host-to-device bytes over the whole run, MB.
    pub h2d_mb: f64,
    /// Total device-to-host bytes over the whole run, MB.
    pub d2h_mb: f64,
}

/// Result of [`planopt_ablation`].
#[derive(Debug, Clone)]
pub struct PlanoptAblation {
    /// Naive-placement rows (6 pass settings × 2 option sets) followed by
    /// fused-route rows (off/all × 2 option sets).
    pub rows: Vec<PlanoptRow>,
    /// Whether every optimized run's outputs were bit-identical to the
    /// passes-off run of the same configuration and option set.
    pub outputs_match: bool,
}

impl PlanoptAblation {
    fn record(&self) -> Record {
        let rows: Record = self
            .rows
            .iter()
            .map(|r| {
                record! {
                    "config": &r.config,
                    "passes": &r.passes,
                    "options": record! { "streams": r.streams, "pool": r.pool },
                    "simulated_s": r.total_s,
                    "h2d_per_frame": r.h2d_per_frame,
                    "d2h_per_frame": r.d2h_per_frame,
                    "h2d_mb": r.h2d_mb,
                    "d2h_mb": r.d2h_mb,
                }
            })
            .collect();
        record! { "outputs_match": Record::Verdict(self.outputs_match), "rows": rows }
    }
}

/// The pass settings the ablation sweeps: off, each pass alone, and all.
const PLANOPT_LEVELS: [(&str, simgpu::PlanOptLevel); 6] = [
    ("off", simgpu::PlanOptLevel::OFF),
    ("residency", simgpu::PlanOptLevel::RESIDENCY),
    ("dead-transfers", simgpu::PlanOptLevel::DEAD_TRANSFERS),
    ("reorder", simgpu::PlanOptLevel::REORDER),
    ("coalesce", simgpu::PlanOptLevel::COALESCE),
    ("all", simgpu::PlanOptLevel::ALL),
];

/// Plan-optimisation ablation: what each `simgpu::planopt` pass is worth,
/// in bytes moved and makespan, under 1-stream naive and 2-stream pooled
/// option sets.
///
/// Two baselines make the story legible. The *naive placement* rows lower
/// the unfused Gaspard2 model with per-kernel host round trips — the
/// placement a straight per-tiler translation emits — so the residency and
/// dead-transfer passes have real redundancy to eliminate (they recover the
/// device-resident placement mechanically). The *fused* rows start from the
/// faithfully fused plan, whose placement is already transfer-minimal; there the
/// headline saving is transfer coalescing, which batches the three
/// per-channel uploads (and downloads) into one transfer each and pays one
/// PCIe latency instead of three — on the transfer-bound HD run that is
/// what finally moves the 2-stream plateau.
pub fn planopt_ablation(s: &Scenario) -> Result<PlanoptAblation, PipelineError> {
    let unfused = build_gaspard(s)?;
    let frames = s.frames as f64;
    // One functional frame per run; the rest of the batch timing-replays.
    let functional =
        [FrameGenerator::new(s.channels, s.rows, s.cols, FRAME_SEED).frame_channels(0)];

    let mut rows = Vec::new();
    let mut outputs_match = true;
    let mut run = |config: &str,
                   route: &downscaler::pipelines::GaspardRoute,
                   placement: gaspard::Placement,
                   levels: &[(&str, simgpu::PlanOptLevel)],
                   rows: &mut Vec<PlanoptRow>|
     -> Result<(), PipelineError> {
        for &(streams, pool) in &[(1usize, false), (2, true)] {
            let mut baseline = None;
            for (passes, level) in levels {
                let opts = ExecOptions {
                    streams,
                    pool,
                    total_frames: s.frames,
                    optimize: *level,
                    ..Default::default()
                };
                let plan = gaspard::lower_plan_with(&route.opencl, placement);
                let mut dev = Device::gtx480();
                let (outs, stats) =
                    run_plan(plan, &mut dev, &functional, &opts).map_err(GaspardError::from)?;
                match &baseline {
                    None => baseline = Some(outs),
                    Some(base) => outputs_match &= *base == outs,
                }
                rows.push(PlanoptRow {
                    config: config.into(),
                    passes: (*passes).into(),
                    streams,
                    pool,
                    total_s: dev.now_us() / 1e6,
                    h2d_per_frame: stats.h2d as f64 / frames,
                    d2h_per_frame: stats.d2h as f64 / frames,
                    h2d_mb: stats.h2d_bytes as f64 / 1e6,
                    d2h_mb: stats.d2h_bytes as f64 / 1e6,
                });
            }
        }
        Ok(())
    };

    run(
        "Gaspard2 naive placement",
        &unfused,
        gaspard::Placement::PerKernelRoundTrip,
        &PLANOPT_LEVELS,
        &mut rows,
    )?;
    // The fused baseline: faithful plan-level fusion stands in for the
    // removed pre-fused route (bit-identical schedules), so "off" means
    // "fused, no further passes" and "all" layers the remaining passes on
    // the same fused plan.
    run(
        "Gaspard2 fused",
        &unfused,
        gaspard::Placement::Resident,
        &[
            ("off", simgpu::PlanOptLevel::FUSION_FAITHFUL),
            (
                "all",
                simgpu::PlanOptLevel {
                    fusion: true,
                    fusion_faithful: true,
                    ..simgpu::PlanOptLevel::ALL
                },
            ),
        ],
        &mut rows,
    )?;
    Ok(PlanoptAblation { rows, outputs_match })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn planopt_ablation_recovers_resident_placement_and_wins() {
        // The acceptance shape of the HD run at test-friendly scale.
        let s = Scenario::new("hd-ish", 3, 90, 160, 300).unwrap();
        let a = planopt_ablation(&s).unwrap();
        assert_eq!(a.rows.len(), 16);
        assert!(a.outputs_match);
        let pick = |config: &str, passes: &str, streams: usize| {
            a.rows
                .iter()
                .find(|r| r.config == config && r.passes == passes && r.streams == streams)
                .unwrap_or_else(|| panic!("{config}/{passes}@{streams}"))
        };
        for streams in [1, 2] {
            let naive_off = pick("Gaspard2 naive placement", "off", streams);
            let naive_all = pick("Gaspard2 naive placement", "all", streams);
            // The naive placement round-trips every kernel boundary: 6
            // uploads + 6 downloads per frame vs the resident 3 + 3.
            assert_eq!(naive_off.h2d_per_frame, 6.0);
            assert_eq!(naive_off.d2h_per_frame, 6.0);
            // Residency alone drops the re-uploads; adding dead-transfer
            // elimination drops the intermediate downloads too; all passes
            // also coalesce what remains into one batch per direction.
            let res = pick("Gaspard2 naive placement", "residency", streams);
            assert_eq!(res.h2d_per_frame, 3.0, "{res:?}");
            assert!(res.h2d_mb < naive_off.h2d_mb);
            assert_eq!(naive_all.h2d_per_frame, 1.0, "{naive_all:?}");
            assert_eq!(naive_all.d2h_per_frame, 1.0);
            assert!(naive_all.h2d_mb < naive_off.h2d_mb);
            assert!(naive_all.d2h_mb < naive_off.d2h_mb);
            assert!(naive_all.total_s < naive_off.total_s);
            // No individual pass ever costs time or bytes.
            for passes in ["residency", "dead-transfers", "reorder", "coalesce"] {
                let r = pick("Gaspard2 naive placement", passes, streams);
                assert!(r.total_s <= naive_off.total_s + 1e-12, "{r:?}");
                assert!(r.h2d_mb <= naive_off.h2d_mb && r.d2h_mb <= naive_off.d2h_mb, "{r:?}");
            }
            // The fused route is already transfer-minimal: same bytes, but
            // coalescing saves the per-transfer latencies.
            let fused_off = pick("Gaspard2 fused", "off", streams);
            let fused_all = pick("Gaspard2 fused", "all", streams);
            assert_eq!(fused_all.h2d_mb, fused_off.h2d_mb);
            assert_eq!(fused_all.h2d_per_frame, 1.0);
            assert!(fused_all.total_s < fused_off.total_s, "{fused_all:?} {fused_off:?}");
        }
    }
}
