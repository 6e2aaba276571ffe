//! Cost-model sensitivity of the Table I/II totals, and WITH-loop folding
//! on/off kernel counts.

use super::{test_frame, Experiment, FRAME_SEED};
use crate::record;
use crate::record::Record;
use downscaler::frames::FrameGenerator;
use downscaler::pipelines::{build_gaspard, build_sac, PipelineError};
use downscaler::sac_src::{Part, Variant};
use downscaler::Scenario;
use gaspard::GaspardError;
use sac_cuda::{lower_plan, CudaError};
use sac_lang::opt::OptConfig;
use simgpu::device::Device;
use simgpu::{run_plan, Calibration, ExecOptions};

/// The `ablations` command.
pub const EXPERIMENT: Experiment = Experiment {
    name: "ablations",
    title: "Ablations: cost-model sensitivity and WITH-loop folding off",
    run,
};

/// Cost-model ablation: rerun Table I/II totals under a modified calibration.
/// Returns `(SaC total, Gaspard2 total)` in seconds.
pub fn totals_with_calibration(
    s: &Scenario,
    calib: Calibration,
) -> Result<(f64, f64), PipelineError> {
    // Gaspard.
    let route = build_gaspard(s)?;
    let mut device = Device::gtx480();
    device.set_calibration(calib.clone());
    let channels = FrameGenerator::new(s.channels, s.rows, s.cols, FRAME_SEED).frame_channels(0);
    let plan = gaspard::lower_plan(&route.opencl);
    run_plan(plan, &mut device, &[channels], &ExecOptions::default())
        .map_err(GaspardError::from)?;
    let gaspard_total = device.now_us() * s.frames as f64 / 1e6;
    // SaC non-generic.
    let route = build_sac(s, Variant::NonGeneric, Part::Full, &Default::default())?;
    let mut device = Device::gtx480();
    device.set_calibration(calib);
    let plan = lower_plan(&route.cuda, s.channels)?;
    run_plan(plan, &mut device, &[vec![test_frame(s)]], &ExecOptions::default())
        .map_err(CudaError::from)?;
    let sac_total = device.now_us() * s.frames as f64 / 1e6;
    Ok((sac_total, gaspard_total))
}

fn run(s: &Scenario) -> Result<Record, PipelineError> {
    let base = Calibration::gtx480();
    let variants = [
        ("baseline", base.clone()),
        (
            "launch x4 (SaC pays 12 launches/frame)",
            Calibration { kernel_launch_us: base.kernel_launch_us * 4.0, ..base.clone() },
        ),
        ("launch = 0", Calibration { kernel_launch_us: 0.0, ..base.clone() }),
        (
            "free L1 (cross-kernel reuse irrelevant)",
            Calibration { l1_access_ns: 0.0, ..base.clone() },
        ),
        (
            "L1 = DRAM (no intra-kernel reuse)",
            Calibration { l1_access_ns: base.dram_access_ns, ..base.clone() },
        ),
        (
            "2x PCIe bandwidth",
            Calibration {
                h2d_bytes_per_us: base.h2d_bytes_per_us * 2.0,
                d2h_bytes_per_us: base.d2h_bytes_per_us * 2.0,
                ..base.clone()
            },
        ),
    ];
    let mut calibration = Vec::new();
    for (label, calib) in variants {
        let (sac_s, gaspard_s) = totals_with_calibration(s, calib)?;
        calibration.push(record! { "calibration": label, "sac_s": sac_s, "gaspard_s": gaspard_s });
    }
    let mut wlf = Vec::new();
    for (label, with_loop_folding) in [("WLF on (paper)", true), ("WLF off", false)] {
        let cfg = OptConfig { with_loop_folding, resolve_modulo: true };
        let route = build_sac(s, Variant::NonGeneric, Part::Full, &cfg)?;
        wlf.push(record! {
            "config": label,
            "kernels_per_frame": route.cuda.launches_per_run(),
            "host_steps": route.cuda.host_steps_per_run(),
        });
    }
    Ok(record! { "cost_model": Record::Arr(calibration), "wlf": Record::Arr(wlf) })
}
