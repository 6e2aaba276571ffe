//! Figure 9: filter execution times of the four SaC configurations.

use super::{test_frame, Experiment};
use crate::calibration::SEQ_CPU_NS_PER_OP;
use crate::record;
use crate::record::Record;
use downscaler::pipelines::{build_sac, PipelineError, SacRoute};
use downscaler::sac_src::{Part, Variant};
use downscaler::Scenario;
use sac_cuda::{lower_plan, CudaError};
use simgpu::cost::Direction;
use simgpu::device::Device;
use simgpu::profiler::OpClass;
use simgpu::PlanStep;
use simgpu::{run_plan, ExecOptions};

/// The `fig9` command.
pub const EXPERIMENT: Experiment = Experiment {
    name: "fig9",
    title: "Figure 9: execution time of horizontal and vertical filters (whole run)",
    run: |s| Ok(record! { "rows": fig9_record(&figure9(s)?) }),
};

/// One bar pair of Figure 9.
#[derive(Debug, Clone)]
pub struct Fig9Row {
    /// Configuration label, e.g. `SAC-CUDA Non-Generic`.
    pub config: String,
    /// Horizontal-filter execution time for the whole run, seconds.
    pub horizontal_s: f64,
    /// Vertical-filter execution time, seconds.
    pub vertical_s: f64,
}

/// Figure 9's rows as a record array.
pub(crate) fn fig9_record(rows: &[Fig9Row]) -> Record {
    rows.iter()
        .map(|r| {
            record! {
                "config": &r.config,
                "horizontal_s": r.horizontal_s,
                "vertical_s": r.vertical_s,
            }
        })
        .collect()
}

/// Simulated seconds to transfer `route`'s result back, if the plan does.
fn result_download_us(s: &Scenario, route: &SacRoute, device: &Device) -> f64 {
    let downloads_result = matches!(
        route.cuda.plan.last(),
        Some(PlanStep::Download { array, .. }) if *array == route.flat.result
    );
    if !downloads_result {
        return 0.0;
    }
    let shape = &route.flat.arrays[route.flat.result].shape;
    let len: usize = shape.iter().product();
    let chunks = if shape.first() == Some(&s.channels) && s.channels > 1 { s.channels } else { 1 };
    let calib = device.calibration();
    chunks as f64 * calib.transfer_time_us(len * 4 / chunks, Direction::DeviceToHost)
}

/// The input of one filter part: the frame, or the horizontal filter's
/// output for the vertical part.
fn part_input(s: &Scenario, part: Part) -> mdarray::NdArray<i64> {
    match part {
        Part::Vertical => downscaler::pipelines::reference_horizontal(s, &test_frame(s)),
        _ => test_frame(s),
    }
}

/// Per-filter *execution* time of a CUDA route over the full run, seconds:
/// kernel + host-fallback + *forced mid-pipeline* transfer time. The frame
/// upload and (when present) final result download are excluded — they are
/// common to every configuration and reported separately in Tables I/II.
fn cuda_filter_time_s(s: &Scenario, variant: Variant, part: Part) -> Result<f64, PipelineError> {
    let route = build_sac(s, variant, part, &Default::default())?;
    let mut device = Device::gtx480();
    let plan = lower_plan(&route.cuda, s.channels)?;
    run_plan(plan, &mut device, &[vec![part_input(s, part)]], &ExecOptions::default())
        .map_err(CudaError::from)?;
    let total = device.now_us();
    let h2d = device.profiler.class_total_us(OpClass::H2D);
    let result_d2h = result_download_us(s, &route, &device);
    let per_frame_us = total - h2d - result_d2h;
    Ok(per_frame_us * s.frames as f64 / 1e6)
}

/// Sequential (SAC-Seq) per-filter time over the full run, seconds.
fn seq_filter_time_s(s: &Scenario, variant: Variant, part: Part) -> Result<f64, PipelineError> {
    let route = build_sac(s, variant, part, &Default::default())?;
    let mut ops = 0u64;
    route.flat.run(&[part_input(s, part)], &mut ops).map_err(PipelineError::Sac)?;
    Ok(ops as f64 * SEQ_CPU_NS_PER_OP * s.frames as f64 / 1e9)
}

/// Figure 9: filter execution times of the four SaC configurations.
pub fn figure9(s: &Scenario) -> Result<Vec<Fig9Row>, PipelineError> {
    let mut rows = Vec::new();
    for (label, variant, cuda) in [
        ("SAC-Seq Generic", Variant::Generic, false),
        ("SAC-Seq Non-Generic", Variant::NonGeneric, false),
        ("SAC-CUDA Generic", Variant::Generic, true),
        ("SAC-CUDA Non-Generic", Variant::NonGeneric, true),
    ] {
        let time = if cuda { cuda_filter_time_s } else { seq_filter_time_s };
        rows.push(Fig9Row {
            config: label.into(),
            horizontal_s: time(s, variant, Part::Horizontal)?,
            vertical_s: time(s, variant, Part::Vertical)?,
        });
    }
    Ok(rows)
}
