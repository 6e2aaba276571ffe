//! Frame-size sweep: where does the GPU overtake sequential execution?

use super::{test_frame, Experiment};
use crate::calibration::SEQ_CPU_NS_PER_OP;
use crate::record;
use crate::record::Record;
use downscaler::pipelines::{build_sac, PipelineError};
use downscaler::sac_src::{Part, Variant};
use downscaler::Scenario;
use sac_cuda::{lower_plan, CudaError};
use simgpu::device::Device;
use simgpu::profiler::OpClass;
use simgpu::{run_plan, ExecOptions};

/// The `sweep` command. It grows the frame up to the scenario's own size,
/// with the scenario's channel count.
pub const EXPERIMENT: Experiment = Experiment {
    name: "sweep",
    title:
        "Frame-size sweep up to the scenario's frame: sequential vs GPU per frame (non-generic SaC)",
    run: |s| {
        let rows = sweep(s.channels, &scales_within(s))?;
        Ok(record! { "rows": rows.iter().map(SweepRow::record).collect::<Record>() })
    },
};

/// The scales `k` of [`sweep`] whose 9k×16k frame fits in the scenario's.
fn scales_within(s: &Scenario) -> Vec<usize> {
    [1, 2, 4, 8, 15, 30, 60, 120]
        .into_iter()
        .filter(|&k| 9 * k <= s.rows && 16 * k <= s.cols)
        .collect()
}

/// One row of the frame-size sweep.
#[derive(Debug, Clone)]
pub struct SweepRow {
    /// Frame rows.
    pub rows: usize,
    /// Frame columns.
    pub cols: usize,
    /// Sequential (SAC-Seq, non-generic) per-frame time, µs.
    pub seq_us: f64,
    /// GPU kernel-only per-frame time (non-generic), µs.
    pub gpu_kernels_us: f64,
    /// GPU per-frame time including transfers, µs.
    pub gpu_total_us: f64,
}

impl SweepRow {
    fn record(&self) -> Record {
        record! {
            "rows": self.rows,
            "cols": self.cols,
            "seq_us": self.seq_us,
            "gpu_kernels_us": self.gpu_kernels_us,
            "gpu_total_us": self.gpu_total_us,
        }
    }
}

/// Time one `channels`×(9k)×(16k) frame per scale `k`, sequentially and on
/// the GPU.
///
/// The paper evaluates a single (HD) size; this sweep locates the crossover
/// the launch-overhead story implies — at small frames the 12 kernel launches
/// and PCIe latency dominate and the CPU wins; the GPU overtakes as frames
/// grow.
pub fn sweep(channels: usize, scales: &[usize]) -> Result<Vec<SweepRow>, PipelineError> {
    let mut out = Vec::new();
    for &k in scales {
        let (rows, cols) = (9 * k, 16 * k);
        let s = Scenario::new(&format!("sweep{k}"), channels, rows, cols, 1)?;
        let route = build_sac(&s, Variant::NonGeneric, Part::Full, &Default::default())?;
        let frame = test_frame(&s);

        let mut ops = 0u64;
        route.flat.run(std::slice::from_ref(&frame), &mut ops).map_err(PipelineError::Sac)?;
        let seq_us = ops as f64 * SEQ_CPU_NS_PER_OP / 1e3;

        let mut device = Device::gtx480();
        let plan = lower_plan(&route.cuda, s.channels)?;
        run_plan(plan, &mut device, &[vec![frame]], &ExecOptions::default())
            .map_err(CudaError::from)?;
        let gpu_total_us = device.now_us();
        let gpu_kernels_us = device.profiler.class_total_us(OpClass::Kernel);
        out.push(SweepRow { rows, cols, seq_us, gpu_kernels_us, gpu_total_us });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweeps_up_to_the_scenario_frame() {
        assert_eq!(scales_within(&Scenario::hd1080()), [1, 2, 4, 8, 15, 30, 60, 120]);
        assert_eq!(scales_within(&Scenario::cif()), [1, 2, 4, 8, 15]);
        let rows = sweep(3, &scales_within(&Scenario::tiny())).unwrap();
        let sizes: Vec<_> = rows.iter().map(|r| (r.rows, r.cols)).collect();
        assert_eq!(sizes, [(9, 16), (18, 32)]);
    }
}
