//! Table I: the GASPARD2 implementation's profile over the full run.

use super::{Experiment, FRAME_SEED};
use crate::record;
use crate::record::Record;
use downscaler::frames::FrameGenerator;
use downscaler::pipelines::{build_gaspard, PipelineError};
use downscaler::Scenario;
use simgpu::device::Device;
use simgpu::profiler::{Group, OpClass, TableRow};

/// The `table1` command.
pub const EXPERIMENT: Experiment = Experiment {
    name: "table1",
    title: "Table I: kernel execution and data transfer times (GASPARD2)",
    run: |s| Ok(table1(s)?.record()),
};

/// A profile table in the paper's Table I/II layout.
#[derive(Debug, Clone)]
pub struct ProfileTable {
    /// Rows in paper order.
    pub rows: Vec<TableRow>,
    /// Total simulated seconds.
    pub total_s: f64,
}

impl ProfileTable {
    /// Profile `device`'s one-frame run, scaled to the scenario's frames.
    pub(crate) fn of_frame(s: &Scenario, device: &mut Device) -> ProfileTable {
        device.profiler.scale(s.frames as u64);
        let groups = [
            Group::kernels("H. Filter", "hf_"),
            Group::kernels("V. Filter", "vf_"),
            Group::class("memcpyHtoDasync", OpClass::H2D),
            Group::class("memcpyDtoHasync", OpClass::D2H),
        ];
        ProfileTable {
            rows: device.profiler.rows(&groups),
            total_s: device.profiler.total_us() / 1e6,
        }
    }

    /// The table as a record.
    pub(crate) fn record(&self) -> Record {
        let rows: Record = self
            .rows
            .iter()
            .map(|r| {
                record! {
                    "operation": &r.label,
                    "calls": r.calls,
                    "gpu_time_us": r.time_us,
                    "gpu_time_pct": r.percent,
                }
            })
            .collect();
        record! { "rows": rows, "total_s": self.total_s }
    }
}

/// Table I: the GASPARD2 implementation's profile over the full run.
pub fn table1(s: &Scenario) -> Result<ProfileTable, PipelineError> {
    let route = build_gaspard(s)?;
    let mut device = super::gtx480();
    let channels = FrameGenerator::new(s.channels, s.rows, s.cols, FRAME_SEED).frame_channels(0);
    let plan = gaspard::lower_plan(&route.opencl);
    simgpu::run_plan(plan, &mut device, &[channels], &simgpu::ExecOptions::default())
        .map_err(gaspard::GaspardError::from)?;
    Ok(ProfileTable::of_frame(s, &mut device))
}

#[cfg(test)]
mod tests {
    #[test]
    fn has_the_paper_structure() {
        let s = downscaler::Scenario::tiny();
        let t = super::table1(&s).unwrap();
        assert_eq!(t.rows.len(), 4);
        assert!(t.rows[0].label.contains("H. Filter (3 kernels)"), "{:?}", t.rows);
        assert!(t.rows[1].label.contains("V. Filter (3 kernels)"), "{:?}", t.rows);
        // One kernel-group call per frame, one transfer per channel per frame.
        assert_eq!(t.rows[0].calls, s.frames as u64);
        assert_eq!(t.rows[2].calls, (s.frames * s.channels) as u64);
    }
}
