//! Table II: the non-generic SaC implementation's profile over the full run.

use super::table1::ProfileTable;
use super::{test_frame, Experiment};
use downscaler::pipelines::{build_sac, PipelineError};
use downscaler::sac_src::{Part, Variant};
use downscaler::Scenario;
use sac_cuda::{lower_plan, CudaError};
use simgpu::device::Device;
use simgpu::{run_plan, ExecOptions};

/// The `table2` command.
pub const EXPERIMENT: Experiment = Experiment {
    name: "table2",
    title: "Table II: kernel execution and data transfer times (SAC)",
    run: |s| Ok(table2(s)?.record()),
};

/// Table II: the non-generic SaC implementation's profile over the full run.
pub fn table2(s: &Scenario) -> Result<ProfileTable, PipelineError> {
    let route = build_sac(s, Variant::NonGeneric, Part::Full, &Default::default())?;
    let mut device = Device::gtx480();
    let plan = lower_plan(&route.cuda, s.channels)?;
    run_plan(plan, &mut device, &[vec![test_frame(s)]], &ExecOptions::default())
        .map_err(CudaError::from)?;
    Ok(ProfileTable::of_frame(s, &mut device))
}

#[cfg(test)]
mod tests {
    #[test]
    fn has_the_paper_structure() {
        let s = downscaler::Scenario::tiny();
        let t = super::table2(&s).unwrap();
        assert!(t.rows[0].label.contains("H. Filter (5 kernels)"), "{:?}", t.rows);
        assert!(t.rows[1].label.contains("V. Filter (7 kernels)"), "{:?}", t.rows);
        assert_eq!(t.rows[0].calls, s.frames as u64);
        assert_eq!(t.rows[2].calls, (s.frames * s.channels) as u64);
    }
}
