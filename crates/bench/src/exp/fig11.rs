//! Figure 11: a generated GASPARD2 OpenCL tiler kernel.

use super::Experiment;
use crate::record;
use crate::record::Record;
use downscaler::pipelines::{build_gaspard, PipelineError};
use downscaler::Scenario;

/// The `fig11` command.
pub const EXPERIMENT: Experiment =
    Experiment { name: "fig11", title: "Figure 11: generated OpenCL tiler kernel", run };

fn run(s: &Scenario) -> Result<Record, PipelineError> {
    let route = build_gaspard(s)?;
    let bhf = route
        .opencl
        .kernels
        .iter()
        .find(|k| k.kernel.name.contains("bhf"))
        .unwrap_or(&route.opencl.kernels[0]);
    Ok(record! { "kernel": &bhf.kernel.name, "opencl": bhf.kernel.emit_source() })
}

#[cfg(test)]
mod tests {
    #[test]
    fn emits_an_opencl_kernel() {
        let text = super::run(&downscaler::Scenario::tiny()).unwrap().render_text();
        assert!(text.contains("__kernel"), "{text}");
    }
}
