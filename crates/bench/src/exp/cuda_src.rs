//! The generated CUDA source of the folded SaC program (companion artefact).

use super::Experiment;
use crate::record;
use crate::record::Record;
use downscaler::pipelines::{build_sac, PipelineError};
use downscaler::sac_src::{Part, Variant};
use downscaler::Scenario;

/// The `cuda-src` command.
pub const EXPERIMENT: Experiment =
    Experiment { name: "cuda-src", title: "Generated CUDA source (SaC route)", run };

fn run(s: &Scenario) -> Result<Record, PipelineError> {
    let route = build_sac(s, Variant::NonGeneric, Part::Full, &Default::default())?;
    Ok(record! { "cuda": route.cuda.emit_cuda_source() })
}

#[cfg(test)]
mod tests {
    #[test]
    fn emits_cuda_kernels() {
        let text = super::run(&downscaler::Scenario::tiny()).unwrap().render_text();
        assert!(text.contains("__global__"), "{text}");
    }
}
