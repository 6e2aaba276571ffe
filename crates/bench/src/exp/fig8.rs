//! Figure 8: the folded horizontal filter, rendered as SaC text.

use super::Experiment;
use crate::record;
use crate::record::Record;
use downscaler::pipelines::{build_sac, PipelineError};
use downscaler::sac_src::{Part, Variant};
use downscaler::Scenario;

/// The `fig8` command.
pub const EXPERIMENT: Experiment =
    Experiment { name: "fig8", title: "Figure 8: the folded WITH-loop", run };

fn run(s: &Scenario) -> Result<Record, PipelineError> {
    let route = build_sac(s, Variant::NonGeneric, Part::Horizontal, &Default::default())?;
    Ok(record! {
        "generators": route.report.generators_after_split,
        "paper_generators": 5usize,
        "sac": route.flat.to_string(),
    })
}

#[cfg(test)]
mod tests {
    #[test]
    fn folds_to_one_genarray() {
        let text = super::run(&downscaler::Scenario::tiny()).unwrap().render_text();
        assert!(text.contains("genarray"), "{text}");
    }
}
