//! Figure 3: the downscaler overview as a Graphviz DOT graph.

use super::Experiment;
use crate::record;
use crate::record::Record;
use downscaler::pipelines::{build_gaspard, PipelineError};
use downscaler::Scenario;

/// The `fig3` command.
pub const EXPERIMENT: Experiment =
    Experiment { name: "fig3", title: "Figure 3: downscaler overview (Graphviz DOT)", run };

fn run(s: &Scenario) -> Result<Record, PipelineError> {
    let route = build_gaspard(s)?;
    let g = gaspard::transform::to_arrayol(&route.scheduled).map_err(PipelineError::Gaspard)?;
    Ok(record! { "dot": arrayol::dot::to_dot(&g, "Downscaler") })
}

#[cfg(test)]
mod tests {
    #[test]
    fn renders_a_digraph() {
        let dot = super::run(&downscaler::Scenario::tiny()).unwrap().render_text();
        assert!(dot.contains("digraph"), "{dot}");
    }
}
