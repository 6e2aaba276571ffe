//! The experiment registry: one file per `reproduce` command.
//!
//! Each file holds its typed result struct, the function that runs it, the
//! conversion of that result to a [`Record`] and its unit tests, and exports
//! one `EXPERIMENT` entry. Adding an experiment is one new file plus one
//! line in [`REGISTRY`].

use crate::record;
use crate::record::Record;
use downscaler::frames::FrameGenerator;
use downscaler::pipelines::PipelineError;
use downscaler::Scenario;
use mdarray::NdArray;

pub mod ablations;
pub mod cuda_src;
pub mod fig11;
pub mod fig12;
pub mod fig3;
pub mod fig8;
pub mod fig9;
pub mod fusion;
pub mod fusion_parity;
pub mod memory;
pub mod planopt;
pub mod scenarios;
pub mod serve;
pub mod streams;
pub mod summary;
pub mod sweep;
pub mod table1;
pub mod table2;
pub mod tune;

/// One `reproduce` command.
#[derive(Debug)]
pub struct Experiment {
    /// The command name, e.g. `fusion-parity`.
    pub name: &'static str,
    /// One-line description, printed above the record's text.
    pub title: &'static str,
    /// Run the experiment on a scenario and report its fields.
    pub run: fn(&Scenario) -> Result<Record, PipelineError>,
}

/// Every `reproduce` command, in the order `reproduce all` runs them.
pub const REGISTRY: &[Experiment] = &[
    fig3::EXPERIMENT,
    fig8::EXPERIMENT,
    fig11::EXPERIMENT,
    cuda_src::EXPERIMENT,
    fig9::EXPERIMENT,
    table1::EXPERIMENT,
    table2::EXPERIMENT,
    fig12::EXPERIMENT,
    summary::EXPERIMENT,
    ablations::EXPERIMENT,
    streams::EXPERIMENT,
    memory::EXPERIMENT,
    fusion::EXPERIMENT,
    fusion_parity::EXPERIMENT,
    planopt::EXPERIMENT,
    serve::EXPERIMENT,
    scenarios::EXPERIMENT,
    tune::EXPERIMENT,
    sweep::EXPERIMENT,
];

/// The registry entry named `name`.
pub fn find(name: &str) -> Option<&'static Experiment> {
    REGISTRY.iter().find(|e| e.name == name)
}

impl Experiment {
    /// The record `--json` writes and the goldens hold: the experiment name
    /// and scenario, then the fields `run` reported.
    pub fn full_record(&self, s: &Scenario, fields: Record) -> Record {
        let Record::Obj(fields) = fields else {
            unreachable!("every experiment reports an object built with `record!`")
        };
        let mut out = vec![
            ("experiment".to_string(), Record::from(self.name)),
            (
                "scenario".to_string(),
                record! {
                    "name": &s.name,
                    "channels": s.channels,
                    "rows": s.rows,
                    "cols": s.cols,
                    "frames": s.frames,
                },
            ),
        ];
        out.extend(fields);
        Record::Obj(out)
    }
}

/// Seed of the synthetic frames every downscaler experiment runs on.
pub(crate) const FRAME_SEED: u64 = 0xD05C;

/// Frame 0 of the scenario as one rank-3 array.
pub(crate) fn test_frame(s: &Scenario) -> NdArray<i64> {
    FrameGenerator::new(s.channels, s.rows, s.cols, FRAME_SEED).frame_rank3(0)
}

/// Report an error from a layer without its own [`PipelineError`] variant.
pub(crate) fn config_err(e: impl std::fmt::Display) -> PipelineError {
    PipelineError::Config(e.to_string())
}
