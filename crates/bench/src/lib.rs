#![warn(missing_docs)]

//! # bench — regenerating the paper's evaluation
//!
//! Every table and figure of §VIII, and every extension ablation, is one
//! [`exp::Experiment`] in [`exp::REGISTRY`]: a file under `src/exp/` whose
//! run function reports a [`record::Record`]. The `reproduce` binary loops
//! over the registry and derives the text, the `--json` file and the exit
//! status from that one record; `cargo bench` adds wall-clock Criterion
//! measurements of the underlying machinery.
//!
//! Timing methodology: kernels execute functionally on the simulator and the
//! reported "GPU time" is simulated time from [`simgpu::Calibration`]
//! (constants derived from the paper's own measurements — see
//! `crates/simgpu/src/cost.rs`). Per-frame cost is content-independent under
//! that model, so experiments simulate one frame and scale to the scenario's
//! frame count exactly.

pub mod arrivals;
pub mod calibration;
pub mod exp;
pub mod record;

pub use exp::ablations::totals_with_calibration;
pub use exp::fig9::{figure9, Fig9Row};
pub use exp::table1::{table1, ProfileTable};
pub use exp::table2::table2;
pub use exp::tune;
