#![warn(missing_docs)]

//! # gaspard — a GASPARD2-style model-driven engineering chain
//!
//! The paper's second route: an image-processing application is *modelled*
//! (in the real project: UML + the MARTE profile in Papyrus) as a component
//! graph whose connectors carry ArrayOL **tilers**; a chain of
//! model-to-model transformations then drives template-based model-to-text
//! generation of OpenCL code. "The front-end will capture and retain the
//! abstractions, while the code-generation phase will help partly addressing
//! the performance issues" — notably, the chain performs *no* optimising
//! transformations (no fusion, no folding): each elementary task becomes
//! exactly one OpenCL kernel. Kernel fusion is available *after* lowering,
//! through `simgpu::planopt`'s tiler-composition pass (Feautrier-style),
//! which merges producer→consumer launch pairs plan-level; the default
//! chain stays faithful.
//!
//! Crate layout, mirroring the tooling it reproduces:
//!
//! * [`model`] — the model elements: components with ports and
//!   `HwResource`/`SwResource` stereotypes, and repetitive components whose
//!   connectors carry [`arrayol::Tiler`]s (MARTE's Repetitive Structure
//!   Modelling package) around an elementary [`arrayol::ElementaryOp`] "IP",
//! * [`marte`] — stereotype validation: tiler/shape consistency checks,
//! * [`transform`] — the transformation chain: *deploy* (allocate components
//!   onto hardware resources) → *schedule* (flatten the hierarchy into an
//!   ordered kernel list) → optional projection onto an
//!   [`arrayol::ApplicationGraph`] for reference execution,
//! * [`codegen`] — model-to-text: one OpenCL kernel per elementary task
//!   (the paper's Figure 11 artefact), plus the host-side plan,
//! * [`exec`] — lowering of the generated program to a [`simgpu`] launch plan,
//! * [`openmp`] — the OpenMP C source of the same scheduled model, emitted
//!   for inspection and never executed.

pub mod codegen;
pub mod emit;
pub mod exec;
pub mod fixtures;
pub mod marte;
pub mod model;
pub mod openmp;
pub mod transform;

pub use codegen::{generate_opencl, OpenClProgram};
pub use exec::{lower_plan, lower_plan_with, Placement};
pub use model::{
    Allocation, Component, ComponentKind, Connection, HwKind, Model, PartRef, Platform, Port,
    PortDir, Stereotype,
};
pub use transform::{deploy, schedule, to_arrayol, DeployedModel, ScheduledKernel, ScheduledModel};

/// Errors from the MDE chain.
#[derive(Debug, Clone, PartialEq)]
#[allow(missing_docs)] // variant payload fields are self-describing
pub enum GaspardError {
    /// A model element referenced something that does not exist.
    UnknownElement { what: &'static str, name: String },
    /// A stereotype/shape/tiler inconsistency.
    Invalid { element: String, msg: String },
    /// A component was not allocated onto any hardware resource.
    Unallocated { component: String },
    /// The scheduler found a cycle.
    Cyclic { involving: String },
    /// Plan rewriting or batch execution failed in the shared scheduler.
    Schedule(simgpu::ScheduleError),
}

impl std::fmt::Display for GaspardError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GaspardError::UnknownElement { what, name } => write!(f, "unknown {what} '{name}'"),
            GaspardError::Invalid { element, msg } => write!(f, "invalid '{element}': {msg}"),
            GaspardError::Unallocated { component } => {
                write!(f, "component '{component}' not allocated to a resource")
            }
            GaspardError::Cyclic { involving } => write!(f, "cyclic model at '{involving}'"),
            GaspardError::Schedule(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for GaspardError {}

impl From<simgpu::ScheduleError> for GaspardError {
    fn from(e: simgpu::ScheduleError) -> Self {
        GaspardError::Schedule(e)
    }
}
