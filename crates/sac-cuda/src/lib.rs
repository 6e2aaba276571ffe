#![warn(missing_docs)]

//! # sac-cuda — the SaC → CUDA backend
//!
//! Implements the transformation described in §VII of the paper ("Compiling
//! SAC to CUDA") against the flat WIR produced by `sac-lang`'s optimiser:
//!
//! 1. **Identifying CUDA-WITH-loops** — structural in the flat WIR: every
//!    `With` step is an outermost, data-parallel loop and becomes kernels;
//!    every `Host` step (anything that failed to lower) stays on the CPU.
//!    Function invocations have been eliminated by inlining, so the paper's
//!    "outermost WITH-loops containing no function invocations" criterion is
//!    met by construction.
//! 2. **Inserting data transfers** ([`exec`]) — `host2device` for external
//!    inputs and for arrays a GPU step needs after a host step;
//!    `device2host` for results and for arrays a host step consumes. The
//!    generic output tiler's host fallback therefore forces the mid-pipeline
//!    device-to-host copy the paper blames for the generic variant's 3–4.5×
//!    slowdown.
//! 3. **Creating kernels** ([`codegen`]) — *one kernel per generator*, with
//!    the launch configuration derived from the generator bounds. This is
//!    the design decision that gives the SaC route its 5 (horizontal) and 7
//!    (vertical) kernels versus GASPARD2's 3 + 3.
//!
//! The emitted artefact is executable kernel IR for the [`simgpu`] simulator
//! plus human-readable CUDA C ([`CudaProgram::emit_cuda_source`]).

pub mod access;
pub mod codegen;
pub mod emit;
pub mod exec;

pub use codegen::{compile_flat_program, CompiledKernel, CudaProgram};
pub use exec::lower_plan;

/// Errors from the CUDA backend.
#[derive(Debug, Clone, PartialEq)]
#[allow(missing_docs)] // variant payload fields are self-describing
pub enum CudaError {
    /// The flat program references an array with an empty shape product.
    EmptyArray { name: String },
    /// Host-step interpretation failure.
    Host(String),
    /// Plan rewriting or batch execution failed in the shared scheduler.
    Schedule(simgpu::ScheduleError),
}

impl std::fmt::Display for CudaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CudaError::EmptyArray { name } => write!(f, "array '{name}' has no elements"),
            CudaError::Host(m) => write!(f, "host step: {m}"),
            CudaError::Schedule(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for CudaError {}

impl From<simgpu::ScheduleError> for CudaError {
    fn from(e: simgpu::ScheduleError) -> Self {
        CudaError::Schedule(e)
    }
}
