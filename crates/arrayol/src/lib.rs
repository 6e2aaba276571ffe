#![warn(missing_docs)]

//! # arrayol — the ArrayOL specification language
//!
//! ArrayOL (Array Oriented Language) is a specification formalism for
//! multidimensional signal processing, organised around the *GILR* principle:
//! **G**lobally **I**rregular (a graph of tasks exchanging multidimensional
//! arrays), **L**ocally **R**egular (each task repeats an elementary function
//! over a *repetition space*, consuming and producing sub-arrays called
//! *patterns* addressed through *tilers*).
//!
//! This crate implements the language as an executable Rust model:
//!
//! * [`linalg`] — small integer vectors/matrices used by tiler algebra,
//! * [`tiler`] — the tiler (`origin`, `fitting`, `paving`) and its gather /
//!   scatter semantics, `e_i = o + F·i mod s_array`, `ref_r = o + P·r mod s_array`,
//! * [`compose`] — tiler composition: fusing producer→consumer task pairs
//!   into one task that never materialises the intermediate array,
//! * [`access`] — plan-level tiled-access descriptions (tilers and
//!   elementary ops) that route frontends attach to kernel launches so the
//!   composition algebra can fuse them after lowering,
//! * [`task`] — elementary, repetitive and hierarchical tasks with tiled ports,
//! * [`graph`] — application graphs, single-assignment validation and
//!   dependence-respecting schedules,
//! * [`exec`] — a sequential reference executor,
//! * [`validate`] — static well-formedness checks (shape compatibility,
//!   exact-cover for output tilers, single assignment).
//!
//! ## Determinism
//!
//! ArrayOL is a single-assignment, first-order functional formalism: only true
//! data dependences are expressed, so any schedule respecting them produces the
//! same arrays. [`graph::ApplicationGraph::validate`] statically enforces the
//! single assignment property that makes repetitions independent, so the
//! executor's sequential sweep and a generated parallel kernel agree.

pub mod access;
pub mod compose;
pub mod dot;
pub mod exec;
pub mod graph;
pub mod linalg;
pub mod task;
pub mod tiler;
pub mod validate;

pub use access::{compose_access, ElementaryOp, TiledAccess, WindowSpec};
pub use compose::{compose, ComposeError, FusedTiling, StagePorts};
pub use graph::{ApplicationGraph, ArrayDecl, ArrayId, TaskId};
pub use linalg::{IMat, IVec};
pub use task::{ElementaryFn, Port, RepetitiveTask, Task, TaskBody};
pub use tiler::Tiler;
pub use validate::ArrayOlError;
