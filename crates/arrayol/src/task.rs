//! Tasks: the "locally regular" half of GILR.
//!
//! A *repetitive task* applies a body once per point of its *repetition space*.
//! Each application consumes one pattern per input port (gathered through that
//! port's tiler) and produces one pattern per output port (scattered through
//! that port's tiler). Bodies are either *elementary* (an opaque function on
//! patterns — in GASPARD2 terms, a task "linked to an IP") or *hierarchical*
//! (a nested [`ApplicationGraph`](crate::graph::ApplicationGraph) refined at a
//! finer granularity).

use crate::graph::{ApplicationGraph, ArrayId};
use crate::tiler::Tiler;
use mdarray::{NdArray, Shape};
use std::sync::Arc;

/// An elementary task body: patterns in, patterns out.
///
/// The function must be pure — ArrayOL semantics allow the executor to invoke
/// it for repetition points in any order.
pub type ElementaryFn = Arc<dyn Fn(&[NdArray<i64>]) -> Vec<NdArray<i64>>>;

/// A tiled port: which array it touches, the pattern shape exchanged per
/// repetition, and the tiler that addresses the patterns.
#[derive(Clone)]
pub struct Port {
    /// Human-readable port name (used in diagnostics and generated code).
    pub name: String,
    /// The array this port reads from / writes to.
    pub array: ArrayId,
    /// Shape of the pattern exchanged on each repetition.
    pub pattern: Shape,
    /// The tiler binding repetition indices to array elements.
    pub tiler: Tiler,
}

impl Port {
    /// Convenience constructor.
    pub fn new(
        name: impl Into<String>,
        array: ArrayId,
        pattern: impl Into<Shape>,
        tiler: Tiler,
    ) -> Self {
        Port { name: name.into(), array, pattern: pattern.into(), tiler }
    }
}

/// The body executed at each repetition point.
#[derive(Clone)]
pub enum TaskBody {
    /// An opaque elementary function (GASPARD2: a task linked to an IP).
    Elementary {
        /// Name recorded for generated-code labels and profiling.
        kernel_name: String,
        /// The pattern-level function.
        f: ElementaryFn,
    },
    /// A nested application graph; its `external_inputs`/`external_outputs`
    /// correspond positionally to this task's input/output ports, and each
    /// repetition executes the subgraph on the gathered patterns.
    Hierarchical(Box<ApplicationGraph>),
}

impl std::fmt::Debug for TaskBody {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TaskBody::Elementary { kernel_name, .. } => {
                write!(f, "Elementary({kernel_name})")
            }
            TaskBody::Hierarchical(g) => write!(f, "Hierarchical({} tasks)", g.task_count()),
        }
    }
}

/// A repetitive task instance in the application graph.
#[derive(Clone, Debug)]
pub struct RepetitiveTask {
    /// Instance name, e.g. `hf: HorizontalFilter`.
    pub name: String,
    /// The repetition space: the body runs once per index in this shape.
    pub repetition: Shape,
    /// Input ports (patterns gathered before each body invocation).
    pub inputs: Vec<Port>,
    /// Output ports (patterns scattered after each body invocation).
    pub outputs: Vec<Port>,
    /// What runs at each repetition point.
    pub body: TaskBody,
}

impl std::fmt::Debug for Port {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Port({} -> array#{}, pattern {})", self.name, self.array.0, self.pattern)
    }
}

/// Alias used by the public API: tasks are repetitive tasks.
pub type Task = RepetitiveTask;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linalg::IMat;

    #[test]
    fn task_body_debug_labels() {
        let body =
            TaskBody::Elementary { kernel_name: "interp6".into(), f: Arc::new(|ins| ins.to_vec()) };
        assert_eq!(format!("{body:?}"), "Elementary(interp6)");
    }

    #[test]
    fn port_construction() {
        let t = Tiler::new(vec![0, 0], IMat::from_rows(&[&[0], &[1]]), IMat::identity(2));
        let p = Port::new("in", ArrayId(3), [11usize], t);
        assert_eq!(p.array, ArrayId(3));
        assert_eq!(p.pattern.dims(), &[11]);
        assert!(format!("{p:?}").contains("array#3"));
    }
}
