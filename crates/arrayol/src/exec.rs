//! Reference executor for ArrayOL application graphs.
//!
//! The executor materialises every declared array, runs tasks in a
//! dependence-respecting order, and for each task sweeps its repetition space:
//! gather patterns through input tilers → run the body → scatter patterns
//! through output tilers.
//!
//! The sweep is sequential: it is the oracle the generated OpenCL kernels
//! are checked against, not a fast path. ArrayOL repetitions are independent
//! (output tilers are validated to be exact covers), so its result does not
//! depend on the order it visits them in.

use crate::graph::{ApplicationGraph, ArrayId};
use crate::task::{RepetitiveTask, TaskBody};
use crate::validate::ArrayOlError;
use mdarray::{IndexIter, NdArray};
use std::collections::HashMap;

/// Execute `graph` with the given external input arrays.
///
/// Returns every array the graph computed (externally visible outputs can be
/// selected through [`ApplicationGraph::external_outputs`]).
pub fn execute(
    graph: &ApplicationGraph,
    inputs: &HashMap<ArrayId, NdArray<i64>>,
) -> Result<HashMap<ArrayId, NdArray<i64>>, ArrayOlError> {
    let mut store: Vec<Option<NdArray<i64>>> = vec![None; graph.arrays().len()];
    for &id in &graph.external_inputs {
        let decl = graph.array(id)?;
        let arr = inputs.get(&id).ok_or_else(|| ArrayOlError::BadInput {
            array: decl.name.clone(),
            detail: "missing external input".into(),
        })?;
        if arr.shape() != &decl.shape {
            return Err(ArrayOlError::BadInput {
                array: decl.name.clone(),
                detail: format!("shape {} != declared {}", arr.shape(), decl.shape),
            });
        }
        store[id.0] = Some(arr.clone());
    }

    for tid in graph.schedule()? {
        let task = graph.task(tid)?;
        run_task(graph, task, &mut store)?;
    }

    let mut out = HashMap::new();
    for (i, slot) in store.into_iter().enumerate() {
        if let Some(arr) = slot {
            out.insert(ArrayId(i), arr);
        }
    }
    Ok(out)
}

/// Run one repetitive task against the array store.
fn run_task(
    graph: &ApplicationGraph,
    task: &RepetitiveTask,
    store: &mut [Option<NdArray<i64>>],
) -> Result<(), ArrayOlError> {
    // Inputs are borrowed from the store for the sweep; outputs are written
    // back only after it.
    let mut in_arrays = Vec::with_capacity(task.inputs.len());
    for port in &task.inputs {
        let arr = store[port.array.0].as_ref().ok_or_else(|| ArrayOlError::NoProducer {
            array: graph.arrays()[port.array.0].name.clone(),
        })?;
        in_arrays.push(arr);
    }

    // Allocate outputs.
    let mut out_arrays: Vec<NdArray<i64>> = task
        .outputs
        .iter()
        .map(|port| NdArray::filled(graph.arrays()[port.array.0].shape.clone(), 0i64))
        .collect();

    for rep in IndexIter::new(&task.repetition) {
        let mut patterns = Vec::with_capacity(task.inputs.len());
        for (port, arr) in task.inputs.iter().zip(&in_arrays) {
            // Gather a single tile: pattern-shaped array addressed by the tiler.
            let pat = NdArray::from_fn(port.pattern.clone(), |pix| {
                let ix = port.tiler.element_index(arr.shape(), &rep, pix);
                *arr.get_unchecked(&ix)
            });
            patterns.push(pat);
        }
        let results = run_body(task, &patterns)?;
        if results.len() != task.outputs.len() {
            return Err(ArrayOlError::BadTaskOutput {
                task: task.name.clone(),
                detail: format!(
                    "expected {} output patterns, got {}",
                    task.outputs.len(),
                    results.len()
                ),
            });
        }
        for (port, res) in task.outputs.iter().zip(&results) {
            if res.shape() != &port.pattern {
                return Err(ArrayOlError::BadTaskOutput {
                    task: task.name.clone(),
                    detail: format!("pattern shape {} != port {}", res.shape(), port.pattern),
                });
            }
        }
        scatter_patterns(task, &rep, &results, &mut out_arrays);
    }

    for (port, arr) in task.outputs.iter().zip(out_arrays) {
        store[port.array.0] = Some(arr);
    }
    Ok(())
}

/// Scatter one repetition's output patterns through the output tilers.
fn scatter_patterns(
    task: &RepetitiveTask,
    rep: &[usize],
    patterns: &[NdArray<i64>],
    out_arrays: &mut [NdArray<i64>],
) {
    for ((port, pat), out) in task.outputs.iter().zip(patterns).zip(out_arrays) {
        let out_shape = out.shape().clone();
        let mut flat = 0usize;
        IndexIter::for_each_index(&port.pattern, |pix| {
            let ix = port.tiler.element_index(&out_shape, rep, pix);
            out.set_unchecked(&ix, pat.as_slice()[flat]);
            flat += 1;
        });
    }
}

/// Invoke the task body on gathered patterns.
fn run_body(
    task: &RepetitiveTask,
    patterns: &[NdArray<i64>],
) -> Result<Vec<NdArray<i64>>, ArrayOlError> {
    match &task.body {
        TaskBody::Elementary { f, .. } => Ok(f(patterns)),
        TaskBody::Hierarchical(sub) => {
            if sub.external_inputs.len() != patterns.len() {
                return Err(ArrayOlError::BadTaskOutput {
                    task: task.name.clone(),
                    detail: format!(
                        "hierarchical body expects {} inputs, got {}",
                        sub.external_inputs.len(),
                        patterns.len()
                    ),
                });
            }
            let mut inputs = HashMap::new();
            for (&id, pat) in sub.external_inputs.iter().zip(patterns) {
                inputs.insert(id, pat.clone());
            }
            let produced = execute(sub, &inputs)?;
            sub.external_outputs
                .iter()
                .map(|id| {
                    produced.get(id).cloned().ok_or_else(|| ArrayOlError::BadTaskOutput {
                        task: task.name.clone(),
                        detail: "hierarchical body missing external output".into(),
                    })
                })
                .collect()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::ApplicationGraph;
    use crate::linalg::IMat;
    use crate::task::{Port, TaskBody};
    use crate::tiler::Tiler;
    use mdarray::Shape;
    use std::sync::Arc;

    /// 1-D blocked "scale by 2" task: pattern of 4, non-overlapping.
    fn build_scale_graph(n_tiles: usize) -> (ApplicationGraph, ArrayId, ArrayId) {
        let mut g = ApplicationGraph::new();
        let len = n_tiles * 4;
        let a = g.declare_array("in", [len]);
        let b = g.declare_array("out", [len]);
        g.external_inputs.push(a);
        g.external_outputs.push(b);
        let tiler = Tiler::new(vec![0], IMat::from_rows(&[&[1]]), IMat::from_rows(&[&[4]]));
        g.add_task(RepetitiveTask {
            name: "scale".into(),
            repetition: Shape::new(vec![n_tiles]),
            inputs: vec![Port::new("in", a, [4usize], tiler.clone())],
            outputs: vec![Port::new("out", b, [4usize], tiler)],
            body: TaskBody::Elementary {
                kernel_name: "times2".into(),
                f: Arc::new(|ins| vec![ins[0].map(|v| v * 2)]),
            },
        });
        (g, a, b)
    }

    #[test]
    fn sequential_execution_computes_outputs() {
        let (g, a, b) = build_scale_graph(8);
        g.validate().unwrap();
        let input = NdArray::from_fn([32usize], |ix| ix[0] as i64);
        let mut inputs = HashMap::new();
        inputs.insert(a, input.clone());
        let out = execute(&g, &inputs).unwrap();
        let expect = input.map(|v| v * 2);
        assert_eq!(out[&b], expect);
    }

    #[test]
    fn missing_input_is_reported() {
        let (g, _a, _b) = build_scale_graph(2);
        let err = execute(&g, &HashMap::new()).unwrap_err();
        assert!(matches!(err, ArrayOlError::BadInput { .. }));
    }

    #[test]
    fn wrong_shape_input_is_reported() {
        let (g, a, _b) = build_scale_graph(2);
        let mut inputs = HashMap::new();
        inputs.insert(a, NdArray::filled([7usize], 0i64));
        let err = execute(&g, &inputs).unwrap_err();
        assert!(matches!(err, ArrayOlError::BadInput { .. }));
    }

    #[test]
    fn bad_pattern_count_is_reported() {
        let mut g = ApplicationGraph::new();
        let a = g.declare_array("in", [4usize]);
        let b = g.declare_array("out", [4usize]);
        g.external_inputs.push(a);
        let tiler = Tiler::new(vec![0], IMat::from_rows(&[&[1]]), IMat::from_rows(&[&[4]]));
        g.add_task(RepetitiveTask {
            name: "broken".into(),
            repetition: Shape::new(vec![1]),
            inputs: vec![Port::new("in", a, [4usize], tiler.clone())],
            outputs: vec![Port::new("out", b, [4usize], tiler)],
            body: TaskBody::Elementary { kernel_name: "none".into(), f: Arc::new(|_| vec![]) },
        });
        let mut inputs = HashMap::new();
        inputs.insert(a, NdArray::filled([4usize], 1i64));
        let err = execute(&g, &inputs).unwrap_err();
        assert!(matches!(err, ArrayOlError::BadTaskOutput { .. }));
    }

    #[test]
    fn hierarchical_task_executes_subgraph() {
        // Subgraph: pattern [4] -> add 10 -> pattern [4].
        let mut sub = ApplicationGraph::new();
        let sa = sub.declare_array("p_in", [4usize]);
        let sb = sub.declare_array("p_out", [4usize]);
        sub.external_inputs.push(sa);
        sub.external_outputs.push(sb);
        let unit = Tiler::new(vec![0], IMat::from_rows(&[&[1]]), IMat::from_rows(&[&[4]]));
        sub.add_task(RepetitiveTask {
            name: "inner".into(),
            repetition: Shape::new(vec![1]),
            inputs: vec![Port::new("in", sa, [4usize], unit.clone())],
            outputs: vec![Port::new("out", sb, [4usize], unit.clone())],
            body: TaskBody::Elementary {
                kernel_name: "add10".into(),
                f: Arc::new(|ins| vec![ins[0].map(|v| v + 10)]),
            },
        });

        let mut g = ApplicationGraph::new();
        let a = g.declare_array("in", [8usize]);
        let b = g.declare_array("out", [8usize]);
        g.external_inputs.push(a);
        g.external_outputs.push(b);
        let tiler = Tiler::new(vec![0], IMat::from_rows(&[&[1]]), IMat::from_rows(&[&[4]]));
        g.add_task(RepetitiveTask {
            name: "outer".into(),
            repetition: Shape::new(vec![2]),
            inputs: vec![Port::new("in", a, [4usize], tiler.clone())],
            outputs: vec![Port::new("out", b, [4usize], tiler)],
            body: TaskBody::Hierarchical(Box::new(sub)),
        });
        g.validate().unwrap();

        let mut inputs = HashMap::new();
        inputs.insert(a, NdArray::from_fn([8usize], |ix| ix[0] as i64));
        let out = execute(&g, &inputs).unwrap();
        let got = &out[&b];
        assert_eq!(got.as_slice(), &[10, 11, 12, 13, 14, 15, 16, 17]);
    }
}

#[cfg(test)]
mod multi_port_tests {
    use super::*;
    use crate::graph::ApplicationGraph;
    use crate::linalg::IMat;
    use crate::task::{Port, TaskBody};
    use crate::tiler::Tiler;
    use mdarray::Shape;
    use std::collections::HashMap;
    use std::sync::Arc;

    /// A task with two inputs and two outputs per repetition: elementwise
    /// sum and difference of two streams.
    #[test]
    fn multi_input_multi_output_task() {
        let mut g = ApplicationGraph::new();
        let a = g.declare_array("a", [12usize]);
        let b = g.declare_array("b", [12usize]);
        let sum = g.declare_array("sum", [12usize]);
        let diff = g.declare_array("diff", [12usize]);
        g.external_inputs.extend([a, b]);
        g.external_outputs.extend([sum, diff]);
        let t = Tiler::new(vec![0], IMat::from_rows(&[&[1]]), IMat::from_rows(&[&[3]]));
        g.add_task(RepetitiveTask {
            name: "sumdiff".into(),
            repetition: Shape::new(vec![4]),
            inputs: vec![
                Port::new("a", a, [3usize], t.clone()),
                Port::new("b", b, [3usize], t.clone()),
            ],
            outputs: vec![
                Port::new("sum", sum, [3usize], t.clone()),
                Port::new("diff", diff, [3usize], t),
            ],
            body: TaskBody::Elementary {
                kernel_name: "sumdiff".into(),
                f: Arc::new(|ins| {
                    let s = ins[0].zip_with(&ins[1], |x, y| x + y).unwrap();
                    let d = ins[0].zip_with(&ins[1], |x, y| x - y).unwrap();
                    vec![s, d]
                }),
            },
        });
        g.validate().unwrap();

        let av = NdArray::from_fn([12usize], |ix| ix[0] as i64 * 2);
        let bv = NdArray::from_fn([12usize], |ix| ix[0] as i64);
        let mut inputs = HashMap::new();
        inputs.insert(a, av.clone());
        inputs.insert(b, bv.clone());
        let out = execute(&g, &inputs).unwrap();
        let esum = av.zip_with(&bv, |x, y| x + y).unwrap();
        let ediff = av.zip_with(&bv, |x, y| x - y).unwrap();
        assert_eq!(out[&sum], esum);
        assert_eq!(out[&diff], ediff);
    }

    /// Diamond dependence: one producer feeding two consumers that merge.
    #[test]
    fn diamond_graph_schedules_and_executes() {
        let mut g = ApplicationGraph::new();
        let src = g.declare_array("src", [8usize]);
        let left = g.declare_array("left", [8usize]);
        let right = g.declare_array("right", [8usize]);
        let merged = g.declare_array("merged", [8usize]);
        g.external_inputs.push(src);
        g.external_outputs.push(merged);
        let unit = Tiler::new(vec![0], IMat::from_rows(&[&[1]]), IMat::from_rows(&[&[1]]));
        let unary = |name: &str, i, o, f: fn(i64) -> i64| RepetitiveTask {
            name: name.into(),
            repetition: Shape::new(vec![8]),
            inputs: vec![Port::new("in", i, Shape::new(vec![1]), unit.clone())],
            outputs: vec![Port::new("out", o, Shape::new(vec![1]), unit.clone())],
            body: TaskBody::Elementary {
                kernel_name: name.into(),
                f: Arc::new(move |ins| vec![ins[0].map(|&v| f(v))]),
            },
        };
        g.add_task(unary("double", src, left, |v| v * 2));
        g.add_task(unary("square", src, right, |v| v * v));
        g.add_task(RepetitiveTask {
            name: "merge".into(),
            repetition: Shape::new(vec![8]),
            inputs: vec![
                Port::new("l", left, Shape::new(vec![1]), unit.clone()),
                Port::new("r", right, Shape::new(vec![1]), unit.clone()),
            ],
            outputs: vec![Port::new("out", merged, Shape::new(vec![1]), unit.clone())],
            body: TaskBody::Elementary {
                kernel_name: "merge".into(),
                f: Arc::new(|ins| vec![ins[0].zip_with(&ins[1], |x, y| x + y).unwrap()]),
            },
        });
        g.validate().unwrap();

        let input = NdArray::from_fn([8usize], |ix| ix[0] as i64);
        let mut inputs = HashMap::new();
        inputs.insert(src, input.clone());
        let out = execute(&g, &inputs).unwrap();
        let expect = input.map(|&v| v * 2 + v * v);
        assert_eq!(out[&merged], expect);
    }
}
