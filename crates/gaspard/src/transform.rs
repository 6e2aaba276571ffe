//! The model transformation chain.
//!
//! GASPARD2 compiles by *transforming models*: each phase adds information
//! (deployment, scheduling, memory) until the model is close enough to code
//! for template-based text generation. We reproduce the chain's two
//! load-bearing phases plus a projection used for verification:
//!
//! 1. [`deploy`] — weave the application, platform and allocation models:
//!    every leaf task must be allocated onto a `HwResource`,
//! 2. [`schedule`] — flatten the hierarchical composite structure into an
//!    ordered list of repetitive kernel instances (dataflow topological
//!    order) plus environment I/O bindings,
//! 3. [`to_arrayol`] — project the scheduled model onto an executable
//!    [`arrayol::ApplicationGraph`]; this is the *semantic reference* the
//!    generated OpenCL is tested against.

use crate::marte;
use crate::model::*;
use crate::GaspardError;
use arrayol::{ElementaryOp, Tiler};
use mdarray::Shape;
use std::collections::HashMap;
use std::sync::Arc;

/// The deployed model: application + platform + allocation, validated.
#[derive(Debug, Clone)]
pub struct DeployedModel {
    /// The application model.
    pub model: Model,
    /// The platform model.
    pub platform: Platform,
    /// The allocation (component → resource).
    pub allocation: Allocation,
}

/// Phase 1: validate and weave the three models.
pub fn deploy(
    model: Model,
    platform: Platform,
    allocation: Allocation,
) -> Result<DeployedModel, GaspardError> {
    marte::validate(&model)?;
    for c in &model.components {
        let needs_allocation = matches!(
            c.kind,
            ComponentKind::Repetitive { .. }
                | ComponentKind::FrameSource
                | ComponentKind::FrameSink
        );
        if needs_allocation {
            let res = allocation
                .resource_of(&c.name)
                .ok_or_else(|| GaspardError::Unallocated { component: c.name.clone() })?;
            if platform.kind_of(res).is_none() {
                return Err(GaspardError::UnknownElement { what: "resource", name: res.into() });
            }
            // I/O IPs must sit on the CPU (they talk to OpenCV in the paper).
            if matches!(c.kind, ComponentKind::FrameSource | ComponentKind::FrameSink)
                && platform.kind_of(res) != Some(HwKind::Cpu)
            {
                return Err(GaspardError::Invalid {
                    element: c.name.clone(),
                    msg: "frame I/O must be allocated to the CPU".into(),
                });
            }
        }
    }
    Ok(DeployedModel { model, platform, allocation })
}

/// A scheduled repetitive kernel instance (one per elementary task instance;
/// this becomes exactly one OpenCL kernel).
#[derive(Debug, Clone)]
pub struct ScheduledKernel {
    /// Flattened instance name, e.g. `hf_bhf`.
    pub name: String,
    /// Repetition space.
    pub repetition: Vec<usize>,
    /// Input array id.
    pub input: usize,
    /// Input pattern shape.
    pub in_pattern: Vec<usize>,
    /// Input tiler.
    pub in_tiler: Tiler,
    /// Output array id.
    pub output: usize,
    /// Output pattern shape.
    pub out_pattern: Vec<usize>,
    /// Output tiler.
    pub out_tiler: Tiler,
    /// The elementary computation.
    pub op: ElementaryOp,
}

/// An array in the scheduled model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScheduledArray {
    /// Diagnostic name.
    pub name: String,
    /// Shape.
    pub shape: Vec<usize>,
}

/// Phase 2 result: flat kernels + I/O arrays in dependence order.
#[derive(Debug, Clone)]
pub struct ScheduledModel {
    /// Arrays (ids index into this).
    pub arrays: Vec<ScheduledArray>,
    /// Kernels in execution order.
    pub kernels: Vec<ScheduledKernel>,
    /// Arrays fed by frame sources (program inputs), in model order.
    pub inputs: Vec<usize>,
    /// Arrays consumed by frame sinks (program outputs), in model order.
    pub outputs: Vec<usize>,
}

/// Phase 2: flatten the hierarchy into scheduled kernels.
pub fn schedule(deployed: &DeployedModel) -> Result<ScheduledModel, GaspardError> {
    let model = &deployed.model;
    let root = model.component(&model.root).expect("validated");
    let mut sm = ScheduledModel {
        arrays: Vec::new(),
        kernels: Vec::new(),
        inputs: Vec::new(),
        outputs: Vec::new(),
    };
    // (instance path, port name) -> array id
    let mut bound: HashMap<(String, String), usize> = HashMap::new();
    elaborate(model, root, "", &mut sm, &mut bound)?;
    Ok(sm)
}

/// Recursively elaborate a composite; `path` is the flattened instance prefix.
fn elaborate(
    model: &Model,
    comp: &Component,
    path: &str,
    sm: &mut ScheduledModel,
    bound: &mut HashMap<(String, String), usize>,
) -> Result<(), GaspardError> {
    let ComponentKind::Composite { parts, connections } = &comp.kind else {
        return Err(GaspardError::Invalid {
            element: comp.name.clone(),
            msg: "elaborate expects a composite".into(),
        });
    };
    let join = |path: &str, inst: &str| {
        if path.is_empty() {
            inst.to_string()
        } else {
            format!("{path}_{inst}")
        }
    };

    // Worklist: schedule parts whose inputs are all bound.
    let mut pending: Vec<&(String, String)> = parts.iter().collect();
    let mut progress = true;
    let mut nested_err: Option<GaspardError> = None;
    while progress && !pending.is_empty() {
        progress = false;
        pending.retain(|(inst, comp_name)| {
            if nested_err.is_some() {
                return true;
            }
            let part = model.component(comp_name).expect("validated");
            let ipath = join(path, inst);

            // Resolve this part's input ports through the connections.
            let mut in_arrays: Vec<Option<usize>> = Vec::new();
            for port in part.inputs() {
                let src = connections.iter().find(|c| {
                    c.to == PartRef::Part { part: inst.clone(), port: port.name.clone() }
                });
                let id = src.and_then(|c| match &c.from {
                    PartRef::External { port } => bound.get(&(path.to_string(), port.clone())),
                    PartRef::Part { part, port } => bound.get(&(join(path, part), port.clone())),
                });
                in_arrays.push(id.copied());
            }
            // Frame sources have no inputs; others need everything bound.
            if in_arrays.iter().any(|a| a.is_none()) {
                return true; // keep pending
            }
            let in_arrays: Vec<usize> = in_arrays.into_iter().flatten().collect();

            // Schedule the part.
            match &part.kind {
                ComponentKind::FrameSource => {
                    for port in part.outputs() {
                        let id = sm.arrays.len();
                        sm.arrays.push(ScheduledArray {
                            name: format!("{ipath}_{}", port.name),
                            shape: port.shape.clone(),
                        });
                        sm.inputs.push(id);
                        bound.insert((ipath.clone(), port.name.clone()), id);
                    }
                }
                ComponentKind::FrameSink => {
                    for (port, id) in part.inputs().zip(&in_arrays) {
                        let _ = port;
                        sm.outputs.push(*id);
                    }
                }
                ComponentKind::Repetitive { repetition, inner, input_tilers, output_tilers } => {
                    let inner_c = model.component(inner).expect("validated");
                    let ComponentKind::Elementary { op } = &inner_c.kind else {
                        unreachable!("validated")
                    };
                    // Single input / single output repetitive tasks.
                    let out_port = part.outputs().next().expect("validated");
                    let out_id = sm.arrays.len();
                    sm.arrays.push(ScheduledArray {
                        name: format!("{ipath}_{}", out_port.name),
                        shape: out_port.shape.clone(),
                    });
                    bound.insert((ipath.clone(), out_port.name.clone()), out_id);
                    sm.kernels.push(ScheduledKernel {
                        name: ipath.clone(),
                        repetition: repetition.clone(),
                        input: in_arrays[0],
                        in_pattern: input_tilers[0].0.clone(),
                        in_tiler: input_tilers[0].1.clone(),
                        output: out_id,
                        out_pattern: output_tilers[0].0.clone(),
                        out_tiler: output_tilers[0].1.clone(),
                        op: op.clone(),
                    });
                }
                ComponentKind::Composite { .. } => {
                    // Bind the sub-composite's external In ports, recurse,
                    // then pull its external Out bindings up.
                    for (port, id) in part.inputs().zip(&in_arrays) {
                        bound.insert((ipath.clone(), port.name.clone()), *id);
                    }
                    // Recursion: inside the child, External ports resolve
                    // against the child's own path.
                    if let Err(e) = elaborate_child(model, part, &ipath, sm, bound) {
                        nested_err = Some(e);
                        return true;
                    }
                }
                ComponentKind::Elementary { .. } => {
                    // A bare elementary part at composite level is a modelling
                    // error caught by validation (it must sit inside a
                    // repetitive component); skip defensively.
                }
            }
            progress = true;
            false // remove from pending
        });
    }
    if let Some(e) = nested_err {
        return Err(e);
    }
    if !pending.is_empty() {
        return Err(GaspardError::Cyclic { involving: pending[0].0.clone() });
    }

    // Bind the composite's external Out ports from internal producers.
    for conn in connections {
        if let PartRef::External { port } = &conn.to {
            if let PartRef::Part { part, port: from_port } = &conn.from {
                if let Some(&id) = bound.get(&(join(path, part), from_port.clone())) {
                    bound.insert((path.to_string(), port.clone()), id);
                }
            }
        }
    }
    Ok(())
}

/// Recurse into a nested composite (separated out to keep borrows simple).
fn elaborate_child(
    model: &Model,
    comp: &Component,
    path: &str,
    sm: &mut ScheduledModel,
    bound: &mut HashMap<(String, String), usize>,
) -> Result<(), GaspardError> {
    elaborate(model, comp, path, sm, bound)
}

/// Phase 3 (verification projection): scheduled model → ArrayOL graph.
pub fn to_arrayol(sm: &ScheduledModel) -> Result<arrayol::ApplicationGraph, GaspardError> {
    let mut g = arrayol::ApplicationGraph::new();
    let ids: Vec<arrayol::ArrayId> = sm
        .arrays
        .iter()
        .map(|a| g.declare_array(a.name.clone(), Shape::new(a.shape.clone())))
        .collect();
    for &i in &sm.inputs {
        g.external_inputs.push(ids[i]);
    }
    for &o in &sm.outputs {
        g.external_outputs.push(ids[o]);
    }
    for k in &sm.kernels {
        let op = k.op.clone();
        let out_pattern = Shape::new(k.out_pattern.clone());
        let f: arrayol::ElementaryFn = Arc::new(move |patterns| {
            let out = op.apply(patterns[0].as_slice());
            vec![mdarray::NdArray::from_vec(out_pattern.clone(), out).expect("length matches")]
        });
        g.add_task(arrayol::RepetitiveTask {
            name: k.name.clone(),
            repetition: Shape::new(k.repetition.clone()),
            inputs: vec![arrayol::Port::new(
                "in",
                ids[k.input],
                Shape::new(k.in_pattern.clone()),
                k.in_tiler.clone(),
            )],
            outputs: vec![arrayol::Port::new(
                "out",
                ids[k.output],
                Shape::new(k.out_pattern.clone()),
                k.out_tiler.clone(),
            )],
            body: arrayol::TaskBody::Elementary { kernel_name: k.name.clone(), f },
        });
    }
    g.validate().map_err(|e| GaspardError::Invalid {
        element: "arrayol projection".into(),
        msg: e.to_string(),
    })?;
    Ok(g)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::mini_two_stage_model;
    use arrayol::exec::execute;
    use mdarray::NdArray;
    use std::collections::HashMap as Map;

    fn deployed() -> DeployedModel {
        let (model, alloc) = mini_two_stage_model();
        deploy(model, Platform::cpu_gpu(), alloc).unwrap()
    }

    #[test]
    fn deploy_requires_allocations() {
        let (model, _) = mini_two_stage_model();
        let err = deploy(model, Platform::cpu_gpu(), Allocation::default());
        assert!(matches!(err, Err(GaspardError::Unallocated { .. })));
    }

    #[test]
    fn deploy_rejects_gpu_frame_io() {
        let (model, _) = mini_two_stage_model();
        let alloc = Allocation::default()
            .allocate("source", "gtx480")
            .allocate("sink", "i7_930")
            .allocate("stage1", "gtx480")
            .allocate("stage2", "gtx480");
        assert!(matches!(
            deploy(model, Platform::cpu_gpu(), alloc),
            Err(GaspardError::Invalid { .. })
        ));
    }

    #[test]
    fn schedule_flattens_in_dataflow_order() {
        let sm = schedule(&deployed()).unwrap();
        assert_eq!(sm.kernels.len(), 2);
        assert_eq!(sm.kernels[0].name, "s1");
        assert_eq!(sm.kernels[1].name, "s2");
        // Stage 2 consumes stage 1's output.
        assert_eq!(sm.kernels[1].input, sm.kernels[0].output);
        assert_eq!(sm.inputs.len(), 1);
        assert_eq!(sm.outputs.len(), 1);
    }

    #[test]
    fn arrayol_projection_executes() {
        let sm = schedule(&deployed()).unwrap();
        let g = to_arrayol(&sm).unwrap();
        let input = NdArray::from_fn([4usize, 16], |ix| (ix[0] * 16 + ix[1]) as i64);
        let mut inputs = Map::new();
        inputs.insert(g.external_inputs[0], input);
        let out = execute(&g, &inputs).unwrap();
        let result = &out[&g.external_outputs[0]];
        assert_eq!(result.shape().dims(), &[4, 4]);
    }
}
