//! Route-agnostic plan surgery that turns the stateless stacked-delta plan
//! into a temporal workload.
//!
//! Both routes lower the delta pipeline as a stateless program over one
//! stacked `[2, rows, cols]` input (plane 0 = current frame, plane 1 =
//! previous frame). [`temporalize`] rewires the *lowered*
//! [`LaunchPlan`] — the IR both routes share — so the plan instead takes
//! two `[rows, cols]` inputs (`cur`, `prev`), stacks them with a host op,
//! and carries each frame's `cur` forward as the next frame's `prev` via a
//! [`Carry`]. Because the surgery happens after lowering, the SaC→CUDA and
//! Gaspard→OpenCL plans get bit-identical temporal semantics from the same
//! transform.

use mdarray::NdArray;
use simgpu::schedule::{ArrayDecl, Carry, HostOp, LaunchPlan, PlanStep};

/// Rewire a stateless stacked-input plan into a temporal one.
///
/// Expects exactly one frame input of shape `[2, rows, cols]`; returns the
/// plan with inputs `[cur, prev]` (each `[rows, cols]`), a prepended host
/// op that stacks them into the original input, and a
/// `Carry { from: cur, to: prev }` so frame `N`'s `prev` binding is frame
/// `N-1`'s `cur`. The caller's `prev` array seeds frame 0 only.
pub fn temporalize(mut plan: LaunchPlan<'_>) -> Result<LaunchPlan<'_>, String> {
    let &[stacked] = plan.inputs.as_slice() else {
        return Err(format!(
            "temporalize expects exactly one frame input, the plan has {}",
            plan.inputs.len()
        ));
    };
    let stack_shape = plan.arrays[stacked].shape.clone();
    if stack_shape.len() != 3 || stack_shape[0] != 2 {
        return Err(format!(
            "temporalize expects a stacked [2, rows, cols] input, got {stack_shape:?}"
        ));
    }
    let plane_shape = stack_shape[1..].to_vec();
    let plane_len: usize = plane_shape.iter().product();

    let cur = plan.arrays.len();
    plan.arrays.push(ArrayDecl { name: "cur".into(), shape: plane_shape.clone() });
    let prev = plan.arrays.len();
    plan.arrays.push(ArrayDecl { name: "prev".into(), shape: plane_shape });

    let op = plan.host_ops.len();
    plan.host_ops.push(HostOp {
        name: "stack_cur_prev".into(),
        target: stacked,
        reads: vec![cur, prev],
        run: std::rc::Rc::new(move |arrs: &[NdArray<i64>]| {
            let mut data = Vec::with_capacity(2 * plane_len);
            data.extend_from_slice(arrs[0].as_slice());
            data.extend_from_slice(arrs[1].as_slice());
            let out = NdArray::from_vec(stack_shape.clone(), data).map_err(|e| e.to_string())?;
            // One abstract host op per copied element.
            Ok((out, 2 * plane_len as u64))
        }),
    });

    plan.inputs = vec![cur, prev];
    plan.steps.insert(0, PlanStep::Host { op });
    plan.carries.push(Carry { from: cur, to: prev });
    plan.validate().map_err(|e| format!("temporalized plan is inconsistent: {e}"))?;
    Ok(plan)
}
