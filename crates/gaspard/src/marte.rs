//! MARTE stereotype validation.
//!
//! The MARTE profile's Repetitive Structure Modelling (RSM) package carries
//! the ArrayOL semantics; this module checks that a model's stereotyped
//! elements are mutually consistent before any transformation runs:
//!
//! * repetitive components: the inner component exists, is elementary, and
//!   its port shapes equal the declared pattern shapes; tiler matrices have
//!   the right dimensions for (array rank × pattern/repetition rank); output
//!   tilers tile their array *exactly once* (ArrayOL single assignment),
//! * composites: parts reference declared components, connection endpoints
//!   exist and connect an output to an input with equal shapes,
//! * elementary ops: window specs stay inside the input pattern.

use crate::model::*;
use crate::GaspardError;
use arrayol::ElementaryOp;
use mdarray::Shape;

/// Validate a whole model.
pub fn validate(model: &Model) -> Result<(), GaspardError> {
    if model.component(&model.root).is_none() {
        return Err(GaspardError::UnknownElement {
            what: "root component",
            name: model.root.clone(),
        });
    }
    for c in &model.components {
        validate_component(model, c)?;
    }
    Ok(())
}

fn invalid(element: &str, msg: impl Into<String>) -> GaspardError {
    GaspardError::Invalid { element: element.into(), msg: msg.into() }
}

fn validate_component(model: &Model, c: &Component) -> Result<(), GaspardError> {
    match &c.kind {
        ComponentKind::Elementary { op } => {
            let input = c
                .inputs()
                .next()
                .ok_or_else(|| invalid(&c.name, "elementary task needs an input port"))?;
            let output = c
                .outputs()
                .next()
                .ok_or_else(|| invalid(&c.name, "elementary task needs an output port"))?;
            if input.shape.len() != 1 || output.shape.len() != 1 {
                return Err(invalid(&c.name, "elementary patterns must be rank-1"));
            }
            let in_len = input.shape[0];
            if op.out_len(in_len) != output.shape[0] {
                return Err(invalid(
                    &c.name,
                    format!(
                        "op produces {} elements but the output pattern holds {}",
                        op.out_len(in_len),
                        output.shape[0]
                    ),
                ));
            }
            if let ElementaryOp::InterpolateWindows { windows, divisor } = op {
                if *divisor == 0 {
                    return Err(invalid(&c.name, "divisor must be non-zero"));
                }
                for w in windows {
                    if w.offset + w.len > in_len {
                        return Err(invalid(
                            &c.name,
                            format!(
                                "window {}..{} exceeds pattern length {in_len}",
                                w.offset,
                                w.offset + w.len
                            ),
                        ));
                    }
                }
            }
            if let ElementaryOp::WeightedSum { weights } = op {
                if weights.len() != in_len {
                    return Err(invalid(
                        &c.name,
                        format!(
                            "weighted sum has {} weights but the input pattern holds {in_len}",
                            weights.len()
                        ),
                    ));
                }
            }
        }
        ComponentKind::Repetitive { repetition, inner, input_tilers, output_tilers } => {
            let inner_c = model.component(inner).ok_or_else(|| GaspardError::UnknownElement {
                what: "inner component",
                name: inner.clone(),
            })?;
            if !matches!(inner_c.kind, ComponentKind::Elementary { .. }) {
                return Err(invalid(&c.name, "repetitive inner component must be elementary"));
            }
            let rep = Shape::new(repetition.clone());
            // Pair external ports with tilers positionally.
            let ins: Vec<&Port> = c.inputs().collect();
            let outs: Vec<&Port> = c.outputs().collect();
            if ins.len() != input_tilers.len() || outs.len() != output_tilers.len() {
                return Err(invalid(&c.name, "tiler count does not match port count"));
            }
            let inner_ins: Vec<&Port> = inner_c.inputs().collect();
            let inner_outs: Vec<&Port> = inner_c.outputs().collect();
            if inner_ins.len() != ins.len() || inner_outs.len() != outs.len() {
                return Err(invalid(&c.name, "inner port count does not match"));
            }
            for ((port, (pattern, tiler)), inner_port) in
                ins.iter().zip(input_tilers).zip(&inner_ins)
            {
                if &inner_port.shape != pattern {
                    return Err(invalid(
                        &c.name,
                        format!(
                            "inner input pattern {:?} differs from tiler pattern {:?}",
                            inner_port.shape, pattern
                        ),
                    ));
                }
                tiler
                    .validate(&Shape::new(port.shape.clone()), &Shape::new(pattern.clone()), &rep)
                    .map_err(|e| invalid(&c.name, e.to_string()))?;
            }
            for ((port, (pattern, tiler)), inner_port) in
                outs.iter().zip(output_tilers).zip(&inner_outs)
            {
                if &inner_port.shape != pattern {
                    return Err(invalid(&c.name, "inner output pattern differs from tiler"));
                }
                let arr = Shape::new(port.shape.clone());
                let pat = Shape::new(pattern.clone());
                tiler.validate(&arr, &pat, &rep).map_err(|e| invalid(&c.name, e.to_string()))?;
                tiler
                    .check_exact_cover(&arr, &rep, &pat)
                    .map_err(|e| invalid(&c.name, format!("output tiler: {e}")))?;
            }
        }
        ComponentKind::Composite { parts, connections } => {
            for (inst, comp) in parts {
                if model.component(comp).is_none() {
                    return Err(GaspardError::UnknownElement {
                        what: "part component",
                        name: format!("{inst}: {comp}"),
                    });
                }
            }
            for conn in connections {
                let from_shape = endpoint_shape(model, c, &conn.from, PortDir::Out)
                    .map_err(|m| invalid(&c.name, m))?;
                let to_shape = endpoint_shape(model, c, &conn.to, PortDir::In)
                    .map_err(|m| invalid(&c.name, m))?;
                if from_shape != to_shape {
                    return Err(invalid(
                        &c.name,
                        format!("connection shape mismatch: {from_shape:?} -> {to_shape:?}"),
                    ));
                }
            }
        }
        ComponentKind::FrameSource | ComponentKind::FrameSink => {}
    }
    Ok(())
}

/// Shape at a connection endpoint; `expected_dir` is the direction relative
/// to dataflow (an endpoint acting as producer must be a part Out port or a
/// composite External In port, and vice versa).
fn endpoint_shape(
    model: &Model,
    composite: &Component,
    ep: &PartRef,
    expected_dir: PortDir,
) -> Result<Vec<usize>, String> {
    match ep {
        PartRef::External { port } => {
            let p =
                composite.port(port).ok_or_else(|| format!("unknown external port '{port}'"))?;
            // External In ports feed parts (act as producers); External Out
            // ports are fed by parts (act as consumers).
            let ok = match expected_dir {
                PortDir::Out => p.dir == PortDir::In,
                PortDir::In => p.dir == PortDir::Out,
            };
            if !ok {
                return Err(format!("external port '{port}' has the wrong direction"));
            }
            Ok(p.shape.clone())
        }
        PartRef::Part { part, port } => {
            let ComponentKind::Composite { parts, .. } = &composite.kind else {
                return Err("part reference outside a composite".into());
            };
            let comp_name = parts
                .iter()
                .find(|(inst, _)| inst == part)
                .map(|(_, c)| c.as_str())
                .ok_or_else(|| format!("unknown part '{part}'"))?;
            let comp = model.component(comp_name).ok_or("unresolved part component")?;
            let p =
                comp.port(port).ok_or_else(|| format!("unknown port '{port}' on '{comp_name}'"))?;
            if p.dir != expected_dir {
                return Err(format!("port '{part}.{port}' has the wrong direction"));
            }
            Ok(p.shape.clone())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use arrayol::{IMat, Tiler, WindowSpec};

    fn elementary(name: &str, in_len: usize, op: ElementaryOp) -> Component {
        let out_len = op.out_len(in_len);
        Component {
            name: name.into(),
            stereotype: Stereotype::SwResource,
            ports: vec![
                Port { name: "pin".into(), dir: PortDir::In, shape: vec![in_len] },
                Port { name: "pout".into(), dir: PortDir::Out, shape: vec![out_len] },
            ],
            kind: ComponentKind::Elementary { op },
        }
    }

    fn simple_model() -> Model {
        let interp = ElementaryOp::InterpolateWindows {
            windows: vec![WindowSpec { offset: 0, len: 3 }, WindowSpec { offset: 2, len: 3 }],
            divisor: 3,
        };
        let task = elementary("interp", 5, interp);
        let rep = Component {
            name: "filter".into(),
            stereotype: Stereotype::SwResource,
            ports: vec![
                Port { name: "fin".into(), dir: PortDir::In, shape: vec![4, 16] },
                Port { name: "fout".into(), dir: PortDir::Out, shape: vec![4, 8] },
            ],
            kind: ComponentKind::Repetitive {
                repetition: vec![4, 4],
                inner: "interp".into(),
                input_tilers: vec![(
                    vec![5],
                    Tiler::new(
                        vec![0, 0],
                        IMat::from_rows(&[&[0], &[1]]),
                        IMat::from_rows(&[&[1, 0], &[0, 4]]),
                    ),
                )],
                output_tilers: vec![(
                    vec![2],
                    Tiler::new(
                        vec![0, 0],
                        IMat::from_rows(&[&[0], &[1]]),
                        IMat::from_rows(&[&[1, 0], &[0, 2]]),
                    ),
                )],
            },
        };
        let root = Component {
            name: "app".into(),
            stereotype: Stereotype::SwResource,
            ports: vec![
                Port { name: "video_in".into(), dir: PortDir::In, shape: vec![4, 16] },
                Port { name: "video_out".into(), dir: PortDir::Out, shape: vec![4, 8] },
            ],
            kind: ComponentKind::Composite {
                parts: vec![("f".into(), "filter".into())],
                connections: vec![
                    Connection {
                        from: PartRef::External { port: "video_in".into() },
                        to: PartRef::Part { part: "f".into(), port: "fin".into() },
                    },
                    Connection {
                        from: PartRef::Part { part: "f".into(), port: "fout".into() },
                        to: PartRef::External { port: "video_out".into() },
                    },
                ],
            },
        };
        Model { name: "mini".into(), components: vec![task, rep, root], root: "app".into() }
    }

    #[test]
    fn valid_model_passes() {
        validate(&simple_model()).unwrap();
    }

    #[test]
    fn rejects_window_outside_pattern() {
        let mut m = simple_model();
        if let ComponentKind::Elementary { op: ElementaryOp::InterpolateWindows { windows, .. } } =
            &mut m.components[0].kind
        {
            windows[1] = WindowSpec { offset: 4, len: 3 };
        }
        assert!(matches!(validate(&m), Err(GaspardError::Invalid { .. })));
    }

    #[test]
    fn rejects_overlapping_output_tiler() {
        let mut m = simple_model();
        if let ComponentKind::Repetitive { output_tilers, .. } = &mut m.components[1].kind {
            // Step 1 instead of 2: outputs overlap.
            output_tilers[0].1.paving = IMat::identity(2);
        }
        assert!(matches!(validate(&m), Err(GaspardError::Invalid { .. })));
    }

    #[test]
    fn rejects_shape_mismatched_connection() {
        let mut m = simple_model();
        if let ComponentKind::Composite { .. } = &m.components[2].kind {
            m.components[2].ports[0].shape = vec![4, 12];
        }
        assert!(matches!(validate(&m), Err(GaspardError::Invalid { .. })));
    }

    #[test]
    fn rejects_unknown_root_or_part() {
        let mut m = simple_model();
        m.root = "nope".into();
        assert!(matches!(validate(&m), Err(GaspardError::UnknownElement { .. })));

        let mut m = simple_model();
        if let ComponentKind::Composite { parts, .. } = &mut m.components[2].kind {
            parts[0].1 = "ghost".into();
        }
        assert!(matches!(validate(&m), Err(GaspardError::UnknownElement { .. })));
    }

    #[test]
    fn rejects_wrong_pattern_shape() {
        let mut m = simple_model();
        if let ComponentKind::Repetitive { input_tilers, .. } = &mut m.components[1].kind {
            input_tilers[0].0 = vec![7];
        }
        assert!(matches!(validate(&m), Err(GaspardError::Invalid { .. })));
    }
}
