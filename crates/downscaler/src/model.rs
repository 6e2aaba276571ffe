//! The downscaler's GASPARD2/MARTE model (the paper's Figures 3 and 10).
//!
//! Structure, mirroring Figure 3:
//!
//! ```text
//! Downscaler
//!   fg: FrameGenerator ──r,g,b──► hf: HorizontalFilter ──► vf: VerticalFilter ──► fc: FrameConstructor
//! ```
//!
//! `HorizontalFilter` is "hierarchically composed by three elementary tasks
//! that become kernels in the GPU environment" — one repetitive task per
//! colour channel (`rhf`, `ghf`, `bhf`), each carrying the Figure 10 tiler
//! specification; likewise the vertical filter.

use crate::filter::FilterSpec;
use crate::scenario::Scenario;
use arrayol::{ElementaryOp, IMat, Tiler, WindowSpec};
use gaspard::model::*;

/// Build the repetitive channel-filter component for one direction.
///
/// `dim` = 0 filters rows (vertical), `dim` = 1 filters columns (horizontal),
/// over per-channel `[rows, cols]` planes.
fn channel_filter(
    name: &str,
    task: &str,
    spec: &FilterSpec,
    dim: usize,
    in_shape: [usize; 2],
) -> Component {
    let tiles = in_shape[dim] / spec.step;
    let k = spec.outputs_per_tile();
    let mut out_shape = in_shape;
    out_shape[dim] = tiles * k;
    let repetition = if dim == 1 { vec![in_shape[0], tiles] } else { vec![tiles, in_shape[1]] };
    let unit = |d: usize| {
        if d == 0 {
            IMat::from_rows(&[&[1], &[0]])
        } else {
            IMat::from_rows(&[&[0], &[1]])
        }
    };
    let mut in_origin = vec![0i64, 0];
    in_origin[dim] = spec.origin;
    // Paving rows map repetition components to array offsets. With the
    // repetition ordered (rows, tiles) or (tiles, cols), the filtered
    // dimension advances by `step` per tile and the other dimension by 1.
    let in_paving = if dim == 1 {
        IMat::from_rows(&[&[1, 0], &[0, spec.step as i64]])
    } else {
        IMat::from_rows(&[&[spec.step as i64, 0], &[0, 1]])
    };
    let out_paving = if dim == 1 {
        IMat::from_rows(&[&[1, 0], &[0, k as i64]])
    } else {
        IMat::from_rows(&[&[k as i64, 0], &[0, 1]])
    };
    Component {
        name: name.into(),
        stereotype: Stereotype::SwResource,
        ports: vec![
            Port { name: "fin".into(), dir: PortDir::In, shape: in_shape.to_vec() },
            Port { name: "fout".into(), dir: PortDir::Out, shape: out_shape.to_vec() },
        ],
        kind: ComponentKind::Repetitive {
            repetition,
            inner: task.into(),
            input_tilers: vec![(vec![spec.pattern], Tiler::new(in_origin, unit(dim), in_paving))],
            output_tilers: vec![(vec![k], Tiler::new(vec![0, 0], unit(dim), out_paving))],
        },
    }
}

/// The elementary interpolation task (the IP of Figure 5's arithmetic).
fn interp_task(name: &str, spec: &FilterSpec) -> Component {
    Component {
        name: name.into(),
        stereotype: Stereotype::SwResource,
        ports: vec![
            Port { name: "pin".into(), dir: PortDir::In, shape: vec![spec.pattern] },
            Port { name: "pout".into(), dir: PortDir::Out, shape: vec![spec.outputs_per_tile()] },
        ],
        kind: ComponentKind::Elementary {
            op: ElementaryOp::InterpolateWindows {
                windows: spec
                    .windows
                    .iter()
                    .map(|&w| WindowSpec { offset: w, len: spec.window_len })
                    .collect(),
                divisor: spec.divisor,
            },
        },
    }
}

/// A per-channel filter composite (`HorizontalFilter` / `VerticalFilter` of
/// Figure 3): one part per channel, external ports `in0..`/`out0..`.
fn filter_composite(
    name: &str,
    channel_comp: &str,
    channels: usize,
    in_shape: [usize; 2],
    out_shape: [usize; 2],
    channel_prefixes: &[&str],
) -> Component {
    let mut ports = Vec::new();
    let mut parts = Vec::new();
    let mut connections = Vec::new();
    for c in 0..channels {
        ports.push(Port { name: format!("in{c}"), dir: PortDir::In, shape: in_shape.to_vec() });
        ports.push(Port { name: format!("out{c}"), dir: PortDir::Out, shape: out_shape.to_vec() });
        let inst = channel_prefixes.get(c).copied().unwrap_or("chf").to_string();
        parts.push((inst.clone(), channel_comp.to_string()));
        connections.push(Connection {
            from: PartRef::External { port: format!("in{c}") },
            to: PartRef::Part { part: inst.clone(), port: "fin".into() },
        });
        connections.push(Connection {
            from: PartRef::Part { part: inst, port: "fout".into() },
            to: PartRef::External { port: format!("out{c}") },
        });
    }
    Component {
        name: name.into(),
        stereotype: Stereotype::SwResource,
        ports,
        kind: ComponentKind::Composite { parts, connections },
    }
}

/// Build the full downscaler model plus its allocation (filters on the GPU,
/// frame I/O on the CPU).
pub fn downscaler_model(s: &Scenario) -> (Model, Allocation) {
    let in_shape = [s.rows, s.cols];
    let mid_shape = [s.rows, s.h_out_cols()];
    let out_shape = [s.v_out_rows(), s.h_out_cols()];
    let channel_names: Vec<&str> = ["r", "g", "b"].into_iter().take(s.channels).collect();
    let h_parts: Vec<String> = channel_names.iter().map(|c| format!("{c}hf")).collect();
    let v_parts: Vec<String> = channel_names.iter().map(|c| format!("{c}vf")).collect();

    let source = Component {
        name: "FrameGenerator".into(),
        stereotype: Stereotype::SwResource,
        ports: (0..s.channels)
            .map(|c| Port { name: format!("ch{c}"), dir: PortDir::Out, shape: in_shape.to_vec() })
            .collect(),
        kind: ComponentKind::FrameSource,
    };
    let sink = Component {
        name: "FrameConstructor".into(),
        stereotype: Stereotype::SwResource,
        ports: (0..s.channels)
            .map(|c| Port { name: format!("ch{c}"), dir: PortDir::In, shape: out_shape.to_vec() })
            .collect(),
        kind: ComponentKind::FrameSink,
    };

    let mut root_connections = Vec::new();
    for c in 0..s.channels {
        root_connections.push(Connection {
            from: PartRef::Part { part: "fg".into(), port: format!("ch{c}") },
            to: PartRef::Part { part: "hf".into(), port: format!("in{c}") },
        });
        root_connections.push(Connection {
            from: PartRef::Part { part: "hf".into(), port: format!("out{c}") },
            to: PartRef::Part { part: "vf".into(), port: format!("in{c}") },
        });
        root_connections.push(Connection {
            from: PartRef::Part { part: "vf".into(), port: format!("out{c}") },
            to: PartRef::Part { part: "fc".into(), port: format!("ch{c}") },
        });
    }
    let root = Component {
        name: "Downscaler".into(),
        stereotype: Stereotype::SwResource,
        ports: vec![],
        kind: ComponentKind::Composite {
            parts: vec![
                ("fg".into(), "FrameGenerator".into()),
                ("hf".into(), "HorizontalFilter".into()),
                ("vf".into(), "VerticalFilter".into()),
                ("fc".into(), "FrameConstructor".into()),
            ],
            connections: root_connections,
        },
    };

    let model = Model {
        name: "downscaler".into(),
        components: vec![
            interp_task("HTask", &s.h),
            interp_task("VTask", &s.v),
            channel_filter("HFilterChannel", "HTask", &s.h, 1, in_shape),
            channel_filter("VFilterChannel", "VTask", &s.v, 0, mid_shape),
            filter_composite(
                "HorizontalFilter",
                "HFilterChannel",
                s.channels,
                in_shape,
                mid_shape,
                &h_parts.iter().map(String::as_str).collect::<Vec<_>>(),
            ),
            filter_composite(
                "VerticalFilter",
                "VFilterChannel",
                s.channels,
                mid_shape,
                out_shape,
                &v_parts.iter().map(String::as_str).collect::<Vec<_>>(),
            ),
            source,
            sink,
            root,
        ],
        root: "Downscaler".into(),
    };
    let alloc = Allocation::default()
        .allocate("FrameGenerator", "i7_930")
        .allocate("FrameConstructor", "i7_930")
        .allocate("HFilterChannel", "gtx480")
        .allocate("VFilterChannel", "gtx480");
    (model, alloc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gaspard::transform::{deploy, schedule, to_arrayol};
    use gaspard::Platform;

    #[test]
    fn model_validates_and_deploys() {
        let s = Scenario::tiny();
        let (model, alloc) = downscaler_model(&s);
        gaspard::marte::validate(&model).unwrap();
        deploy(model, Platform::cpu_gpu(), alloc).unwrap();
    }

    #[test]
    fn schedule_produces_six_channel_kernels() {
        // "We have three kernels to do the horizontal filter and three to do
        // the vertical filter as well." (§VIII.B)
        let s = Scenario::tiny();
        let (model, alloc) = downscaler_model(&s);
        let dep = deploy(model, Platform::cpu_gpu(), alloc).unwrap();
        let sm = schedule(&dep).unwrap();
        assert_eq!(sm.kernels.len(), 6);
        let names: Vec<&str> = sm.kernels.iter().map(|k| k.name.as_str()).collect();
        for n in ["hf_rhf", "hf_ghf", "hf_bhf", "vf_rvf", "vf_gvf", "vf_bvf"] {
            assert!(names.contains(&n), "missing kernel {n}; got {names:?}");
        }
        assert_eq!(sm.inputs.len(), 3);
        assert_eq!(sm.outputs.len(), 3);
    }

    #[test]
    fn hd_matches_figure10_tiler_numbers() {
        let s = Scenario::hd1080();
        let (model, alloc) = downscaler_model(&s);
        let dep = deploy(model, Platform::cpu_gpu(), alloc).unwrap();
        let sm = schedule(&dep).unwrap();
        let bhf = sm.kernels.iter().find(|k| k.name == "hf_bhf").unwrap();
        // Figure 10: array {1080,1920}, pattern {11},
        // paving {{1,0},{0,8}}, repetition {1080,240}.
        assert_eq!(sm.arrays[bhf.input].shape, vec![1080, 1920]);
        assert_eq!(bhf.access.in_pattern, vec![11]);
        assert_eq!(bhf.access.in_tiler.paving, IMat::from_rows(&[&[1, 0], &[0, 8]]));
        assert_eq!(bhf.access.repetition, vec![1080, 240]);
        // Output side: pattern {3}, paving {{1,0},{0,3}}, array {1080,720}.
        assert_eq!(bhf.access.out_pattern, vec![3]);
        assert_eq!(bhf.access.out_tiler.paving, IMat::from_rows(&[&[1, 0], &[0, 3]]));
        assert_eq!(sm.arrays[bhf.output].shape, vec![1080, 720]);
    }

    #[test]
    fn arrayol_projection_matches_reference_filters() {
        let s = Scenario::tiny();
        let (model, alloc) = downscaler_model(&s);
        let dep = deploy(model, Platform::cpu_gpu(), alloc).unwrap();
        let sm = schedule(&dep).unwrap();
        let g = to_arrayol(&sm).unwrap();

        let gen = crate::frames::FrameGenerator::new(s.channels, s.rows, s.cols, 5);
        let channels = gen.frame_channels(0);
        let mut inputs = std::collections::HashMap::new();
        for (i, ch) in channels.iter().enumerate() {
            inputs.insert(g.external_inputs[i], ch.clone());
        }
        let out = arrayol::exec::execute(&g, &inputs).unwrap();
        for (c, ch) in channels.iter().enumerate() {
            let expect = crate::filter::downscale_channel(ch, &s.h, &s.v);
            assert_eq!(out[&g.external_outputs[c]], expect, "channel {c}");
        }
    }
}
