//! Reusable model fixtures for tests, examples and benches.

use crate::model::*;
use arrayol::{ElementaryOp, IMat, Tiler, WindowSpec};

/// A miniature two-stage filter application:
///
/// ```text
/// source ─(4×16)─► stage1 ─(4×8)─► stage2 ─(4×4)─► sink
/// ```
///
/// Both stages interpolate 2:1 along columns with 3-element windows over a
/// 5-wide pattern, structurally identical to the downscaler's filters but
/// small enough for exhaustive testing. Returns the model plus an allocation
/// mapping I/O to the CPU and stages to the GPU.
pub fn mini_two_stage_model() -> (Model, Allocation) {
    let interp = ElementaryOp::InterpolateWindows {
        windows: vec![WindowSpec { offset: 0, len: 3 }, WindowSpec { offset: 2, len: 3 }],
        divisor: 3,
    };
    let task = |name: &str| Component {
        name: name.into(),
        stereotype: Stereotype::SwResource,
        ports: vec![
            Port { name: "pin".into(), dir: PortDir::In, shape: vec![5] },
            Port { name: "pout".into(), dir: PortDir::Out, shape: vec![2] },
        ],
        kind: ComponentKind::Elementary { op: interp.clone() },
    };
    let stage = |name: &str, rows: usize, in_cols: usize, task: &str| {
        let tiles = in_cols / 4;
        Component {
            name: name.into(),
            stereotype: Stereotype::SwResource,
            ports: vec![
                Port { name: "fin".into(), dir: PortDir::In, shape: vec![rows, in_cols] },
                Port { name: "fout".into(), dir: PortDir::Out, shape: vec![rows, tiles * 2] },
            ],
            kind: ComponentKind::Repetitive {
                repetition: vec![rows, tiles],
                inner: task.into(),
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
        }
    };
    let source = Component {
        name: "source".into(),
        stereotype: Stereotype::SwResource,
        ports: vec![Port { name: "frame".into(), dir: PortDir::Out, shape: vec![4, 16] }],
        kind: ComponentKind::FrameSource,
    };
    let sink = Component {
        name: "sink".into(),
        stereotype: Stereotype::SwResource,
        ports: vec![Port { name: "frame".into(), dir: PortDir::In, shape: vec![4, 4] }],
        kind: ComponentKind::FrameSink,
    };
    let root = Component {
        name: "app".into(),
        stereotype: Stereotype::SwResource,
        ports: vec![],
        kind: ComponentKind::Composite {
            parts: vec![
                ("src".into(), "source".into()),
                ("s1".into(), "stage1".into()),
                ("s2".into(), "stage2".into()),
                ("snk".into(), "sink".into()),
            ],
            connections: vec![
                Connection {
                    from: PartRef::Part { part: "src".into(), port: "frame".into() },
                    to: PartRef::Part { part: "s1".into(), port: "fin".into() },
                },
                Connection {
                    from: PartRef::Part { part: "s1".into(), port: "fout".into() },
                    to: PartRef::Part { part: "s2".into(), port: "fin".into() },
                },
                Connection {
                    from: PartRef::Part { part: "s2".into(), port: "fout".into() },
                    to: PartRef::Part { part: "snk".into(), port: "frame".into() },
                },
            ],
        },
    };
    let model = Model {
        name: "mini".into(),
        components: vec![
            task("interp"),
            stage("stage1", 4, 16, "interp"),
            stage("stage2", 4, 8, "interp"),
            source,
            sink,
            root,
        ],
        root: "app".into(),
    };
    let alloc = Allocation::default()
        .allocate("source", "i7_930")
        .allocate("sink", "i7_930")
        .allocate("stage1", "gtx480")
        .allocate("stage2", "gtx480");
    (model, alloc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::marte::validate;

    #[test]
    fn fixture_is_valid() {
        let (model, _) = mini_two_stage_model();
        validate(&model).unwrap();
    }
}
