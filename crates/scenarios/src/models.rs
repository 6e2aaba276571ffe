//! GASPARD2 models for the registry's non-downscaler pipelines.
//!
//! Every pipeline is modelled with the same vocabulary as the paper's
//! downscaler: `Elementary` tasks over rank-1 patterns, `Repetitive` stages
//! whose tilers gather/scatter the patterns, frame source/sink on the CPU
//! and stages on the GPU.

use arrayol::{ElementaryOp, IMat, Tiler};
use gaspard::model::{
    Allocation, Component, ComponentKind, Connection, Model, PartRef, Port, PortDir, Stereotype,
};

/// An elementary task component: rank-1 `pin`/`pout` ports around one op.
fn task(name: &str, in_len: usize, out_len: usize, op: ElementaryOp) -> Component {
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

/// A repetitive stage sliding a width-`k` column window (step 1) over a
/// rank-2 frame: `[rows, in_cols] → [rows, in_cols - k + 1]`.
fn sliding_stage(name: &str, inner: &str, rows: usize, in_cols: usize, k: usize) -> Component {
    let out_cols = in_cols - k + 1;
    Component {
        name: name.into(),
        stereotype: Stereotype::SwResource,
        ports: vec![
            Port { name: "fin".into(), dir: PortDir::In, shape: vec![rows, in_cols] },
            Port { name: "fout".into(), dir: PortDir::Out, shape: vec![rows, out_cols] },
        ],
        kind: ComponentKind::Repetitive {
            repetition: vec![rows, out_cols],
            inner: inner.into(),
            input_tilers: vec![(
                vec![k],
                Tiler::new(
                    vec![0, 0],
                    IMat::from_rows(&[&[0], &[1]]),
                    IMat::from_rows(&[&[1, 0], &[0, 1]]),
                ),
            )],
            output_tilers: vec![(
                vec![1],
                Tiler::new(
                    vec![0, 0],
                    IMat::from_rows(&[&[0], &[0]]),
                    IMat::from_rows(&[&[1, 0], &[0, 1]]),
                ),
            )],
        },
    }
}

/// Frame source component with the given port shape.
fn source(shape: Vec<usize>) -> Component {
    Component {
        name: "source".into(),
        stereotype: Stereotype::SwResource,
        ports: vec![Port { name: "frame".into(), dir: PortDir::Out, shape }],
        kind: ComponentKind::FrameSource,
    }
}

/// Frame sink component with the given port shape.
fn sink(shape: Vec<usize>) -> Component {
    Component {
        name: "sink".into(),
        stereotype: Stereotype::SwResource,
        ports: vec![Port { name: "frame".into(), dir: PortDir::In, shape }],
        kind: ComponentKind::FrameSink,
    }
}

/// Composite root chaining `source → stages… → sink` through each stage's
/// `fin`/`fout` ports.
fn chain_root(stages: &[&str]) -> Component {
    let mut parts = vec![("src".into(), "source".into())];
    for (i, s) in stages.iter().enumerate() {
        parts.push((format!("p{i}"), (*s).into()));
    }
    parts.push(("snk".into(), "sink".into()));
    let mut connections = Vec::new();
    let mut from = PartRef::Part { part: "src".into(), port: "frame".into() };
    for i in 0..stages.len() {
        connections.push(Connection {
            from,
            to: PartRef::Part { part: format!("p{i}"), port: "fin".into() },
        });
        from = PartRef::Part { part: format!("p{i}"), port: "fout".into() };
    }
    connections
        .push(Connection { from, to: PartRef::Part { part: "snk".into(), port: "frame".into() } });
    Component {
        name: "app".into(),
        stereotype: Stereotype::SwResource,
        ports: vec![],
        kind: ComponentKind::Composite { parts, connections },
    }
}

/// CPU source/sink, GPU stages.
fn alloc(stages: &[&str]) -> Allocation {
    let mut a = Allocation::default().allocate("source", "i7_930").allocate("sink", "i7_930");
    for s in stages {
        a = a.allocate(s, "gtx480");
    }
    a
}

/// Blur `[1,2,1]` → gradient `[-1,0,1]` → sharpen `[-1,3,-1]` as three
/// repetitive WeightedSum stages.
pub fn imagepipe_model(rows: usize, cols: usize) -> (Model, Allocation) {
    let weights: [(&str, [i64; 3]); 3] =
        [("blur", [1, 2, 1]), ("grad", [-1, 0, 1]), ("sharp", [-1, 3, -1])];
    let mut components = Vec::new();
    let mut stage_names = Vec::new();
    let mut c = cols;
    for (n, w) in weights {
        components.push(task(
            &format!("{n}_task"),
            3,
            1,
            ElementaryOp::WeightedSum { weights: w.to_vec() },
        ));
        components.push(sliding_stage(&format!("{n}_stage"), &format!("{n}_task"), rows, c, 3));
        stage_names.push(format!("{n}_stage"));
        c -= 2;
    }
    let stages: Vec<&str> = stage_names.iter().map(String::as_str).collect();
    components.push(source(vec![rows, cols]));
    components.push(sink(vec![rows, c]));
    components.push(chain_root(&stages));
    let model = Model { name: "imagepipe".into(), components, root: "app".into() };
    (model, alloc(&stages))
}

/// Delta encoding over a stacked `[2,R,C]` input: one WeightedSum `[1,-1]`
/// stage whose pattern gathers the two planes of each pixel.
pub fn delta_model(rows: usize, cols: usize) -> (Model, Allocation) {
    let stage = Component {
        name: "delta_stage".into(),
        stereotype: Stereotype::SwResource,
        ports: vec![
            Port { name: "fin".into(), dir: PortDir::In, shape: vec![2, rows, cols] },
            Port { name: "fout".into(), dir: PortDir::Out, shape: vec![rows, cols] },
        ],
        kind: ComponentKind::Repetitive {
            repetition: vec![rows, cols],
            inner: "delta_task".into(),
            input_tilers: vec![(
                vec![2],
                Tiler::new(
                    vec![0, 0, 0],
                    IMat::from_rows(&[&[1], &[0], &[0]]),
                    IMat::from_rows(&[&[0, 0], &[1, 0], &[0, 1]]),
                ),
            )],
            output_tilers: vec![(
                vec![1],
                Tiler::new(
                    vec![0, 0],
                    IMat::from_rows(&[&[0], &[0]]),
                    IMat::from_rows(&[&[1, 0], &[0, 1]]),
                ),
            )],
        },
    };
    let components = vec![
        task("delta_task", 2, 1, ElementaryOp::WeightedSum { weights: vec![1, -1] }),
        stage,
        source(vec![2, rows, cols]),
        sink(vec![rows, cols]),
        chain_root(&["delta_stage"]),
    ];
    let model = Model { name: "delta".into(), components, root: "app".into() };
    (model, alloc(&["delta_stage"]))
}

/// Horizontal 4-pixel block sum (`SumReduce`) followed by an `AffineMap`
/// `x ↦ 2x + 10`: `[R,C] → [R,C/4]`.
pub fn blockmean_model(rows: usize, cols: usize) -> (Model, Allocation) {
    let bc = cols / 4;
    let sum_stage = Component {
        name: "sum_stage".into(),
        stereotype: Stereotype::SwResource,
        ports: vec![
            Port { name: "fin".into(), dir: PortDir::In, shape: vec![rows, cols] },
            Port { name: "fout".into(), dir: PortDir::Out, shape: vec![rows, bc] },
        ],
        kind: ComponentKind::Repetitive {
            repetition: vec![rows, bc],
            inner: "sum_task".into(),
            input_tilers: vec![(
                vec![4],
                Tiler::new(
                    vec![0, 0],
                    IMat::from_rows(&[&[0], &[1]]),
                    IMat::from_rows(&[&[1, 0], &[0, 4]]),
                ),
            )],
            output_tilers: vec![(
                vec![1],
                Tiler::new(
                    vec![0, 0],
                    IMat::from_rows(&[&[0], &[0]]),
                    IMat::from_rows(&[&[1, 0], &[0, 1]]),
                ),
            )],
        },
    };
    let affine_stage = Component {
        name: "affine_stage".into(),
        stereotype: Stereotype::SwResource,
        ports: vec![
            Port { name: "fin".into(), dir: PortDir::In, shape: vec![rows, bc] },
            Port { name: "fout".into(), dir: PortDir::Out, shape: vec![rows, bc] },
        ],
        kind: ComponentKind::Repetitive {
            repetition: vec![rows, bc],
            inner: "affine_task".into(),
            input_tilers: vec![(
                vec![1],
                Tiler::new(
                    vec![0, 0],
                    IMat::from_rows(&[&[0], &[0]]),
                    IMat::from_rows(&[&[1, 0], &[0, 1]]),
                ),
            )],
            output_tilers: vec![(
                vec![1],
                Tiler::new(
                    vec![0, 0],
                    IMat::from_rows(&[&[0], &[0]]),
                    IMat::from_rows(&[&[1, 0], &[0, 1]]),
                ),
            )],
        },
    };
    let components = vec![
        task("sum_task", 4, 1, ElementaryOp::SumReduce),
        task("affine_task", 1, 1, ElementaryOp::AffineMap { mul: 2, add: 10 }),
        sum_stage,
        affine_stage,
        source(vec![rows, cols]),
        sink(vec![rows, bc]),
        chain_root(&["sum_stage", "affine_stage"]),
    ];
    let model = Model { name: "blockmean".into(), components, root: "app".into() };
    (model, alloc(&["sum_stage", "affine_stage"]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gaspard::marte::validate;

    #[test]
    fn registry_models_validate() {
        for (model, _) in [imagepipe_model(8, 16), delta_model(6, 10), blockmean_model(6, 16)] {
            validate(&model).unwrap_or_else(|e| panic!("{}: {e}", model.name));
        }
    }
}
