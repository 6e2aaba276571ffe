//! Model elements: a Rust rendering of the UML/MARTE models GASPARD2 takes
//! as input (Papyrus being the graphical front end in the paper).

use arrayol::{ElementaryOp, Tiler};

/// Port direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PortDir {
    /// Consumes an array.
    In,
    /// Produces an array.
    Out,
}

/// A typed component port: carries a multidimensional array of fixed shape.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Port {
    /// Port name.
    pub name: String,
    /// Direction.
    pub dir: PortDir,
    /// Array shape flowing through the port.
    pub shape: Vec<usize>,
}

/// MARTE stereotypes relevant to the chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stereotype {
    /// Software component (application side).
    SwResource,
    /// Hardware resource (platform side).
    HwResource,
}

/// What a component is.
#[derive(Debug, Clone, PartialEq)]
pub enum ComponentKind {
    /// An elementary task linked to an IP.
    Elementary {
        /// The computation.
        op: ElementaryOp,
    },
    /// A repetitive task: repeats an inner elementary task over a repetition
    /// space, with tilers binding its external ports to pattern ports.
    Repetitive {
        /// The repetition space.
        repetition: Vec<usize>,
        /// Inner component (by name).
        inner: String,
        /// Input pattern shape and tiler, one per inner input port.
        input_tilers: Vec<(Vec<usize>, Tiler)>,
        /// Output pattern shape and tiler, one per inner output port.
        output_tilers: Vec<(Vec<usize>, Tiler)>,
    },
    /// A composite: parts wired by connections.
    Composite {
        /// Instantiated parts: instance name → component name.
        parts: Vec<(String, String)>,
        /// Connections between part ports and/or external ports.
        connections: Vec<Connection>,
    },
    /// Environment I/O linked to an IP (OpenCV in the paper): a video source.
    FrameSource,
    /// Environment I/O: a video sink.
    FrameSink,
}

/// An endpoint of a connection: either an external port of the enclosing
/// composite or a port of one of its parts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PartRef {
    /// External port of the composite itself.
    External {
        /// Port name.
        port: String,
    },
    /// A part's port.
    Part {
        /// Part instance name.
        part: String,
        /// Port name on the part's component.
        port: String,
    },
}

/// A dataflow connection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Connection {
    /// Producer endpoint.
    pub from: PartRef,
    /// Consumer endpoint.
    pub to: PartRef,
}

/// A named component.
#[derive(Debug, Clone, PartialEq)]
pub struct Component {
    /// Component name.
    pub name: String,
    /// Application vs platform side.
    pub stereotype: Stereotype,
    /// Ports.
    pub ports: Vec<Port>,
    /// Structure.
    pub kind: ComponentKind,
}

impl Component {
    /// Find a port by name.
    pub fn port(&self, name: &str) -> Option<&Port> {
        self.ports.iter().find(|p| p.name == name)
    }

    /// Input ports in declaration order.
    pub fn inputs(&self) -> impl Iterator<Item = &Port> {
        self.ports.iter().filter(|p| p.dir == PortDir::In)
    }

    /// Output ports in declaration order.
    pub fn outputs(&self) -> impl Iterator<Item = &Port> {
        self.ports.iter().filter(|p| p.dir == PortDir::Out)
    }
}

/// Kinds of hardware resources in the platform model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HwKind {
    /// The host CPU.
    Cpu,
    /// The compute device (GPU).
    Gpu,
}

/// The platform model: named `HwResource` components.
#[derive(Debug, Clone, PartialEq)]
pub struct Platform {
    /// Hardware resources: name → kind.
    pub resources: Vec<(String, HwKind)>,
}

impl Platform {
    /// The usual CPU-plus-GPU platform of the paper's test system.
    pub fn cpu_gpu() -> Self {
        Platform { resources: vec![("i7_930".into(), HwKind::Cpu), ("gtx480".into(), HwKind::Gpu)] }
    }

    /// Look up a resource kind.
    pub fn kind_of(&self, name: &str) -> Option<HwKind> {
        self.resources.iter().find(|(n, _)| n == name).map(|(_, k)| *k)
    }
}

/// The allocation model: which component runs on which resource.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Allocation {
    /// Component name → resource name.
    pub map: Vec<(String, String)>,
}

impl Allocation {
    /// Allocate `component` onto `resource`.
    pub fn allocate(mut self, component: &str, resource: &str) -> Self {
        self.map.push((component.into(), resource.into()));
        self
    }

    /// Resource a component is allocated to.
    pub fn resource_of(&self, component: &str) -> Option<&str> {
        self.map.iter().find(|(c, _)| c == component).map(|(_, r)| r.as_str())
    }
}

/// A complete application model: components plus the designated root.
#[derive(Debug, Clone, PartialEq)]
pub struct Model {
    /// Model name (the Papyrus project name, as it were).
    pub name: String,
    /// All components.
    pub components: Vec<Component>,
    /// Name of the root composite.
    pub root: String,
}

impl Model {
    /// Find a component by name.
    pub fn component(&self, name: &str) -> Option<&Component> {
        self.components.iter().find(|c| c.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use arrayol::WindowSpec;

    #[test]
    fn elementary_ops_reference_semantics() {
        let interp = ElementaryOp::InterpolateWindows {
            windows: vec![WindowSpec { offset: 0, len: 3 }, WindowSpec { offset: 2, len: 3 }],
            divisor: 3,
        };
        // pattern [1,2,3,4,5]: w0 = 6 -> 6/3 - 0 = 2; w1 = 12 -> 4 - 0 = 4.
        assert_eq!(interp.apply(&[1, 2, 3, 4, 5]), vec![2, 4]);
        assert_eq!(interp.out_len(5), 2);

        let aff = ElementaryOp::AffineMap { mul: 2, add: 1 };
        assert_eq!(aff.apply(&[1, 2]), vec![3, 5]);
        assert_eq!(ElementaryOp::SumReduce.apply(&[1, 2, 3]), vec![6]);
        assert_eq!(ElementaryOp::Copy.apply(&[7, 8]), vec![7, 8]);
    }

    #[test]
    fn interpolation_matches_paper_figure5() {
        // tmp0 = sum(in[0..6]); tile[0] = tmp0/6 - tmp0%6.
        let op = ElementaryOp::InterpolateWindows {
            windows: vec![
                WindowSpec { offset: 0, len: 6 },
                WindowSpec { offset: 2, len: 6 },
                WindowSpec { offset: 5, len: 6 },
            ],
            divisor: 6,
        };
        let pattern: Vec<i64> = (0..11).collect();
        let t0: i64 = (0..6).sum(); // 15
        let t1: i64 = (2..8).sum(); // 27
        let t2: i64 = (5..11).sum(); // 45
        assert_eq!(op.apply(&pattern), vec![t0 / 6 - t0 % 6, t1 / 6 - t1 % 6, t2 / 6 - t2 % 6]);
    }

    #[test]
    fn platform_and_allocation() {
        let p = Platform::cpu_gpu();
        assert_eq!(p.kind_of("gtx480"), Some(HwKind::Gpu));
        assert_eq!(p.kind_of("nope"), None);
        let a = Allocation::default().allocate("hf", "gtx480").allocate("fg", "i7_930");
        assert_eq!(a.resource_of("hf"), Some("gtx480"));
        assert_eq!(a.resource_of("xx"), None);
    }

    #[test]
    fn component_port_queries() {
        let c = Component {
            name: "hf".into(),
            stereotype: Stereotype::SwResource,
            ports: vec![
                Port { name: "in".into(), dir: PortDir::In, shape: vec![4, 8] },
                Port { name: "out".into(), dir: PortDir::Out, shape: vec![4, 3] },
            ],
            kind: ComponentKind::Elementary { op: ElementaryOp::Copy },
        };
        assert!(c.port("in").is_some());
        assert_eq!(c.inputs().count(), 1);
        assert_eq!(c.outputs().count(), 1);
    }
}
