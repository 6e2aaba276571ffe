//! Route-agnostic launch plans and the batch scheduler that executes them.
//!
//! Both compilation routes of the study — SaC→CUDA and the GASPARD2 MDE
//! chain → OpenCL — bottom out in the same GPU execution shape: per frame,
//! upload source arrays, launch a fixed kernel sequence, read results back,
//! with occasional host-side fallback steps in between. This module captures
//! that shape once, as data:
//!
//! * [`LaunchPlan`] — the route-agnostic per-frame IR: declared arrays,
//!   which of them are frame inputs/outputs, the kernel table, and an
//!   ordered list of [`PlanStep`]s (`Upload`/`Alloc`/`Launch`/`Download`/
//!   `Host`). Buffer lifetimes are implied by the step order and checked up
//!   front by [`LaunchPlan::validate`].
//! * [`BatchScheduler`] — the single executor both routes lower onto. It
//!   owns everything the routes used to duplicate: multi-stream lane
//!   assignment with double-buffered frame pipelining, per-lane buffer sets,
//!   the out-of-memory degradation ladder (halve lanes, free, note, retry),
//!   chunked transfers, timing replay of measured frames
//!   ([`ScheduleWitness`]), and [`RunStats`]/profiler accounting.
//!
//! A route front end only builds a `LaunchPlan` from its own program
//! representation (a compiled WITH-loop plan, a scheduled component model);
//! [`run_plan`] runs it (planopt, then the scheduler). Everything below the
//! plan is shared, so stream pipelining, pooled allocation and OOM
//! degradation land once and apply to every route.

use crate::device::{BufferId, Device, StreamId};
use crate::exec::LaunchConfig;
use crate::kir::{Kernel, KernelArg, Param};
use crate::profiler::{OpClass, Profiler, Slot};
use crate::SimError;
use mdarray::NdArray;
use std::borrow::Cow;
use std::sync::Arc;

/// A device array declared by a [`LaunchPlan`], identified by its index in
/// [`LaunchPlan::arrays`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArrayDecl {
    /// Human-readable name, used in diagnostics.
    pub name: String,
    /// Array shape; the element count is its product.
    pub shape: Vec<usize>,
}

impl ArrayDecl {
    /// Number of elements.
    pub fn len(&self) -> usize {
        self.shape.iter().product()
    }

    /// Whether the array has no elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// One ordered step of a [`LaunchPlan`] frame, documented by its effect on
/// the host and device copies of the arrays it names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanStep {
    /// A **transfer** of one array to the device as `chunks` back-to-back
    /// transfers (allocating its buffer on first use); then both copies agree.
    Upload {
        /// Array id.
        array: usize,
        /// Requested transfer chunks (see [`chunks_for`]).
        chunks: usize,
    },
    /// An **allocation**: the array's device buffer exists (a no-op if it
    /// already does) but holds no value of this frame yet.
    Alloc {
        /// Array id.
        array: usize,
    },
    /// **Compute on the device**: a kernel from the plan's kernel table reads
    /// every argument, then writes its writable ones, leaving their host
    /// copies stale.
    Launch {
        /// Index into [`LaunchPlan::kernels`].
        kernel: usize,
    },
    /// A **transfer** of one array to the host as `chunks` transfers, after
    /// which both copies agree.
    Download {
        /// Array id.
        array: usize,
        /// Requested transfer chunks (see [`chunks_for`]).
        chunks: usize,
    },
    /// **Compute on the host**: a fallback step from the plan's host-op table
    /// reads its inputs, then writes its target, leaving its device copy stale.
    Host {
        /// Index into [`LaunchPlan::host_ops`].
        op: usize,
    },
    /// A **transfer** of several arrays to the device as one batch (one
    /// latency for the summed bytes). Produced by the planopt coalescing
    /// pass; routes do not emit it directly.
    UploadBatch {
        /// Index into [`LaunchPlan::batches`] naming the arrays, in order.
        batch: usize,
    },
    /// A batched **transfer** of several arrays to the host — the D2H
    /// counterpart of [`PlanStep::UploadBatch`].
    DownloadBatch {
        /// Index into [`LaunchPlan::batches`] naming the arrays, in order.
        batch: usize,
    },
}

/// A kernel the plan can launch: executable IR plus its launch configuration
/// and the array ids bound to its buffer parameters, in parameter order.
#[derive(Debug, Clone)]
pub struct PlanKernel<'a> {
    /// The executable kernel IR — borrowed from the route's compiled program,
    /// or owned when a planopt pass (kernel fusion) synthesised it.
    pub kernel: Cow<'a, Kernel>,
    /// Grid/block configuration.
    pub config: LaunchConfig,
    /// Array ids bound to the kernel's buffer parameters, in order.
    pub args: Vec<usize>,
    /// How the launch touches its arrays in the o/F/P vocabulary, when the
    /// route frontend could describe it (single input, single output,
    /// tiler-addressed). The planopt `fusion` pass composes adjacent
    /// descriptions; launches without one are simply never fused.
    pub access: Option<arrayol::access::TiledAccess>,
}

impl<'a> PlanKernel<'a> {
    /// A plan kernel borrowing route-compiled IR, with no access description.
    pub fn new(kernel: &'a Kernel, config: LaunchConfig, args: Vec<usize>) -> Self {
        PlanKernel { kernel: Cow::Borrowed(kernel), config, args, access: None }
    }

    /// Attach a tiled-access description (builder style).
    pub fn with_access(mut self, access: arrayol::access::TiledAccess) -> Self {
        self.access = Some(access);
        self
    }

    /// Array ids bound to *writable* buffer parameters — the arrays a launch
    /// of this kernel may modify on the device. Used by the residency walk
    /// (a device write leaves any host copy stale) and by the planopt
    /// passes.
    pub fn written_args(&self) -> impl Iterator<Item = usize> + '_ {
        self.kernel
            .params
            .iter()
            .filter(|p| matches!(p, Param::Buffer { .. }))
            .zip(&self.args)
            .filter_map(|(p, &a)| match p {
                Param::Buffer { writable: true, .. } => Some(a),
                _ => None,
            })
    }
}

/// The signature of a host-side fallback step: given the host arrays named
/// by [`HostOp::reads`] (in that order), produce the result array and the
/// number of abstract host operations consumed (which the scheduler converts
/// to simulated time via [`ExecOptions::host_ns_per_op`]).
///
/// Reference-counted so a [`LaunchPlan`] can be cloned cheaply (a lowered
/// plan is reused as the starting point of several rewrites).
pub type HostFn<'a> =
    std::rc::Rc<dyn Fn(&[NdArray<i64>]) -> Result<(NdArray<i64>, u64), String> + 'a>;

/// A host-side fallback step (e.g. the SaC generic output tiler, which the
/// backend could not lower to a kernel).
#[derive(Clone)]
pub struct HostOp<'a> {
    /// Name charged to the profiler for the step's simulated time.
    pub name: String,
    /// Array id the step produces (host-resident afterwards).
    pub target: usize,
    /// Array ids the step consumes, in the order `run` expects them.
    pub reads: Vec<usize>,
    /// The step itself.
    pub run: HostFn<'a>,
}

impl std::fmt::Debug for HostOp<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HostOp")
            .field("name", &self.name)
            .field("target", &self.target)
            .field("reads", &self.reads)
            .finish_non_exhaustive()
    }
}

/// A cross-frame data dependency: after frame `f` completes, the
/// host-resident value of array [`Carry::from`] becomes frame `f+1`'s
/// binding for the input array [`Carry::to`], replacing whatever the caller
/// supplied for that position (the caller's value seeds frame 0 only).
///
/// Carries express temporal workloads — motion detection, delta encoding —
/// where frame `f` reads a value produced while processing frame `f-1`.
/// They come at a pipelining cost the scheduler models honestly: a frame
/// with an incoming carry cannot start before its predecessor finishes, so
/// a plan with carries runs every frame on one lane, whatever
/// [`ExecOptions::streams`] asks for. Stream order then keeps each frame
/// behind its predecessor, and a [`ScheduleWitness`] replays that order
/// exactly.
///
/// [`LaunchPlan::validate`] requires `from`/`to` to be declared arrays of
/// equal shape, `to` to be a frame input that is not frame-invariant, at
/// most one carry per target, and `from` to be host-resident at frame end
/// (like an output — the value must exist to be carried).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Carry {
    /// Array id whose end-of-frame host value is carried forward.
    pub from: usize,
    /// Input array id the carried value is bound to on the next frame.
    pub to: usize,
}

/// A route-agnostic per-frame execution plan.
///
/// Executing a frame means: bind the frame's input arrays to
/// [`LaunchPlan::inputs`], walk [`LaunchPlan::steps`] in order, and collect
/// the host-resident [`LaunchPlan::outputs`]. The same plan is executed for
/// every frame of a batch; buffer lifetimes (which step may assume an array
/// is on the device or on the host) follow from the step order and are
/// checked once per batch by [`LaunchPlan::validate`].
#[derive(Debug, Clone)]
pub struct LaunchPlan<'a> {
    /// Every array the plan touches, indexed by the ids steps use.
    pub arrays: Vec<ArrayDecl>,
    /// Array ids bound positionally to a frame's input arrays.
    pub inputs: Vec<usize>,
    /// Array ids collected (host-resident) as a frame's results, in order.
    pub outputs: Vec<usize>,
    /// Kernel table referenced by [`PlanStep::Launch`].
    pub kernels: Vec<PlanKernel<'a>>,
    /// Host-op table referenced by [`PlanStep::Host`].
    pub host_ops: Vec<HostOp<'a>>,
    /// The ordered per-frame steps.
    pub steps: Vec<PlanStep>,
    /// Steps run once per lane, before that lane's first frame — uploads of
    /// frame-invariant arrays (and their allocations) hoisted out of the
    /// per-frame loop by the planopt cross-frame residency pass. Restricted
    /// to `Upload`/`Alloc`, and every uploaded array must be listed in
    /// [`LaunchPlan::invariant`]. Timing replay extends the *warm* (post-
    /// prologue) frame schedule, so batches should execute at least one
    /// functional frame per lane when a prologue is present.
    pub prologue: Vec<PlanStep>,
    /// Array ids the route declares content-independent across frames
    /// (filter constants, lookup tables). Only these may be uploaded in the
    /// prologue; they must be frame inputs and must never be written on the
    /// device or re-produced by a host op.
    pub invariant: Vec<usize>,
    /// Array-id groups referenced by [`PlanStep::UploadBatch`] /
    /// [`PlanStep::DownloadBatch`]. A side table keeps [`PlanStep`] `Copy`.
    pub batches: Vec<Vec<usize>>,
    /// Cross-frame dependencies: each frame's end-of-frame host value of
    /// [`Carry::from`] becomes the next frame's binding for the input
    /// [`Carry::to`]. Empty for the ordinary stateless-frame plans; when
    /// non-empty, frames run on one lane (see [`Carry`]).
    pub carries: Vec<Carry>,
    /// What a pipeline lane is called in this route's vocabulary ("stream
    /// lanes" for CUDA, "command queues" for OpenCL) — used verbatim in the
    /// OOM-degradation profiler note.
    pub lane_label: &'static str,
}

/// Return a [`ScheduleError::Plan`] whose message is built like `format!`.
macro_rules! bail {
    ($($msg:tt)*) => {
        return Err(ScheduleError::Plan(format!($($msg)*)))
    };
}

impl LaunchPlan<'_> {
    /// Check the plan's internal consistency and buffer lifetimes without
    /// touching a device: every index in range, every launch binding one
    /// array to each buffer parameter of its kernel, and a walk of the
    /// step-effect table (see [`PlanStep`]) proving that each transfer finds
    /// its source copy resident, each compute step finds its reads resident
    /// on its side, and every declared output and carry source is
    /// host-resident at frame end.
    ///
    /// [`BatchScheduler::run`] performs this check once per batch, so a
    /// malformed plan fails fast instead of mid-frame with the device
    /// timeline already half-charged.
    pub fn validate(&self) -> Result<(), ScheduleError> {
        let arr = |id: usize, what: &str| self.declared(id, what);
        let name = |id: usize| &self.arrays[id].name;
        for (id, a) in self.arrays.iter().enumerate() {
            // `ArrayDecl::len` returns 1 for a rank-0 shape (empty product)
            // and `chunks_for` is undefined for a zero-sized leading
            // dimension, so both degenerate declarations are rejected here
            // instead of reaching the device layer.
            if a.shape.is_empty() || a.shape.contains(&0) {
                bail!("array {id} '{}' declares a zero-element shape {:?}", a.name, a.shape);
            }
            if a.shape.iter().try_fold(1usize, |n, &d| n.checked_mul(d)).is_none() {
                bail!("array {id} '{}' shape {:?} has more elements than a usize", a.name, a.shape);
            }
        }
        self.inputs.iter().try_for_each(|&id| arr(id, "input list"))?;
        // A frame's outputs are moved off the host, so each is listed once.
        for (i, &id) in self.outputs.iter().enumerate() {
            arr(id, "output list")?;
            if self.outputs[..i].contains(&id) {
                bail!("output list names array '{}' twice", name(id));
            }
        }
        for k in &self.kernels {
            for &a in &k.args {
                arr(a, &format!("kernel '{}'", k.kernel.name))?;
            }
            // The scheduler binds one array to each parameter, and only buffers.
            let (params, args) = (&k.kernel.params, k.args.len());
            if args != params.len() || params.iter().any(|p| matches!(p, Param::Scalar { .. })) {
                let n = params.len();
                bail!(
                    "kernel '{}' binds {args} array(s) to {n} parameter(s), not one per buffer",
                    k.kernel.name
                );
            }
        }
        for op in &self.host_ops {
            for &a in std::iter::once(&op.target).chain(&op.reads) {
                arr(a, &format!("host op '{}'", op.name))?;
            }
        }
        for (b, batch) in self.batches.iter().enumerate() {
            if batch.is_empty() {
                bail!("transfer batch {b} is empty");
            }
            for &a in batch {
                arr(a, &format!("transfer batch {b}"))?;
            }
        }

        // The prologue runs once per lane, so its effects must be valid on
        // every subsequent (warm) frame: only uploads of declared
        // frame-invariant inputs and allocations may be hoisted there, and an
        // invariant array must never be written on the device or re-produced
        // by a host op (a warm frame would then see the stale first-frame
        // content).
        for &id in &self.invariant {
            arr(id, "invariant list")?;
            if !self.inputs.contains(&id) {
                bail!("invariant array '{}' is not a frame input", name(id));
            }
            if let Some(k) = self.kernels.iter().find(|k| k.written_args().any(|a| a == id)) {
                bail!("invariant array '{}' is written by kernel '{}'", name(id), k.kernel.name);
            }
            if let Some(h) = self.host_ops.iter().find(|h| h.target == id) {
                bail!("invariant array '{}' is produced by host op '{}'", name(id), h.name);
            }
        }
        for step in &self.prologue {
            match *step {
                PlanStep::Upload { array, .. } => {
                    arr(array, "prologue upload")?;
                    if !self.invariant.contains(&array) {
                        bail!(
                            "prologue uploads array '{}' that is not declared frame-invariant",
                            name(array)
                        );
                    }
                }
                PlanStep::Alloc { array } => arr(array, "prologue alloc")?,
                _ => bail!("prologue may only contain Upload and Alloc steps"),
            }
        }

        // Carries rebind an input between frames, so the target must be a
        // non-invariant frame input (an invariant array's prologue upload
        // would go stale the moment the carry rebinds it), shapes must
        // agree (the carried value replaces a declared input verbatim), and
        // two carries must not race for one target.
        for (i, c) in self.carries.iter().enumerate() {
            arr(c.from, "carry source")?;
            arr(c.to, "carry target")?;
            if !self.inputs.contains(&c.to) {
                bail!("carry target '{}' is not a frame input", name(c.to));
            }
            if self.invariant.contains(&c.to) {
                bail!("carry target '{}' is declared frame-invariant", name(c.to));
            }
            let (from, to) = (&self.arrays[c.from], &self.arrays[c.to]);
            if from.shape != to.shape {
                bail!(
                    "carry source '{}' shape {:?} does not match target '{}' shape {:?}",
                    from.name,
                    from.shape,
                    to.name,
                    to.shape
                );
            }
            if self.carries[..i].iter().any(|p| p.to == c.to) {
                bail!("array '{}' is the target of more than one carry", name(c.to));
            }
        }

        // Lifetime walk over the step-effect table, from the frame inputs and
        // the prologue's effects. The prologue only makes invariant inputs
        // device-resident, so one walk covers cold and warm frames. Residency
        // is presence, not value: an allocation makes its buffer resident.
        let mut resident = [vec![false; self.arrays.len()], vec![false; self.arrays.len()]];
        for &id in &self.inputs {
            resident[Side::Host][id] = true;
        }
        for step in self.prologue.iter().chain(&self.steps) {
            match self.effect(step)? {
                Effect::Alloc(a) => resident[Side::Device][a] = true,
                Effect::Transfer { to, arrays, batched } => {
                    let batched = if batched { "batched " } else { "" };
                    let (what, from) = match to {
                        Side::Device => ("upload", "host"),
                        Side::Host => ("download", "device"),
                    };
                    for &a in arrays {
                        if !resident[to.other()][a] {
                            bail!(
                                "{batched}{what} of array '{}' before it is {from}-resident",
                                name(a)
                            );
                        }
                        resident[to][a] = true;
                    }
                }
                Effect::Compute { on, name: step, reads, writes } => {
                    let (what, operand, side) = match on {
                        Side::Device => ("kernel", "argument", "device"),
                        Side::Host => ("host op", "input", "host"),
                    };
                    if let Some(&a) = reads.iter().find(|&&a| !resident[on][a]) {
                        bail!("{what} '{step}' {operand} '{}' is not {side}-resident", name(a));
                    }
                    for a in writes.iter() {
                        resident[on][a] = true;
                        resident[on.other()][a] = false;
                    }
                }
            }
        }
        if let Some(&id) = self.outputs.iter().find(|&&id| !resident[Side::Host][id]) {
            bail!("output '{}' is not host-resident at frame end", name(id));
        }
        // A carried value is read off the host after the frame, exactly
        // like an output.
        if let Some(c) = self.carries.iter().find(|c| !resident[Side::Host][c.from]) {
            bail!("carry source '{}' is not host-resident at frame end", name(c.from));
        }
        Ok(())
    }

    /// `Ok` when `id` is a declared array; otherwise the error names `what`
    /// referenced it.
    fn declared(&self, id: usize, what: &str) -> Result<(), ScheduleError> {
        if id >= self.arrays.len() {
            bail!("{what} references undeclared array {id}");
        }
        Ok(())
    }

    /// What `step` reads and writes: the step-effect table behind
    /// [`LaunchPlan::validate`] and every planopt dataflow pass. It resolves
    /// the step's own index (array, kernel, host op or batch) and chunk count,
    /// refusing what the plan cannot honour.
    pub(crate) fn effect<'p>(&'p self, step: &'p PlanStep) -> Result<Effect<'p>, ScheduleError> {
        let one = |array: &'p usize, chunks: usize, what: &str, to: Side| {
            self.declared(*array, what)?;
            let a = &self.arrays[*array];
            if chunks == 0 || chunks > a.len() {
                bail!("{what} of array '{}' in {chunks} chunks: {} element(s)", a.name, a.len());
            }
            Ok(Effect::Transfer { to, arrays: std::slice::from_ref(array), batched: false })
        };
        let batch = |b: usize, to: Side| match self.batches.get(b) {
            Some(arrays) => Ok(Effect::Transfer { to, arrays, batched: true }),
            None => bail!("step references unknown batch {b}"),
        };
        match *step {
            PlanStep::Upload { ref array, chunks } => one(array, chunks, "upload", Side::Device),
            PlanStep::Download { ref array, chunks } => one(array, chunks, "download", Side::Host),
            PlanStep::UploadBatch { batch: b } => batch(b, Side::Device),
            PlanStep::DownloadBatch { batch: b } => batch(b, Side::Host),
            PlanStep::Alloc { array: a } => self.declared(a, "alloc").map(|()| Effect::Alloc(a)),
            PlanStep::Launch { kernel } => {
                let Some(k) = self.kernels.get(kernel) else {
                    bail!("launch references unknown kernel {kernel}");
                };
                let (name, reads, writes) = (&k.kernel.name, &k.args, Writes(None, Some(k)));
                Ok(Effect::Compute { on: Side::Device, name, reads, writes })
            }
            PlanStep::Host { op } => {
                let Some(h) = self.host_ops.get(op) else {
                    bail!("step references unknown host op {op}");
                };
                let (name, reads, writes) = (&h.name, &h.reads, Writes(Some(h.target), None));
                Ok(Effect::Compute { on: Side::Host, name, reads, writes })
            }
        }
    }
}

/// Which copy of an array a step acts on; indexes a walk's per-side state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Side {
    Host,
    Device,
}

impl Side {
    /// The opposite copy.
    pub(crate) fn other(self) -> Side {
        [Side::Device, Side::Host][self]
    }
}

impl<T> std::ops::Index<Side> for [T; 2] {
    type Output = T;
    fn index(&self, side: Side) -> &T {
        &self[side as usize]
    }
}

impl<T> std::ops::IndexMut<Side> for [T; 2] {
    fn index_mut(&mut self, side: Side) -> &mut T {
        &mut self[side as usize]
    }
}

/// What one [`PlanStep`] does to the host and device copies of the arrays
/// it names ([`LaunchPlan::effect`]).
#[derive(Debug, Clone, Copy)]
pub(crate) enum Effect<'p> {
    /// A device buffer for the array exists but holds no value of this
    /// frame yet.
    Alloc(usize),
    /// `arrays` move from the other side to `to` — one transfer, or one
    /// `batched` operation — after which both copies agree.
    Transfer { to: Side, arrays: &'p [usize], batched: bool },
    /// Compute `name` on side `on`: it reads `reads` there and then writes
    /// `writes` there, leaving the other side's copies of `writes` stale.
    Compute { on: Side, name: &'p str, reads: &'p [usize], writes: Writes<'p> },
}

/// The arrays an [`Effect::Compute`] step writes: a host op's target, or a
/// launch's arguments bound to writable parameters
/// ([`PlanKernel::written_args`]).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Writes<'p>(Option<usize>, Option<&'p PlanKernel<'p>>);

impl<'p> Writes<'p> {
    /// The written array ids.
    pub(crate) fn iter(self) -> impl Iterator<Item = usize> + 'p {
        self.0.into_iter().chain(self.1.into_iter().flat_map(PlanKernel::written_args))
    }
}

/// Errors from plan construction, validation, or execution.
#[derive(Debug, Clone, PartialEq)]
pub enum ScheduleError {
    /// Simulator failure (out of memory, bad launch, …).
    Sim(SimError),
    /// A host value did not fit a device `int`.
    Overflow {
        /// The offending value.
        value: i64,
    },
    /// A frame's input arrays did not match the plan's declarations.
    Input(String),
    /// The plan is internally inconsistent (bad index, lifetime violation).
    Plan(String),
    /// A host-side fallback step failed.
    Host(String),
    /// The execution options are invalid (see [`ExecOptions::validate`]).
    Config(String),
}

impl std::fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScheduleError::Sim(e) => write!(f, "simulator: {e}"),
            ScheduleError::Overflow { value } => {
                write!(f, "value {value} does not fit a device int")
            }
            ScheduleError::Input(m) => write!(f, "bad frame input: {m}"),
            ScheduleError::Plan(m) => write!(f, "inconsistent launch plan: {m}"),
            ScheduleError::Host(m) => write!(f, "host step: {m}"),
            ScheduleError::Config(m) => write!(f, "bad execution options: {m}"),
        }
    }
}

impl std::error::Error for ScheduleError {}

impl From<SimError> for ScheduleError {
    /// A refused upload's [`SimError::Overflow`] is the scheduler's own
    /// [`ScheduleError::Overflow`]; every other device failure is wrapped.
    fn from(e: SimError) -> Self {
        match e {
            SimError::Overflow { value } => ScheduleError::Overflow { value },
            e => ScheduleError::Sim(e),
        }
    }
}

/// Counters from one scheduler run (accumulated over every frame, including
/// timing-replayed ones).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunStats {
    /// Kernel launches performed.
    pub launches: usize,
    /// Host-to-device transfers actually issued (after the chunk-fallback
    /// rule; a batched upload counts as one transfer).
    pub h2d: usize,
    /// Device-to-host transfers actually issued (after the chunk-fallback
    /// rule; a batched download counts as one transfer).
    pub d2h: usize,
    /// Bytes moved host-to-device.
    pub h2d_bytes: usize,
    /// Bytes moved device-to-host.
    pub d2h_bytes: usize,
    /// Host steps interpreted.
    pub host_steps: usize,
    /// Abstract host ops consumed by host steps.
    pub host_ops: u64,
}

impl RunStats {
    /// Fold another run's counters into this one.
    pub fn accumulate(&mut self, other: &RunStats) {
        self.launches += other.launches;
        self.h2d += other.h2d;
        self.d2h += other.d2h;
        self.h2d_bytes += other.h2d_bytes;
        self.d2h_bytes += other.d2h_bytes;
        self.host_steps += other.host_steps;
        self.host_ops += other.host_ops;
    }
}

/// The measured span schedule of one run: the timing witness every replay
/// in the workspace charges.
///
/// Per-frame cost is content-independent under the cost model (fixed
/// shapes, data-independent trip counts), so the spans a functional run
/// charged — names, op classes and exact durations, in enqueue order — time
/// every other run of the same shape exactly. [`ScheduleWitness::capture`]
/// takes them from a profiler together with the run's [`RunStats`], mapping
/// each capture-time stream onto a dense lane slot (in order of first
/// appearance) once; [`ScheduleWitness::replay`] charges them again, slot
/// `k` on the `k`-th stream it is given, at zero compute cost. The
/// [`BatchScheduler`] replays its warm frame this way, and the serving layer
/// replays whole jobs.
///
/// The witness keeps each distinct `(name, class)` once. A replay resolves
/// them to record slots of the *target* device's profiler (which need not
/// be the capture device's) once per call, then charges every span by slot.
///
/// Replay is exact by construction because the only orderings a scheduled
/// run has are stream order (within a lane slot) and engine order (across
/// slots), and re-enqueueing the spans in capture order on a synchronized
/// device reproduces both. Cross-frame dependencies are no exception: a
/// plan with [`Carry`]s runs on one lane, so its frame order is stream
/// order.
#[derive(Debug, Clone, Default)]
pub struct ScheduleWitness {
    /// The distinct `(name, class)` of the captured spans, in order of
    /// first appearance.
    ops: Vec<(Arc<str>, OpClass)>,
    /// The captured spans in enqueue order.
    spans: Vec<WitnessSpan>,
    /// Number of distinct lane slots.
    lanes: usize,
    stats: RunStats,
}

/// One captured span: which operation, on which lane slot, for how long.
#[derive(Debug, Clone, Copy, PartialEq)]
struct WitnessSpan {
    /// Index into [`ScheduleWitness::ops`].
    op: usize,
    lane: usize,
    /// Exact charged duration, µs.
    dur_us: f64,
}

impl ScheduleWitness {
    /// Capture the spans `profiler` recorded after its first `span_mark`,
    /// paired with the `stats` of the run that charged them.
    pub fn capture(profiler: &Profiler, span_mark: usize, stats: RunStats) -> Self {
        let mut slot_streams: Vec<usize> = Vec::new();
        let mut ops: Vec<(Arc<str>, OpClass)> = Vec::new();
        let spans = profiler
            .spans()
            .skip(span_mark)
            .map(|sp| {
                let lane = slot_streams.iter().position(|&s| s == sp.stream).unwrap_or_else(|| {
                    slot_streams.push(sp.stream);
                    slot_streams.len() - 1
                });
                let op = ops.iter().position(|(n, c)| *c == sp.class && &**n == sp.name);
                let op = op.unwrap_or_else(|| {
                    ops.push((sp.name.into(), sp.class));
                    ops.len() - 1
                });
                WitnessSpan { op, lane, dur_us: sp.dur_us }
            })
            .collect();
        ScheduleWitness { ops, spans, lanes: slot_streams.len(), stats }
    }

    /// Number of lane slots (distinct capture-time streams).
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Charge every captured span on `device` without functional work, slot
    /// `k` on `streams[k]`, and return the captured run's counters. The
    /// device is left unsynchronized, like any other enqueue.
    pub fn replay(
        &self,
        device: &mut Device,
        streams: &[StreamId],
    ) -> Result<&RunStats, ScheduleError> {
        self.replay_runs(device, [streams])?;
        Ok(&self.stats)
    }

    /// Charge the witness once per element of `runs`, in order, each run's
    /// slot `k` on its `k`-th stream, resolving the witness's operations to
    /// `device`'s record slots once for all runs. A run is checked before
    /// any of its spans is charged, so a bad stream set charges nothing of
    /// that run (runs before it stay charged).
    fn replay_runs<'s>(
        &self,
        device: &mut Device,
        runs: impl IntoIterator<Item = &'s [StreamId]>,
    ) -> Result<(), ScheduleError> {
        let mut slots: Vec<Slot> = Vec::new();
        for streams in runs {
            if streams.len() < self.lanes {
                return Err(ScheduleError::Config(format!(
                    "replaying a {}-lane schedule witness needs {} streams, got {}",
                    self.lanes,
                    self.lanes,
                    streams.len()
                )));
            }
            for &s in &streams[..self.lanes] {
                device.stream_tail(s)?;
            }
            if slots.len() < self.ops.len() {
                slots = self.ops.iter().map(|(n, c)| device.profiler.slot(n, *c)).collect();
            }
            for sp in &self.spans {
                device.schedule_slot(slots[sp.op], streams[sp.lane], sp.dur_us);
            }
        }
        Ok(())
    }
}

/// Simulated nanoseconds per abstract host-fallback operation: the default
/// [`ExecOptions::host_ns_per_op`]. Calibrated alongside the sequential cost
/// model (see the bench crate's `calibration` module): one abstract op of the
/// generic output tiler's scatter nest corresponds to a fraction of a
/// compiled-C nanosecond.
pub const HOST_NS_PER_OP: f64 = 0.12;

/// The one options struct every batch runs under.
///
/// Each of its eight fields has one reader. [`BatchScheduler::run`] reads
/// `streams`, `total_frames`, `host_ns_per_op`, `pool` and `degrade_on_oom`;
/// [`run_plan`] reads `optimize` before handing the plan to it;
/// [`ExecOptions::executed_of`] reads `executed` for the batch drivers that
/// build the frame list; and whoever lowers the SaC route passes
/// `channel_chunks` to its `lower_plan`. Carrying them in one struct means
/// an option set composed for an experiment (streams × pool × degradation ×
/// replay) is a single value that flows through every layer unchanged. The
/// cost model is not an option: it is fixed when the device is built
/// ([`Device::new`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExecOptions {
    /// Number of pipeline lanes: streams (CUDA) / command queues (OpenCL) =
    /// number of device buffer sets. `1` runs fully serialized on the
    /// default stream, reproducing the one-frame-at-a-time executors
    /// exactly; `2` double-buffers so frame `f+1`'s upload overlaps frame
    /// `f`'s kernels and frame `f-1`'s download. Lane `k` runs on the
    /// device's stream `k`. A plan with [`Carry`]s ignores this and runs on
    /// one lane, since its frames cannot overlap. Must be `>= 1`
    /// ([`ExecOptions::validate`]).
    pub streams: usize,
    /// Frames a batch driver executes functionally, read through
    /// [`ExecOptions::executed_of`]; the scenario's remaining frames are
    /// timing-replayed. `0` executes every frame.
    pub executed: usize,
    /// When greater than the number of supplied frames, the timing of the
    /// remaining frames is *replayed* from the first frame's measured
    /// per-operation durations instead of executing them functionally.
    /// Exact under the cost model whenever per-frame cost is
    /// content-independent (fixed shapes; host steps whose trip counts do
    /// not depend on data). `0` means "the supplied frames"; any other
    /// value below the number of supplied frames is refused by
    /// [`BatchScheduler::run`] as a [`ScheduleError::Config`].
    pub total_frames: usize,
    /// SaC route lowering only: when non-zero, arrays whose leading dimension
    /// equals this value are transferred as one chunk per leading slice
    /// (per colour channel), the way the paper's runtimes stream frames —
    /// Tables I/II count 900 transfers for 300 three-channel frames. See
    /// [`chunks_for`].
    pub channel_chunks: usize,
    /// Simulated nanoseconds per abstract host-fallback operation (the SaC
    /// generic output tiler's cost model).
    pub host_ns_per_op: f64,
    /// Enable the device's size-class memory pool for the batch:
    /// [`BatchScheduler::run`] applies it with [`Device::set_pool_enabled`]
    /// before the first frame, so turning it off trims the pool. Off by
    /// default — the naive allocator is what the paper's profiles were
    /// calibrated against.
    pub pool: bool,
    /// When a batch attempt fails with [`SimError::OutOfMemory`], release
    /// that attempt's device buffers, halve the number of lanes and retry
    /// the whole batch instead of failing — the degradation ladder
    /// `streams → streams/2 → … → 1`. Each downgrade is surfaced as a
    /// profiler note, and the failed attempt's simulated time stays charged
    /// (a real runtime pays for the work it abandons). Results are
    /// bit-identical at any lane count, so degradation only trades makespan
    /// for footprint. Off by default.
    pub degrade_on_oom: bool,
    /// Which [`crate::planopt`] passes [`run_plan`] runs over the plan
    /// before scheduling. [`crate::planopt::PlanOptLevel::OFF`] (the
    /// default) leaves the plan exactly as lowered, so every paper-faithful
    /// number is untouched unless an experiment opts in.
    pub optimize: crate::planopt::PlanOptLevel,
}

impl Default for ExecOptions {
    fn default() -> Self {
        ExecOptions {
            streams: 1,
            executed: 0,
            total_frames: 0,
            channel_chunks: 0,
            host_ns_per_op: HOST_NS_PER_OP,
            pool: false,
            degrade_on_oom: false,
            optimize: crate::planopt::PlanOptLevel::OFF,
        }
    }
}

impl ExecOptions {
    /// Frames a batch driver executes functionally out of a `total`-frame
    /// batch: [`ExecOptions::executed`] capped at `total`, or all of them
    /// when it is `0`. The rest are timing-replayed.
    pub fn executed_of(&self, total: usize) -> usize {
        if self.executed == 0 {
            total
        } else {
            self.executed.min(total)
        }
    }

    /// Reject configurations the executors cannot honour. `streams: 0`
    /// previously slipped through one route's entry point and hit a
    /// `max(1)` deep inside the executor, silently meaning something
    /// different from what was asked; both routes now go through this one
    /// check.
    pub fn validate(&self) -> Result<(), String> {
        if self.streams == 0 {
            return Err("streams must be >= 1 (1 = the serialized baseline)".into());
        }
        Ok(())
    }
}

/// Transfers split per leading slice when the leading dimension matches the
/// configured channel count: a rank-≥2 array of shape `[channel_chunks, …]`
/// moves as `channel_chunks` back-to-back transfers (one per colour plane),
/// anything else as a single transfer. With `channel_chunks <= 1` chunking
/// is disabled entirely.
pub fn chunks_for(shape: &[usize], channel_chunks: usize) -> usize {
    if channel_chunks > 1 && shape.len() >= 2 && shape[0] == channel_chunks {
        channel_chunks
    } else {
        1
    }
}

/// A scheduler run's data result: one output-array vector per functionally
/// executed frame (the plan's outputs, in declared order), plus the step
/// counters for the whole batch.
pub type BatchOutput = (Vec<Vec<NdArray<i64>>>, RunStats);

/// The shared batch executor: drives a [`LaunchPlan`] over a batch of frames
/// with multi-stream double buffering, timing replay, and optional OOM
/// degradation.
///
/// Frame `f` is assigned lane `f % lanes` — the device's stream `f % lanes`
/// plus that lane's private buffer set — so same-buffer reuse is protected
/// by same-stream ordering while adjacent frames overlap their H2D /
/// compute / D2H phases on the device's three engines: the classic CUDA
/// async-stream frame pipeline, which is also exactly what in-order OpenCL
/// command queues give the other route. Buffer sets are allocated on demand
/// and reused across frames (allocation is free in simulated time at the
/// paper calibration, so the 1-lane case still matches the serial
/// executors' clock bit-for-bit).
#[derive(Debug)]
pub struct BatchScheduler<'a> {
    plan: &'a LaunchPlan<'a>,
}

impl<'a> BatchScheduler<'a> {
    /// A scheduler for `plan`.
    pub fn new(plan: &'a LaunchPlan<'a>) -> Self {
        BatchScheduler { plan }
    }

    /// Execute a batch of frames.
    ///
    /// Returns one result-array vector per *functionally executed* frame
    /// (the plan's outputs, in declared order) plus counters covering all
    /// `total_frames` — timing-replayed frames contribute their counters
    /// and profiler records but no arrays. The device is synchronized on
    /// return, so `device.now_us()` is the batch makespan. A non-zero
    /// `total_frames` below `frames.len()` is a [`ScheduleError::Config`]
    /// raised before the device is touched.
    ///
    /// The frames are borrowed, never copied: an upload narrows each host
    /// value into its device buffer in one copy
    /// ([`Device::host2device_on`]), and a download widens the buffer
    /// straight into the output array ([`Device::device2host_on`]).
    ///
    /// The plan runs exactly as given: [`ExecOptions::optimize`] is
    /// [`run_plan`]'s business. [`ExecOptions::pool`] is applied to the
    /// device before the first frame.
    ///
    /// With [`ExecOptions::degrade_on_oom`] set, an `OutOfMemory` failure
    /// frees the attempt's buffers and restarts the batch at half the lanes
    /// (down to 1) instead of propagating; each downgrade is recorded as a
    /// profiler note using the plan's [`LaunchPlan::lane_label`].
    pub fn run(
        &self,
        device: &mut Device,
        frames: &[Vec<NdArray<i64>>],
        opts: &ExecOptions,
    ) -> Result<BatchOutput, ScheduleError> {
        opts.validate().map_err(ScheduleError::Config)?;
        if opts.total_frames != 0 && opts.total_frames < frames.len() {
            return Err(ScheduleError::Config(format!(
                "total_frames {} is less than the {} supplied frames",
                opts.total_frames,
                frames.len()
            )));
        }
        self.plan.validate()?;
        device.set_pool_enabled(opts.pool);
        if frames.is_empty() {
            return Ok((Vec::new(), RunStats::default()));
        }
        // Stream order is the only cross-frame ordering: a plan with carries
        // runs every frame on one lane, so frame `f+1` queues behind frame
        // `f` on the same stream.
        let mut lanes = if self.plan.carries.is_empty() { opts.streams } else { 1 };
        loop {
            match self.attempt(device, frames, opts, lanes) {
                Err(ScheduleError::Sim(SimError::OutOfMemory { .. }))
                    if opts.degrade_on_oom && lanes > 1 =>
                {
                    let next = lanes / 2;
                    device.profiler.note(format!(
                        "degraded: out of device memory at {lanes} {label}, \
                         retrying batch with {next}",
                        label = self.plan.lane_label
                    ));
                    lanes = next;
                }
                other => return other,
            }
        }
    }

    /// One batch attempt at a fixed lane count. Buffer sets are released on
    /// success *and* failure so an aborted attempt never leaks device
    /// memory into a degraded retry.
    fn attempt(
        &self,
        device: &mut Device,
        frames: &[Vec<NdArray<i64>>],
        opts: &ExecOptions,
        lanes: usize,
    ) -> Result<BatchOutput, ScheduleError> {
        let streams = device.lane_streams(lanes);
        let mut buffer_sets: Vec<Vec<Option<BufferId>>> =
            vec![vec![None; self.plan.arrays.len()]; lanes];

        let run = self.exec_frames(device, frames, opts, lanes, &streams, &mut buffer_sets);

        for set in buffer_sets {
            for buf in set.into_iter().flatten() {
                let freed = device.free(buf);
                if run.is_ok() {
                    // On the error path the original failure wins; frees of
                    // just-allocated buffers cannot themselves fail.
                    freed?;
                }
            }
        }
        device.synchronize();
        run
    }

    /// The frame loop of one attempt: execute the supplied frames
    /// round-robin over `lanes` buffer sets, then replay frame 0's measured
    /// spans out to `total_frames`.
    fn exec_frames(
        &self,
        device: &mut Device,
        frames: &[Vec<NdArray<i64>>],
        opts: &ExecOptions,
        lanes: usize,
        streams: &[StreamId],
        buffer_sets: &mut [Vec<Option<BufferId>>],
    ) -> Result<BatchOutput, ScheduleError> {
        let mut outputs = Vec::with_capacity(frames.len());
        let mut stats = RunStats::default();
        let mut warm = ScheduleWitness::default();
        // Cross-frame carries: each frame's carried host values override the
        // next frame's carry-target bindings.
        let mut carried: Vec<Option<NdArray<i64>>> = vec![None; self.plan.carries.len()];
        for (f, inputs) in frames.iter().enumerate() {
            let lane = f % lanes;
            // The first frame on each lane is "cold": it runs the plan's
            // prologue (invariant uploads) before the per-frame steps.
            let cold = f < lanes;
            let run = self.exec_frame(
                device,
                inputs,
                opts,
                &mut buffer_sets[lane],
                streams[lane],
                cold,
                &carried,
            )?;
            carried = run.carried.into_iter().map(Some).collect();
            if f == 0 {
                // The replay witness is the *warm* frame schedule: spans
                // recorded after the prologue finished, and the per-step
                // counters only. The prologue runs once per lane, so a
                // replayed frame never repeats it.
                warm = ScheduleWitness::capture(
                    &device.profiler,
                    run.warm_span_mark,
                    run.step_stats.clone(),
                );
            }
            stats.accumulate(&run.prologue_stats);
            stats.accumulate(&run.step_stats);
            outputs.push(run.outputs);
        }

        let total = if opts.total_frames == 0 { frames.len() } else { opts.total_frames };
        let replayed = frames.len()..total;
        warm.replay_runs(device, replayed.clone().map(|f| &streams[f % lanes..=f % lanes]))?;
        for _ in replayed {
            stats.accumulate(&warm.stats);
        }
        Ok((outputs, stats))
    }

    /// Execute one frame: bind inputs, run the prologue when the lane is
    /// cold, walk the steps on `stream` against this lane's buffer set,
    /// collect the outputs.
    ///
    /// `buffers` entries that are `Some` are reused in place (a later frame
    /// on the same lane overwrites them); `None` entries are allocated on
    /// demand and left allocated for the caller to free or reuse.
    ///
    /// `carried` holds the previous frame's carry values positionally per
    /// [`LaunchPlan::carries`]; `Some` entries override the caller-supplied
    /// binding of that carry's target (`None` on frame 0 keeps the seed).
    ///
    /// The host map borrows the inputs and the carried values; it owns only
    /// what this frame computes (downloads and host-op results). Host ops
    /// read owned clones ([`HostOp::run`] takes `&[NdArray<i64>]`), and a
    /// borrowed output or carry source is cloned once on the way out.
    #[allow(clippy::too_many_arguments)]
    fn exec_frame(
        &self,
        device: &mut Device,
        inputs: &[NdArray<i64>],
        opts: &ExecOptions,
        buffers: &mut [Option<BufferId>],
        stream: StreamId,
        cold: bool,
        carried: &[Option<NdArray<i64>>],
    ) -> Result<FrameRun, ScheduleError> {
        let plan = self.plan;
        if inputs.len() != plan.inputs.len() {
            return Err(ScheduleError::Input(format!(
                "expected {} inputs, got {}",
                plan.inputs.len(),
                inputs.len()
            )));
        }
        let mut host: Vec<Option<Cow<'_, NdArray<i64>>>> = vec![None; plan.arrays.len()];
        for (&id, arr) in plan.inputs.iter().zip(inputs) {
            if arr.shape().dims() != plan.arrays[id].shape.as_slice() {
                return Err(ScheduleError::Input(format!(
                    "input '{}' has shape {:?}, expected {:?}",
                    plan.arrays[id].name,
                    arr.shape().dims(),
                    plan.arrays[id].shape
                )));
            }
            host[id] = Some(Cow::Borrowed(arr));
        }
        // Warm frames rebind carry targets to the previous frame's carried
        // values; validate() guarantees the shapes match the declarations.
        for (c, v) in plan.carries.iter().zip(carried) {
            if let Some(v) = v {
                host[c.to] = Some(Cow::Borrowed(v));
            }
        }

        let mut prologue_stats = RunStats::default();
        if cold {
            self.run_steps(
                device,
                &plan.prologue,
                &mut host,
                opts,
                buffers,
                stream,
                &mut prologue_stats,
            )?;
        }
        let warm_span_mark = device.profiler.spans().count();

        let mut step_stats = RunStats::default();
        self.run_steps(device, &plan.steps, &mut host, opts, buffers, stream, &mut step_stats)?;

        // Carried values are cloned out before the outputs are moved: a
        // carry source may itself be a declared output.
        let carried_out: Vec<NdArray<i64>> = plan
            .carries
            .iter()
            .map(|c| {
                host[c.from].as_deref().cloned().ok_or_else(|| {
                    ScheduleError::Plan(format!(
                        "carry source '{}' never reached the host",
                        plan.arrays[c.from].name
                    ))
                })
            })
            .collect::<Result<_, _>>()?;
        let outputs: Vec<NdArray<i64>> = plan
            .outputs
            .iter()
            .map(|&id| {
                host[id].take().map(Cow::into_owned).ok_or_else(|| {
                    ScheduleError::Plan(format!(
                        "output '{}' never reached the host",
                        plan.arrays[id].name
                    ))
                })
            })
            .collect::<Result<_, _>>()?;
        Ok(FrameRun { outputs, carried: carried_out, prologue_stats, step_stats, warm_span_mark })
    }

    /// Walk one step list against a lane's buffer set, accumulating into
    /// `stats`.
    #[allow(clippy::too_many_arguments)]
    fn run_steps(
        &self,
        device: &mut Device,
        steps: &[PlanStep],
        host: &mut [Option<Cow<'_, NdArray<i64>>>],
        opts: &ExecOptions,
        buffers: &mut [Option<BufferId>],
        stream: StreamId,
        stats: &mut RunStats,
    ) -> Result<(), ScheduleError> {
        let plan = self.plan;
        for step in steps {
            match *step {
                PlanStep::Upload { array, chunks } => {
                    let (data, buf) = self.stage_upload(device, host, buffers, array)?;
                    stats.h2d += device.host2device_on(data, buf, chunks, stream)?;
                    stats.h2d_bytes += data.len() * 4;
                }
                PlanStep::Alloc { array } => {
                    if buffers[array].is_none() {
                        buffers[array] = Some(device.malloc(plan.arrays[array].len())?);
                    }
                }
                PlanStep::Launch { kernel } => {
                    let pk = &plan.kernels[kernel];
                    let args: Vec<KernelArg> = pk
                        .args
                        .iter()
                        .map(|&a| self.resident(buffers, a).map(|b| KernelArg::Buffer(b.0)))
                        .collect::<Result<_, _>>()?;
                    device.launch_on(&pk.kernel, pk.config, &args, stream, pk.access.as_ref())?;
                    stats.launches += 1;
                }
                PlanStep::Download { array, chunks } => {
                    let buf = self.resident(buffers, array)?;
                    let (data, issued) = device.device2host_on(buf, chunks, stream)?;
                    stats.d2h += issued;
                    stats.d2h_bytes += data.len() * 4;
                    host[array] = Some(Cow::Owned(self.host_array(array, data)?));
                }
                PlanStep::Host { op } => {
                    let h = &plan.host_ops[op];
                    let reads: Vec<NdArray<i64>> = h
                        .reads
                        .iter()
                        .map(|&a| {
                            host[a].as_deref().cloned().ok_or_else(|| {
                                ScheduleError::Plan(format!(
                                    "host step input '{}' missing",
                                    plan.arrays[a].name
                                ))
                            })
                        })
                        .collect::<Result<_, _>>()?;
                    let (out, ops) = (h.run)(&reads).map_err(ScheduleError::Host)?;
                    device.charge_host_on(
                        &h.name,
                        ops as f64 * opts.host_ns_per_op / 1000.0,
                        stream,
                    )?;
                    stats.host_ops += ops;
                    stats.host_steps += 1;
                    host[h.target] = Some(Cow::Owned(out));
                }
                PlanStep::UploadBatch { batch } => {
                    let parts = plan.batches[batch]
                        .iter()
                        .map(|&array| self.stage_upload(device, host, buffers, array))
                        .collect::<Result<Vec<_>, _>>()?;
                    device.host2device_batch_on(&parts, stream)?;
                    stats.h2d += 1;
                    stats.h2d_bytes += parts.iter().map(|(d, _)| d.len() * 4).sum::<usize>();
                }
                PlanStep::DownloadBatch { batch } => {
                    let ids = &plan.batches[batch];
                    let bufs: Vec<BufferId> =
                        ids.iter().map(|&a| self.resident(buffers, a)).collect::<Result<_, _>>()?;
                    let outs = device.device2host_batch_on(&bufs, stream)?;
                    stats.d2h += 1;
                    for (&array, data) in ids.iter().zip(outs) {
                        stats.d2h_bytes += data.len() * 4;
                        host[array] = Some(Cow::Owned(self.host_array(array, data)?));
                    }
                }
            }
        }
        Ok(())
    }

    /// The host value of `array`, borrowed for the device's narrowing copy,
    /// and the lane's buffer for it (allocated on first upload).
    fn stage_upload<'h>(
        &self,
        device: &mut Device,
        host: &'h [Option<Cow<'_, NdArray<i64>>>],
        buffers: &mut [Option<BufferId>],
        array: usize,
    ) -> Result<(&'h [i64], BufferId), ScheduleError> {
        let data = host[array].as_deref().map(NdArray::as_slice).ok_or_else(|| {
            ScheduleError::Plan(format!(
                "upload of uncomputed array '{}'",
                self.plan.arrays[array].name
            ))
        })?;
        let buf = match buffers[array] {
            Some(b) => b,
            None => *buffers[array].insert(device.malloc(data.len())?),
        };
        Ok((data, buf))
    }

    /// The lane's device buffer holding `array`.
    fn resident(
        &self,
        buffers: &[Option<BufferId>],
        array: usize,
    ) -> Result<BufferId, ScheduleError> {
        buffers[array].ok_or_else(|| {
            ScheduleError::Plan(format!("array '{}' not on device", self.plan.arrays[array].name))
        })
    }

    /// Downloaded (already widened) device ints as the host value of
    /// `array`.
    fn host_array(&self, array: usize, data: Vec<i64>) -> Result<NdArray<i64>, ScheduleError> {
        NdArray::from_vec(self.plan.arrays[array].shape.clone(), data)
            .map_err(|e| ScheduleError::Plan(e.to_string()))
    }
}

/// Run `plan` over `frames` on `device`: the planopt passes `opts.optimize`
/// selects, each pass's note pushed into `device.profiler` so the rewrites
/// show up next to the timings they changed, then [`BatchScheduler::run`].
/// This is the one way a lowered route runs a batch.
pub fn run_plan(
    mut plan: LaunchPlan<'_>,
    device: &mut Device,
    frames: &[Vec<NdArray<i64>>],
    opts: &ExecOptions,
) -> Result<BatchOutput, ScheduleError> {
    for note in crate::planopt::optimize(&mut plan, opts.optimize)?.notes {
        device.profiler.note(note);
    }
    BatchScheduler::new(&plan).run(device, frames, opts)
}

/// One executed frame's results: the collected outputs, the counters split
/// into prologue vs per-frame steps (replay repeats only the latter), and
/// the profiler span count at the start of the warm (post-prologue) step
/// schedule.
struct FrameRun {
    outputs: Vec<NdArray<i64>>,
    /// End-of-frame host values of the plan's carry sources, positionally
    /// per [`LaunchPlan::carries`] — the next frame's carry-target bindings.
    carried: Vec<NdArray<i64>>,
    prologue_stats: RunStats,
    step_stats: RunStats,
    warm_span_mark: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::Calibration;
    use crate::device::DeviceConfig;
    use crate::kir::{BinOp, KernelBuilder, KernelFlavor, Special};
    use crate::profiler::Span;

    #[test]
    fn chunks_for_splits_only_matching_leading_dimension() {
        // The paper's per-channel streaming: a rank-3 [channels, rows, cols]
        // frame moves as one chunk per channel.
        assert_eq!(chunks_for(&[3, 90, 160], 3), 3);
        // Leading dimension mismatch: one transfer.
        assert_eq!(chunks_for(&[4, 90, 160], 3), 1);
        // Rank-1 arrays never chunk, even with a matching length: a flat
        // vector of `channels` elements is not a per-channel frame.
        assert_eq!(chunks_for(&[3], 3), 1);
        // channel_chunks <= 1 disables chunking entirely.
        assert_eq!(chunks_for(&[3, 90, 160], 1), 1);
        assert_eq!(chunks_for(&[3, 90, 160], 0), 1);
        // Rank-2 boundary: shape[0] == channel_chunks with exactly 2 dims.
        assert_eq!(chunks_for(&[3, 160], 3), 3);
    }

    #[test]
    fn exec_options_default_is_the_serialized_baseline() {
        let o = ExecOptions::default();
        assert_eq!(o.streams, 1);
        assert_eq!((o.executed, o.total_frames, o.channel_chunks), (0, 0, 0));
        assert!(!o.pool && !o.degrade_on_oom);
        assert!(o.validate().is_ok());
    }

    #[test]
    fn zero_streams_rejected_by_validate() {
        let o = ExecOptions { streams: 0, ..Default::default() };
        let msg = o.validate().unwrap_err();
        assert!(msg.contains("streams must be >= 1"), "{msg}");
    }

    /// y[i] = y[i] * 2 over the whole buffer.
    fn double_kernel(n: usize) -> (Kernel, LaunchConfig) {
        let mut b = KernelBuilder::new("dbl", KernelFlavor::Cuda);
        let y = b.buffer_param("y", true);
        let gid = b.special(Special::GlobalIdX);
        let v = b.load(y, gid);
        let two = b.constant(2);
        let w = b.bin(BinOp::Mul, v, two);
        b.store(y, gid, w);
        (b.finish(), LaunchConfig::cover_1d(n, n.min(64) as u32))
    }

    /// A minimal one-kernel plan: upload `a`, double it in place, download.
    fn double_plan(kernel: &Kernel, config: LaunchConfig, n: usize) -> LaunchPlan<'_> {
        LaunchPlan {
            arrays: vec![ArrayDecl { name: "a".into(), shape: vec![n] }],
            inputs: vec![0],
            outputs: vec![0],
            kernels: vec![PlanKernel::new(kernel, config, vec![0])],
            host_ops: Vec::new(),
            steps: vec![
                PlanStep::Upload { array: 0, chunks: 1 },
                PlanStep::Launch { kernel: 0 },
                PlanStep::Download { array: 0, chunks: 1 },
            ],
            prologue: Vec::new(),
            invariant: Vec::new(),
            batches: Vec::new(),
            carries: Vec::new(),
            lane_label: "stream lanes",
        }
    }

    fn frames(n_frames: usize, n: usize) -> Vec<Vec<NdArray<i64>>> {
        (0..n_frames).map(|f| vec![NdArray::from_fn([n], |ix| (f * 100 + ix[0]) as i64)]).collect()
    }

    #[test]
    fn scheduler_runs_a_plan_and_counts_operations() {
        let n = 64;
        let (kernel, config) = double_kernel(n);
        let plan = double_plan(&kernel, config, n);
        let mut device = Device::gtx480();
        let (outs, stats) = BatchScheduler::new(&plan)
            .run(&mut device, &frames(3, n), &ExecOptions::default())
            .unwrap();
        assert_eq!(outs.len(), 3);
        for (f, out) in outs.iter().enumerate() {
            assert_eq!(out[0], NdArray::from_fn([n], |ix| 2 * (f * 100 + ix[0]) as i64));
        }
        assert_eq!(
            stats,
            RunStats {
                launches: 3,
                h2d: 3,
                d2h: 3,
                h2d_bytes: 3 * n * 4,
                d2h_bytes: 3 * n * 4,
                host_steps: 0,
                host_ops: 0
            }
        );
        assert_eq!(device.allocated_bytes(), 0);
        assert!(device.now_us() > 0.0);
    }

    #[test]
    fn two_lanes_overlap_and_preserve_results() {
        let n = 4096;
        let (kernel, config) = double_kernel(n);
        let plan = double_plan(&kernel, config, n);

        let mut serial = Device::gtx480();
        let (expect, _) = BatchScheduler::new(&plan)
            .run(&mut serial, &frames(6, n), &ExecOptions::default())
            .unwrap();

        let mut piped = Device::gtx480();
        let (got, _) = BatchScheduler::new(&plan)
            .run(&mut piped, &frames(6, n), &ExecOptions { streams: 2, ..Default::default() })
            .unwrap();

        assert_eq!(got, expect);
        assert!(piped.now_us() < serial.now_us(), "{} !< {}", piped.now_us(), serial.now_us());
        assert!(piped.profiler.overlap_percent() > 0.0);
    }

    #[test]
    fn replay_extends_timing_without_execution() {
        let n = 256;
        let (kernel, config) = double_kernel(n);
        let plan = double_plan(&kernel, config, n);

        let mut full = Device::gtx480();
        BatchScheduler::new(&plan).run(&mut full, &frames(5, n), &ExecOptions::default()).unwrap();

        let mut replayed = Device::gtx480();
        let (outs, stats) = BatchScheduler::new(&plan)
            .run(
                &mut replayed,
                &frames(1, n),
                &ExecOptions { total_frames: 5, ..Default::default() },
            )
            .unwrap();
        assert_eq!(outs.len(), 1);
        assert_eq!(stats.launches, 5);
        assert_eq!(replayed.now_us(), full.now_us());
        assert_eq!(replayed.profiler.spans().count(), full.profiler.spans().count());
    }

    #[test]
    fn witness_replays_a_two_lane_job_at_a_shifted_clock() {
        let n = 512;
        let (kernel, config) = double_kernel(n);
        let plan = double_plan(&kernel, config, n);
        let mut real = Device::gtx480();
        let opts = ExecOptions { streams: 2, total_frames: 5, ..Default::default() };
        let (_, stats) = BatchScheduler::new(&plan).run(&mut real, &frames(2, n), &opts).unwrap();
        let witness = ScheduleWitness::capture(&real.profiler, 0, stats.clone());
        assert_eq!(witness.lanes(), 2);
        assert_eq!(witness.spans.len(), real.profiler.spans().count());

        // Replay on a fresh device whose clock is already shifted, then
        // capture the replayed spans as a witness of their own.
        let shift_us = 1234.5;
        let mut replayed = Device::gtx480();
        replayed.charge_host("shift", shift_us);
        let mark = replayed.profiler.spans().count();
        let streams = replayed.lane_streams(2);
        let replay_stats = witness.replay(&mut replayed, &streams).unwrap().clone();
        replayed.synchronize();
        assert_eq!(replay_stats, stats);
        let again = ScheduleWitness::capture(&replayed.profiler, mark, replay_stats);
        assert_eq!(again.lanes(), 2);
        assert_eq!(again.ops, witness.ops);
        assert_eq!(again.spans.len(), witness.spans.len());
        for (a, b) in witness.spans.iter().zip(&again.spans) {
            assert_eq!((a.op, a.lane, a.dur_us.to_bits()), (b.op, b.lane, b.dur_us.to_bits()));
        }
        for class in [OpClass::H2D, OpClass::Kernel, OpClass::D2H] {
            assert_eq!(
                replayed.profiler.engine_busy_us(class),
                real.profiler.engine_busy_us(class)
            );
        }
        assert_eq!(replayed.profiler.engine_busy_us(OpClass::Host), shift_us);
        assert!((replayed.now_us() - shift_us - real.now_us()).abs() < 1e-9 * real.now_us());

        // Too few streams for the witness's lanes is a typed error, not a
        // panic, and charges nothing.
        let before = replayed.profiler.spans().count();
        let err = witness.replay(&mut replayed, &[StreamId::DEFAULT]).unwrap_err();
        assert!(matches!(err, ScheduleError::Config(_)), "{err:?}");
        assert_eq!(replayed.profiler.spans().count(), before);
    }

    /// A profile's records and spans, with every float as its bits.
    #[allow(clippy::type_complexity)]
    fn profile_bits(
        p: &Profiler,
    ) -> (Vec<(String, OpClass, u64, u64)>, Vec<(String, OpClass, usize, u64, u64)>) {
        let records =
            p.records().map(|r| (r.name.to_string(), r.class, r.calls, r.total_us.to_bits()));
        let spans = p.spans().map(|s| {
            (s.name.to_string(), s.class, s.stream, s.start_us.to_bits(), s.dur_us.to_bits())
        });
        (records.collect(), spans.collect())
    }

    #[test]
    fn replay_onto_another_device_charges_like_scheduling_by_name() {
        let n = 512;
        let (kernel, config) = double_kernel(n);
        let plan = double_plan(&kernel, config, n);
        let mut real = Device::gtx480();
        // A host step under the kernel's own name: the witness holds one name
        // in two classes.
        real.charge_host(&kernel.name, 5.0);
        let opts = ExecOptions { streams: 2, total_frames: 2, ..Default::default() };
        let (_, stats) = BatchScheduler::new(&plan).run(&mut real, &frames(2, n), &opts).unwrap();
        let witness = ScheduleWitness::capture(&real.profiler, 0, stats);
        assert_eq!(witness.lanes(), 2);

        // Devices whose profilers already hold other names — one of them the
        // witness kernel's own name in another class — so each assigns the
        // witness's operations slots in its own order, unlike `real`'s. The
        // same witness replays onto both, as a serve template replays onto
        // every fleet device.
        let seeded = |names: &[&str]| {
            let mut d = Device::gtx480();
            for (k, name) in names.iter().enumerate() {
                d.charge_host(name, 1.0 + k as f64);
            }
            d
        };
        let seeds: [&[&str]; 2] = [&["zz_setup", &kernel.name, "aa_setup"], &["memcpyDtoHasync"]];
        for names in seeds {
            let mut replayed = seeded(names);
            let mut by_name = seeded(names);
            for _ in 0..2 {
                let streams = replayed.lane_streams(2);
                witness.replay(&mut replayed, &streams).unwrap();
                // `real` ran on streams 0 and 1, which are its lanes 0 and 1.
                let streams = by_name.lane_streams(2);
                for sp in real.profiler.spans() {
                    by_name.schedule_on(sp.name, sp.class, streams[sp.stream], sp.dur_us).unwrap();
                }
            }
            assert_eq!(profile_bits(&replayed.profiler), profile_bits(&by_name.profiler));
            assert_eq!(replayed.synchronize().to_bits(), by_name.synchronize().to_bits());
        }
    }

    #[test]
    fn oom_degradation_halves_lanes_and_notes_with_lane_label() {
        let n = 1024;
        let (kernel, config) = double_kernel(n);
        let mut plan = double_plan(&kernel, config, n);
        plan.lane_label = "command queues";

        let mut probe = Device::gtx480();
        let (expect, _) = BatchScheduler::new(&plan)
            .run(&mut probe, &frames(4, n), &ExecOptions::default())
            .unwrap();
        let per_lane = probe.peak_allocated_bytes();

        let cfg = DeviceConfig::toy(per_lane * 2);
        let four = ExecOptions { streams: 4, ..Default::default() };
        let mut naive = Device::new(cfg.clone(), Calibration::gtx480());
        let err = BatchScheduler::new(&plan).run(&mut naive, &frames(4, n), &four);
        assert!(matches!(err, Err(ScheduleError::Sim(SimError::OutOfMemory { .. }))));

        let mut deg = Device::new(cfg, Calibration::gtx480());
        let (outs, _) = BatchScheduler::new(&plan)
            .run(&mut deg, &frames(4, n), &ExecOptions { degrade_on_oom: true, ..four })
            .unwrap();
        assert_eq!(outs, expect);
        assert_eq!(deg.allocated_bytes(), 0);
        let notes: Vec<&str> = deg.profiler.notes().collect();
        assert!(
            notes.iter().any(|nt| nt.contains("degraded") && nt.contains("command queues")),
            "{notes:?}"
        );
    }

    #[test]
    fn scheduler_rejects_zero_streams_before_touching_the_device() {
        let n = 16;
        let (kernel, config) = double_kernel(n);
        let plan = double_plan(&kernel, config, n);
        let mut device = Device::gtx480();
        let err = BatchScheduler::new(&plan).run(
            &mut device,
            &frames(1, n),
            &ExecOptions { streams: 0, ..Default::default() },
        );
        assert!(matches!(err, Err(ScheduleError::Config(_))), "{err:?}");
        assert_eq!(device.now_us(), 0.0);
        assert_eq!(device.profiler.records().count(), 0);
    }

    /// Two `n`-element arrays moved to the device and straight back: as two
    /// single transfers each way, or as one coalesced batch each way.
    fn copy_plan(n: usize, batched: bool) -> LaunchPlan<'static> {
        let (steps, batches) = if batched {
            (
                vec![PlanStep::UploadBatch { batch: 0 }, PlanStep::DownloadBatch { batch: 0 }],
                vec![vec![0, 1]],
            )
        } else {
            let single = |array| {
                [PlanStep::Upload { array, chunks: 1 }, PlanStep::Download { array, chunks: 1 }]
            };
            let ([up_a, down_a], [up_b, down_b]) = (single(0), single(1));
            (vec![up_a, up_b, down_a, down_b], Vec::new())
        };
        LaunchPlan {
            arrays: vec![
                ArrayDecl { name: "a".into(), shape: vec![n] },
                ArrayDecl { name: "b".into(), shape: vec![n] },
            ],
            inputs: vec![0, 1],
            outputs: vec![0, 1],
            kernels: Vec::new(),
            host_ops: Vec::new(),
            steps,
            prologue: Vec::new(),
            invariant: Vec::new(),
            batches,
            carries: Vec::new(),
            lane_label: "stream lanes",
        }
    }

    #[test]
    fn overflow_is_detected_at_upload() {
        let n = 6;
        let (big, small) = (i64::from(i32::MAX) + 1, i64::from(i32::MIN) - 1);
        // Elements 0 and 1 sit exactly on the device int's range limits.
        let arr = |seed: i64, bad: &[(usize, i64)]| {
            NdArray::from_fn([n], |ix| match ix[0] {
                0 => i64::from(i32::MIN),
                1 => i64::from(i32::MAX),
                i => bad.iter().find(|&&(at, _)| at == i).map_or(seed * 10 + i as i64, |b| b.1),
            })
        };
        // The first out-of-range element in step order, then element order,
        // and the index of the array whose transfer is refused.
        let refused = [
            (vec![arr(3, &[(3, small), (5, big)]), arr(4, &[(2, big)])], small, 0),
            (vec![arr(3, &[]), arr(4, &[(2, big), (4, small)])], big, 1),
        ];
        let opts = ExecOptions::default();
        for batched in [false, true] {
            let plan = copy_plan(n, batched);
            let sched = BatchScheduler::new(&plan);
            for (frame, value, at) in &refused {
                let mut device = Device::gtx480();
                let mut bufs = vec![None; 2];
                let good = vec![arr(1, &[]), arr(2, &[])];
                let run = sched
                    .exec_frame(&mut device, &good, &opts, &mut bufs, StreamId::DEFAULT, true, &[])
                    .unwrap();
                // i32::MIN and i32::MAX round-trip exactly.
                assert_eq!(run.outputs, good, "batched={batched}");
                let calls = |d: &Device, class| {
                    d.profiler.records().filter(|r| r.class == class).map(|r| r.calls).sum::<u64>()
                };
                let resident = |d: &Device, bufs: &[Option<BufferId>]| -> Vec<Vec<i32>> {
                    bufs.iter().map(|b| d.peek(b.unwrap()).unwrap().to_vec()).collect()
                };
                let spans = device.profiler.spans().count();
                let (h2d, d2h) = (calls(&device, OpClass::H2D), calls(&device, OpClass::D2H));
                let tail = device.stream_tail(StreamId::DEFAULT).unwrap();
                let contents = resident(&device, &bufs);

                let err = sched.exec_frame(
                    &mut device,
                    frame,
                    &opts,
                    &mut bufs,
                    StreamId::DEFAULT,
                    false,
                    &[],
                );
                assert!(
                    matches!(err, Err(ScheduleError::Overflow { value: v }) if v == *value),
                    "batched={batched}: {:?}",
                    err.map(|_| ())
                );
                // Single uploads of earlier arrays went through; the refused
                // transfer charged nothing, so spans, records and the stream
                // clock moved only by those, and the refused buffers keep the
                // previous frame's contents.
                let through = if batched { 0 } else { *at };
                let new: Vec<Span> = device.profiler.spans().skip(spans).collect();
                assert_eq!(new.len(), through, "batched={batched}");
                assert!(new.iter().all(|s| s.class == OpClass::H2D));
                assert_eq!(calls(&device, OpClass::H2D), h2d + through as u64);
                assert_eq!(calls(&device, OpClass::D2H), d2h);
                assert_eq!(
                    device.stream_tail(StreamId::DEFAULT).unwrap(),
                    new.last().map_or(tail, |s| s.end_us())
                );
                let narrowed = |a: &NdArray<i64>| a.as_slice().iter().map(|&v| v as i32).collect();
                let expect: Vec<Vec<i32>> = (0..2)
                    .map(|k| if k < through { narrowed(&frame[k]) } else { contents[k].clone() })
                    .collect();
                assert_eq!(resident(&device, &bufs), expect, "batched={batched}");
            }
            // The whole-batch entry point reports the same typed error.
            let err = sched.run(&mut Device::gtx480(), &[refused[1].0.clone()], &opts);
            assert!(matches!(err, Err(ScheduleError::Overflow { value }) if value == big));
        }
    }

    #[test]
    fn total_frames_below_the_supplied_frames_is_refused_before_touching_the_device() {
        let n = 16;
        let (kernel, config) = double_kernel(n);
        let plan = double_plan(&kernel, config, n);
        let mut device = Device::gtx480();
        let err = BatchScheduler::new(&plan).run(
            &mut device,
            &frames(3, n),
            &ExecOptions { total_frames: 2, ..Default::default() },
        );
        assert!(
            matches!(&err, Err(ScheduleError::Config(m)) if m.contains("total_frames 2")),
            "{err:?}"
        );
        assert_eq!(device.now_us(), 0.0);
        assert_eq!(device.profiler.records().count(), 0);
        assert_eq!(device.profiler.spans().count(), 0);
    }

    #[test]
    fn input_mismatches_are_typed_errors() {
        let n = 8;
        let (kernel, config) = double_kernel(n);
        let plan = double_plan(&kernel, config, n);
        let mut device = Device::gtx480();
        let sched = BatchScheduler::new(&plan);
        let err = sched.run(&mut device, &[vec![]], &ExecOptions::default());
        assert!(matches!(err, Err(ScheduleError::Input(_))), "{err:?}");
        let wrong = vec![vec![NdArray::filled([n + 1], 0i64)]];
        let err = sched.run(&mut device, &wrong, &ExecOptions::default());
        assert!(matches!(err, Err(ScheduleError::Input(_))), "{err:?}");
    }

    #[test]
    fn lifetime_validation_catches_malformed_plans() {
        let n = 8;
        let (kernel, config) = double_kernel(n);
        let mut plan = double_plan(&kernel, config, n);
        // Launch before the upload: the argument is not device-resident.
        plan.steps.swap(0, 1);
        let mut device = Device::gtx480();
        let err =
            BatchScheduler::new(&plan).run(&mut device, &frames(1, n), &ExecOptions::default());
        assert!(
            matches!(&err, Err(ScheduleError::Plan(m)) if m.contains("not device-resident")),
            "{err:?}"
        );
        // Rejected before anything touched the device.
        assert_eq!(device.now_us(), 0.0);
        assert_eq!(device.profiler.records().count(), 0);

        // An output that never comes back to the host is caught too. (The
        // input array itself is always host-resident, so use a second,
        // never-computed array as the declared output.)
        let mut plan = double_plan(&kernel, config, n);
        plan.arrays.push(ArrayDecl { name: "b".into(), shape: vec![n] });
        plan.outputs = vec![1];
        let err =
            BatchScheduler::new(&plan).run(&mut device, &frames(1, n), &ExecOptions::default());
        assert!(
            matches!(&err, Err(ScheduleError::Plan(m)) if m.contains("not host-resident")),
            "{err:?}"
        );
    }

    #[test]
    fn host_ops_run_between_device_steps() {
        // Upload -> double on device -> host op adds 1 -> re-upload -> double
        // again -> download: exercises host/device interleaving and the
        // host-op cost charge.
        let n = 16;
        let (kernel, config) = double_kernel(n);
        let host_op = HostOp {
            name: "add_one(host)".into(),
            target: 1,
            reads: vec![0],
            run: std::rc::Rc::new(|arrs| {
                let out = NdArray::from_fn([arrs[0].as_slice().len()], |ix| {
                    arrs[0].as_slice()[ix[0]] + 1
                });
                Ok((out, 1000))
            }),
        };
        let plan = LaunchPlan {
            arrays: vec![
                ArrayDecl { name: "a".into(), shape: vec![n] },
                ArrayDecl { name: "b".into(), shape: vec![n] },
            ],
            inputs: vec![0],
            outputs: vec![1],
            kernels: vec![
                PlanKernel::new(&kernel, config, vec![0]),
                PlanKernel::new(&kernel, config, vec![1]),
            ],
            host_ops: vec![host_op],
            steps: vec![
                PlanStep::Upload { array: 0, chunks: 1 },
                PlanStep::Launch { kernel: 0 },
                PlanStep::Download { array: 0, chunks: 1 },
                PlanStep::Host { op: 0 },
                PlanStep::Upload { array: 1, chunks: 1 },
                PlanStep::Launch { kernel: 1 },
                PlanStep::Download { array: 1, chunks: 1 },
            ],
            prologue: Vec::new(),
            invariant: Vec::new(),
            batches: Vec::new(),
            carries: Vec::new(),
            lane_label: "stream lanes",
        };
        let mut device = Device::gtx480();
        let opts = ExecOptions { host_ns_per_op: 2.0, ..Default::default() };
        let (outs, stats) =
            BatchScheduler::new(&plan).run(&mut device, &frames(1, n), &opts).unwrap();
        // (2a + 1) * 2
        assert_eq!(outs[0][0], NdArray::from_fn([n], |ix| (2 * ix[0] as i64 + 1) * 2));
        assert_eq!((stats.host_steps, stats.host_ops), (1, 1000));
        // 1000 ops at 2 ns/op = 2 us charged under the op's name.
        let rec = device.profiler.records().find(|r| &*r.name == "add_one(host)").unwrap();
        assert!((rec.total_us - 2.0).abs() < 1e-12, "{}", rec.total_us);
    }

    #[test]
    fn chunked_upload_counts_issued_chunks() {
        let n = 12;
        let (kernel, config) = double_kernel(n);
        let mut plan = double_plan(&kernel, config, n);
        plan.arrays[0].shape = vec![3, 4];
        plan.steps[0] = PlanStep::Upload { array: 0, chunks: 3 };
        plan.steps[2] = PlanStep::Download { array: 0, chunks: 3 };
        let mut device = Device::gtx480();
        let fr = vec![vec![NdArray::from_fn([3, 4], |ix| (ix[0] * 4 + ix[1]) as i64)]];
        let (_, stats) =
            BatchScheduler::new(&plan).run(&mut device, &fr, &ExecOptions::default()).unwrap();
        assert_eq!((stats.h2d, stats.d2h), (3, 3));
        assert_eq!((stats.h2d_bytes, stats.d2h_bytes), (n * 4, n * 4));
        let h2d = device.profiler.records().find(|r| &*r.name == "memcpyHtoDasync").unwrap();
        assert_eq!(h2d.calls, 3);
    }

    #[test]
    fn run_plan_optimizes_and_notes_before_scheduling() {
        let n = 12;
        let (kernel, config) = double_kernel(n);
        let mut plan = double_plan(&kernel, config, n);
        plan.arrays[0].shape = vec![3, 4];
        plan.steps[0] = PlanStep::Upload { array: 0, chunks: 3 };
        plan.steps[2] = PlanStep::Download { array: 0, chunks: 3 };
        let fr = vec![vec![NdArray::from_fn([3, 4], |ix| (ix[0] * 4 + ix[1]) as i64)]];

        let mut base = Device::gtx480();
        let (expect, _) = run_plan(plan.clone(), &mut base, &fr, &ExecOptions::default()).unwrap();
        assert_eq!(base.profiler.notes().count(), 0);

        let mut device = Device::gtx480();
        let opts = ExecOptions { optimize: crate::PlanOptLevel::COALESCE, ..Default::default() };
        let (outs, stats) = run_plan(plan, &mut device, &fr, &opts).unwrap();
        assert_eq!(outs, expect);
        // The chunked transfers were coalesced, and the pass says so.
        assert_eq!((stats.h2d, stats.d2h), (1, 1));
        assert!(device.profiler.notes().any(|nt| nt.starts_with("planopt coalesce")));
    }

    #[test]
    fn run_applies_the_pool_option_to_the_device() {
        let n = 64;
        let (kernel, config) = double_kernel(n);
        let plan = double_plan(&kernel, config, n);
        let mut device = Device::gtx480();
        let pooled = ExecOptions { pool: true, ..Default::default() };
        for _ in 0..2 {
            BatchScheduler::new(&plan).run(&mut device, &frames(2, n), &pooled).unwrap();
        }
        assert!(device.pool().enabled());
        // The first batch's end-of-run frees were cached and served the
        // second batch's allocations.
        assert!(device.profiler.alloc.pool_hits > 0);
        assert!(device.pool().cached_bytes() > 0);

        let naive = ExecOptions::default();
        BatchScheduler::new(&plan).run(&mut device, &frames(2, n), &naive).unwrap();
        assert!(!device.pool().enabled());
        assert_eq!(device.pool().cached_bytes(), 0);
    }

    #[test]
    fn host_rewrite_invalidates_the_device_copy() {
        // Regression: a plan that uploads `a`, rewrites it on the host, then
        // launches a kernel reading `a` without re-uploading used to
        // validate cleanly — the kernel would have read the stale device
        // copy. The lifetime walk must clear device residency at the host
        // write.
        let n = 8;
        let (kernel, config) = double_kernel(n);
        let host_op = HostOp {
            name: "rewrite(host)".into(),
            target: 0,
            reads: vec![0],
            run: std::rc::Rc::new(|arrs| Ok((arrs[0].clone(), 1))),
        };
        let plan = LaunchPlan {
            arrays: vec![ArrayDecl { name: "a".into(), shape: vec![n] }],
            inputs: vec![0],
            outputs: vec![0],
            kernels: vec![PlanKernel::new(&kernel, config, vec![0])],
            host_ops: vec![host_op],
            steps: vec![
                PlanStep::Upload { array: 0, chunks: 1 },
                PlanStep::Host { op: 0 },
                PlanStep::Launch { kernel: 0 },
                PlanStep::Download { array: 0, chunks: 1 },
            ],
            prologue: Vec::new(),
            invariant: Vec::new(),
            batches: Vec::new(),
            carries: Vec::new(),
            lane_label: "stream lanes",
        };
        let err = plan.validate();
        assert!(
            matches!(&err, Err(ScheduleError::Plan(m)) if m.contains("not device-resident")),
            "{err:?}"
        );
    }

    #[test]
    fn device_write_invalidates_the_host_copy() {
        // The symmetric direction: after a kernel stores through `a`, the
        // host copy is stale, so collecting `a` as an output without a
        // download must be rejected.
        let n = 8;
        let (kernel, config) = double_kernel(n);
        let mut plan = double_plan(&kernel, config, n);
        plan.steps.pop(); // drop the download
        let err = plan.validate();
        assert!(
            matches!(&err, Err(ScheduleError::Plan(m)) if m.contains("not host-resident")),
            "{err:?}"
        );
    }

    #[test]
    fn a_launch_must_bind_one_array_to_each_buffer_parameter() {
        let n = 8;
        // A two-parameter kernel bound to one array, and a kernel with a
        // scalar parameter: both used to validate, then fail mid-batch with
        // `BadParam` after the upload had been charged.
        let (two, config) = add_kernel(n);
        let mut b = KernelBuilder::new("k", KernelFlavor::Cuda);
        let y = b.buffer_param("y", true);
        let s = b.scalar_param("s");
        let gid = b.special(Special::GlobalIdX);
        let sv = b.param_value(s);
        b.store(y, gid, sv);
        let scalar = b.finish();
        for (kernel, args, want) in [
            (&two, vec![0], "'addx' binds 1 array(s) to 2 parameter(s)"),
            (&scalar, vec![0], "'k' binds 1 array(s) to 2 parameter(s)"),
            (&scalar, vec![0, 0], "'k' binds 2 array(s) to 2 parameter(s)"),
        ] {
            let mut plan = double_plan(kernel, config, n);
            plan.kernels[0].args = args;
            let err = plan.validate();
            assert!(matches!(&err, Err(ScheduleError::Plan(m)) if m.contains(want)), "{err:?}");
            let mut device = Device::gtx480();
            let err =
                BatchScheduler::new(&plan).run(&mut device, &frames(1, n), &ExecOptions::default());
            assert!(matches!(&err, Err(ScheduleError::Plan(m)) if m.contains(want)), "{err:?}");
            assert_eq!(device.now_us(), 0.0);
            assert_eq!(device.profiler.records().count(), 0);
        }
    }

    #[test]
    fn a_repeated_output_is_rejected() {
        // Outputs are moved off the host, so the second copy used to fail
        // mid-batch as "never reached the host".
        let n = 8;
        let (kernel, config) = double_kernel(n);
        let mut plan = double_plan(&kernel, config, n);
        plan.outputs = vec![0, 0];
        let err = plan.validate();
        assert!(
            matches!(&err, Err(ScheduleError::Plan(m)) if m.contains("names array 'a' twice")),
            "{err:?}"
        );
    }

    #[test]
    fn zero_element_array_declarations_are_rejected() {
        let n = 8;
        let (kernel, config) = double_kernel(n);
        for bad_shape in [vec![], vec![0], vec![0, 4], vec![4, 0]] {
            let mut plan = double_plan(&kernel, config, n);
            plan.arrays[0].shape = bad_shape.clone();
            let err = plan.validate();
            assert!(
                matches!(&err, Err(ScheduleError::Plan(m)) if m.contains("zero-element")),
                "shape {bad_shape:?}: {err:?}"
            );
        }
        // An element count past `usize` is refused before anything sizes a
        // buffer or a chunk by it.
        let mut plan = double_plan(&kernel, config, n);
        plan.arrays[0].shape = vec![usize::MAX, 2];
        let err = plan.validate();
        assert!(
            matches!(&err, Err(ScheduleError::Plan(m)) if m.contains("more elements than a usize")),
            "{err:?}"
        );
    }

    /// y[i] = y[i] + x[i]; x read-only, y writable.
    fn add_kernel(n: usize) -> (Kernel, LaunchConfig) {
        let mut b = KernelBuilder::new("addx", KernelFlavor::Cuda);
        let x = b.buffer_param("x", false);
        let y = b.buffer_param("y", true);
        let gid = b.special(Special::GlobalIdX);
        let xv = b.load(x, gid);
        let yv = b.load(y, gid);
        let sum = b.bin(BinOp::Add, xv, yv);
        b.store(y, gid, sum);
        (b.finish(), LaunchConfig::cover_1d(n, n.min(64) as u32))
    }

    /// c is a frame-invariant input uploaded by the prologue; a is the
    /// per-frame payload.
    fn invariant_plan(kernel: &Kernel, config: LaunchConfig, n: usize) -> LaunchPlan<'_> {
        LaunchPlan {
            arrays: vec![
                ArrayDecl { name: "c".into(), shape: vec![n] },
                ArrayDecl { name: "a".into(), shape: vec![n] },
            ],
            inputs: vec![0, 1],
            outputs: vec![1],
            kernels: vec![PlanKernel::new(kernel, config, vec![0, 1])],
            host_ops: Vec::new(),
            steps: vec![
                PlanStep::Upload { array: 1, chunks: 1 },
                PlanStep::Launch { kernel: 0 },
                PlanStep::Download { array: 1, chunks: 1 },
            ],
            prologue: vec![PlanStep::Upload { array: 0, chunks: 1 }],
            invariant: vec![0],
            batches: Vec::new(),
            carries: Vec::new(),
            lane_label: "stream lanes",
        }
    }

    #[test]
    fn prologue_uploads_invariant_arrays_once_per_lane() {
        let n = 16;
        let (kernel, config) = add_kernel(n);
        let plan = invariant_plan(&kernel, config, n);
        let constants = NdArray::from_fn([n], |ix| ix[0] as i64);
        let fr: Vec<Vec<NdArray<i64>>> = (0..3)
            .map(|f| vec![constants.clone(), NdArray::from_fn([n], |ix| (f * 100 + ix[0]) as i64)])
            .collect();
        let mut device = Device::gtx480();
        let (outs, stats) =
            BatchScheduler::new(&plan).run(&mut device, &fr, &ExecOptions::default()).unwrap();
        for (f, out) in outs.iter().enumerate() {
            assert_eq!(out[0], NdArray::from_fn([n], |ix| (f * 100 + 2 * ix[0]) as i64));
        }
        // One invariant upload for the lane plus one payload upload per
        // frame — not two uploads per frame.
        assert_eq!(stats.h2d, 1 + 3);
        assert_eq!(stats.h2d_bytes, (1 + 3) * n * 4);
        let h2d = device.profiler.records().find(|r| &*r.name == "memcpyHtoDasync").unwrap();
        assert_eq!(h2d.calls, 4);
    }

    #[test]
    fn replay_repeats_only_the_warm_frame_schedule() {
        let n = 64;
        let (kernel, config) = add_kernel(n);
        let plan = invariant_plan(&kernel, config, n);
        let constants = NdArray::from_fn([n], |ix| ix[0] as i64);
        let fr = |count: usize| -> Vec<Vec<NdArray<i64>>> {
            (0..count)
                .map(|f| {
                    vec![constants.clone(), NdArray::from_fn([n], |ix| (f * 7 + ix[0]) as i64)]
                })
                .collect()
        };
        let mut full = Device::gtx480();
        let (_, full_stats) =
            BatchScheduler::new(&plan).run(&mut full, &fr(5), &ExecOptions::default()).unwrap();

        let mut replayed = Device::gtx480();
        let (_, replay_stats) = BatchScheduler::new(&plan)
            .run(&mut replayed, &fr(1), &ExecOptions { total_frames: 5, ..Default::default() })
            .unwrap();
        // Same clock, same span count, same counters: the prologue ran once
        // and the replayed frames repeated only the warm schedule.
        assert_eq!(replayed.now_us(), full.now_us());
        assert_eq!(replayed.profiler.spans().count(), full.profiler.spans().count());
        assert_eq!(replay_stats, full_stats);
    }

    #[test]
    fn batched_steps_move_all_arrays_in_one_transfer() {
        let n = 32;
        let (kernel, config) = double_kernel(n);
        let plan = LaunchPlan {
            arrays: vec![
                ArrayDecl { name: "a".into(), shape: vec![n] },
                ArrayDecl { name: "b".into(), shape: vec![n] },
            ],
            inputs: vec![0, 1],
            outputs: vec![0, 1],
            kernels: vec![
                PlanKernel::new(&kernel, config, vec![0]),
                PlanKernel::new(&kernel, config, vec![1]),
            ],
            host_ops: Vec::new(),
            steps: vec![
                PlanStep::UploadBatch { batch: 0 },
                PlanStep::Launch { kernel: 0 },
                PlanStep::Launch { kernel: 1 },
                PlanStep::DownloadBatch { batch: 0 },
            ],
            prologue: Vec::new(),
            invariant: Vec::new(),
            batches: vec![vec![0, 1]],
            carries: Vec::new(),
            lane_label: "stream lanes",
        };
        let mut device = Device::gtx480();
        let fr = vec![vec![
            NdArray::from_fn([n], |ix| ix[0] as i64),
            NdArray::from_fn([n], |ix| (ix[0] + 1000) as i64),
        ]];
        let (outs, stats) =
            BatchScheduler::new(&plan).run(&mut device, &fr, &ExecOptions::default()).unwrap();
        assert_eq!(outs[0][0], NdArray::from_fn([n], |ix| 2 * ix[0] as i64));
        assert_eq!(outs[0][1], NdArray::from_fn([n], |ix| 2 * (ix[0] + 1000) as i64));
        // One transfer each way for the whole pair, full byte totals.
        assert_eq!((stats.h2d, stats.d2h), (1, 1));
        assert_eq!((stats.h2d_bytes, stats.d2h_bytes), (2 * n * 4, 2 * n * 4));
        assert_eq!(
            device.profiler.records().find(|r| &*r.name == "memcpyHtoDbatched").unwrap().calls,
            1
        );
        assert_eq!(
            device.profiler.records().find(|r| &*r.name == "memcpyDtoHbatched").unwrap().calls,
            1
        );
    }

    #[test]
    fn prologue_and_invariant_misuse_is_rejected() {
        let n = 8;
        let (kernel, config) = add_kernel(n);

        // A prologue step other than Upload/Alloc.
        let mut plan = invariant_plan(&kernel, config, n);
        plan.prologue.push(PlanStep::Launch { kernel: 0 });
        let err = plan.validate();
        assert!(
            matches!(&err, Err(ScheduleError::Plan(m)) if m.contains("prologue may only contain")),
            "{err:?}"
        );

        // A prologue upload of a non-invariant array.
        let mut plan = invariant_plan(&kernel, config, n);
        plan.invariant.clear();
        let err = plan.validate();
        assert!(
            matches!(&err, Err(ScheduleError::Plan(m)) if m.contains("not declared frame-invariant")),
            "{err:?}"
        );

        // An invariant array written on the device (bind it to the writable
        // parameter).
        let mut plan = invariant_plan(&kernel, config, n);
        plan.kernels[0].args = vec![1, 0];
        let err = plan.validate();
        assert!(
            matches!(&err, Err(ScheduleError::Plan(m)) if m.contains("is written by kernel")),
            "{err:?}"
        );

        // An empty transfer batch.
        let mut plan = invariant_plan(&kernel, config, n);
        plan.batches.push(Vec::new());
        let err = plan.validate();
        assert!(
            matches!(&err, Err(ScheduleError::Plan(m)) if m.contains("batch 0 is empty")),
            "{err:?}"
        );
    }

    /// s is the carried state (seeded by frame 0's caller input), a the
    /// per-frame payload: a += s on the device, then a's end-of-frame value
    /// becomes the next frame's s — a running prefix sum across frames.
    fn carry_plan(kernel: &Kernel, config: LaunchConfig, n: usize) -> LaunchPlan<'_> {
        LaunchPlan {
            arrays: vec![
                ArrayDecl { name: "s".into(), shape: vec![n] },
                ArrayDecl { name: "a".into(), shape: vec![n] },
            ],
            inputs: vec![0, 1],
            outputs: vec![1],
            kernels: vec![PlanKernel::new(kernel, config, vec![0, 1])],
            host_ops: Vec::new(),
            steps: vec![
                PlanStep::Upload { array: 0, chunks: 1 },
                PlanStep::Upload { array: 1, chunks: 1 },
                PlanStep::Launch { kernel: 0 },
                PlanStep::Download { array: 1, chunks: 1 },
            ],
            prologue: Vec::new(),
            invariant: Vec::new(),
            batches: Vec::new(),
            carries: vec![Carry { from: 1, to: 0 }],
            lane_label: "stream lanes",
        }
    }

    fn carry_frames(n_frames: usize, n: usize) -> Vec<Vec<NdArray<i64>>> {
        (0..n_frames)
            .map(|f| {
                vec![
                    NdArray::filled([n], 0i64), // state seed; only frame 0's is used
                    NdArray::from_fn([n], |ix| (f * 100 + ix[0]) as i64),
                ]
            })
            .collect()
    }

    #[test]
    fn carry_threads_state_across_frames() {
        let n = 16;
        let (kernel, config) = add_kernel(n);
        let plan = carry_plan(&kernel, config, n);
        let mut device = Device::gtx480();
        let (outs, _) = BatchScheduler::new(&plan)
            .run(&mut device, &carry_frames(4, n), &ExecOptions::default())
            .unwrap();
        // out_f = sum of payloads 0..=f (prefix sum across frames).
        let mut expect = NdArray::filled([n], 0i64);
        for (f, out) in outs.iter().enumerate() {
            let prev = expect.clone();
            expect = NdArray::from_fn([n], |ix| prev.as_slice()[ix[0]] + (f * 100 + ix[0]) as i64);
            assert_eq!(out[0], expect, "frame {f}");
        }
    }

    #[test]
    fn carry_results_are_lane_count_invariant_and_serialize() {
        let n = 2048;
        let (kernel, config) = add_kernel(n);
        let plan = carry_plan(&kernel, config, n);

        let mut serial = Device::gtx480();
        let (expect, _) = BatchScheduler::new(&plan)
            .run(&mut serial, &carry_frames(6, n), &ExecOptions::default())
            .unwrap();

        let mut piped = Device::gtx480();
        let (got, _) = BatchScheduler::new(&plan)
            .run(&mut piped, &carry_frames(6, n), &ExecOptions { streams: 2, ..Default::default() })
            .unwrap();

        // Same values regardless of lane count, and no dishonest overlap: a
        // carry plan runs on one lane, so asking for two changes neither the
        // clock nor the footprint (one buffer set, one stream).
        assert_eq!(got, expect);
        assert_eq!(piped.now_us(), serial.now_us());
        assert_eq!(piped.peak_allocated_bytes(), serial.peak_allocated_bytes());
        assert_eq!(piped.stream_count(), 1);
    }

    #[test]
    fn carry_replay_keeps_the_serialized_clock() {
        let n = 256;
        let (kernel, config) = add_kernel(n);
        let plan = carry_plan(&kernel, config, n);

        let mut full = Device::gtx480();
        BatchScheduler::new(&plan)
            .run(&mut full, &carry_frames(5, n), &ExecOptions { streams: 2, ..Default::default() })
            .unwrap();

        let mut replayed = Device::gtx480();
        BatchScheduler::new(&plan)
            .run(
                &mut replayed,
                &carry_frames(2, n),
                &ExecOptions { streams: 2, total_frames: 5, ..Default::default() },
            )
            .unwrap();
        assert_eq!(replayed.now_us(), full.now_us());
    }

    #[test]
    fn carry_validation_rejects_malformed_plans() {
        let n = 8;
        let (kernel, config) = add_kernel(n);

        // Target is not a frame input.
        let mut plan = carry_plan(&kernel, config, n);
        plan.arrays.push(ArrayDecl { name: "x".into(), shape: vec![n] });
        plan.carries = vec![Carry { from: 1, to: 2 }];
        let err = plan.validate();
        assert!(
            matches!(&err, Err(ScheduleError::Plan(m)) if m.contains("not a frame input")),
            "{err:?}"
        );

        // Two carries racing for one target.
        let mut plan = carry_plan(&kernel, config, n);
        plan.carries = vec![Carry { from: 1, to: 0 }, Carry { from: 1, to: 0 }];
        let err = plan.validate();
        assert!(
            matches!(&err, Err(ScheduleError::Plan(m)) if m.contains("more than one carry")),
            "{err:?}"
        );

        // Shape mismatch between source and target.
        let mut plan = carry_plan(&kernel, config, n);
        plan.arrays[0].shape = vec![n, 2];
        let err = plan.validate();
        assert!(
            matches!(&err, Err(ScheduleError::Plan(m)) if m.contains("does not match target")),
            "{err:?}"
        );

        // Source never host-resident at frame end (download dropped): the
        // carried value would not exist.
        let mut plan = carry_plan(&kernel, config, n);
        plan.steps.pop();
        plan.outputs = vec![0]; // keep the outputs check satisfied
        let err = plan.validate();
        assert!(
            matches!(&err, Err(ScheduleError::Plan(m))
                if m.contains("carry source") && m.contains("not host-resident")),
            "{err:?}"
        );

        // Target declared frame-invariant.
        let (add, cfg) = add_kernel(n);
        let mut plan = invariant_plan(&add, cfg, n);
        plan.carries = vec![Carry { from: 1, to: 0 }];
        let err = plan.validate();
        assert!(
            matches!(&err, Err(ScheduleError::Plan(m)) if m.contains("frame-invariant")),
            "{err:?}"
        );
    }
}
