//! Kernel execution engine: warp-lockstep interpretation of kernel IR.
//!
//! Semantics mirror a CUDA/OpenCL launch:
//!
//! * the kernel body runs once per thread of `grid × block`,
//! * loads observe the buffer contents *as of launch time*; stores become
//!   visible when the launch completes (blocks cannot communicate — exactly
//!   the discipline data-parallel kernels obey),
//! * if two threads store to the same address the one in the higher
//!   (block-major, then thread-major) rank wins — deterministic, though
//!   well-formed kernels never rely on it.
//!
//! # Decoding
//!
//! A launch first decodes the kernel once, against its arguments and
//! geometry, into a private program that every warp of the launch runs
//! (`decode`). Decoding resolves each parameter to its buffer or value and
//! does the work that is the same for every thread, as nvcc or an OpenCL
//! compiler would:
//!
//! * **Launch constants fold.** A register with one static definition, at
//!   the kernel's top level (inside no loop or branch), holds one value for
//!   the whole launch after it if it is defined by a literal, a scalar
//!   argument, a block or grid dimension, or a non-faulting operation on
//!   such constants. Every operation that reads it there takes it as an
//!   immediate; its definition runs only if another instruction (a load
//!   index, a loop bound, ...) needs the register.
//! * **Identities alias.** Such a register defined as `x * 1`, `1 * x`,
//!   `x + 0`, `0 + x`, `x - 0` or `x / 1` is read as `x` itself when nothing
//!   writes `x` after it; `x % ±1`, `x * 0` and `0 * x` are the constant 0.
//! * **Faults stay.** A division by the constant zero, or a parameter of
//!   the wrong kind, decodes to an instruction that faults as the original
//!   does; a division by a nonzero constant skips the zero-divisor check.
//! * **Registers compact.** The decoded program's registers are renumbered
//!   onto shared slots by live range, so folded registers take none.
//!
//! # Warp-lockstep execution
//!
//! A block runs as consecutive warps of `WARP` lanes: lane `l` of warp `w`
//! is the thread of rank `w * WARP + l`, where a thread's rank in its block
//! is `ty * block.x + tx`. A warp's register file is lane-major (one
//! `[i64; WARP]` row per slot) and is zeroed once per warp. Each decoded
//! instruction is dispatched once per warp and applied to the warp's active
//! lanes, a bitmask with a contiguous fast path when all lanes are active.
//! An operation borrows its source rows in place rather than copying them.
//! `If` partitions the active set; `For` captures each lane's
//! `(start, end, step.max(1))` at entry and iterates while any lane is live;
//! `Return` retires a lane for the rest of the kernel.
//!
//! The outcome is bit for bit the one a thread-at-a-time walk of the
//! original kernel gives:
//!
//! * **Counters.** An instruction executed with `n` active lanes counts `n`
//!   instructions; loads, stores and touched addresses count per lane. A
//!   run of instructions that decoding folded away is still charged, at its
//!   own position with the lanes active there. So [`LaunchStats`] and the
//!   touched bitsets — the cost model's inputs, the goldens' source and the
//!   launch memo's record — are exact.
//! * **Store order.** A warp logs its stores in execution order, which
//!   interleaves lanes, then sorts its part of the worker's write log stably
//!   by lane. Stores therefore apply in (block, thread rank, program order),
//!   and a write conflict between two different store instructions resolves
//!   to the highest-ranked thread, as in a thread-at-a-time walk.
//! * **Fault order.** A faulting lane retires with its error while the
//!   others run on, and the warp keeps the lowest faulting lane's error: a
//!   lower-ranked thread's later fault beats a higher-ranked thread's
//!   earlier one. The launch reports the lowest-ranked faulting thread's
//!   first fault and applies no stores.
//!
//! `WARP` is a fixed constant, not a knob. Each host worker holds one
//! `[i64; WARP]` row per slot, and code generators allocate a fresh
//! register per value: a prototype with a per-block register file (256
//! lanes) raised the peak RSS of the perfbench `tune` workload from 24.7 MB
//! to 41.3 MB, while 32 lanes already amortise dispatch over a whole warp.
//! For the same reason decoding compacts registers: at HD1080 a fused
//! GASPARD2 kernel's 912 registers fit in 147 slots, and a SaC generator's
//! 79 to 88 in 6 to 8.
//!
//! The scalar thread-at-a-time interpreter lives on only in this module's
//! tests, as the differential oracle the warp interpreter is checked against.
//!
//! Blocks are distributed over std::thread scoped threads. Each worker keeps a
//! private write log and private access bitsets; the coordinator applies the
//! logs in block order and merges the bitsets, so execution is deterministic
//! and data-race-free while the dynamic counters remain exact.

use crate::kir::{BinOp, Instr, Kernel, KernelArg, Param, Reg, Special};
use crate::SimError;
use std::cmp::Ordering;

/// Grid/block geometry of a launch (x, y). A missing dimension is 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LaunchConfig {
    /// Number of blocks along (x, y).
    pub grid: (u32, u32),
    /// Threads per block along (x, y).
    pub block: (u32, u32),
}

impl LaunchConfig {
    /// A 1-D launch covering at least `n` threads with the given block size.
    pub fn cover_1d(n: usize, block: u32) -> Self {
        let blocks = (n as u64).div_ceil(block as u64) as u32;
        LaunchConfig { grid: (blocks.max(1), 1), block: (block, 1) }
    }

    /// Total number of threads in the launch.
    pub fn total_threads(&self) -> u64 {
        self.grid.0 as u64 * self.grid.1 as u64 * self.block.0 as u64 * self.block.1 as u64
    }

    /// Total number of blocks.
    pub fn total_blocks(&self) -> u64 {
        self.grid.0 as u64 * self.grid.1 as u64
    }
}

/// Dynamic counters of one launch; input to the cost model.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LaunchStats {
    /// Threads executed.
    pub threads: u64,
    /// Dynamic instructions executed (loop bodies counted per iteration).
    pub instructions: u64,
    /// Global loads executed.
    pub loads: u64,
    /// Global stores executed.
    pub stores: u64,
    /// Distinct (buffer, address) pairs touched — charged as DRAM traffic.
    pub distinct_accesses: u64,
    /// Accesses beyond the first to an address — charged as L1 hits.
    pub l1_hits: u64,
}

/// Resolved view of one kernel argument during execution.
enum Bound<'a> {
    Buf { buf_index: usize, data: &'a [i32], writable: bool },
    Scalar(i64),
}

/// Bind `args` to `kernel`'s parameters over the launch-time `buffers`.
fn bind<'a>(
    kernel: &Kernel,
    args: &[KernelArg],
    buffers: &'a [Option<Vec<i32>>],
) -> Result<Vec<Bound<'a>>, SimError> {
    if args.len() != kernel.params.len() {
        return Err(SimError::BadParam { kernel: kernel.name.clone(), index: args.len() });
    }
    let bind_one = |(i, (p, a)): (usize, (&Param, &KernelArg))| match (p, a) {
        (Param::Buffer { writable, .. }, KernelArg::Buffer(id)) => {
            let data = buffers
                .get(*id)
                .and_then(|b| b.as_deref())
                .ok_or(SimError::UnknownBuffer { id: *id })?;
            Ok(Bound::Buf { buf_index: *id, data, writable: *writable })
        }
        (Param::Scalar { .. }, KernelArg::Scalar(v)) => Ok(Bound::Scalar(*v)),
        _ => Err(SimError::ArgKindMismatch { kernel: kernel.name.clone(), index: i }),
    };
    kernel.params.iter().zip(args).enumerate().map(bind_one).collect()
}

/// One empty address bitset per bound argument (empty for scalars).
fn empty_bitsets(bound: &[Bound<'_>]) -> Vec<Vec<u64>> {
    bound
        .iter()
        .map(|b| match b {
            Bound::Buf { data, .. } => vec![0u64; data.len().div_ceil(64)],
            Bound::Scalar(_) => Vec::new(),
        })
        .collect()
}

/// Pending stores: (lane in its warp, argument slot, address, value).
type WriteLog = Vec<(u8, u32, u32, i32)>;

/// Per-worker dynamic counters plus address bitsets (one per buffer argument).
struct WorkerState {
    instructions: u64,
    loads: u64,
    stores: u64,
    touched: Vec<Vec<u64>>, // bitset per kernel argument (empty for scalars)
    log: WriteLog,
}

impl WorkerState {
    fn new(bound: &[Bound<'_>]) -> Self {
        WorkerState {
            instructions: 0,
            loads: 0,
            stores: 0,
            touched: empty_bitsets(bound),
            log: Vec::new(),
        }
    }
}

/// Execute `kernel` over `cfg` against the supplied buffers.
///
/// `buffers` are the device buffers indexed by [`KernelArg::Buffer`] ids.
/// On success the stores are applied and the dynamic counters returned.
pub fn run_kernel(
    kernel: &Kernel,
    cfg: LaunchConfig,
    args: &[KernelArg],
    buffers: &mut [Option<Vec<i32>>],
    host_workers: usize,
) -> Result<LaunchStats, SimError> {
    run_kernel_touching(kernel, cfg, args, buffers, host_workers).map(|(stats, _)| stats)
}

/// [`run_kernel`], also returning per argument the bitset of addresses the
/// launch loaded or stored through it (empty for scalars).
pub(crate) fn run_kernel_touching(
    kernel: &Kernel,
    cfg: LaunchConfig,
    args: &[KernelArg],
    buffers: &mut [Option<Vec<i32>>],
    host_workers: usize,
) -> Result<(LaunchStats, Vec<Vec<u64>>), SimError> {
    let (grid, block) = (cfg.grid, cfg.block);
    if grid.0 == 0 || grid.1 == 0 || block.0 == 0 || block.1 == 0 {
        return Err(SimError::InvalidLaunchConfig { kernel: kernel.name.clone(), grid, block });
    }
    // Shared view for the read-only sweep; stores go to write logs that are
    // applied through `buffers` only after every borrow of `view` has ended.
    let view: &[Option<Vec<i32>>] = buffers;
    let bound = bind(kernel, args, view)?;

    let total_blocks = cfg.total_blocks();
    // Respect the caller's worker count (clamped only by the block count):
    // the Device defaults it to the host's parallelism, and tests force
    // higher counts to exercise the multi-worker merge even on small hosts.
    let workers = host_workers.max(1).min(total_blocks as usize);
    let chunk = total_blocks.div_ceil(workers as u64);

    // Run blocks, either inline or across scoped threads.
    let prog = decode(kernel, &bound, cfg);
    let run_range = |lo: u64, hi: u64| -> Result<WorkerState, SimError> {
        let mut warp = Warp::new(&prog, &kernel.name, &bound, cfg);
        for blk in lo..hi {
            warp.run_block(blk)?;
        }
        Ok(warp.st)
    };

    let states: Vec<Result<WorkerState, SimError>> = if workers <= 1 {
        vec![run_range(0, total_blocks)]
    } else {
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..workers as u64)
                .map(|w| {
                    let lo = w * chunk;
                    let hi = ((w + 1) * chunk).min(total_blocks);
                    let run_range = &run_range;
                    s.spawn(move || run_range(lo, hi))
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("kernel worker panicked")).collect()
        })
    };
    // Workers ran increasing block ranges, so the first error in worker
    // order is the lowest-ranked faulting thread's.
    let states = states.into_iter().collect::<Result<Vec<_>, _>>()?;
    let buffer_of = bound
        .iter()
        .map(|b| match b {
            Bound::Buf { buf_index, .. } => Some(*buf_index),
            Bound::Scalar(_) => None,
        })
        .collect::<Vec<_>>();
    let merged = empty_bitsets(&bound);
    drop(bound);
    Ok(finish(cfg, merged, &buffer_of, states, buffers))
}

/// Merge the workers' counters and bitsets into `merged` and apply their
/// write logs in worker order, which is block-rank order. `buffer_of[arg]`
/// is the buffer bound to argument `arg` (`None` for scalars).
fn finish(
    cfg: LaunchConfig,
    mut merged: Vec<Vec<u64>>,
    buffer_of: &[Option<usize>],
    states: Vec<WorkerState>,
    buffers: &mut [Option<Vec<i32>>],
) -> (LaunchStats, Vec<Vec<u64>>) {
    let mut stats = LaunchStats { threads: cfg.total_threads(), ..Default::default() };
    for st in states {
        stats.instructions += st.instructions;
        stats.loads += st.loads;
        stats.stores += st.stores;
        for (m, t) in merged.iter_mut().zip(&st.touched) {
            for (a, b) in m.iter_mut().zip(t) {
                *a |= *b;
            }
        }
        for (_, arg, addr, val) in st.log {
            let id = buffer_of[arg as usize].expect("store through scalar argument");
            let buf = buffers[id].as_mut().expect("buffer vanished during launch");
            buf[addr as usize] = val;
        }
    }
    stats.distinct_accesses = merged.iter().flatten().map(|w| w.count_ones() as u64).sum();
    stats.l1_hits = (stats.loads + stats.stores).saturating_sub(stats.distinct_accesses);
    (stats, merged)
}

/// Lanes per warp: the unit in which the interpreter decodes instructions.
const WARP: usize = 32;

/// A set of lanes of one warp, one bit per lane.
type Mask = u32;
const _: () = assert!(Mask::BITS as usize == WARP);

/// Every lane of a full warp.
const FULL: Mask = Mask::MAX;

/// One register slot across the lanes of a warp.
type Row = [i64; WARP];

/// Call `f` for every lane in `mask`, in increasing lane order.
#[inline(always)]
fn for_lanes(mask: Mask, mut f: impl FnMut(usize)) {
    if mask == FULL {
        (0..WARP).for_each(f);
    } else {
        let mut m = mask;
        while m != 0 {
            f(m.trailing_zeros() as usize);
            m &= m - 1;
        }
    }
}

/// `d[l] = f(l)` for every lane `l` in `mask`; the other lanes keep their
/// values. `f` is evaluated on every lane, so it must not panic on an
/// inactive lane's values; in return the update vectorises.
#[inline(always)]
fn set(d: &mut Row, mask: Mask, f: impl Fn(usize) -> i64) {
    if mask == FULL {
        d.iter_mut().enumerate().for_each(|(l, x)| *x = f(l));
    } else {
        d.iter_mut().enumerate().for_each(|(l, x)| *x = if mask >> l & 1 != 0 { f(l) } else { *x });
    }
}

/// The lanes of `mask` for which `p` holds; `p` is evaluated on every lane,
/// so it must not panic on an inactive lane's values.
#[inline(always)]
fn lanes_where(mask: Mask, p: impl Fn(usize) -> bool) -> Mask {
    (0..WARP).fold(0, |m, l| m | (p(l) as Mask) << l) & mask
}

/// `d[l] = a(l) op b(l)` for every lane `l` in `mask`. A `Div` or `Rem`
/// lane must have a nonzero divisor.
#[inline(always)]
fn bin(op: BinOp, d: &mut Row, mask: Mask, a: impl Fn(usize) -> i64, b: impl Fn(usize) -> i64) {
    match op {
        BinOp::Add => set(d, mask, |l| a(l).wrapping_add(b(l))),
        BinOp::Sub => set(d, mask, |l| a(l).wrapping_sub(b(l))),
        BinOp::Mul => set(d, mask, |l| a(l).wrapping_mul(b(l))),
        BinOp::Div => for_lanes(mask, |l| d[l] = a(l).wrapping_div(b(l))),
        BinOp::Rem => for_lanes(mask, |l| d[l] = a(l).wrapping_rem(b(l))),
        BinOp::Min => set(d, mask, |l| a(l).min(b(l))),
        BinOp::Max => set(d, mask, |l| a(l).max(b(l))),
        BinOp::Lt => set(d, mask, |l| (a(l) < b(l)) as i64),
        BinOp::Le => set(d, mask, |l| (a(l) <= b(l)) as i64),
        BinOp::Eq => set(d, mask, |l| (a(l) == b(l)) as i64),
        BinOp::Ne => set(d, mask, |l| (a(l) != b(l)) as i64),
        BinOp::And => set(d, mask, |l| (a(l) != 0 && b(l) != 0) as i64),
        BinOp::Or => set(d, mask, |l| (a(l) != 0 || b(l) != 0) as i64),
    }
}

/// Row `dst` of `regs` to write and rows `srcs` to read. Source rows are
/// borrowed in place; one that is `dst` itself is first copied to `spare`.
#[inline(always)]
fn rows<'r, const N: usize>(
    regs: &'r mut [Row],
    spare: &'r mut Row,
    dst: Reg,
    srcs: [Reg; N],
) -> (&'r mut Row, [&'r Row; N]) {
    let dst = dst as usize;
    let (below, rest) = regs.split_at_mut(dst);
    let (d, above) = rest.split_first_mut().expect("register slot in range");
    if srcs.contains(&(dst as Reg)) {
        *spare = *d;
    }
    let (below, above, spare) = (&*below, &*above, &*spare);
    let srcs = srcs.map(|s| match (s as usize).cmp(&dst) {
        Ordering::Less => &below[s as usize],
        Ordering::Greater => &above[s as usize - dst - 1],
        Ordering::Equal => spare,
    });
    (d, srcs)
}

/// A kernel decoded for one launch: its instructions over register slots,
/// with the launch's constants folded in.
struct Program<'a> {
    body: Vec<Op<'a>>,
    /// Register slots per lane.
    slots: usize,
}

/// One instruction of a decoded kernel, over register slots.
enum Op<'a> {
    /// A run of `n` instructions whose work decoding did: charged, not run.
    Count(u64),
    /// An instruction that faults on every lane that runs it.
    Fault(Box<SimError>),
    /// `dst = value`.
    Const { dst: Reg, value: i64 },
    /// `dst = <special thread/block value>`.
    Special { dst: Reg, kind: Special },
    /// `dst = lhs op rhs`.
    Bin { op: BinOp, dst: Reg, lhs: Reg, rhs: Reg },
    /// `dst = lhs op imm`; a `Div` or `Rem` here has a nonzero `imm`.
    BinImm { op: BinOp, dst: Reg, lhs: Reg, imm: i64 },
    /// `dst = imm op rhs`.
    ImmBin { op: BinOp, dst: Reg, imm: i64, rhs: Reg },
    /// `dst = src`.
    Mov { dst: Reg, src: Reg },
    /// `dst = data[index]`, `data` being buffer argument `param`.
    Load { dst: Reg, param: usize, index: Reg, data: &'a [i32] },
    /// `buffer[param][index] = src`, the buffer having `len` elements.
    Store { param: usize, index: Reg, src: Reg, len: usize },
    /// `for (var = start; var < end; var += step) body`.
    For { var: Reg, start: Reg, end: Reg, step: Reg, body: Vec<Op<'a>> },
    /// `if (cond != 0) then else els`.
    If { cond: Reg, then: Vec<Op<'a>>, els: Vec<Op<'a>> },
    /// Early thread exit.
    Return,
}

impl Op<'_> {
    /// Call `f(reg, written)` on each register this op names outside its
    /// bodies: the ones it reads, then the one it writes.
    fn each_reg(&mut self, mut f: impl FnMut(&mut Reg, bool)) {
        match self {
            Op::Count(_) | Op::Fault(_) | Op::Return => {}
            Op::Const { dst, .. } | Op::Special { dst, .. } => f(dst, true),
            Op::Bin { dst, lhs, rhs, .. } => {
                f(lhs, false);
                f(rhs, false);
                f(dst, true);
            }
            Op::BinImm { dst, lhs: src, .. }
            | Op::ImmBin { dst, rhs: src, .. }
            | Op::Mov { dst, src }
            | Op::Load { dst, index: src, .. } => {
                f(src, false);
                f(dst, true);
            }
            Op::Store { index, src, .. } => {
                f(index, false);
                f(src, false);
            }
            Op::For { var, start, end, step, .. } => {
                [start, end, step].into_iter().for_each(|r| f(r, false));
                f(var, true);
            }
            Op::If { cond, .. } => f(cond, false),
        }
    }
}

/// Decode `kernel` for a launch of `cfg` with arguments `bound`.
///
/// A register is *foldable* when it has exactly one static definition and
/// that definition is at the kernel's top level, inside no loop or branch.
/// Decoding runs in pre-order, so it folds only the reads it decodes after
/// the definition, and every lane that runs one of those ran the definition
/// first and sees the one value it gave; a read before the definition still
/// reads the register, unwritten there as in the kernel. A foldable register
/// is a launch constant if its definition is a `Const`, a `LoadParam` of a
/// scalar argument, a block or grid dimension, or a `Bin` whose value
/// decoding knows and that cannot fault. A launch constant becomes an
/// immediate of every `Bin` that reads it; its definition still runs if some
/// other instruction reads the register. A foldable `x * 1`, `1 * x`, `x + 0`, `0 + x`, `x - 0` or
/// `x / 1` becomes an alias of `x` when nothing writes `x` after it: its
/// readers read `x`. Every folded instruction is still charged, with the
/// active lanes of its position, by an [`Op::Count`], and an instruction
/// that faults (a parameter of the wrong kind, a division by the constant
/// zero) stays. So the decoded kernel computes, counts and faults exactly as
/// the kernel does.
///
/// The registers are then renumbered onto slots by live range
/// ([`compact`]), so folded registers take none.
fn decode<'a>(kernel: &Kernel, bound: &[Bound<'a>], cfg: LaunchConfig) -> Program<'a> {
    let n = kernel.register_count();
    let mut census = Census { uses: vec![RegUse::default(); n], pos: 0 };
    census.scan(&kernel.body, true);
    let mut dec = Decoder {
        name: &kernel.name,
        bound,
        cfg,
        uses: census.uses,
        val: (0..n).map(|r| Val::Reg(r as Reg)).collect(),
        pos: 0,
    };
    let mut body = dec.block(&kernel.body);
    let slots = compact(&mut body, n);
    Program { body, slots }
}

/// The static uses of one register, at instruction positions numbered in
/// pre-order (a `For` or `If` comes before its bodies, a `then` before its
/// `els`).
#[derive(Clone, Copy, Default)]
struct RegUse {
    /// Static definitions (a `For` defines its variable once).
    defs: u32,
    /// Position of the last definition, and whether it is at top level.
    def_at: u32,
    top: bool,
    /// Read by an instruction other than a `Bin`, which cannot take an
    /// immediate in its place.
    needed: bool,
}

/// Collects the [`RegUse`] of every register.
struct Census {
    uses: Vec<RegUse>,
    pos: u32,
}

impl Census {
    fn need(&mut self, r: Reg) {
        self.uses[r as usize].needed = true;
    }

    fn def(&mut self, r: Reg, at: u32, top: bool) {
        let u = &mut self.uses[r as usize];
        (u.defs, u.def_at, u.top) = (u.defs + 1, at, top);
    }

    /// Record the uses in `instrs`, which are at top level if `top`.
    fn scan(&mut self, instrs: &[Instr], top: bool) {
        for i in instrs {
            let at = self.pos;
            self.pos += 1;
            match i {
                Instr::Const { dst, .. }
                | Instr::LoadParam { dst, .. }
                | Instr::Special { dst, .. } => self.def(*dst, at, top),
                Instr::Bin { dst, .. } => self.def(*dst, at, top),
                Instr::Mov { dst, src } | Instr::Load { dst, index: src, .. } => {
                    self.need(*src);
                    self.def(*dst, at, top);
                }
                Instr::Store { index, src, .. } => {
                    self.need(*index);
                    self.need(*src);
                }
                Instr::For { var, start, end, step, body } => {
                    for r in [start, end, step] {
                        self.need(*r);
                    }
                    self.def(*var, at, false);
                    self.scan(body, false);
                }
                Instr::If { cond, then, els } => {
                    self.need(*cond);
                    self.scan(then, false);
                    self.scan(els, false);
                }
                Instr::Return => {}
            }
        }
    }
}

/// What a read of a register reads.
#[derive(Clone, Copy, PartialEq)]
enum Val {
    /// This register: the one read, or the one it aliases.
    Reg(Reg),
    /// A launch constant.
    Imm(i64),
}

/// The value of `a op b` if decoding knows it; `op` must not be a division
/// by the constant zero.
fn known_value(op: BinOp, a: Val, b: Val) -> Option<i64> {
    match (op, a, b) {
        (_, Val::Imm(a), Val::Imm(b)) => {
            let mut d = [0; WARP];
            bin(op, &mut d, 1, |_| a, |_| b);
            Some(d[0])
        }
        (BinOp::Mul, Val::Imm(0), _) | (BinOp::Mul, _, Val::Imm(0)) => Some(0),
        (BinOp::Rem, _, Val::Imm(1 | -1)) => Some(0),
        _ => None,
    }
}

/// The register `a op b` equals on every lane, if it is an identity.
fn identity(op: BinOp, a: Val, b: Val) -> Option<Reg> {
    match (op, a, b) {
        (BinOp::Mul, Val::Reg(x), Val::Imm(1))
        | (BinOp::Mul, Val::Imm(1), Val::Reg(x))
        | (BinOp::Add, Val::Reg(x), Val::Imm(0))
        | (BinOp::Add, Val::Imm(0), Val::Reg(x))
        | (BinOp::Sub, Val::Reg(x), Val::Imm(0))
        | (BinOp::Div, Val::Reg(x), Val::Imm(1)) => Some(x),
        _ => None,
    }
}

/// Lowers a kernel's instructions to [`Op`]s; see [`decode`].
struct Decoder<'k, 'a> {
    name: &'k str,
    bound: &'k [Bound<'a>],
    cfg: LaunchConfig,
    uses: Vec<RegUse>,
    /// What a read of each register reads, as decoded so far.
    val: Vec<Val>,
    /// Position of the next instruction, numbered as in [`Census`].
    pos: u32,
}

impl<'a> Decoder<'_, 'a> {
    fn block(&mut self, instrs: &[Instr]) -> Vec<Op<'a>> {
        let mut ops = Vec::with_capacity(instrs.len());
        let mut folded = 0;
        for i in instrs {
            let at = self.pos;
            self.pos += 1;
            match self.op(i, at) {
                Some(op) => {
                    if folded > 0 {
                        ops.push(Op::Count(folded));
                        folded = 0;
                    }
                    ops.push(op);
                }
                None => folded += 1,
            }
        }
        if folded > 0 {
            ops.push(Op::Count(folded));
        }
        ops
    }

    fn foldable(&self, r: Reg) -> bool {
        let u = &self.uses[r as usize];
        u.defs == 1 && u.top
    }

    /// `dst = value`: a launch constant if `dst` is foldable, whose
    /// definition runs only if an instruction other than a `Bin` reads it.
    fn constant(&mut self, dst: Reg, value: i64) -> Option<Op<'a>> {
        if self.foldable(dst) {
            self.val[dst as usize] = Val::Imm(value);
            if !self.uses[dst as usize].needed {
                return None;
            }
        }
        Some(Op::Const { dst, value })
    }

    /// The register a read of `r` reads.
    fn reg(&self, r: Reg) -> Reg {
        match self.val[r as usize] {
            Val::Reg(x) => x,
            Val::Imm(_) => r,
        }
    }

    /// `i`, at position `at`, as an op, or `None` if decoding did its work.
    fn op(&mut self, i: &Instr, at: u32) -> Option<Op<'a>> {
        let fault = |err| Some(Op::Fault(Box::new(err)));
        let name = || self.name.to_string();
        match *i {
            Instr::Const { dst, value } => self.constant(dst, value),
            Instr::LoadParam { dst, param } => match self.bound.get(param) {
                Some(&Bound::Scalar(v)) => self.constant(dst, v),
                _ => fault(SimError::BadParam { kernel: name(), index: param }),
            },
            Instr::Special { dst, kind } => match kind {
                Special::BlockDimX => self.constant(dst, self.cfg.block.0 as i64),
                Special::BlockDimY => self.constant(dst, self.cfg.block.1 as i64),
                Special::GridDimX => self.constant(dst, self.cfg.grid.0 as i64),
                Special::GridDimY => self.constant(dst, self.cfg.grid.1 as i64),
                _ => Some(Op::Special { dst, kind }),
            },
            Instr::Bin { op, dst, lhs, rhs } => {
                let (a, b) = (self.val[lhs as usize], self.val[rhs as usize]);
                if matches!(op, BinOp::Div | BinOp::Rem) && b == Val::Imm(0) {
                    return fault(SimError::DivByZero { kernel: name() });
                }
                if let Some(v) = known_value(op, a, b) {
                    return self.constant(dst, v);
                }
                if let Some(x) = identity(op, a, b) {
                    let x_use = &self.uses[x as usize];
                    if self.foldable(dst) && (x_use.defs == 0 || x_use.def_at < at) {
                        self.val[dst as usize] = Val::Reg(x);
                        return None;
                    }
                }
                Some(match (a, b) {
                    (Val::Reg(lhs), Val::Reg(rhs)) => Op::Bin { op, dst, lhs, rhs },
                    (Val::Reg(lhs), Val::Imm(imm)) => Op::BinImm { op, dst, lhs, imm },
                    (Val::Imm(imm), Val::Reg(rhs)) => Op::ImmBin { op, dst, imm, rhs },
                    (Val::Imm(_), Val::Imm(_)) => unreachable!("two constants fold"),
                })
            }
            Instr::Mov { dst, src } => Some(Op::Mov { dst, src: self.reg(src) }),
            Instr::Load { dst, param, index } => match self.bound.get(param) {
                Some(&Bound::Buf { data, .. }) => {
                    Some(Op::Load { dst, param, index: self.reg(index), data })
                }
                _ => fault(SimError::BadParam { kernel: name(), index: param }),
            },
            Instr::Store { param, index, src } => match self.bound.get(param) {
                Some(&Bound::Buf { data, writable: true, .. }) => Some(Op::Store {
                    param,
                    index: self.reg(index),
                    src: self.reg(src),
                    len: data.len(),
                }),
                Some(Bound::Buf { .. }) => fault(SimError::ReadOnlyStore { kernel: name(), param }),
                _ => fault(SimError::BadParam { kernel: name(), index: param }),
            },
            Instr::For { var, start, end, step, ref body } => Some(Op::For {
                var,
                start: self.reg(start),
                end: self.reg(end),
                step: self.reg(step),
                body: self.block(body),
            }),
            Instr::If { cond, ref then, ref els } => {
                Some(Op::If { cond: self.reg(cond), then: self.block(then), els: self.block(els) })
            }
            Instr::Return => Some(Op::Return),
        }
    }
}

/// Renumber the `n` registers of `body` onto as few slots as possible;
/// returns the slot count.
///
/// Code generators allocate a fresh register per value (a fused HD kernel
/// has 912), and every host worker holds `slots × WARP` of them, so the
/// warp register file would otherwise cost 32 times a thread's. Two
/// registers share a slot when their live ranges are disjoint. A live range
/// runs from a register's first mention to its last in program order,
/// widened to the end of every loop that mentions a register already
/// mentioned before the loop (a later iteration reads it again). A register
/// that some read may find unwritten, and so zero, starts its range at the
/// program start, which gives it a slot no other register has used. Every
/// thread therefore reads the same values as under the original numbering.
fn compact(body: &mut [Op<'_>], n: usize) -> usize {
    let mut live = LiveRanges {
        first: vec![u32::MAX; n],
        last: vec![0; n],
        maybe_unset: vec![false; n],
        loops: Vec::new(),
        pos: 0,
    };
    live.scan(body, &mut vec![false; n]);
    let LiveRanges { mut first, mut last, maybe_unset, loops, .. } = live;
    let mut order: Vec<usize> = (0..n).filter(|&r| first[r] != u32::MAX).collect();
    for &r in &order {
        if maybe_unset[r] {
            first[r] = 0;
        }
    }
    for &(header, end) in &loops {
        for &r in &order {
            if first[r] < header && (header..end).contains(&last[r]) {
                last[r] = end;
            }
        }
    }
    // Linear scan: hand each range, in order of start, a slot whose
    // previous range has ended.
    order.sort_by_key(|&r| first[r]);
    let mut slot = vec![0 as Reg; n];
    let mut busy = std::collections::BinaryHeap::new();
    let (mut free, mut slots) = (Vec::new(), 0 as Reg);
    for r in order {
        while let Some(&std::cmp::Reverse((end, s))) = busy.peek() {
            if end >= first[r] {
                break;
            }
            busy.pop();
            free.push(s);
        }
        slot[r] = free.pop().unwrap_or_else(|| {
            slots += 1;
            slots - 1
        });
        busy.push(std::cmp::Reverse((last[r], slot[r])));
    }
    renumber(body, &slot);
    slots as usize
}

/// Register live ranges over op positions (pre-order: a `For` or `If` comes
/// before its bodies, a `then` before its `els`).
struct LiveRanges {
    first: Vec<u32>,
    last: Vec<u32>,
    /// Registers that some read may find never written.
    maybe_unset: Vec<bool>,
    /// `(header, end)` positions of every loop: its body lies in between.
    loops: Vec<(u32, u32)>,
    pos: u32,
}

impl LiveRanges {
    fn mention(&mut self, r: Reg, at: u32) {
        let r = r as usize;
        self.first[r] = self.first[r].min(at);
        self.last[r] = self.last[r].max(at);
    }

    fn read(&mut self, r: Reg, at: u32, set: &[bool]) {
        self.mention(r, at);
        self.maybe_unset[r as usize] |= !set[r as usize];
    }

    fn write(&mut self, r: Reg, at: u32, set: &mut [bool]) {
        self.mention(r, at);
        set[r as usize] = true;
    }

    /// Record the mentions in `ops`. `set` holds the registers written on
    /// every path to `ops` and is left holding those written on every path
    /// through them.
    fn scan(&mut self, ops: &mut [Op<'_>], set: &mut Vec<bool>) {
        for op in ops {
            let at = self.pos;
            self.pos += 1;
            match op {
                Op::For { var, start, end, step, body } => {
                    for r in [start, end, step] {
                        self.read(*r, at, set);
                    }
                    // The body may run zero times: it adds nothing to `set`.
                    let mut in_body = set.clone();
                    self.write(*var, at, &mut in_body);
                    self.scan(body, &mut in_body);
                    self.loops.push((at, self.pos));
                }
                Op::If { cond, then, els } => {
                    self.read(*cond, at, set);
                    let mut on_else = set.clone();
                    self.scan(then, set);
                    self.scan(els, &mut on_else);
                    set.iter_mut().zip(on_else).for_each(|(s, e)| *s &= e);
                }
                _ => op.each_reg(|r, written| {
                    if written {
                        self.write(*r, at, set)
                    } else {
                        self.read(*r, at, set)
                    }
                }),
            }
        }
    }
}

/// Replace every register `r` in `ops` by `slot[r]`.
fn renumber(ops: &mut [Op<'_>], slot: &[Reg]) {
    for op in ops {
        op.each_reg(|r, _| *r = slot[*r as usize]);
        match op {
            Op::For { body, .. } => renumber(body, slot),
            Op::If { then, els, .. } => {
                renumber(then, slot);
                renumber(els, slot);
            }
            _ => {}
        }
    }
}

/// Record in `first` that the lanes in `lanes` fault with `err(lane)`,
/// keeping the lowest faulting lane's error. A lane faults at most once: it
/// retires.
fn record_fault(
    first: &mut Option<(usize, SimError)>,
    lanes: Mask,
    err: impl FnOnce(usize) -> SimError,
) {
    let lane = lanes.trailing_zeros() as usize;
    if first.as_ref().is_none_or(|&(l, _)| lane < l) {
        *first = Some((lane, err(lane)));
    }
}

/// The lanes of `mask` whose index `ix[lane]` lies inside a buffer of `len`
/// elements; the others fault, into `first`, with an out-of-bounds access
/// through argument `param` of kernel `name`.
fn in_bounds(
    first: &mut Option<(usize, SimError)>,
    name: &str,
    mask: Mask,
    param: usize,
    ix: &Row,
    len: usize,
) -> Mask {
    // A negative index wraps to a huge unsigned one.
    let oob = lanes_where(mask, |l| ix[l] as u64 >= len as u64);
    if oob != 0 {
        record_fault(first, oob, |l| SimError::OutOfBounds {
            kernel: name.to_string(),
            buffer: param,
            index: ix[l],
            len,
        });
    }
    mask & !oob
}

/// One worker's execution state: the launch it serves, the current warp's
/// identity, lane-major registers and fault, and the worker's counters and
/// write log.
struct Warp<'a> {
    prog: &'a Program<'a>,
    name: &'a str,
    cfg: LaunchConfig,
    bx: i64,
    by: i64,
    tx: [i64; WARP],
    ty: [i64; WARP],
    /// `regs[slot][lane]`.
    regs: Vec<Row>,
    /// A copy of a source row that is also the destination.
    spare: Row,
    /// The lowest faulting lane so far and its (first and only) fault.
    fault: Option<(usize, SimError)>,
    st: WorkerState,
}

impl<'a> Warp<'a> {
    fn new(prog: &'a Program<'a>, name: &'a str, bound: &[Bound<'_>], cfg: LaunchConfig) -> Self {
        Warp {
            prog,
            name,
            cfg,
            bx: 0,
            by: 0,
            tx: [0; WARP],
            ty: [0; WARP],
            regs: vec![[0; WARP]; prog.slots],
            spare: [0; WARP],
            fault: None,
            st: WorkerState::new(bound),
        }
    }

    /// Run block `blk` warp by warp, appending its stores to the worker log
    /// in (thread rank, program order).
    fn run_block(&mut self, blk: u64) -> Result<(), SimError> {
        let prog = self.prog;
        let width = self.cfg.block.0 as usize;
        let threads = width * self.cfg.block.1 as usize;
        self.bx = (blk % self.cfg.grid.0 as u64) as i64;
        self.by = (blk / self.cfg.grid.0 as u64) as i64;
        for first in (0..threads).step_by(WARP) {
            let lanes = (threads - first).min(WARP);
            let (mut x, mut y) = (first % width, first / width);
            for l in 0..lanes {
                (self.tx[l], self.ty[l]) = (x as i64, y as i64);
                x += 1;
                if x == width {
                    (x, y) = (0, y + 1);
                }
            }
            self.regs.fill([0; WARP]);
            let logged = self.st.log.len();
            self.exec(&prog.body, if lanes == WARP { FULL } else { (1 << lanes) - 1 });
            if let Some((_, err)) = self.fault.take() {
                return Err(err);
            }
            // The warp logged its stores in execution order, which
            // interleaves lanes; a stable sort restores program order per lane.
            self.st.log[logged..].sort_by_key(|&(lane, ..)| lane);
        }
        Ok(())
    }

    /// The lanes of `mask` whose slot `r` is nonzero; the others fault with
    /// a division by zero.
    fn nonzero(&mut self, mask: Mask, r: Reg) -> Mask {
        let b = &self.regs[r as usize];
        let zero = lanes_where(mask, |l| b[l] == 0);
        if zero != 0 {
            let name = self.name;
            record_fault(&mut self.fault, zero, |_| SimError::DivByZero { kernel: name.into() });
        }
        mask & !zero
    }

    /// Run `ops` for the lanes in `mask`; returns the lanes still running
    /// afterwards (those that neither returned nor faulted).
    fn exec(&mut self, ops: &'a [Op<'a>], mut mask: Mask) -> Mask {
        let (name, cfg) = (self.name, self.cfg);
        for op in ops {
            if mask == 0 {
                break;
            }
            let lanes = mask.count_ones() as u64;
            self.st.instructions += lanes;
            match op {
                // The first of the `n` was charged above.
                Op::Count(n) => self.st.instructions += (n - 1) * lanes,
                Op::Fault(err) => {
                    record_fault(&mut self.fault, mask, |_| (**err).clone());
                    mask = 0;
                }
                Op::Const { dst, value } => set(&mut self.regs[*dst as usize], mask, |_| *value),
                Op::Special { dst, kind } => {
                    let (bx, by, tx, ty) = (self.bx, self.by, &self.tx, &self.ty);
                    let (bdx, bdy) = (cfg.block.0 as i64, cfg.block.1 as i64);
                    let value = |l: usize| match kind {
                        Special::GlobalIdX => bx * bdx + tx[l],
                        Special::GlobalIdY => by * bdy + ty[l],
                        Special::ThreadIdxX => tx[l],
                        Special::ThreadIdxY => ty[l],
                        Special::BlockIdxX => bx,
                        Special::BlockIdxY => by,
                        Special::BlockDimX => bdx,
                        Special::BlockDimY => bdy,
                        Special::GridDimX => cfg.grid.0 as i64,
                        Special::GridDimY => cfg.grid.1 as i64,
                    };
                    set(&mut self.regs[*dst as usize], mask, value);
                }
                Op::Bin { op, dst, lhs, rhs } => {
                    if matches!(op, BinOp::Div | BinOp::Rem) {
                        mask = self.nonzero(mask, *rhs);
                    }
                    let (d, [a, b]) = rows(&mut self.regs, &mut self.spare, *dst, [*lhs, *rhs]);
                    bin(*op, d, mask, |l| a[l], |l| b[l]);
                }
                Op::BinImm { op, dst, lhs, imm } => {
                    let (d, [a]) = rows(&mut self.regs, &mut self.spare, *dst, [*lhs]);
                    bin(*op, d, mask, |l| a[l], |_| *imm);
                }
                Op::ImmBin { op, dst, imm, rhs } => {
                    if matches!(op, BinOp::Div | BinOp::Rem) {
                        mask = self.nonzero(mask, *rhs);
                    }
                    let (d, [b]) = rows(&mut self.regs, &mut self.spare, *dst, [*rhs]);
                    bin(*op, d, mask, |_| *imm, |l| b[l]);
                }
                Op::Mov { dst, src } => {
                    let (d, [s]) = rows(&mut self.regs, &mut self.spare, *dst, [*src]);
                    set(d, mask, |l| s[l]);
                }
                Op::Load { dst, param, index, data } => {
                    let (d, [ix]) = rows(&mut self.regs, &mut self.spare, *dst, [*index]);
                    mask = in_bounds(&mut self.fault, name, mask, *param, ix, data.len());
                    let touched = &mut self.st.touched[*param];
                    for_lanes(mask, |l| {
                        let a = ix[l] as usize;
                        touched[a / 64] |= 1 << (a % 64);
                        d[l] = data[a] as i64;
                    });
                    self.st.loads += mask.count_ones() as u64;
                }
                Op::Store { param, index, src, len } => {
                    let (ix, v) = (&self.regs[*index as usize], &self.regs[*src as usize]);
                    mask = in_bounds(&mut self.fault, name, mask, *param, ix, *len);
                    let (touched, log) = (&mut self.st.touched[*param], &mut self.st.log);
                    for_lanes(mask, |l| {
                        let a = ix[l] as u32;
                        touched[(a / 64) as usize] |= 1 << (a % 64);
                        // Device buffers hold 32-bit ints (the paper's frames
                        // are `int` arrays); like real CUDA/OpenCL `int`
                        // stores, values are truncated modulo 2^32. Registers
                        // are 64-bit, so *intermediate* arithmetic is wider
                        // than a real device's — programs relying on i32
                        // wrap-around mid-expression would diverge, which the
                        // studied pixel workloads never do.
                        log.push((l as u8, *param as u32, a, v[l] as i32));
                    });
                    self.st.stores += mask.count_ones() as u64;
                }
                Op::For { var, start, end, step, body } => {
                    let mut v = self.regs[*start as usize];
                    let end_v = self.regs[*end as usize];
                    let step_v = self.regs[*step as usize].map(|s| s.max(1));
                    let mut live = lanes_where(mask, |l| v[l] < end_v[l]);
                    while live != 0 {
                        set(&mut self.regs[*var as usize], live, |l| v[l]);
                        let cont = self.exec(body, live);
                        mask &= !(live & !cont);
                        for_lanes(cont, |l| v[l] += step_v[l]);
                        live = lanes_where(cont, |l| v[l] < end_v[l]);
                    }
                }
                Op::If { cond, then, els } => {
                    let c = &self.regs[*cond as usize];
                    let taken = lanes_where(mask, |l| c[l] != 0);
                    let not_taken = mask & !taken;
                    mask = 0;
                    if taken != 0 {
                        mask |= self.exec(then, taken);
                    }
                    if not_taken != 0 {
                        mask |= self.exec(els, not_taken);
                    }
                }
                Op::Return => mask = 0,
            }
        }
        mask
    }
}

/// A scalar interpreter: one thread at a time, in (block, thread rank)
/// order, on one worker, with the kernel's own register numbering. It is
/// the differential oracle the warp interpreter must match bit for bit.
#[cfg(test)]
mod scalar {
    use super::*;

    /// [`run_kernel_touching`] by walking every thread separately.
    pub(super) fn run(
        kernel: &Kernel,
        cfg: LaunchConfig,
        args: &[KernelArg],
        buffers: &mut [Option<Vec<i32>>],
    ) -> Result<(LaunchStats, Vec<Vec<u64>>), SimError> {
        let bound = bind(kernel, args, buffers)?;
        let mut st = WorkerState::new(&bound);
        let mut regs = vec![0i64; kernel.register_count()];
        for blk in 0..cfg.total_blocks() {
            let bx = (blk % cfg.grid.0 as u64) as i64;
            let by = (blk / cfg.grid.0 as u64) as i64;
            for ty in 0..cfg.block.1 as i64 {
                for tx in 0..cfg.block.0 as i64 {
                    let ctx = ThreadCtx { kernel, bound: &bound, cfg, bx, by, tx, ty };
                    regs.iter_mut().for_each(|r| *r = 0);
                    exec_block(&kernel.body, &ctx, &mut regs, &mut st)?;
                }
            }
        }
        let buffer_of = bound
            .iter()
            .map(|b| match b {
                Bound::Buf { buf_index, .. } => Some(*buf_index),
                Bound::Scalar(_) => None,
            })
            .collect::<Vec<_>>();
        let merged = empty_bitsets(&bound);
        drop(bound);
        Ok(finish(cfg, merged, &buffer_of, vec![st], buffers))
    }

    fn touch(st: &mut WorkerState, arg: usize, addr: u32) {
        let w = &mut st.touched[arg][(addr / 64) as usize];
        *w |= 1u64 << (addr % 64);
    }

    /// Per-thread execution context.
    struct ThreadCtx<'a> {
        kernel: &'a Kernel,
        bound: &'a [Bound<'a>],
        cfg: LaunchConfig,
        bx: i64,
        by: i64,
        tx: i64,
        ty: i64,
    }

    /// Whether control should keep flowing after an instruction sequence.
    enum Flow {
        Continue,
        Return,
    }

    fn exec_block(
        instrs: &[Instr],
        ctx: &ThreadCtx<'_>,
        regs: &mut [i64],
        st: &mut WorkerState,
    ) -> Result<Flow, SimError> {
        let mut flow = Flow::Continue;
        for i in instrs {
            st.instructions += 1;
            match i {
                Instr::Const { dst, value } => regs[*dst as usize] = *value,
                Instr::LoadParam { dst, param } => match ctx.bound.get(*param) {
                    Some(Bound::Scalar(v)) => regs[*dst as usize] = *v,
                    _ => {
                        return Err(SimError::BadParam {
                            kernel: ctx.kernel.name.clone(),
                            index: *param,
                        })
                    }
                },
                Instr::Special { dst, kind } => {
                    regs[*dst as usize] = match kind {
                        Special::GlobalIdX => ctx.bx * ctx.cfg.block.0 as i64 + ctx.tx,
                        Special::GlobalIdY => ctx.by * ctx.cfg.block.1 as i64 + ctx.ty,
                        Special::ThreadIdxX => ctx.tx,
                        Special::ThreadIdxY => ctx.ty,
                        Special::BlockIdxX => ctx.bx,
                        Special::BlockIdxY => ctx.by,
                        Special::BlockDimX => ctx.cfg.block.0 as i64,
                        Special::BlockDimY => ctx.cfg.block.1 as i64,
                        Special::GridDimX => ctx.cfg.grid.0 as i64,
                        Special::GridDimY => ctx.cfg.grid.1 as i64,
                    };
                }
                Instr::Bin { op, dst, lhs, rhs } => {
                    let a = regs[*lhs as usize];
                    let b = regs[*rhs as usize];
                    regs[*dst as usize] = match op {
                        BinOp::Add => a.wrapping_add(b),
                        BinOp::Sub => a.wrapping_sub(b),
                        BinOp::Mul => a.wrapping_mul(b),
                        BinOp::Div => {
                            if b == 0 {
                                return Err(SimError::DivByZero {
                                    kernel: ctx.kernel.name.clone(),
                                });
                            }
                            a.wrapping_div(b)
                        }
                        BinOp::Rem => {
                            if b == 0 {
                                return Err(SimError::DivByZero {
                                    kernel: ctx.kernel.name.clone(),
                                });
                            }
                            a.wrapping_rem(b)
                        }
                        BinOp::Min => a.min(b),
                        BinOp::Max => a.max(b),
                        BinOp::Lt => (a < b) as i64,
                        BinOp::Le => (a <= b) as i64,
                        BinOp::Eq => (a == b) as i64,
                        BinOp::Ne => (a != b) as i64,
                        BinOp::And => ((a != 0) && (b != 0)) as i64,
                        BinOp::Or => ((a != 0) || (b != 0)) as i64,
                    };
                }
                Instr::Mov { dst, src } => regs[*dst as usize] = regs[*src as usize],
                Instr::Load { dst, param, index } => {
                    let ix = regs[*index as usize];
                    match ctx.bound.get(*param) {
                        Some(Bound::Buf { data, .. }) => {
                            if ix < 0 || ix as usize >= data.len() {
                                return Err(SimError::OutOfBounds {
                                    kernel: ctx.kernel.name.clone(),
                                    buffer: *param,
                                    index: ix,
                                    len: data.len(),
                                });
                            }
                            regs[*dst as usize] = data[ix as usize] as i64;
                            st.loads += 1;
                            touch(st, *param, ix as u32);
                        }
                        _ => {
                            return Err(SimError::BadParam {
                                kernel: ctx.kernel.name.clone(),
                                index: *param,
                            })
                        }
                    }
                }
                Instr::Store { param, index, src } => {
                    let ix = regs[*index as usize];
                    match ctx.bound.get(*param) {
                        Some(Bound::Buf { data, writable, .. }) => {
                            if !*writable {
                                return Err(SimError::ReadOnlyStore {
                                    kernel: ctx.kernel.name.clone(),
                                    param: *param,
                                });
                            }
                            if ix < 0 || ix as usize >= data.len() {
                                return Err(SimError::OutOfBounds {
                                    kernel: ctx.kernel.name.clone(),
                                    buffer: *param,
                                    index: ix,
                                    len: data.len(),
                                });
                            }
                            st.stores += 1;
                            touch(st, *param, ix as u32);
                            // Device buffers hold 32-bit ints (the paper's frames
                            // are `int` arrays); like real CUDA/OpenCL `int`
                            // stores, values are truncated modulo 2^32. Registers
                            // are 64-bit, so *intermediate* arithmetic is wider
                            // than a real device's — programs relying on i32
                            // wrap-around mid-expression would diverge, which the
                            // studied pixel workloads never do.
                            st.log.push((0, *param as u32, ix as u32, regs[*src as usize] as i32));
                        }
                        _ => {
                            return Err(SimError::BadParam {
                                kernel: ctx.kernel.name.clone(),
                                index: *param,
                            })
                        }
                    }
                }
                Instr::For { var, start, end, step, body } => {
                    let mut v = regs[*start as usize];
                    let end_v = regs[*end as usize];
                    let step_v = regs[*step as usize].max(1);
                    while v < end_v {
                        regs[*var as usize] = v;
                        match exec_block(body, ctx, regs, st)? {
                            Flow::Continue => {}
                            Flow::Return => return Ok(Flow::Return),
                        }
                        v += step_v;
                    }
                }
                Instr::If { cond, then, els } => {
                    let branch = if regs[*cond as usize] != 0 { then } else { els };
                    match exec_block(branch, ctx, regs, st)? {
                        Flow::Continue => {}
                        Flow::Return => return Ok(Flow::Return),
                    }
                }
                Instr::Return => {
                    flow = Flow::Return;
                    break;
                }
            }
        }
        Ok(flow)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kir::{KernelBuilder, KernelFlavor};

    fn scale_kernel() -> Kernel {
        let mut b = KernelBuilder::new("scale2", KernelFlavor::Cuda);
        let x = b.buffer_param("x", false);
        let y = b.buffer_param("y", true);
        let n = b.scalar_param("n");
        let gid = b.special(Special::GlobalIdX);
        let nv = b.param_value(n);
        let ok = b.bin(BinOp::Lt, gid, nv);
        b.begin_if(ok);
        let v = b.load(x, gid);
        let two = b.constant(2);
        let d = b.bin(BinOp::Mul, v, two);
        b.store(y, gid, d);
        b.end_if();
        b.finish()
    }

    #[test]
    fn launch_config_covers_requested_threads() {
        let c = LaunchConfig::cover_1d(1000, 256);
        assert_eq!(c.grid.0, 4);
        assert_eq!(c.total_threads(), 1024);
    }

    #[test]
    fn kernel_computes_and_guards_tail() {
        let k = scale_kernel();
        let mut bufs = vec![Some((0..100).collect::<Vec<_>>()), Some(vec![0i32; 100])];
        let cfg = LaunchConfig::cover_1d(100, 32);
        let args = [KernelArg::Buffer(0), KernelArg::Buffer(1), KernelArg::Scalar(100)];
        let stats = run_kernel(&k, cfg, &args, &mut bufs, 1).unwrap();
        let out = bufs[1].as_ref().unwrap();
        assert_eq!(out[0], 0);
        assert_eq!(out[99], 198);
        assert_eq!(stats.threads, 128);
        assert_eq!(stats.loads, 100);
        assert_eq!(stats.stores, 100);
        assert_eq!(stats.distinct_accesses, 200);
        assert_eq!(stats.l1_hits, 0);
    }

    #[test]
    fn parallel_execution_matches_single_worker() {
        let k = scale_kernel();
        let input: Vec<i32> = (0..4096).map(|v| v * 7 % 101).collect();
        let mut a = vec![Some(input.clone()), Some(vec![0i32; 4096])];
        let mut b = vec![Some(input), Some(vec![0i32; 4096])];
        let cfg = LaunchConfig::cover_1d(4096, 128);
        let args = [KernelArg::Buffer(0), KernelArg::Buffer(1), KernelArg::Scalar(4096)];
        let s1 = run_kernel(&k, cfg, &args, &mut a, 1).unwrap();
        let s8 = run_kernel(&k, cfg, &args, &mut b, 8).unwrap();
        assert_eq!(a[1], b[1]);
        assert_eq!(s1, s8);
    }

    #[test]
    fn repeated_loads_count_as_l1_hits() {
        // Every thread loads x[0].
        let mut b = KernelBuilder::new("bcast", KernelFlavor::Cuda);
        let x = b.buffer_param("x", false);
        let y = b.buffer_param("y", true);
        let gid = b.special(Special::GlobalIdX);
        let zero = b.constant(0);
        let v = b.load(x, zero);
        b.store(y, gid, v);
        let _ = gid;
        let k = b.finish();
        let mut bufs = vec![Some(vec![5i32]), Some(vec![0i32; 64])];
        let cfg = LaunchConfig::cover_1d(64, 64);
        let stats =
            run_kernel(&k, cfg, &[KernelArg::Buffer(0), KernelArg::Buffer(1)], &mut bufs, 2)
                .unwrap();
        assert_eq!(stats.loads, 64);
        // 1 distinct load address + 64 distinct store addresses.
        assert_eq!(stats.distinct_accesses, 65);
        assert_eq!(stats.l1_hits, 63);
        assert!(bufs[1].as_ref().unwrap().iter().all(|&v| v == 5));
    }

    #[test]
    fn oob_access_is_reported() {
        let k = scale_kernel();
        let mut bufs = vec![Some(vec![1i32; 10]), Some(vec![0i32; 10])];
        // Claim n = 64 with only 10 elements: threads 10..64 go out of bounds.
        let cfg = LaunchConfig::cover_1d(64, 64);
        let err = run_kernel(
            &k,
            cfg,
            &[KernelArg::Buffer(0), KernelArg::Buffer(1), KernelArg::Scalar(64)],
            &mut bufs,
            1,
        )
        .unwrap_err();
        assert!(matches!(err, SimError::OutOfBounds { .. }));
    }

    #[test]
    fn store_through_readonly_param_is_rejected() {
        let mut b = KernelBuilder::new("bad", KernelFlavor::Cuda);
        let x = b.buffer_param("x", false);
        let gid = b.special(Special::GlobalIdX);
        b.store(x, gid, gid);
        let k = b.finish();
        let mut bufs = vec![Some(vec![0i32; 4])];
        let err =
            run_kernel(&k, LaunchConfig::cover_1d(4, 4), &[KernelArg::Buffer(0)], &mut bufs, 1)
                .unwrap_err();
        assert!(matches!(err, SimError::ReadOnlyStore { .. }));
    }

    #[test]
    fn arg_kind_mismatch_is_rejected() {
        let k = scale_kernel();
        let mut bufs = vec![Some(vec![0i32; 4])];
        let err = run_kernel(
            &k,
            LaunchConfig::cover_1d(4, 4),
            &[KernelArg::Scalar(0), KernelArg::Buffer(0), KernelArg::Scalar(4)],
            &mut bufs,
            1,
        )
        .unwrap_err();
        assert!(matches!(err, SimError::ArgKindMismatch { .. }));
    }

    #[test]
    fn for_loop_executes_bounded_iterations() {
        // y[gid] = sum(0..5) = 10, via a for loop.
        let mut b = KernelBuilder::new("sum5", KernelFlavor::Cuda);
        let y = b.buffer_param("y", true);
        let gid = b.special(Special::GlobalIdX);
        let acc = b.constant(0);
        let zero = b.constant(0);
        let five = b.constant(5);
        let one = b.constant(1);
        let i = b.begin_for(zero, five, one);
        let s = b.bin(BinOp::Add, acc, i);
        b.mov(acc, s);
        b.end_for();
        b.store(y, gid, acc);
        let k = b.finish();
        let mut bufs = vec![Some(vec![0i32; 8])];
        run_kernel(&k, LaunchConfig::cover_1d(8, 8), &[KernelArg::Buffer(0)], &mut bufs, 1)
            .unwrap();
        assert!(bufs[0].as_ref().unwrap().iter().all(|&v| v == 10));
    }

    #[test]
    fn return_exits_thread_early() {
        let mut b = KernelBuilder::new("guard", KernelFlavor::Cuda);
        let y = b.buffer_param("y", true);
        let gid = b.special(Special::GlobalIdX);
        let four = b.constant(4);
        let big = b.bin(BinOp::Le, four, gid);
        b.begin_if(big);
        b.ret();
        b.end_if();
        let seven = b.constant(7);
        b.store(y, gid, seven);
        let k = b.finish();
        let mut bufs = vec![Some(vec![0i32; 8])];
        run_kernel(&k, LaunchConfig::cover_1d(8, 8), &[KernelArg::Buffer(0)], &mut bufs, 1)
            .unwrap();
        assert_eq!(bufs[0].as_ref().unwrap().as_slice(), &[7, 7, 7, 7, 0, 0, 0, 0]);
    }

    #[test]
    fn later_block_wins_write_conflicts() {
        // All threads store their gid to y[0]; the highest-ranked thread wins.
        let mut b = KernelBuilder::new("conflict", KernelFlavor::Cuda);
        let y = b.buffer_param("y", true);
        let gid = b.special(Special::GlobalIdX);
        let zero = b.constant(0);
        b.store(y, zero, gid);
        let k = b.finish();
        for workers in [1usize, 4] {
            let mut bufs = vec![Some(vec![-1i32])];
            run_kernel(
                &k,
                LaunchConfig { grid: (4, 1), block: (8, 1) },
                &[KernelArg::Buffer(0)],
                &mut bufs,
                workers,
            )
            .unwrap();
            assert_eq!(bufs[0].as_ref().unwrap()[0], 31);
        }
    }

    #[test]
    fn lower_ranked_later_fault_wins() {
        // Thread 1 faults on its first store (out of bounds); thread 0 runs
        // on and divides by zero later. Thread 0 ranks lower, so its fault
        // is the launch's, although in warp lockstep thread 1 faults first.
        let mut b = KernelBuilder::new("faults", KernelFlavor::Cuda);
        let y = b.buffer_param("y", true);
        let tid = b.special(Special::ThreadIdxX);
        let zero = b.constant(0);
        let one = b.constant(1);
        let is_one = b.bin(BinOp::Eq, tid, one);
        b.begin_if(is_one);
        let far = b.constant(100);
        b.store(y, far, tid);
        b.end_if();
        let is_zero = b.bin(BinOp::Eq, tid, zero);
        b.begin_if(is_zero);
        let q = b.bin(BinOp::Div, one, tid);
        b.store(y, zero, q);
        b.end_if();
        let k = b.finish();
        for block in [(32, 1), (64, 1), (2, 2)] {
            let mut bufs = vec![Some(vec![0i32; 4])];
            let cfg = LaunchConfig { grid: (2, 1), block };
            let err = run_kernel(&k, cfg, &[KernelArg::Buffer(0)], &mut bufs, 1).unwrap_err();
            assert_eq!(err, SimError::DivByZero { kernel: "faults".into() }, "block {block:?}");
            assert_eq!(
                bufs[0].as_deref(),
                Some(&[0i32; 4][..]),
                "a faulting launch stores nothing"
            );
        }
    }

    #[test]
    fn conflict_between_store_instructions_goes_to_highest_rank() {
        // Odd threads store through the first store instruction, even
        // threads through a later one. Warp lockstep executes every odd
        // lane's store before any even lane's, but the highest-ranked
        // thread (63, odd) must still win.
        let mut b = KernelBuilder::new("two_stores", KernelFlavor::Cuda);
        let y = b.buffer_param("y", true);
        let gid = b.special(Special::GlobalIdX);
        let zero = b.constant(0);
        let two = b.constant(2);
        let parity = b.bin(BinOp::Rem, gid, two);
        b.begin_if(parity);
        b.store(y, zero, gid);
        b.end_if();
        let even = b.bin(BinOp::Eq, parity, zero);
        b.begin_if(even);
        let k1000 = b.constant(1000);
        let tagged = b.bin(BinOp::Add, gid, k1000);
        b.store(y, zero, tagged);
        b.end_if();
        let k = b.finish();
        for workers in [1usize, 2] {
            let mut bufs = vec![Some(vec![-1i32])];
            let cfg = LaunchConfig { grid: (1, 1), block: (64, 1) };
            run_kernel(&k, cfg, &[KernelArg::Buffer(0)], &mut bufs, workers).unwrap();
            assert_eq!(bufs[0].as_ref().unwrap()[0], 63);
        }
    }

    #[test]
    fn registers_with_disjoint_live_ranges_share_a_slot() {
        // A chain of 100 temporaries needs three slots: the thread id, the
        // previous link and the next one. A register read before any write
        // (`unset`, zero) gets a slot no register used before it, and a
        // constant that only `Bin`s read becomes their immediate and gets
        // none.
        let mut b = KernelBuilder::new("chain", KernelFlavor::Cuda);
        let y = b.buffer_param("y", true);
        let gid = b.special(Special::GlobalIdX);
        let five = b.constant(5);
        let unset = b.reg();
        let mut t = b.bin(BinOp::Add, gid, unset);
        for _ in 0..100 {
            t = b.bin(BinOp::Add, t, gid);
        }
        t = b.bin(BinOp::Add, t, five);
        b.store(y, gid, t);
        let k = b.finish();
        assert_eq!(k.register_count(), 105);
        let cfg = LaunchConfig::cover_1d(4, 4);
        let mut bufs = vec![Some(vec![0i32; 4])];
        let bound = bind(&k, &[KernelArg::Buffer(0)], &bufs).unwrap();
        let prog = decode(&k, &bound, cfg);
        assert_eq!(prog.slots, 3);
        assert!(!prog.body.iter().any(|op| matches!(op, Op::Const { .. })), "5 is folded");
        drop(bound);
        run_kernel(&k, cfg, &[KernelArg::Buffer(0)], &mut bufs, 1).unwrap();
        assert_eq!(bufs[0].as_deref(), Some(&[5, 106, 207, 308][..]));
    }

    #[test]
    fn constant_defined_in_a_branch_is_not_folded() {
        // `seven` is written only by the lanes that take the branch; the
        // others read it unwritten, as zero.
        let mut b = KernelBuilder::new("branch_const", KernelFlavor::Cuda);
        let y = b.buffer_param("y", true);
        let gid = b.special(Special::GlobalIdX);
        let two = b.constant(2);
        let low = b.bin(BinOp::Lt, gid, two);
        b.begin_if(low);
        let seven = b.constant(7);
        b.end_if();
        let v = b.bin(BinOp::Add, seven, gid);
        b.store(y, gid, v);
        let k = b.finish();
        let mut bufs = vec![Some(vec![-1i32; 4])];
        run_kernel(&k, LaunchConfig::cover_1d(4, 4), &[KernelArg::Buffer(0)], &mut bufs, 1)
            .unwrap();
        assert_eq!(bufs[0].as_deref(), Some(&[7, 8, 2, 3][..]));
    }

    #[test]
    fn identity_whose_source_is_rewritten_is_not_an_alias() {
        // `same = x + 0` must keep the value `x` had at that point, so it
        // cannot read `x` after the `Mov` rewrites it.
        let mut b = KernelBuilder::new("moved_source", KernelFlavor::Cuda);
        let y = b.buffer_param("y", true);
        let gid = b.special(Special::GlobalIdX);
        let x = b.bin_imm(BinOp::Mul, gid, 3);
        let same = b.bin_imm(BinOp::Add, x, 0);
        b.mov(x, gid);
        b.store(y, gid, same);
        let k = b.finish();
        let mut bufs = vec![Some(vec![-1i32; 4])];
        run_kernel(&k, LaunchConfig::cover_1d(4, 4), &[KernelArg::Buffer(0)], &mut bufs, 1)
            .unwrap();
        assert_eq!(bufs[0].as_deref(), Some(&[0, 3, 6, 9][..]));
    }

    #[test]
    fn folded_run_before_a_fault_is_charged_to_every_lane_that_reached_it() {
        // Three folded instructions, then a load that faults for lanes 4..8:
        // the run counts all eight lanes, the instructions after the load
        // only the four that survive it.
        let mut b = KernelBuilder::new("fold_then_fault", KernelFlavor::Cuda);
        let x = b.buffer_param("x", false);
        let y = b.buffer_param("y", true);
        let gid = b.special(Special::GlobalIdX);
        let five = b.constant(5);
        let seven = b.constant(7);
        let twelve = b.bin(BinOp::Add, five, seven);
        let v = b.load(x, gid);
        let w = b.bin(BinOp::Add, v, twelve);
        b.store(y, gid, w);
        let k = b.finish();
        let cfg = LaunchConfig::cover_1d(8, 8);
        let bufs = vec![Some(vec![1i32; 4]), Some(vec![0i32; 8])];
        let bound = bind(&k, &[KernelArg::Buffer(0), KernelArg::Buffer(1)], &bufs).unwrap();
        let prog = decode(&k, &bound, cfg);
        assert!(matches!(prog.body[1], Op::Count(3)));
        let mut warp = Warp::new(&prog, &k.name, &bound, cfg);
        let err = warp.run_block(0).unwrap_err();
        let oob = SimError::OutOfBounds { kernel: k.name.clone(), buffer: 0, index: 4, len: 4 };
        assert_eq!(err, oob);
        assert_eq!(warp.st.instructions, 8 * 5 + 4 * 2);
    }

    #[test]
    fn zero_sized_launch_is_rejected() {
        let k = scale_kernel();
        let args = [KernelArg::Buffer(0), KernelArg::Buffer(1), KernelArg::Scalar(4)];
        for (grid, block) in
            [((0, 1), (4, 1)), ((1, 0), (4, 1)), ((1, 1), (0, 1)), ((1, 1), (4, 0))]
        {
            let mut bufs = vec![Some(vec![1i32; 4]), Some(vec![0i32; 4])];
            let err =
                run_kernel(&k, LaunchConfig { grid, block }, &args, &mut bufs, 2).unwrap_err();
            assert_eq!(err, SimError::InvalidLaunchConfig { kernel: "scale2".into(), grid, block });
        }
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use crate::kir::{KernelBuilder, KernelFlavor, Special};
    use proptest::prelude::*;

    /// Build a random straight-line kernel: y[gid] = f(x[gid], gid) for a
    /// random arithmetic expression tree f.
    fn random_kernel(ops: &[(u8, i64)]) -> Kernel {
        let mut b = KernelBuilder::new("rand", KernelFlavor::Cuda);
        let x = b.buffer_param("x", false);
        let y = b.buffer_param("y", true);
        let gid = b.special(Special::GlobalIdX);
        let mut acc = b.load(x, gid);
        for &(op, k) in ops {
            let c = b.constant(k);
            acc = match op % 5 {
                0 => b.bin(BinOp::Add, acc, c),
                1 => b.bin(BinOp::Sub, acc, c),
                2 => b.bin(BinOp::Mul, acc, c),
                3 => b.bin(BinOp::Min, acc, gid),
                _ => b.bin(BinOp::Max, acc, c),
            };
        }
        b.store(y, gid, acc);
        b.finish()
    }

    /// Random structured kernels for the warp-vs-scalar differential test:
    /// nested `For` loops with lane-dependent trip counts and steps,
    /// `If`/else divergence, `Return` anywhere (inside loops too), `Div` and
    /// `Rem` by lane-dependent values that are sometimes zero, and loads and
    /// stores whose indices collide and are sometimes out of bounds.
    /// Registers defined in one branch are read after it, as real kernels
    /// never do, so a lane's untouched registers must survive divergence.
    /// Launch constants (literals, the scalar argument, block and grid
    /// dimensions) and identities on them (`x * 1`, `0 * x`, `x % 1`, ...)
    /// exercise decoding's folding, and a `Mov` may rewrite any of them.
    struct KernelGen<'r> {
        rng: &'r mut TestRng,
        b: KernelBuilder,
        /// Registers holding values, mostly lane-dependent.
        vals: Vec<Reg>,
        /// Top-level literal registers, by value.
        consts: Vec<(i64, Reg)>,
        /// Buffer parameters with their lengths: x (read-only), y, z.
        bufs: [(usize, i64); 3],
    }

    impl KernelGen<'_> {
        fn below(&mut self, n: u64) -> u64 {
            self.rng.below(n)
        }

        fn pick(&mut self) -> Reg {
            let i = self.below(self.vals.len() as u64) as usize;
            self.vals[i]
        }

        /// `v mod n` for a lane-dependent `v`, in `(-n, n)`.
        fn lane_mod(&mut self, n: i64) -> Reg {
            let v = self.pick();
            let n = self.b.constant(n);
            self.b.bin(BinOp::Rem, v, n)
        }

        /// An index into a buffer of `len`: in bounds, except one time in
        /// twelve when it may fall on either side.
        fn index(&mut self, len: i64) -> Reg {
            if self.below(12) == 0 {
                return self.lane_mod(len + 2);
            }
            let v = self.pick();
            let zero = self.b.constant(0);
            let v = self.b.bin(BinOp::Max, v, zero);
            let n = self.b.constant(len);
            self.b.bin(BinOp::Rem, v, n)
        }

        fn stmts(&mut self, depth: u32, count: u64) {
            for _ in 0..count {
                let kinds = if depth < 2 { 11 } else { 8 };
                match self.below(kinds) {
                    0..=2 if self.below(4) == 0 => {
                        const IDENTITIES: [(BinOp, i64, bool); 10] = [
                            (BinOp::Mul, 1, false),
                            (BinOp::Mul, 1, true),
                            (BinOp::Add, 0, false),
                            (BinOp::Add, 0, true),
                            (BinOp::Sub, 0, false),
                            (BinOp::Div, 1, false),
                            (BinOp::Rem, 1, false),
                            (BinOp::Rem, -1, false),
                            (BinOp::Mul, 0, false),
                            (BinOp::Mul, 0, true),
                        ];
                        let (op, k, k_first) = IDENTITIES[self.below(10) as usize];
                        let k = self.consts.iter().find(|&&(v, _)| v == k).expect("literal").1;
                        let x = self.pick();
                        let r = if k_first { self.b.bin(op, k, x) } else { self.b.bin(op, x, k) };
                        self.vals.push(r);
                    }
                    0..=2 => {
                        const OPS: [BinOp; 13] = [
                            BinOp::Add,
                            BinOp::Sub,
                            BinOp::Mul,
                            BinOp::Div,
                            BinOp::Rem,
                            BinOp::Min,
                            BinOp::Max,
                            BinOp::Lt,
                            BinOp::Le,
                            BinOp::Eq,
                            BinOp::Ne,
                            BinOp::And,
                            BinOp::Or,
                        ];
                        let op = OPS[self.below(13) as usize];
                        let a = self.pick();
                        let b = if matches!(op, BinOp::Div | BinOp::Rem) && self.below(6) != 0 {
                            // A lane-dependent divisor in 1..=5.
                            let r = self.index(5);
                            self.b.bin_imm(BinOp::Add, r, 1)
                        } else {
                            self.pick()
                        };
                        let r = self.b.bin(op, a, b);
                        self.vals.push(r);
                    }
                    3 => {
                        let (param, len) = self.bufs[self.below(3) as usize];
                        let ix = self.index(len);
                        let r = self.b.load(param, ix);
                        self.vals.push(r);
                    }
                    4 | 5 => {
                        let (param, len) = self.bufs[1 + self.below(2) as usize];
                        let ix = self.index(len);
                        let v = self.pick();
                        self.b.store(param, ix, v);
                    }
                    6 => {
                        let (dst, src) = (self.pick(), self.pick());
                        self.b.mov(dst, src);
                    }
                    7 => {
                        // Return for about a quarter of the lanes.
                        let r = self.lane_mod(4);
                        let k = self.below(4) as i64;
                        let k = self.b.constant(k);
                        let c = self.b.bin(BinOp::Eq, r, k);
                        self.b.begin_if(c);
                        self.b.ret();
                        self.b.end_if();
                    }
                    8 | 9 => {
                        let (a, c) = (self.pick(), self.pick());
                        let cond = self.b.bin(BinOp::Lt, a, c);
                        self.b.begin_if(cond);
                        let n = 1 + self.below(4);
                        self.stmts(depth + 1, n);
                        if self.below(2) == 0 {
                            self.b.begin_else();
                            let n = 1 + self.below(4);
                            self.stmts(depth + 1, n);
                        }
                        self.b.end_if();
                    }
                    _ => {
                        // Trip counts up to 5, lane-dependent bounds and step.
                        let start = self.below(3) as i64 - 1;
                        let start = self.b.constant(start);
                        let end = self.lane_mod(5);
                        let end = self.b.bin_imm(BinOp::Add, end, 1);
                        let step =
                            if self.below(2) == 0 { self.b.constant(1) } else { self.lane_mod(3) };
                        let var = self.b.begin_for(start, end, step);
                        self.vals.push(var);
                        let n = 1 + self.below(4);
                        self.stmts(depth + 1, n);
                        self.b.end_for();
                    }
                }
            }
        }
    }

    /// A random kernel with parameters (x read-only, y, z writable, n).
    fn random_structured_kernel(rng: &mut TestRng, lens: [i64; 3]) -> Kernel {
        let mut b = KernelBuilder::new("diff", KernelFlavor::Cuda);
        let x = b.buffer_param("x", false);
        let y = b.buffer_param("y", true);
        let z = b.buffer_param("z", true);
        let n = b.scalar_param("n");
        let mut vals = vec![b.param_value(n)];
        for kind in [
            Special::GlobalIdX,
            Special::GlobalIdY,
            Special::ThreadIdxX,
            Special::ThreadIdxY,
            Special::BlockIdxX,
            Special::BlockDimX,
            Special::GridDimX,
        ] {
            vals.push(b.special(kind));
        }
        let consts: Vec<(i64, Reg)> =
            [-1, 0, 1, 2, i64::MIN, i64::MAX].into_iter().map(|v| (v, b.constant(v))).collect();
        vals.extend(consts.iter().map(|&(_, r)| r));
        let bufs = [(x, lens[0]), (y, lens[1]), (z, lens[2])];
        let mut g = KernelGen { rng, b, vals, consts, bufs };
        let count = 4 + g.below(12);
        g.stmts(0, count);
        g.b.finish()
    }

    proptest! {
        /// Worker count never changes results or dynamic counters: the
        /// parallel execution engine is deterministic.
        #[test]
        fn execution_is_worker_count_invariant(
            ops in proptest::collection::vec((0u8..5, -7i64..7), 1..8),
            n in 1usize..300,
            block in prop_oneof![Just(32u32), Just(64), Just(128)],
        ) {
            let kernel = random_kernel(&ops);
            let input: Vec<i32> = (0..n as i32).map(|v| v.wrapping_mul(31) % 1000).collect();
            let cfg = LaunchConfig::cover_1d(n, block);
            // Over-provisioned threads store out of range? The kernel has no
            // guard, so clamp the launch to exactly n via grid covering and
            // expect OOB when padding exists — instead give the buffers the
            // full padded size to keep the property about determinism.
            let padded = cfg.total_threads() as usize;
            let mut base: Vec<Option<Vec<i32>>> = vec![
                Some({ let mut v = input.clone(); v.resize(padded, 0); v }),
                Some(vec![0i32; padded]),
            ];
            let args = [KernelArg::Buffer(0), KernelArg::Buffer(1)];
            let s1 = run_kernel(&kernel, cfg, &args, &mut base, 1).unwrap();
            for workers in [2usize, 5, 9] {
                let mut bufs: Vec<Option<Vec<i32>>> = vec![
                    Some({ let mut v = input.clone(); v.resize(padded, 0); v }),
                    Some(vec![0i32; padded]),
                ];
                let s = run_kernel(&kernel, cfg, &args, &mut bufs, workers).unwrap();
                prop_assert_eq!(&bufs[1], &base[1], "workers = {}", workers);
                prop_assert_eq!(s, s1);
            }
        }

        /// The warp interpreter matches the scalar one thread-at-a-time
        /// interpreter exactly: buffers, counters, touched bitsets, and on a
        /// fault the same error with no store applied — for every block
        /// shape, including partial and single-lane warps, and worker count.
        #[test]
        fn warp_execution_matches_scalar_reference(
            seed in any::<u64>(),
            block in prop_oneof![
                Just((7u32, 3u32)),
                Just((33, 1)),
                Just((1, 1)),
                Just((1024, 1)),
                Just((64, 1)),
                Just((16, 5)),
            ],
            grid in (1u32..=2, 1u32..=2),
            alias in 0u8..4,
        ) {
            let mut rng = TestRng::new(seed);
            let lens = [8 + rng.below(40) as i64, 4 + rng.below(60) as i64, 1 + rng.below(30) as i64];
            let kernel = random_structured_kernel(&mut rng, lens);
            let cfg = LaunchConfig { grid, block };
            let mut init: Vec<Option<Vec<i32>>> = lens
                .iter()
                .map(|&n| Some((0..n).map(|_| rng.below(2000) as i32 - 1000).collect()))
                .collect();
            // Sometimes z aliases y: two writable parameters, one buffer.
            let z = if alias == 0 { 1 } else { 2 };
            if alias == 0 {
                init[2] = None;
            }
            let args = [
                KernelArg::Buffer(0),
                KernelArg::Buffer(1),
                KernelArg::Buffer(z),
                // Sometimes a zero divisor or `i64::MIN / -1` as a constant.
                KernelArg::Scalar(match rng.below(6) {
                    0 => 0,
                    1 => -1,
                    _ => rng.below(100) as i64 - 50,
                }),
            ];
            let mut expect_bufs = init.clone();
            let expect = scalar::run(&kernel, cfg, &args, &mut expect_bufs);
            for workers in [1usize, 2, 5] {
                let mut bufs = init.clone();
                let got = run_kernel_touching(&kernel, cfg, &args, &mut bufs, workers);
                prop_assert_eq!(&got, &expect, "workers = {}", workers);
                prop_assert_eq!(&bufs, &expect_bufs, "workers = {}", workers);
            }
        }
    }
}
