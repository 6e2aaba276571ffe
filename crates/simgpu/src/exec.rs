//! Kernel execution engine: grid/block interpretation of kernel IR.
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
//! Blocks are distributed over std::thread scoped threads. Each worker keeps a
//! private write log and private access bitsets; the coordinator applies the
//! logs in block order and merges the bitsets, so execution is deterministic
//! and data-race-free while the dynamic counters remain exact.

use crate::kir::{BinOp, Instr, Kernel, KernelArg, Param, Special};
use crate::SimError;

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

    /// A 2-D launch covering at least `(nx, ny)` threads.
    pub fn cover_2d(nx: usize, ny: usize, block: (u32, u32)) -> Self {
        let gx = (nx as u64).div_ceil(block.0 as u64) as u32;
        let gy = (ny as u64).div_ceil(block.1 as u64) as u32;
        LaunchConfig { grid: (gx.max(1), gy.max(1)), block }
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

/// A pending store: (argument slot, address, value).
type WriteLog = Vec<(usize, u32, i32)>;

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
        let touched = bound
            .iter()
            .map(|b| match b {
                Bound::Buf { data, .. } => vec![0u64; data.len().div_ceil(64)],
                Bound::Scalar(_) => Vec::new(),
            })
            .collect();
        WorkerState { instructions: 0, loads: 0, stores: 0, touched, log: Vec::new() }
    }

    #[inline]
    fn touch(&mut self, arg: usize, addr: u32) {
        let w = &mut self.touched[arg][(addr / 64) as usize];
        *w |= 1u64 << (addr % 64);
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
    // Bind arguments to parameters.
    if args.len() != kernel.params.len() {
        return Err(SimError::BadParam { kernel: kernel.name.clone(), index: args.len() });
    }
    // Shared view for the read-only sweep; stores go to write logs that are
    // applied through `buffers` only after every borrow of `view` has ended.
    let view: &[Option<Vec<i32>>] = buffers;
    let mut bound: Vec<Bound<'_>> = Vec::with_capacity(args.len());
    for (i, (p, a)) in kernel.params.iter().zip(args).enumerate() {
        match (p, a) {
            (Param::Buffer { writable, .. }, KernelArg::Buffer(id)) => {
                let data = view
                    .get(*id)
                    .and_then(|b| b.as_ref())
                    .ok_or(SimError::UnknownBuffer { id: *id })?;
                bound.push(Bound::Buf { buf_index: *id, data, writable: *writable });
            }
            (Param::Scalar { .. }, KernelArg::Scalar(v)) => bound.push(Bound::Scalar(*v)),
            _ => return Err(SimError::ArgKindMismatch { kernel: kernel.name.clone(), index: i }),
        }
    }

    let total_blocks = cfg.total_blocks();
    // Respect the caller's worker count (clamped only by the block count):
    // the Device defaults it to the host's parallelism, and tests force
    // higher counts to exercise the multi-worker merge even on small hosts.
    let workers = host_workers.max(1).min(total_blocks as usize);
    let chunk = total_blocks.div_ceil(workers as u64);

    let regs_needed = kernel.register_count();

    // Run blocks, either inline or across scoped threads.
    let run_range = |lo: u64, hi: u64| -> Result<WorkerState, SimError> {
        let mut st = WorkerState::new(&bound);
        let mut regs = vec![0i64; regs_needed];
        for blk in lo..hi {
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
        Ok(st)
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

    // Merge counters and bitsets; apply write logs in block order.
    let mut stats = LaunchStats { threads: cfg.total_threads(), ..Default::default() };
    let mut merged: Vec<Vec<u64>> = bound
        .iter()
        .map(|b| match b {
            Bound::Buf { data, .. } => vec![0u64; data.len().div_ceil(64)],
            Bound::Scalar(_) => Vec::new(),
        })
        .collect();
    let mut logs: Vec<WriteLog> = Vec::with_capacity(states.len());
    for st in states {
        let st = st?;
        stats.instructions += st.instructions;
        stats.loads += st.loads;
        stats.stores += st.stores;
        for (m, t) in merged.iter_mut().zip(&st.touched) {
            for (a, b) in m.iter_mut().zip(t) {
                *a |= *b;
            }
        }
        logs.push(st.log);
    }
    stats.distinct_accesses = merged.iter().flatten().map(|w| w.count_ones() as u64).sum();
    stats.l1_hits = (stats.loads + stats.stores).saturating_sub(stats.distinct_accesses);

    // Apply stores. Workers were assigned increasing block ranges, so applying
    // in worker order preserves block-rank order.
    let slot_of: Vec<Option<usize>> = bound
        .iter()
        .map(|b| match b {
            Bound::Buf { buf_index, .. } => Some(*buf_index),
            Bound::Scalar(_) => None,
        })
        .collect();
    drop(bound);
    for log in logs {
        for (arg, addr, val) in log {
            let id = slot_of[arg].expect("store through scalar argument");
            let buf = buffers[id].as_mut().expect("buffer vanished during launch");
            buf[addr as usize] = val;
        }
    }
    Ok((stats, merged))
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
                            return Err(SimError::DivByZero { kernel: ctx.kernel.name.clone() });
                        }
                        a.wrapping_div(b)
                    }
                    BinOp::Rem => {
                        if b == 0 {
                            return Err(SimError::DivByZero { kernel: ctx.kernel.name.clone() });
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
                        st.touch(*param, ix as u32);
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
                        st.touch(*param, ix as u32);
                        // Device buffers hold 32-bit ints (the paper's frames
                        // are `int` arrays); like real CUDA/OpenCL `int`
                        // stores, values are truncated modulo 2^32. Registers
                        // are 64-bit, so *intermediate* arithmetic is wider
                        // than a real device's — programs relying on i32
                        // wrap-around mid-expression would diverge, which the
                        // studied pixel workloads never do.
                        st.log.push((*param, ix as u32, regs[*src as usize] as i32));
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
        let c2 = LaunchConfig::cover_2d(100, 7, (32, 4));
        assert!(c2.grid.0 * c2.block.0 >= 100);
        assert!(c2.grid.1 * c2.block.1 >= 7);
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
    }
}
