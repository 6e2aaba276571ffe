#![warn(missing_docs)]

//! # simgpu — a deterministic functional GPU simulator
//!
//! The paper evaluates its two compilation routes on an Nvidia Fermi GTX480.
//! This workspace has no GPU, so both backends target this simulator instead:
//! kernels are compiled to a small register-based IR ([`kir`]), launched over a
//! CUDA/OpenCL-style grid of thread blocks, executed *functionally* (results
//! are bit-exact and checked against CPU references), and *timed analytically*
//! with a calibrated cost model ([`cost`]) that captures the effects the paper
//! measures:
//!
//! * per-kernel launch overhead (more kernels ⇒ more overhead — the SaC
//!   backend's one-kernel-per-generator policy),
//! * PCIe transfer latency + bandwidth for `host2device` / `device2host`,
//! * intra-kernel data reuse: repeated loads of an address within one launch
//!   hit the (simulated) L1; the cache is **not persistent across launches**,
//!   reproducing the paper's observation that splitting one computation into
//!   many kernels "hinders effective data reuse",
//! * compute throughput proportional to dynamic instruction count.
//!
//! Execution is parallel on the host (blocks are distributed over std::thread
//! scoped threads) yet deterministic: each block's stores are collected in a
//! write log and applied in block order.
//!
//! The [`profiler`] accumulates per-operation records and renders them in the
//! same format as the paper's Tables I and II.

pub mod cost;
pub mod device;
pub mod emit;
pub mod exec;
pub mod fleet;
pub mod kir;
pub mod memo;
pub mod planopt;
pub mod profiler;
pub mod schedule;
pub mod tiled;

pub use cost::{Calibration, CostModel, Direction, Engine, Pcie, WarpTileModel};
pub use device::{BufferId, Device, DeviceConfig, MemPool, StreamId};
pub use exec::{LaunchConfig, LaunchStats};
pub use fleet::Fleet;
pub use kir::{BinOp, Instr, Kernel, KernelArg, KernelFlavor, Param, Reg, Special};
pub use memo::LaunchMemo;
pub use planopt::{optimize, PlanOptLevel, PlanOptReport};
pub use profiler::{AllocStats, OpClass, Profiler, Record, Span, Spans};
pub use schedule::{
    chunks_for, run_plan, ArrayDecl, BatchOutput, BatchScheduler, ExecOptions, HostOp, LaunchPlan,
    PlanKernel, PlanStep, RunStats, ScheduleError, ScheduleWitness,
};
pub use tiled::{
    generate_tiled_kernel, generate_tiled_kernel_lean, TiledKernel, MAX_PATTERN_UNROLL,
    WORK_GROUP_SIZE,
};

/// Errors raised by the simulator.
#[derive(Debug, Clone, PartialEq)]
#[allow(missing_docs)] // variant payload fields are self-describing
pub enum SimError {
    /// A kernel referenced a parameter index that was not supplied.
    BadParam { kernel: String, index: usize },
    /// An argument had the wrong kind (buffer vs scalar).
    ArgKindMismatch { kernel: String, index: usize },
    /// A launch with a zero grid or block dimension, or with more threads
    /// per block than the device allows.
    InvalidLaunchConfig { kernel: String, grid: (u32, u32), block: (u32, u32) },
    /// A buffer id was stale or out of range.
    UnknownBuffer { id: usize },
    /// Device-side out-of-bounds access.
    OutOfBounds { kernel: String, buffer: usize, index: i64, len: usize },
    /// A store to a read-only (non-writable) kernel parameter.
    ReadOnlyStore { kernel: String, param: usize },
    /// Division by zero inside a kernel.
    DivByZero { kernel: String },
    /// Device memory exhausted.
    OutOfMemory { requested: usize, available: usize },
    /// An allocation request so large its byte size (or size class) does not
    /// fit the address space — caught before it can wrap and masquerade as a
    /// small allocation.
    AllocTooLarge { len: usize },
    /// Host/device size mismatch on a transfer.
    TransferSize { host: usize, device: usize },
    /// An uploaded host value (the first one, in element order) does not fit
    /// a device `int`.
    Overflow { value: i64 },
    /// A stream id was never created on this device.
    UnknownStream { id: usize },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::BadParam { kernel, index } => {
                write!(f, "kernel '{kernel}': missing argument {index}")
            }
            SimError::ArgKindMismatch { kernel, index } => {
                write!(f, "kernel '{kernel}': argument {index} has wrong kind")
            }
            SimError::InvalidLaunchConfig { kernel, grid, block } => write!(
                f,
                "kernel '{kernel}': invalid launch configuration (grid {grid:?}, block {block:?})"
            ),
            SimError::UnknownBuffer { id } => write!(f, "unknown device buffer {id}"),
            SimError::OutOfBounds { kernel, buffer, index, len } => write!(
                f,
                "kernel '{kernel}': buffer {buffer} access at {index} out of bounds (len {len})"
            ),
            SimError::ReadOnlyStore { kernel, param } => {
                write!(f, "kernel '{kernel}': store through read-only parameter {param}")
            }
            SimError::DivByZero { kernel } => write!(f, "kernel '{kernel}': division by zero"),
            SimError::OutOfMemory { requested, available } => {
                write!(f, "device out of memory: requested {requested} B, available {available} B")
            }
            SimError::AllocTooLarge { len } => {
                write!(f, "allocation of {len} elements overflows the address space")
            }
            SimError::TransferSize { host, device } => {
                write!(f, "transfer size mismatch: host {host} elements, device {device}")
            }
            SimError::Overflow { value } => write!(f, "value {value} does not fit a device int"),
            SimError::UnknownStream { id } => write!(f, "unknown device stream {id}"),
        }
    }
}

impl std::error::Error for SimError {}
