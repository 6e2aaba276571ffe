//! Sequential/host cost constants.
//!
//! The GPU side's calibration lives in [`simgpu::Calibration`]; the two
//! constants here model the CPU:
//!
//! * [`SEQ_CPU_NS_PER_OP`] — sequential execution of compiler-generated C
//!   (the paper's *SAC-Seq* bars): one abstract flat-program operation (a
//!   node of the lowered data-parallel code) costs well under a nanosecond
//!   on the paper's 2.8 GHz i7-930, because several abstract ops map to one
//!   machine instruction stream. Fit so that SAC-Seq horizontal ≈ 4.4 s for
//!   300 HD frames (Figure 9's tallest bars).
//! * [`HOST_NS_PER_OP`] — the host half of the *CUDA generic* variant: the
//!   generic output tiler's scatter nest runs on the host with generic index
//!   arithmetic (`MV`/`CAT` on materialised vectors), costing several ns per
//!   abstract op. Fit so the generic CUDA variant lands at the paper's
//!   3–4.5× slowdown over the non-generic one.

/// Modelled nanoseconds per abstract flat-program op for SAC-Seq runs.
pub const SEQ_CPU_NS_PER_OP: f64 = 0.055;

/// Modelled nanoseconds per abstract interpreter op for host fallback steps
/// (the scheduler's default, so one constant backs both).
pub use simgpu::schedule::HOST_NS_PER_OP;
