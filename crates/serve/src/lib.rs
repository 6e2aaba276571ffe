//! Batch-serving front-end over a simulated device [`Fleet`](simgpu::Fleet).
//!
//! This crate is the "millions of users" layer of the reproduction: it takes
//! the route-agnostic [`LaunchPlan`](simgpu::LaunchPlan) that PR 4 made
//! runnable on any device, a [`Fleet`](simgpu::Fleet) of independent
//! simulated devices, and an *open-loop arrival trace* of downscale jobs,
//! and serves the trace through a production-shaped front-end:
//!
//! - **Sharding** — each arriving job is pinned to one device by a
//!   [`ShardPolicy`]: round-robin, least-loaded-by-simulated-clock, or
//!   sticky-by-tenant.
//! - **Admission control** — every device carries a bounded waiting queue
//!   ([`ServeConfig::queue_capacity`]); arrivals beyond the bound are *shed*
//!   at the door with a profiler note, never half-executed.
//! - **Weighted tenant fairness** — when a device frees up, the next job is
//!   the waiting job whose tenant has the smallest granted-frames/weight
//!   ratio, so no tenant starves while any capacity exists.
//! - **Graceful degradation** — jobs execute through the shared
//!   [`BatchScheduler`](simgpu::BatchScheduler), so the PR 2 OOM degradation
//!   ladder doubles as per-job load-shedding under memory pressure: a job
//!   retries at half the lanes instead of failing, with the ladder note
//!   visible in the fleet's merged profiler.
//!
//! Everything is discrete-event simulation on the deterministic simulator:
//! no wall clock, no threads, no randomness. Time has two layers — each
//! device's own clock (advanced only by the work it executes) and the
//! arrival timeline (job submit/start/end timestamps). A device that sits
//! idle does not advance its clock; a job's latency is measured on the
//! arrival timeline as `end − submit`.
//!
//! Traces with thousands of jobs stay cheap through *replay templates*
//! ([`JobTemplate`]): one functional job per distinct job shape measures the
//! exact span schedule once as a
//! [`ScheduleWitness`](simgpu::ScheduleWitness), and replay-only jobs (no
//! frame payload) replay that witness for exact timing at zero compute — the
//! same witness the `BatchScheduler` uses to extend a batch past its
//! functional frames.

#![warn(missing_docs)]

mod config;
mod engine;
mod report;
mod template;

pub use config::{ServeConfig, ShardPolicy};
pub use engine::{serve, serve_with_templates, Job, JobOutcome, ServeError};
pub use report::{ServeReport, TenantStats};
pub use template::JobTemplate;
