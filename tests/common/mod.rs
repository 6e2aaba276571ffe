//! Shared drivers for the integration tests: lower a route's compiled
//! program and run it through `simgpu::run_plan`, the one way a batch runs.

#![allow(dead_code)] // each test binary uses a subset

use gaspard::OpenClProgram;
use mdarray::NdArray;
use sac_cuda::CudaProgram;
use simgpu::{run_plan, Device, ExecOptions, RunStats, ScheduleError};

/// Run `frames` through the SaC route, lowered with `opts.channel_chunks`;
/// one output array per functionally executed frame.
pub fn run_sac(
    cuda: &CudaProgram,
    device: &mut Device,
    frames: &[Vec<NdArray<i64>>],
    opts: ExecOptions,
) -> Result<(Vec<NdArray<i64>>, RunStats), ScheduleError> {
    let plan = sac_cuda::lower_plan(cuda, opts.channel_chunks).expect("SaC plan lowers");
    let (outs, stats) = run_plan(plan, device, frames, &opts)?;
    Ok((outs.into_iter().map(|mut f| f.pop().expect("one output")).collect(), stats))
}

/// [`run_sac`] on one frame.
pub fn run_sac_once(
    cuda: &CudaProgram,
    device: &mut Device,
    inputs: &[NdArray<i64>],
    opts: ExecOptions,
) -> Result<(NdArray<i64>, RunStats), ScheduleError> {
    let (mut outs, stats) = run_sac(cuda, device, &[inputs.to_vec()], opts)?;
    Ok((outs.pop().expect("one frame"), stats))
}

/// Run `frames` through the GASPARD2 route at the resident placement; one
/// sink-array vector per functionally executed frame.
pub fn run_gaspard(
    prog: &OpenClProgram,
    device: &mut Device,
    frames: &[Vec<NdArray<i64>>],
    opts: ExecOptions,
) -> Result<Vec<Vec<NdArray<i64>>>, ScheduleError> {
    Ok(run_plan(gaspard::lower_plan(prog), device, frames, &opts)?.0)
}

/// [`run_gaspard`] on one frame with the default options.
pub fn run_gaspard_once(
    prog: &OpenClProgram,
    device: &mut Device,
    inputs: &[NdArray<i64>],
) -> Result<Vec<NdArray<i64>>, ScheduleError> {
    let mut outs = run_gaspard(prog, device, &[inputs.to_vec()], ExecOptions::default())?;
    Ok(outs.pop().expect("one frame"))
}
