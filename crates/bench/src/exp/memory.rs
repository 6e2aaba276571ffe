//! Memory-allocator ablation (naive vs pooled) and the OOM graceful
//! degradation demonstration.

use super::{Experiment, FRAME_SEED};
use crate::record;
use crate::record::Record;
use downscaler::frames::FrameGenerator;
use downscaler::pipelines::{build_gaspard, build_sac, run_sac_batch, PipelineError};
use downscaler::sac_src::{Part, Variant};
use downscaler::Scenario;
use gaspard::GaspardError;
use sac_cuda::CudaError;
use simgpu::device::{Device, DeviceConfig};
use simgpu::{run_plan, Calibration, ExecOptions};

/// The `memory` command.
pub const EXPERIMENT: Experiment = Experiment {
    name: "memory",
    title: "Ablation: device memory allocation, naive vs pooled, and graceful OOM degradation",
    run: |s| {
        let rows = memory_ablation(s)?;
        let d = oom_degradation_demo(s)?;
        Ok(record! {
            "rows": rows.iter().map(MemoryRow::record).collect::<Record>(),
            "degradation": record! {
                "capacity_bytes": d.capacity_bytes,
                "streams": d.streams,
                "naive_error": &d.naive_error,
                "degraded_s": d.degraded_s,
                "notes": d.notes.iter().map(Record::from).collect::<Record>(),
                "outputs_match_baseline": Record::Verdict(d.outputs_match_baseline),
            },
        })
    },
};

/// One row of the memory-allocator ablation.
#[derive(Debug, Clone)]
pub struct MemoryRow {
    /// Allocator configuration: `naive` or `pooled`.
    pub config: String,
    /// SaC route total for the whole run, seconds.
    pub sac_s: f64,
    /// GASPARD2 route total for the whole run, seconds.
    pub gaspard_s: f64,
    /// Allocations that reached the (simulated) driver over the whole run.
    pub sac_driver_mallocs: u64,
    /// Same for the GASPARD2 route.
    pub gaspard_driver_mallocs: u64,
    /// Pool hit rate over the whole run, percent (0 for naive).
    pub sac_hit_rate: f64,
    /// Same for the GASPARD2 route.
    pub gaspard_hit_rate: f64,
}

impl MemoryRow {
    fn record(&self) -> Record {
        record! {
            "config": &self.config,
            "sac_s": self.sac_s,
            "gaspard_s": self.gaspard_s,
            "sac_driver_mallocs": self.sac_driver_mallocs,
            "gaspard_driver_mallocs": self.gaspard_driver_mallocs,
            "sac_hit_rate": self.sac_hit_rate,
            "gaspard_hit_rate": self.gaspard_hit_rate,
        }
    }
}

/// `cold + (frames − 1) · steady`: frame 0 pays cold-start allocation, every
/// later frame the steady-state cost. Exact under the cost model because
/// per-frame cost is content-independent and, for the pool, frame 1 is
/// already in steady state (every class was populated by frame 0's frees).
fn extrapolate(cold: f64, steady: f64, frames: usize) -> f64 {
    cold + frames.saturating_sub(1) as f64 * steady
}

/// Time + allocator counters of a two-frame serial run, extrapolated to the
/// scenario's full frame count.
struct MemoryMeasurement {
    total_us: f64,
    driver_mallocs: u64,
    hit_rate: f64,
}

fn measure_memory<E>(
    s: &Scenario,
    device: &mut Device,
    mut run_frame: impl FnMut(&mut Device, usize) -> Result<(), E>,
) -> Result<MemoryMeasurement, E> {
    run_frame(device, 0)?;
    let t1 = device.now_us();
    let a1 = device.profiler.alloc.clone();
    run_frame(device, 1)?;
    let t2 = device.now_us();
    let a2 = device.profiler.alloc.clone();

    let ex = |cold: u64, after: u64| extrapolate(cold as f64, (after - cold) as f64, s.frames);
    let hits = ex(a1.pool_hits, a2.pool_hits);
    let misses = ex(a1.pool_misses, a2.pool_misses);
    Ok(MemoryMeasurement {
        total_us: extrapolate(t1, t2 - t1, s.frames),
        driver_mallocs: ex(a1.mallocs, a2.mallocs) as u64,
        hit_rate: if hits + misses > 0.0 { 100.0 * hits / (hits + misses) } else { 0.0 },
    })
}

/// Memory-allocator ablation: naive vs pooled allocation under the
/// allocation-costed calibration ([`simgpu::Calibration::gtx480_alloc`]).
///
/// Uses the *serial per-frame* executors, which — like the paper's generated
/// host loops — allocate and free every device buffer each frame, so the
/// allocator is actually exercised once per frame: naive runs pay a
/// device-synchronizing `cudaMalloc`/`cudaFree` per buffer per frame, pooled
/// runs pay them only on frame 0 and recycle thereafter. Two frames are
/// executed functionally and the whole-run totals extrapolated (frame 0 =
/// cold start, frame 1 = steady state).
pub fn memory_ablation(s: &Scenario) -> Result<Vec<MemoryRow>, PipelineError> {
    let sac = build_sac(s, Variant::NonGeneric, Part::Full, &Default::default())?;
    let gasp = build_gaspard(s)?;
    let gen = FrameGenerator::new(s.channels, s.rows, s.cols, FRAME_SEED);

    let mut rows = Vec::new();
    for (label, pool) in [("naive", false), ("pooled", true)] {
        let opts = ExecOptions { pool, ..Default::default() };
        let mut sac_dev = super::device(DeviceConfig::gtx480(), Calibration::gtx480_alloc());
        let sm = measure_memory(s, &mut sac_dev, |d, f| {
            let plan = sac_cuda::lower_plan(&sac.cuda, s.channels)?;
            run_plan(plan, d, &[vec![gen.frame_rank3(f)]], &opts)
                .map(|_| ())
                .map_err(CudaError::from)
        })?;

        let mut gasp_dev = super::device(DeviceConfig::gtx480(), Calibration::gtx480_alloc());
        let gm = measure_memory(s, &mut gasp_dev, |d, f| {
            let plan = gaspard::lower_plan(&gasp.opencl);
            run_plan(plan, d, &[gen.frame_channels(f)], &opts).map(|_| ())
        })
        .map_err(GaspardError::from)?;

        rows.push(MemoryRow {
            config: label.into(),
            sac_s: sm.total_us / 1e6,
            gaspard_s: gm.total_us / 1e6,
            sac_driver_mallocs: sm.driver_mallocs,
            gaspard_driver_mallocs: gm.driver_mallocs,
            sac_hit_rate: sm.hit_rate,
            gaspard_hit_rate: gm.hit_rate,
        });
    }
    Ok(rows)
}

/// Outcome of the OOM graceful-degradation demonstration.
#[derive(Debug, Clone)]
pub struct DegradationDemo {
    /// Constrained device capacity, bytes (sized to fit 2 lanes, not 4).
    pub capacity_bytes: usize,
    /// Stream count requested by both runs.
    pub streams: usize,
    /// The error the naive (non-degrading) batch dies with.
    pub naive_error: String,
    /// Makespan of the degrading batch, seconds.
    pub degraded_s: f64,
    /// Downgrade notes the degrading run surfaced.
    pub notes: Vec<String>,
    /// Whether the degraded outputs are bit-identical to the 1-stream run.
    pub outputs_match_baseline: bool,
}

/// Demonstrate graceful OOM degradation on the SaC route: on a device sized
/// for two stream lanes, a 4-stream batch dies with `OutOfMemory` unless
/// degradation is enabled, in which case it completes at reduced lanes with
/// bit-identical outputs.
pub fn oom_degradation_demo(s: &Scenario) -> Result<DegradationDemo, PipelineError> {
    let sac = build_sac(s, Variant::NonGeneric, Part::Full, &Default::default())?;
    let streams = 4;
    // Each lane allocates its buffer set only when a frame executes on it
    // functionally (replay charges time without touching memory), so run one
    // functional frame per requested lane to actually exercise the capacity.
    // Scenarios with fewer frames than lanes exercise fewer lanes.
    let exercised = streams.min(s.frames);
    let opts = ExecOptions { executed: exercised, ..Default::default() };

    // Baseline 1-stream run doubles as the per-lane footprint probe.
    let mut probe = super::gtx480();
    let baseline = run_sac_batch(s, &sac, &mut probe, FRAME_SEED, opts)?;
    // Capacity for half the exercised lanes: the naive run must OOM, the
    // degradation ladder must bottom out at a count that fits.
    let capacity = probe.peak_allocated_bytes() * (exercised / 2).max(1);

    let cfg = DeviceConfig::toy(capacity);
    let mut naive = super::device(cfg.clone(), Calibration::gtx480());
    let naive_error =
        match run_sac_batch(s, &sac, &mut naive, FRAME_SEED, ExecOptions { streams, ..opts }) {
            Err(e) => e.to_string(),
            Ok(_) => "unexpectedly succeeded".into(),
        };

    let mut degraded = super::device(cfg, Calibration::gtx480());
    let outs = run_sac_batch(
        s,
        &sac,
        &mut degraded,
        FRAME_SEED,
        ExecOptions { streams, degrade_on_oom: true, ..opts },
    )?;

    Ok(DegradationDemo {
        capacity_bytes: capacity,
        streams,
        naive_error,
        degraded_s: degraded.now_us() / 1e6,
        notes: degraded.profiler.notes().map(String::from).collect(),
        outputs_match_baseline: outs == baseline,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memory_ablation_pooled_never_slower() {
        let s = Scenario::new("mem", 3, 90, 160, 30).unwrap();
        let rows = memory_ablation(&s).unwrap();
        assert_eq!(rows.len(), 2);
        let (naive, pooled) = (&rows[0], &rows[1]);
        assert_eq!(naive.config, "naive");
        assert_eq!(pooled.config, "pooled");
        // The acceptance ordering: pooled strictly beats naive once per-frame
        // allocation is costed, on both routes.
        assert!(pooled.sac_s < naive.sac_s, "{} !< {}", pooled.sac_s, naive.sac_s);
        assert!(pooled.gaspard_s < naive.gaspard_s);
        // Naive never hits a pool; pooled is all hits after frame 0.
        assert_eq!(naive.sac_hit_rate, 0.0);
        assert!(pooled.sac_hit_rate > 50.0, "{}", pooled.sac_hit_rate);
        assert!(pooled.gaspard_hit_rate > 50.0);
        assert!(pooled.sac_driver_mallocs < naive.sac_driver_mallocs);
        assert!(pooled.gaspard_driver_mallocs < naive.gaspard_driver_mallocs);
    }

    #[test]
    fn degradation_demo_completes_where_naive_fails() {
        let s = Scenario::new("deg", 3, 90, 160, 8).unwrap();
        let d = oom_degradation_demo(&s).unwrap();
        assert!(d.naive_error.contains("out of memory"), "{}", d.naive_error);
        assert!(d.outputs_match_baseline);
        assert!(!d.notes.is_empty());
        assert!(d.degraded_s > 0.0);
    }
}
