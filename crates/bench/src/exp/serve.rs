//! Fleet-serving ablation: one open-loop trace sharded across simulated
//! devices, an arrival-rate sweep, and graceful load shedding.

use super::{config_err, Experiment, FRAME_SEED};
use crate::arrivals::arrival_trace;
use crate::record;
use crate::record::Record;
use downscaler::frames::FrameGenerator;
use downscaler::pipelines::{build_gaspard, reference_downscale, PipelineError};
use downscaler::Scenario;
use mdarray::NdArray;
use simgpu::device::Device;
use simgpu::ExecOptions;

/// The `serve` command.
pub const EXPERIMENT: Experiment = Experiment {
    name: "serve",
    title: "Ablation: multi-device fleet serving (serve crate over simgpu::Fleet; fused Gaspard2 route, 2 queues + pool per device)",
    run: serve_ablation,
};

/// Fleet-serving ablation: shard one open-loop trace of downscale jobs
/// across 1/2/4/8 simulated devices and report frames/s and p50/p99 job
/// latency, compare sharding policies at fixed width, sweep the offered
/// arrival rate against a fixed fleet, and demonstrate graceful load
/// shedding under overload (bounded queues + the OOM degradation ladder).
///
/// Jobs run the fused Gaspard route's launch plan — the route-agnostic
/// `LaunchPlan` is exactly what lets one lowered plan serve on
/// any number of devices. A handful of jobs per configuration execute
/// functionally (their outputs are bit-checked across every width and
/// policy against the golden model); the rest replay a captured
/// [`serve::JobTemplate`] for exact timing at zero compute, which is what
/// makes thousand-job traces affordable.
///
/// Latencies are per completed job, p99 by nearest rank; frames/s counts
/// served frames over trace time.
pub fn serve_ablation(s: &Scenario) -> Result<Record, PipelineError> {
    use std::collections::BTreeMap;

    let route = build_gaspard(s)?;
    let plan = downscaler::pipelines::fused_gaspard_plan(&route)?;
    let gen = FrameGenerator::new(s.channels, s.rows, s.cols, FRAME_SEED);

    // Scenario-scaled trace shape: HD's 300 frames become 60 five-frame
    // jobs; smaller scenarios shrink proportionally (min 4 jobs, 1 frame).
    let fpj = (s.frames / 60).max(1);
    let jobs_n = (s.frames / fpj).max(4);
    let exec = ExecOptions { streams: 2, executed: 1, pool: true, ..Default::default() };

    // Measure the job shape once on a scratch device; every serving run
    // (any width, any policy) replays this same template, which is what
    // makes the cross-width comparison exact.
    let mut templates = BTreeMap::new();
    let mut probe = Device::gtx480();
    let tpl = serve::JobTemplate::capture(&plan, &mut probe, &exec, &[gen.frame_channels(0)], fpj)
        .map_err(config_err)?;
    let job_us = tpl.dur_us;
    templates.insert(fpj, tpl);

    // Open-loop burst: ~1ms mean inter-arrival over 4 tenants. The first
    // two jobs are functional (1 measured frame + replay to `fpj`) so every
    // serving run produces real outputs to bit-check; the rest are
    // replay-only.
    let functional = 2.min(jobs_n);
    let trace = arrival_trace(0x0A21, jobs_n, 1_000.0, 4);
    let jobs: Vec<serve::Job> = trace
        .iter()
        .enumerate()
        .map(|(j, a)| {
            if j < functional {
                serve::Job {
                    id: j,
                    tenant: a.tenant,
                    submit_us: a.submit_us,
                    frames: vec![gen.frame_channels(j)],
                    total_frames: fpj,
                }
            } else {
                serve::Job::replay(j, a.tenant, a.submit_us, fpj)
            }
        })
        .collect();
    let submits: Vec<f64> = jobs.iter().map(|j| j.submit_us).collect();
    let expected: Vec<NdArray<i64>> =
        (0..functional).map(|j| reference_downscale(s, &gen.frame_rank3(j))).collect();

    let base_cfg = serve::ServeConfig {
        policy: serve::ShardPolicy::RoundRobin,
        queue_capacity: jobs_n,
        tenant_weights: vec![1; 4],
        exec,
    };

    let mut outputs_match = true;
    let (mut scaling, mut fps) = (Vec::new(), Vec::new());
    let mut run = |devices: usize,
                   policy: serve::ShardPolicy,
                   templates: &mut BTreeMap<usize, serve::JobTemplate>,
                   outputs_match: &mut bool|
     -> Result<Record, PipelineError> {
        let mut fleet = simgpu::Fleet::gtx480(devices).map_err(config_err)?;
        let cfg = serve::ServeConfig { policy, ..base_cfg.clone() };
        let report = serve::serve_with_templates(&mut fleet, &plan, &jobs, &cfg, templates)
            .map_err(config_err)?;
        for (j, exp) in expected.iter().enumerate() {
            match &report.outcomes[j] {
                serve::JobOutcome::Completed { outputs, .. } => {
                    let planes = FrameGenerator::unstack(exp);
                    *outputs_match &= outputs.len() == 1 && outputs[0] == planes;
                }
                serve::JobOutcome::Shed { .. } => *outputs_match = false,
            }
        }
        fps.push(report.throughput_fps());
        Ok(record! {
            "devices": devices,
            "policy": policy.name(),
            "jobs": jobs_n,
            "completed": report.completed,
            "shed": report.shed,
            "frames": report.total_frames,
            "frames_per_s": report.throughput_fps(),
            "p50_ms": report.latency_percentile_us(&submits, 50.0) / 1e3,
            "p99_ms": report.latency_percentile_us(&submits, 99.0) / 1e3,
            "makespan_s": report.makespan_us / 1e6,
        })
    };

    for devices in [1usize, 2, 4, 8] {
        scaling.push(run(
            devices,
            serve::ShardPolicy::RoundRobin,
            &mut templates,
            &mut outputs_match,
        )?);
    }
    for policy in [serve::ShardPolicy::LeastLoaded, serve::ShardPolicy::StickyByTenant] {
        scaling.push(run(4, policy, &mut templates, &mut outputs_match)?);
    }
    let speedup_1_to_4 = fps[2] / fps[0];

    // Arrival-rate sweep: a fixed 4-device fleet, replay-only jobs, bounded
    // queues, offered load below / at / far above fleet capacity.
    let rate_devices = 4usize;
    let capacity_jps = rate_devices as f64 * 1e6 / job_us;
    let rate_jobs = jobs_n * 6;
    let mut rates = Vec::new();
    for (i, load) in [0.3f64, 1.0, 3.0].iter().enumerate() {
        let gap_us = 1e6 / (capacity_jps * load);
        let tr = arrival_trace(0x0A31 + i as u64, rate_jobs, gap_us, 4);
        let rjobs: Vec<serve::Job> = tr
            .iter()
            .enumerate()
            .map(|(j, a)| serve::Job::replay(j, a.tenant, a.submit_us, fpj))
            .collect();
        let rsubmits: Vec<f64> = rjobs.iter().map(|j| j.submit_us).collect();
        let mut fleet = simgpu::Fleet::gtx480(rate_devices).map_err(config_err)?;
        let cfg = serve::ServeConfig {
            policy: serve::ShardPolicy::LeastLoaded,
            queue_capacity: 8,
            ..base_cfg.clone()
        };
        let report = serve::serve_with_templates(&mut fleet, &plan, &rjobs, &cfg, &mut templates)
            .map_err(config_err)?;
        rates.push(record! {
            "load_factor": *load,
            "offered_jobs_per_s": capacity_jps * load,
            "devices": rate_devices,
            "jobs": rate_jobs,
            "completed": report.completed,
            "shed": report.shed,
            "frames_per_s": report.throughput_fps(),
            "p50_ms": report.latency_percentile_us(&rsubmits, 50.0) / 1e3,
            "p99_ms": report.latency_percentile_us(&rsubmits, 99.0) / 1e3,
        });
    }

    // Overload demonstration: two memory-constrained devices sized for one
    // stream lane each, six two-frame functional jobs arriving in one
    // burst, queue depth 1. Admission control sheds the overflow at the
    // door; every admitted job OOMs at two lanes and the degradation
    // ladder completes it at one lane — visible as notes in the merged
    // fleet profiler, with outputs bit-identical to the golden model.
    let shed_exec = ExecOptions { pool: false, degrade_on_oom: true, ..exec };
    let mut fprobe = Device::gtx480();
    let two_frames: Vec<Vec<NdArray<i64>>> = (0..2).map(|k| gen.frame_channels(100 + k)).collect();
    simgpu::BatchScheduler::new(&plan)
        .run(&mut fprobe, &two_frames, &ExecOptions { streams: 1, pool: false, ..shed_exec })
        .map_err(config_err)?;
    let capacity = fprobe.peak_allocated_bytes();
    let mut fleet = simgpu::Fleet::homogeneous(
        2,
        simgpu::DeviceConfig::toy(capacity),
        simgpu::Calibration::gtx480(),
    )
    .map_err(config_err)?;
    let shed_trace = arrival_trace(0x0A41, 6, 50.0, 2);
    let shed_jobs: Vec<serve::Job> = shed_trace
        .iter()
        .enumerate()
        .map(|(j, a)| {
            serve::Job::functional(
                j,
                a.tenant,
                a.submit_us,
                (0..2).map(|k| gen.frame_channels(100 + j * 2 + k)).collect(),
            )
        })
        .collect();
    let shed_cfg = serve::ServeConfig {
        policy: serve::ShardPolicy::RoundRobin,
        queue_capacity: 1,
        tenant_weights: vec![1; 2],
        exec: shed_exec,
    };
    let report = serve::serve(&mut fleet, &plan, &shed_jobs, &shed_cfg).map_err(config_err)?;
    let mut outputs_ok = true;
    for (j, o) in report.outcomes.iter().enumerate() {
        if let serve::JobOutcome::Completed { outputs, .. } = o {
            outputs_ok &= outputs.len() == 2;
            for (k, out) in outputs.iter().enumerate() {
                let exp = reference_downscale(s, &gen.frame_rank3(100 + j * 2 + k));
                outputs_ok &= *out == FrameGenerator::unstack(&exp);
            }
        }
    }
    let merged = fleet.merged_profiler();
    Ok(record! {
        "frames_per_job": fpj,
        "job_ms": job_us / 1e3,
        "speedup_1_to_4": speedup_1_to_4,
        "outputs_match_across_widths": Record::Verdict(outputs_match),
        "scaling": Record::Arr(scaling),
        "rates": Record::Arr(rates),
        // Two memory-constrained devices; the admitted jobs complete on the
        // degradation ladder and the rest are shed without partial work.
        "overload": record! {
            "devices": 2usize,
            "capacity_bytes": capacity,
            "jobs": shed_jobs.len(),
            "completed": report.completed,
            "shed": report.shed,
            "degradation_notes": merged.notes().filter(|n| n.contains("degraded")).count(),
            "shed_notes": merged.notes().filter(|n| n.starts_with("shed:")).count(),
            "outputs_ok": Record::Verdict(outputs_ok),
        },
    })
}
