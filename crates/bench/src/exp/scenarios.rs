//! Workload-registry ablation: every registry entry on both routes under
//! three scheduler configurations, bit-checked, then served.

use super::{config_err, Experiment};
use crate::arrivals::arrival_trace;
use crate::record;
use crate::record::Record;
use downscaler::pipelines::PipelineError;
use downscaler::Scenario;
use mdarray::NdArray;
use simgpu::{DeviceConfig, ExecOptions};

/// The `scenarios` command.
pub const EXPERIMENT: Experiment = Experiment {
    name: "scenarios",
    title: "Ablation: workload registry (crates/scenarios; serialized vs 2-stream pipelined + pool vs planopt ALL, then each entry's default job mix on a 2-device fleet)",
    run: scenarios_ablation,
};

/// Workload-registry ablation: run every registry entry on both routes
/// under three scheduler configurations (serialized, 2-stream pipelined +
/// pool, pipelined + planopt ALL), bit-check each run against the entry's
/// CPU reference and across routes, then serve each entry's default job
/// mix on a 2-device fleet.
///
/// The full registry — including the 1080p and 4K downscaler sizes — runs
/// for the `hd1080` scenario selection; other selections use the small
/// registry, which is what CI smoke-tests. Each execution row counts the
/// functionally executed frames (the rest of the batch timing-replays) and
/// the kernel launches over them.
pub fn scenarios_ablation(s: &Scenario) -> Result<Record, PipelineError> {
    use std::collections::BTreeMap;

    let entries =
        if s.name == "hd1080" { scenarios::registry() } else { scenarios::registry_small() };

    let mut rows = Vec::new();
    let mut serve_rows = Vec::new();
    let mut cross_route_match = true;
    let mut temporal_serialized = true;

    for (i, w) in entries.iter().enumerate() {
        let built = w.build().map_err(config_err)?;
        // One functional frame per configuration suffices for the
        // bit-checks (per-frame cost is content-independent); the temporal
        // entry executes three so the carry chain is actually exercised.
        let executed = if w.temporal() { 3.min(w.frames) } else { 1 };
        let references: Vec<_> = (0..executed).map(|f| built.reference(f)).collect();
        let base = ExecOptions { executed, ..Default::default() };
        let configs: [(&str, ExecOptions); 3] = [
            ("serial", base),
            ("pipelined", ExecOptions { streams: 2, pool: true, ..base }),
            (
                "planopt",
                ExecOptions { streams: 2, pool: true, optimize: simgpu::PlanOptLevel::ALL, ..base },
            ),
        ];

        let mut serial_outs: Vec<Vec<NdArray<i64>>> = Vec::new();
        for route in scenarios::Route::BOTH {
            let mut cfg_outs: Vec<Vec<NdArray<i64>>> = Vec::new();
            let mut cfg_times = Vec::new();
            for (config, opts) in &configs {
                let mut device = super::gtx480();
                let (outs, stats) = built.run(route, &mut device, opts).map_err(config_err)?;
                let outputs_ok = outs == references;
                rows.push(record! {
                    "scenario": w.name,
                    "route": route.name(),
                    "config": *config,
                    "frames": executed,
                    "simulated_s": device.now_us() / 1e6,
                    "launches": stats.launches,
                    "outputs_ok": Record::Verdict(outputs_ok),
                });
                cfg_times.push(device.now_us());
                cfg_outs.push(outs);
            }
            cross_route_match &= cfg_outs.iter().all(|o| *o == cfg_outs[0]);
            if w.temporal() {
                temporal_serialized &= (cfg_times[0] - cfg_times[1]).abs() < 1e-9;
            }
            serial_outs.push(cfg_outs.swap_remove(0));
        }
        cross_route_match &= serial_outs[0] == serial_outs[1];

        // Serve the entry's default mix: the Gaspard plan, one functional
        // job (bit-checked), the rest replaying a captured template.
        let plan = built.plan(scenarios::Route::Gaspard).map_err(config_err)?;
        let mix = w.mix;
        let exec = ExecOptions { streams: 2, executed: 1, pool: true, ..Default::default() };
        let mut templates = BTreeMap::new();
        let mut probe = super::gtx480();
        let probe_frames = built.frames(scenarios::Route::Gaspard, 1);
        let tpl = serve::JobTemplate::capture(
            &plan,
            &mut probe,
            &exec,
            &probe_frames,
            mix.frames_per_job,
        )
        .map_err(config_err)?;
        templates.insert(mix.frames_per_job, tpl);
        let trace = arrival_trace(0x0A51 + i as u64, mix.jobs, mix.mean_gap_us, mix.tenants);
        let jobs: Vec<serve::Job> = trace
            .iter()
            .enumerate()
            .map(|(j, a)| {
                if j == 0 {
                    serve::Job {
                        id: j,
                        tenant: a.tenant,
                        submit_us: a.submit_us,
                        frames: built.frames(scenarios::Route::Gaspard, 1),
                        total_frames: mix.frames_per_job,
                    }
                } else {
                    serve::Job::replay(j, a.tenant, a.submit_us, mix.frames_per_job)
                }
            })
            .collect();
        let submits: Vec<f64> = jobs.iter().map(|j| j.submit_us).collect();
        let mut fleet = super::fleet(2, DeviceConfig::gtx480())?;
        let cfg = serve::ServeConfig {
            policy: serve::ShardPolicy::RoundRobin,
            queue_capacity: mix.jobs,
            tenant_weights: vec![1; mix.tenants],
            exec,
        };
        let report = serve::serve_with_templates(&mut fleet, &plan, &jobs, &cfg, &mut templates)
            .map_err(config_err)?;
        let outputs_ok = match &report.outcomes[0] {
            serve::JobOutcome::Completed { outputs, .. } => {
                outputs.len() == 1 && built.canon(outputs[0].clone()) == references[0]
            }
            serve::JobOutcome::Shed { .. } => false,
        };
        serve_rows.push(record! {
            "scenario": w.name,
            "jobs": mix.jobs,
            "frames_per_job": mix.frames_per_job,
            "completed": report.completed,
            "shed": report.shed,
            "frames_per_s": report.throughput_fps(),
            "p50_ms": report.latency_percentile_us(&submits, 50.0) / 1e3,
            "p99_ms": report.latency_percentile_us(&submits, 99.0) / 1e3,
            "outputs_ok": Record::Verdict(outputs_ok),
        });
    }

    Ok(record! {
        // Every entry's outputs bit-identical across both routes and all
        // three scheduler configurations.
        "cross_route_match": Record::Verdict(cross_route_match),
        // The temporal (carry) entry's 2-stream makespan equals its serial
        // one on both routes: the carry chain collapses pipelining.
        "temporal_serialized": Record::Verdict(temporal_serialized),
        "rows": Record::Arr(rows),
        "serve": Record::Arr(serve_rows),
    })
}
