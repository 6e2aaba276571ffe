//! Ablation: WITH-loop folding on vs off (DESIGN.md §5.2).
//!
//! Measures (a) the optimiser's own cost with and without WLF and (b) the
//! real execution cost of the resulting programs — both sequentially and on
//! the simulated device, where the unfolded variant launches 3× the kernels
//! and materialises the intermediate arrays.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use downscaler::frames::FrameGenerator;
use downscaler::pipelines::build_sac;
use downscaler::sac_src::{Part, Variant};
use downscaler::Scenario;
use sac_cuda::exec::lower_plan;
use sac_lang::opt::OptConfig;
use simgpu::device::Device;
use simgpu::{run_plan, ExecOptions};
use std::hint::black_box;

fn configs() -> [(&'static str, OptConfig); 2] {
    [
        ("wlf_on", OptConfig::default()),
        ("wlf_off", OptConfig { with_loop_folding: false, resolve_modulo: true }),
    ]
}

fn bench_ablation(c: &mut Criterion) {
    let s = Scenario::cif();
    let frame = FrameGenerator::new(s.channels, s.rows, s.cols, 1).frame_rank3(0);
    let mut group = c.benchmark_group("ablation_wlf");
    group.sample_size(10);

    for (name, cfg) in configs() {
        group.bench_with_input(BenchmarkId::new("compile", name), &cfg, |b, cfg| {
            b.iter(|| black_box(build_sac(&s, Variant::NonGeneric, Part::Full, cfg).unwrap()))
        });
        let route = build_sac(&s, Variant::NonGeneric, Part::Full, &cfg).unwrap();
        group.bench_with_input(BenchmarkId::new("seq_run", name), &route, |b, route| {
            b.iter(|| {
                let mut ops = 0u64;
                black_box(
                    route.flat.run(black_box(std::slice::from_ref(&frame)), &mut ops).unwrap(),
                )
            })
        });
        group.bench_with_input(BenchmarkId::new("gpu_run", name), &route, |b, route| {
            b.iter(|| {
                let mut device = Device::gtx480();
                let plan = lower_plan(&route.cuda, 0).unwrap();
                let frames = [vec![frame.clone()]];
                black_box(
                    run_plan(plan, &mut device, black_box(&frames), &ExecOptions::default())
                        .unwrap(),
                )
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_ablation);
criterion_main!(benches);
