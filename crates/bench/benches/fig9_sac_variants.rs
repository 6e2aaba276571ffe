//! Wall-clock companion to Figure 9: real execution time of each SaC
//! configuration (sequential flat evaluation vs simulated-GPU execution,
//! generic vs non-generic) on one CIF frame.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use downscaler::frames::FrameGenerator;
use downscaler::pipelines::build_sac;
use downscaler::sac_src::{Part, Variant};
use downscaler::Scenario;
use sac_cuda::exec::lower_plan;
use simgpu::device::Device;
use simgpu::{run_plan, ExecOptions};
use std::hint::black_box;

fn bench_fig9(c: &mut Criterion) {
    let s = Scenario::cif();
    let frame = FrameGenerator::new(s.channels, s.rows, s.cols, 1).frame_rank3(0);
    let mut group = c.benchmark_group("fig9");
    group.sample_size(10);

    for (name, variant) in [("generic", Variant::Generic), ("nongeneric", Variant::NonGeneric)] {
        let route = build_sac(&s, variant, Part::Full, &Default::default()).unwrap();
        group.bench_with_input(BenchmarkId::new("seq", name), &route, |b, route| {
            b.iter(|| {
                let mut ops = 0u64;
                black_box(
                    route.flat.run(black_box(std::slice::from_ref(&frame)), &mut ops).unwrap(),
                )
            })
        });
        group.bench_with_input(BenchmarkId::new("cuda", name), &route, |b, route| {
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

criterion_group!(benches, bench_fig9);
criterion_main!(benches);
