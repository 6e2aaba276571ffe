//! Wall-clock companion to Table II: the SaC route per frame — front-end +
//! optimiser (compile time) and the 12-kernel execution on the simulated
//! device (run time), with per-filter breakdowns.

use criterion::{criterion_group, criterion_main, Criterion};
use downscaler::frames::FrameGenerator;
use downscaler::pipelines::build_sac;
use downscaler::sac_src::{Part, Variant};
use downscaler::Scenario;
use sac_cuda::exec::lower_plan;
use simgpu::device::Device;
use simgpu::{run_plan, ExecOptions};
use std::hint::black_box;

fn bench_sac(c: &mut Criterion) {
    let s = Scenario::cif();
    let frame = FrameGenerator::new(s.channels, s.rows, s.cols, 1).frame_rank3(0);
    let mut group = c.benchmark_group("table2_sac");
    group.sample_size(10);

    group.bench_function("compiler_pipeline", |b| {
        b.iter(|| {
            black_box(
                build_sac(black_box(&s), Variant::NonGeneric, Part::Full, &Default::default())
                    .unwrap(),
            )
        })
    });

    let route = build_sac(&s, Variant::NonGeneric, Part::Full, &Default::default()).unwrap();
    let opts = ExecOptions::default();
    let frames = [vec![frame.clone()]];
    group.bench_function("cuda_frame_cif", |b| {
        b.iter(|| {
            let mut device = Device::gtx480();
            let plan = lower_plan(&route.cuda, s.channels).unwrap();
            black_box(run_plan(plan, &mut device, black_box(&frames), &opts).unwrap())
        })
    });

    for (name, part) in [("h_filter_only", Part::Horizontal), ("v_filter_only", Part::Vertical)] {
        let r = build_sac(&s, Variant::NonGeneric, part, &Default::default()).unwrap();
        let input = if matches!(part, Part::Vertical) {
            downscaler::pipelines::reference_horizontal(&s, &frame)
        } else {
            frame.clone()
        };
        let inputs = [vec![input]];
        group.bench_function(name, |b| {
            b.iter(|| {
                let mut device = Device::gtx480();
                let plan = lower_plan(&r.cuda, s.channels).unwrap();
                black_box(run_plan(plan, &mut device, black_box(&inputs), &opts).unwrap())
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_sac);
criterion_main!(benches);
