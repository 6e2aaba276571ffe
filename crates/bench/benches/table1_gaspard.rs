//! Wall-clock companion to Table I: the GASPARD2 route per frame — the
//! transformation chain (compile time) and the generated-OpenCL execution
//! on the simulated device (run time).

use criterion::{criterion_group, criterion_main, Criterion};
use downscaler::frames::FrameGenerator;
use downscaler::pipelines::build_gaspard;
use downscaler::Scenario;
use simgpu::device::Device;
use std::hint::black_box;

fn bench_gaspard(c: &mut Criterion) {
    let s = Scenario::cif();
    let channels = FrameGenerator::new(s.channels, s.rows, s.cols, 1).frame_channels(0);

    let mut group = c.benchmark_group("table1_gaspard");
    group.sample_size(10);

    group.bench_function("mde_chain_compile", |b| {
        b.iter(|| black_box(build_gaspard(black_box(&s)).unwrap()))
    });

    let route = build_gaspard(&s).unwrap();
    group.bench_function("opencl_frame_cif", |b| {
        b.iter(|| {
            let mut device = Device::gtx480();
            let plan = gaspard::lower_plan(&route.opencl);
            let frames = [channels.clone()];
            black_box(
                simgpu::run_plan(plan, &mut device, black_box(&frames), &Default::default())
                    .unwrap(),
            )
        })
    });

    // Per-filter kernel execution (the Table I row granularity).
    let hf = &route.opencl.kernels[0];
    group.bench_function("single_hf_channel_kernel", |b| {
        b.iter(|| {
            let mut device = Device::gtx480();
            let inp = device.malloc(s.rows * s.cols).unwrap();
            let out = device.malloc(s.rows * s.h_out_cols()).unwrap();
            device
                .launch(
                    &hf.kernel,
                    hf.config,
                    &[simgpu::kir::KernelArg::Buffer(out.0), simgpu::kir::KernelArg::Buffer(inp.0)],
                )
                .unwrap();
            black_box(device.now_us())
        })
    });
    group.finish();
}

criterion_group!(benches, bench_gaspard);
criterion_main!(benches);
