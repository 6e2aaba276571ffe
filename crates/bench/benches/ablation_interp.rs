//! Ablation: kernel-IR interpretation overhead (DESIGN.md §5.1).
//!
//! The simulator interprets kernel IR rather than running native code. This
//! bench compares interpreted kernels against hand-written native Rust
//! computing the same bodies, quantifying the interpreter overhead per
//! element, and measures the parallel-block scaling of the interpreter.
//!
//! Two kernels: saxpy, whose warps never diverge (the interpreter's
//! all-lanes fast path), and a divergent kernel with an early return, a
//! loop whose trip count depends on the lane and an if/else inside the loop
//! (the masked path).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use simgpu::device::{BufferId, Device};
use simgpu::exec::LaunchConfig;
use simgpu::kir::{BinOp, Kernel, KernelArg, KernelBuilder, KernelFlavor, Special};
use std::hint::black_box;

const N: usize = 1 << 18;

fn saxpy_kernel() -> Kernel {
    let mut b = KernelBuilder::new("saxpy", KernelFlavor::Cuda);
    let x = b.buffer_param("x", false);
    let y = b.buffer_param("y", true);
    let n = b.scalar_param("n");
    let gid = b.special(Special::GlobalIdX);
    let nv = b.param_value(n);
    let oob = b.bin(BinOp::Le, nv, gid);
    b.begin_if(oob);
    b.ret();
    b.end_if();
    let xv = b.load(x, gid);
    let yv = b.load(y, gid);
    let a = b.constant(3);
    let ax = b.bin(BinOp::Mul, a, xv);
    let sum = b.bin(BinOp::Add, ax, yv);
    b.store(y, gid, sum);
    b.finish()
}

/// `y[i] = x[i] + Σ_{j < i % 8} (j odd ? j : -j)`, except that every
/// thread with `i % 8 == 7` returns early and leaves `y[i]` alone.
fn divergent_kernel() -> Kernel {
    let mut b = KernelBuilder::new("divergent", KernelFlavor::Cuda);
    let x = b.buffer_param("x", false);
    let y = b.buffer_param("y", true);
    let n = b.scalar_param("n");
    let gid = b.special(Special::GlobalIdX);
    let nv = b.param_value(n);
    let oob = b.bin(BinOp::Le, nv, gid);
    b.begin_if(oob);
    b.ret();
    b.end_if();
    let lane8 = b.bin_imm(BinOp::Rem, gid, 8);
    let skip = b.bin_imm(BinOp::Eq, lane8, 7);
    b.begin_if(skip);
    b.ret();
    b.end_if();
    let acc = b.reg();
    let xv = b.load(x, gid);
    b.mov(acc, xv);
    let zero = b.constant(0);
    let one = b.constant(1);
    let j = b.begin_for(zero, lane8, one);
    let odd = b.bin_imm(BinOp::Rem, j, 2);
    b.begin_if(odd);
    let up = b.bin(BinOp::Add, acc, j);
    b.mov(acc, up);
    b.begin_else();
    let down = b.bin(BinOp::Sub, acc, j);
    b.mov(acc, down);
    b.end_if();
    b.end_for();
    b.store(y, gid, acc);
    b.finish()
}

/// Native `divergent_kernel`.
fn divergent_native(xs: &[i32], y: &mut [i32]) {
    for (i, (yv, &xv)) in y.iter_mut().zip(xs).enumerate() {
        if i % 8 == 7 {
            continue;
        }
        let mut acc = xv;
        for j in 0..(i % 8) as i32 {
            acc += if j % 2 == 1 { j } else { -j };
        }
        *yv = acc;
    }
}

/// Run `kernel(x, y, N)` over `N` threads on a fresh device; returns the
/// device and its `y` buffer.
fn interpret(kernel: &Kernel, xs: &[i32], ys: &[i32], workers: usize) -> (Device, BufferId) {
    let mut device = Device::gtx480();
    device.set_host_workers(workers);
    let xb = device.malloc(N).unwrap();
    let yb = device.malloc(N).unwrap();
    device.poke(xb, xs).unwrap();
    device.poke(yb, ys).unwrap();
    let args = [KernelArg::Buffer(xb.0), KernelArg::Buffer(yb.0), KernelArg::Scalar(N as i64)];
    device.launch(kernel, LaunchConfig::cover_1d(N, 256), &args).unwrap();
    (device, yb)
}

fn bench_interp(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_interp");
    group.sample_size(10);
    let xs: Vec<i32> = (0..N as i32).collect();
    let ys: Vec<i32> = (0..N as i32).map(|v| v * 2).collect();

    // Native baselines.
    group.bench_function("native_saxpy", |b| {
        b.iter(|| {
            let mut y = ys.clone();
            for i in 0..N {
                y[i] += 3 * xs[i];
            }
            black_box(y)
        })
    });
    group.bench_function("native_divergent", |b| {
        b.iter(|| {
            let mut y = ys.clone();
            divergent_native(&xs, &mut y);
            black_box(y)
        })
    });

    // The interpreted divergent kernel must compute what the native one does.
    let divergent = divergent_kernel();
    let mut expected = ys.clone();
    divergent_native(&xs, &mut expected);
    let (device, yb) = interpret(&divergent, &xs, &ys, 1);
    assert_eq!(device.peek(yb).unwrap(), expected, "interpreted divergent kernel");

    // Interpreted on the simulator, at several host worker counts.
    for (name, kernel) in
        [("interpreted_saxpy", saxpy_kernel()), ("interpreted_divergent", divergent)]
    {
        for workers in [1usize, 4, 8] {
            group.bench_with_input(BenchmarkId::new(name, workers), &workers, |b, &workers| {
                b.iter(|| {
                    let (device, yb) = interpret(&kernel, &xs, &ys, workers);
                    black_box(device.peek(yb).unwrap()[N - 1])
                })
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_interp);
criterion_main!(benches);
