//! Quickstart: compile a small SaC program to (simulated) CUDA and run it.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```
//!
//! Walks the whole pipeline of the paper's SaC route on ten lines of SaC:
//! parse → inline/fold/lower → WITH-loop folding → one kernel per generator
//! → execution on the simulated GTX480, with the profile printed at the end.

use gpu_abstractions::{mdarray, sac_cuda, sac_lang, simgpu};
use mdarray::NdArray;
use sac_cuda::exec::lower_plan;
use sac_lang::opt::{optimize, ArgDesc, OptConfig};
use simgpu::device::Device;
use simgpu::profiler::{Group, OpClass};
use simgpu::{run_plan, ExecOptions};

const SRC: &str = r#"
int[*] brighten(int[*] img)
{
    out = with { (. <= iv <= .) : img[iv] + 32; } : genarray( shape(img), 0);
    return( out);
}

int[*] main(int[64,64] img)
{
    bright = brighten(img);
    edges = with {
        ([0,0] <= [i,j] < [64,63]) : bright[[i, j + 1]] - bright[[i, j]];
    } : genarray( [64,64], 0);
    return( edges);
}
"#;

fn main() {
    // 1. Parse and optimise: `brighten` is inlined, the two WITH-loops fold
    //    into one, and the result is lowered to the flat data-parallel form.
    let prog = sac_lang::parse_program(SRC).expect("parse");
    let args = [ArgDesc::Array { name: "img".into(), shape: vec![64, 64] }];
    let (flat, report) = optimize(&prog, "main", &args, &OptConfig::default()).expect("optimise");
    println!("WITH-loop folding performed {} fusion(s);", report.fold.folds);
    println!("the program compiles to {} CUDA kernel(s):\n", flat.generator_count());

    // 2. Generate kernels (one per generator) and inspect the CUDA source.
    let cuda = sac_cuda::compile_flat_program(&flat).expect("codegen");
    println!("{}", cuda.emit_cuda_source());

    // 3. Lower to a launch plan and execute one frame on the simulated GTX480.
    let img = NdArray::from_fn([64usize, 64], |ix| ((ix[0] * ix[1]) % 200) as i64);
    let mut device = Device::gtx480();
    let plan = lower_plan(&cuda, 0).expect("lower");
    let (mut frames, stats) =
        run_plan(plan, &mut device, &[vec![img]], &ExecOptions::default()).expect("run");
    let result = frames.pop().expect("one frame").pop().expect("one output");
    println!(
        "ran {} kernel launch(es), {} H2D / {} D2H transfer(s)",
        stats.launches, stats.h2d, stats.d2h
    );
    println!("result checksum: {}", mdarray::ops::checksum(&result));
    println!("simulated device time: {:.1} us\n", device.now_us());

    // 4. The profiler speaks the paper's language.
    println!(
        "{}",
        device.profiler.table(&[
            Group::kernels("Kernels", ""),
            Group::class("memcpyHtoDasync", OpClass::H2D),
            Group::class("memcpyDtoHasync", OpClass::D2H),
        ])
    );
}
