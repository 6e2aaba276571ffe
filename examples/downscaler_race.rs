//! The full paper experiment in miniature: both compilation routes process
//! the same video stream, and the profiles are printed side by side.
//!
//! ```sh
//! cargo run --release --example downscaler_race [-- frames] [--streams N]
//! ```
//!
//! Uses the CIF-sized scenario (288×352 → 128×132) so it runs in seconds;
//! `cargo run --release -p bench --bin reproduce` does the full HD version.
//! With `--streams 2` each route double-buffers its frames over async
//! streams/command queues, so uploads, kernels, and downloads overlap on the
//! simulated copy and compute engines; `--streams 1` (the default) is the
//! serialized baseline and reproduces the classic profile exactly.

use gpu_abstractions::{downscaler, mdarray, simgpu};

use downscaler::frames::{FrameGenerator, FrameSink};
use downscaler::pipelines::{
    build_gaspard, build_sac, reference_downscale, run_gaspard_batch, run_sac_batch,
};
use downscaler::sac_src::{Part, Variant};
use downscaler::Scenario;
use simgpu::device::Device;
use simgpu::profiler::{Group, OpClass};
use simgpu::ExecOptions;

fn main() {
    let mut frames: usize = 4;
    let mut streams: usize = 1;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == "--streams" {
            streams = args
                .next()
                .and_then(|v| v.parse().ok())
                .expect("--streams needs a positive integer");
        } else if let Ok(n) = a.parse() {
            frames = n;
        }
    }
    let mut s = Scenario::cif();
    s.frames = frames;
    println!(
        "downscaling {} frames of {}x{} video to {}x{} on the simulated GTX480 ({} stream{})\n",
        s.frames,
        s.rows,
        s.cols,
        s.out_shape().0,
        s.out_shape().1,
        streams.max(1),
        if streams.max(1) == 1 { "" } else { "s" }
    );

    // Compile both routes once (the paper's design/compile time).
    let sac =
        build_sac(&s, Variant::NonGeneric, Part::Full, &Default::default()).expect("SaC route");
    let gasp = build_gaspard(&s).expect("GASPARD2 route");
    println!(
        "SaC route:      {} kernels/frame after WITH-loop folding ({} folds, {} boundary splits)",
        sac.cuda.launches_per_run(),
        sac.report.fold.folds,
        sac.report.generators_after_split - sac.report.generators_before_split
    );
    println!(
        "GASPARD2 route: {} kernels/frame (one per channel task)\n",
        gasp.opencl.kernels.len()
    );

    let seed = 42;
    let gen = FrameGenerator::new(s.channels, s.rows, s.cols, seed);
    let mut sac_device = Device::gtx480();
    let mut gasp_device = Device::gtx480();
    let mut sac_sink = FrameSink::new();
    let mut gasp_sink = FrameSink::new();
    let batch = ExecOptions { streams, ..Default::default() };

    let sac_outs = run_sac_batch(&s, &sac, &mut sac_device, seed, batch).expect("SaC batch");
    let gasp_outs =
        run_gaspard_batch(&s, &gasp, &mut gasp_device, seed, batch).expect("Gaspard batch");

    for (f, (sac_out, gasp_out)) in sac_outs.iter().zip(&gasp_outs).enumerate() {
        sac_sink.consume(&FrameGenerator::unstack(sac_out));
        gasp_sink.consume(gasp_out);

        // Every frame is also checked against the golden CPU filters.
        let expect = reference_downscale(&s, &gen.frame_rank3(f));
        assert_eq!(sac_out, &expect, "SaC diverged on frame {f}");
        assert_eq!(FrameGenerator::stack(gasp_out), expect, "Gaspard diverged on frame {f}");
    }
    assert_eq!(sac_sink.digest, gasp_sink.digest);
    println!(
        "both routes produced identical video (digest {:#018x} over {} frames)\n",
        sac_sink.digest, sac_sink.frames
    );

    let groups = [
        Group::kernels("H. Filter", "hf_"),
        Group::kernels("V. Filter", "vf_"),
        Group::class("memcpyHtoDasync", OpClass::H2D),
        Group::class("memcpyDtoHasync", OpClass::D2H),
    ];
    println!("--- SaC -> CUDA profile ---\n{}", sac_device.profiler.table(&groups));
    println!("--- GASPARD2 -> OpenCL profile ---\n{}", gasp_device.profiler.table(&groups));
    if streams > 1 {
        println!("--- SaC -> CUDA timeline ---\n{}", sac_device.profiler.timeline_table());
        println!("--- GASPARD2 -> OpenCL timeline ---\n{}", gasp_device.profiler.timeline_table());
    }
    println!(
        "simulated totals: SaC {:.1} ms vs Gaspard2 {:.1} ms per {} frames",
        sac_device.now_us() / 1e3,
        gasp_device.now_us() / 1e3,
        s.frames
    );

    // A visual souvenir: the first output frame's red channel as PGM.
    let first = gen.frame_channels(0);
    let red = downscaler::filter::downscale_channel(&first[0], &s.h, &s.v);
    let pgm = FrameSink::to_pgm(&red);
    let path = std::env::temp_dir().join("downscaled_red.pgm");
    if std::fs::write(&path, pgm).is_ok() {
        println!("wrote {} ({}x{})", path.display(), red.shape().dim(1), red.shape().dim(0));
    }
    let _ = mdarray::ops::checksum(&red);
}
