//! The shared launch-plan scheduler against the scenario batch drivers.
//!
//! The downscaler's batch drivers (`run_sac_batch`, `run_gaspard_batch`)
//! only build frames and lower a route before `simgpu::run_plan` hands the
//! plan to `simgpu::schedule::BatchScheduler`; these tests pin that
//! equivalence down differentially — same outputs, same simulated clock,
//! same per-engine busy time — and check the degradation ladder converges
//! to a bit-identical result from any starting lane count.

mod common;

use gpu_abstractions::{downscaler, gaspard, sac_cuda, simgpu};

use downscaler::frames::FrameGenerator;
use downscaler::pipelines::{build_gaspard, build_sac, run_gaspard_batch, run_sac_batch};
use downscaler::sac_src::{Part, Variant};
use downscaler::Scenario;
use proptest::prelude::*;
use simgpu::device::{Device, DeviceConfig};
use simgpu::profiler::OpClass;
use simgpu::schedule::{BatchScheduler, ExecOptions};
use simgpu::Calibration;

const CLASSES: [OpClass; 4] = [OpClass::H2D, OpClass::Kernel, OpClass::D2H, OpClass::Host];

fn assert_same_timeline(a: &Device, b: &Device, what: &str) {
    assert_eq!(a.now_us(), b.now_us(), "{what}: simulated clocks differ");
    for class in CLASSES {
        assert_eq!(
            a.profiler.engine_busy_us(class),
            b.profiler.engine_busy_us(class),
            "{what}: {class:?} engine busy time differs"
        );
    }
}

/// An HD-frame scenario through the SaC batch driver and through a
/// hand-lowered plan on the scheduler: identical outputs, identical clock,
/// identical per-engine busy totals.
#[test]
fn sac_wrapper_is_the_scheduler_differentially() {
    let mut s = Scenario::hd1080();
    s.frames = 2;
    let route = build_sac(&s, Variant::NonGeneric, Part::Full, &Default::default()).unwrap();
    let gen = FrameGenerator::new(s.channels, s.rows, s.cols, 0x5CED);
    let frames: Vec<_> = (0..s.frames).map(|f| vec![gen.frame_rank3(f)]).collect();
    let opts = ExecOptions { streams: 2, ..Default::default() };

    let mut driver_dev = Device::gtx480();
    let driver_outs = run_sac_batch(&s, &route, &mut driver_dev, 0x5CED, opts).unwrap();

    let mut direct_dev = Device::gtx480();
    let plan = sac_cuda::exec::lower_plan(&route.cuda, s.channels).unwrap();
    let (direct_outs, _) = BatchScheduler::new(&plan).run(&mut direct_dev, &frames, &opts).unwrap();

    let direct_outs: Vec<_> =
        direct_outs.into_iter().map(|mut frame| frame.pop().unwrap()).collect();
    assert_eq!(driver_outs, direct_outs);
    assert_same_timeline(&driver_dev, &direct_dev, "SaC");
}

/// Same differential check for the GASPARD2 route.
#[test]
fn gaspard_wrapper_is_the_scheduler_differentially() {
    let mut s = Scenario::hd1080();
    s.frames = 2;
    let route = build_gaspard(&s).unwrap();
    let gen = FrameGenerator::new(s.channels, s.rows, s.cols, 0x5CED);
    let frames: Vec<_> = (0..s.frames).map(|f| gen.frame_channels(f)).collect();
    let opts = ExecOptions { streams: 2, ..Default::default() };

    let mut driver_dev = Device::gtx480();
    let driver_outs = run_gaspard_batch(&s, &route, &mut driver_dev, 0x5CED, opts).unwrap();

    let mut direct_dev = Device::gtx480();
    let plan = gaspard::lower_plan(&route.opencl);
    let (direct_outs, _) = BatchScheduler::new(&plan).run(&mut direct_dev, &frames, &opts).unwrap();

    assert_eq!(driver_outs, direct_outs);
    assert_same_timeline(&driver_dev, &direct_dev, "Gaspard");
}

/// When a plan requests a chunk count that does not divide the array length
/// the device falls back to a single transfer; the run stats must report the
/// one transfer actually issued, not the requested chunk count.
#[test]
fn chunk_fallback_reports_actual_transfer_counts() {
    use simgpu::kir::{BinOp, KernelBuilder, KernelFlavor, Special};
    use simgpu::schedule::{ArrayDecl, LaunchPlan, PlanKernel, PlanStep};
    use simgpu::LaunchConfig;

    let n = 10usize; // not divisible by the requested 3 chunks
    let mut b = KernelBuilder::new("dbl", KernelFlavor::Cuda);
    let x = b.buffer_param("x", true);
    let gid = b.special(Special::GlobalIdX);
    let v = b.load(x, gid);
    let two = b.constant(2);
    let w = b.bin(BinOp::Mul, v, two);
    b.store(x, gid, w);
    let kernel = b.finish();

    let plan = LaunchPlan {
        arrays: vec![ArrayDecl { name: "x".into(), shape: vec![n] }],
        inputs: vec![0],
        outputs: vec![0],
        kernels: vec![PlanKernel::new(&kernel, LaunchConfig::cover_1d(n, n as u32), vec![0])],
        host_ops: Vec::new(),
        steps: vec![
            PlanStep::Upload { array: 0, chunks: 3 },
            PlanStep::Launch { kernel: 0 },
            PlanStep::Download { array: 0, chunks: 3 },
        ],
        prologue: Vec::new(),
        invariant: Vec::new(),
        batches: Vec::new(),
        carries: Vec::new(),
        lane_label: "stream lanes",
    };

    let frames = vec![vec![mdarray::NdArray::from_fn([n], |ix| ix[0] as i64)]; 2];
    let mut dev = Device::gtx480();
    let (_, stats) =
        BatchScheduler::new(&plan).run(&mut dev, &frames, &ExecOptions::default()).unwrap();

    // Per frame: one upload and one download actually issued, not three.
    assert_eq!(stats.h2d, 2);
    assert_eq!(stats.d2h, 2);
    assert!(dev.profiler.notes().any(|n| n.contains("fell back")), "fallback must be noted");

    // The issued count matches the profiler's own call count.
    let h2d_calls: u64 =
        dev.profiler.records().filter(|r| r.name.starts_with("memcpyHtoD")).map(|r| r.calls).sum();
    assert_eq!(stats.h2d as u64, h2d_calls);
}

/// Array length used by the random-plan property; divisible by every chunk
/// count the generator requests, so no fallback noise in the comparison.
const PROP_N: usize = 12;

/// One chain-link kernel for the random-plan property: `y = 2*x + add`,
/// with a distinct `add` per link so a misrouted transfer changes outputs.
fn prop_kernel(name: String, add: i64) -> simgpu::kir::Kernel {
    use simgpu::kir::{BinOp, KernelBuilder, KernelFlavor, Special};
    let mut b = KernelBuilder::new(name, KernelFlavor::Cuda);
    let x = b.buffer_param("x", false);
    let y = b.buffer_param("y", true);
    let gid = b.special(Special::GlobalIdX);
    let v = b.load(x, gid);
    let two = b.constant(2);
    let w = b.bin(BinOp::Mul, v, two);
    let w = b.bin_imm(BinOp::Add, w, add);
    b.store(y, gid, w);
    b.finish()
}

/// Build a valid naive-placement plan from the property's parameters:
/// independent kernel chains, per-kernel host round trips, chains
/// interleaved by a seeded shuffle. Deterministic in its arguments, so the
/// baseline and each optimized run rebuild the identical plan (LaunchPlan
/// is not Clone).
fn prop_plan<'a>(
    kernels: &'a [simgpu::kir::Kernel],
    chains: &[usize],
    chunks: usize,
    order_seed: u64,
) -> simgpu::schedule::LaunchPlan<'a> {
    use simgpu::schedule::{ArrayDecl, LaunchPlan, PlanKernel, PlanStep};
    use simgpu::LaunchConfig;
    let mut arrays = Vec::new();
    let mut inputs = Vec::new();
    let mut outputs = Vec::new();
    let mut plan_kernels = Vec::new();
    let mut queues: Vec<std::collections::VecDeque<PlanStep>> = Vec::new();
    let mut kid = 0;
    for (c, &len) in chains.iter().enumerate() {
        let base = arrays.len();
        for i in 0..=len {
            arrays.push(ArrayDecl { name: format!("a{c}_{i}"), shape: vec![PROP_N] });
        }
        inputs.push(base);
        outputs.push(base + len);
        let mut steps = std::collections::VecDeque::new();
        steps.push_back(PlanStep::Upload { array: base, chunks });
        for i in 0..len {
            let k = plan_kernels.len();
            plan_kernels.push(PlanKernel::new(
                &kernels[kid],
                LaunchConfig::cover_1d(PROP_N, PROP_N as u32),
                vec![base + i, base + i + 1],
            ));
            kid += 1;
            steps.push_back(PlanStep::Alloc { array: base + i + 1 });
            steps.push_back(PlanStep::Launch { kernel: k });
            steps.push_back(PlanStep::Download { array: base + i + 1, chunks });
            if i + 1 < len {
                steps.push_back(PlanStep::Upload { array: base + i + 1, chunks });
            }
        }
        queues.push(steps);
    }
    // Interleave the chains with a seeded LCG; intra-chain order is kept, so
    // the merge preserves validity.
    let mut steps = Vec::new();
    let mut state = order_seed | 1;
    while queues.iter().any(|q| !q.is_empty()) {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let live: Vec<usize> = (0..queues.len()).filter(|&i| !queues[i].is_empty()).collect();
        let pick = live[(state >> 33) as usize % live.len()];
        steps.push(queues[pick].pop_front().unwrap());
    }
    LaunchPlan {
        arrays,
        inputs,
        outputs,
        kernels: plan_kernels,
        host_ops: Vec::new(),
        steps,
        prologue: Vec::new(),
        invariant: Vec::new(),
        batches: Vec::new(),
        carries: Vec::new(),
        lane_label: "stream lanes",
    }
}

proptest! {
    /// Every planopt pass subset, applied to a random valid naive-placement
    /// plan, preserves frame outputs bit-identically against the
    /// unoptimized plan — under 1 and 2 queues, on a capacity-constrained
    /// device with the degradation ladder enabled.
    #[test]
    fn planopt_passes_preserve_outputs_on_random_plans(
        chains in proptest::collection::vec(1usize..=3, 1..=3),
        chunks in 1usize..=4,
        order_seed in any::<u64>(),
    ) {
        let kernels: Vec<_> = chains
            .iter()
            .enumerate()
            .flat_map(|(c, &len)| {
                (0..len).map(move |i| prop_kernel(format!("k{c}_{i}"), (c * 7 + i + 1) as i64))
            })
            .collect();
        let frames: Vec<Vec<mdarray::NdArray<i64>>> = (0..3)
            .map(|f| {
                (0..chains.len())
                    .map(|c| {
                        mdarray::NdArray::from_fn([PROP_N], |ix| {
                            (f * 31 + c * 13 + ix[0]) as i64
                        })
                    })
                    .collect()
            })
            .collect();

        let plan = prop_plan(&kernels, &chains, chunks, order_seed);
        plan.validate().expect("generated plan must be valid");
        let mut base_dev = Device::gtx480();
        let (base_outs, _) = BatchScheduler::new(&plan)
            .run(&mut base_dev, &frames, &ExecOptions::default())
            .unwrap();
        let capacity = base_dev.peak_allocated_bytes() * 2;

        for mask in 1u32..16 {
            let level = simgpu::PlanOptLevel {
                residency: mask & 1 != 0,
                dead_transfers: mask & 2 != 0,
                reorder: mask & 4 != 0,
                coalesce: mask & 8 != 0,
                ..simgpu::PlanOptLevel::OFF
            };
            for streams in [1usize, 2] {
                let mut plan = prop_plan(&kernels, &chains, chunks, order_seed);
                simgpu::optimize(&mut plan, level).unwrap();
                let opts = ExecOptions { streams, degrade_on_oom: true, ..Default::default() };
                let mut dev = Device::new(DeviceConfig::toy(capacity), Calibration::gtx480());
                let (outs, _) = BatchScheduler::new(&plan).run(&mut dev, &frames, &opts).unwrap();
                prop_assert_eq!(
                    &outs, &base_outs,
                    "outputs diverged under mask {:#06b}, {} queue(s)", mask, streams
                );
            }
        }
    }
}

/// Baselines for the degradation property, computed once: the routes, the
/// frame batch, the unconstrained 1-lane outputs, and the peak footprint
/// that sizes the constrained device.
struct DegradationFixture {
    s: Scenario,
    sac: downscaler::pipelines::SacRoute,
    gasp: downscaler::pipelines::GaspardRoute,
    sac_frames: Vec<Vec<mdarray::NdArray<i64>>>,
    gasp_frames: Vec<Vec<mdarray::NdArray<i64>>>,
    sac_base: Vec<mdarray::NdArray<i64>>,
    gasp_base: Vec<Vec<mdarray::NdArray<i64>>>,
    sac_capacity: usize,
    gasp_capacity: usize,
}

fn degradation_fixture() -> &'static DegradationFixture {
    static FIXTURE: std::sync::OnceLock<DegradationFixture> = std::sync::OnceLock::new();
    FIXTURE.get_or_init(|| {
        let mut s = Scenario::tiny();
        s.frames = 4;
        let sac = build_sac(&s, Variant::NonGeneric, Part::Full, &Default::default()).unwrap();
        let gasp = build_gaspard(&s).unwrap();
        let gen = FrameGenerator::new(s.channels, s.rows, s.cols, 0xACED);
        let sac_frames: Vec<_> = (0..s.frames).map(|f| vec![gen.frame_rank3(f)]).collect();
        let gasp_frames: Vec<_> = (0..s.frames).map(|f| gen.frame_channels(f)).collect();

        // Unconstrained 1-lane baseline; its peak sizes the constrained device.
        let base_opts = ExecOptions { channel_chunks: s.channels, ..Default::default() };
        let mut base_dev = Device::gtx480();
        let (sac_base, _) =
            common::run_sac(&sac.cuda, &mut base_dev, &sac_frames, base_opts).unwrap();
        let sac_capacity = base_dev.peak_allocated_bytes() * 2;
        let mut base_dev = Device::gtx480();
        let gasp_base =
            common::run_gaspard(&gasp.opencl, &mut base_dev, &gasp_frames, ExecOptions::default())
                .unwrap();
        let gasp_capacity = base_dev.peak_allocated_bytes() * 2;
        DegradationFixture {
            s,
            sac,
            gasp,
            sac_frames,
            gasp_frames,
            sac_base,
            gasp_base,
            sac_capacity,
            gasp_capacity,
        }
    })
}

proptest! {
    /// On a device sized for about two lanes, any requested lane count in
    /// 1..=8 with the degradation ladder enabled converges to a completed
    /// run whose outputs are bit-identical to the unconstrained 1-lane
    /// baseline — on both routes.
    #[test]
    fn degradation_converges_to_bit_identical_outputs(lanes in 1usize..9) {
        let fx = degradation_fixture();
        let opts = ExecOptions {
            streams: lanes,
            degrade_on_oom: true,
            channel_chunks: fx.s.channels,
            ..Default::default()
        };
        let mut dev = Device::new(DeviceConfig::toy(fx.sac_capacity), Calibration::gtx480());
        let (sac_outs, _) =
            common::run_sac(&fx.sac.cuda, &mut dev, &fx.sac_frames, opts)
                .unwrap();
        prop_assert_eq!(&sac_outs, &fx.sac_base, "SaC outputs diverged at {} lanes", lanes);

        let mut dev = Device::new(DeviceConfig::toy(fx.gasp_capacity), Calibration::gtx480());
        let gasp_outs = common::run_gaspard(
            &fx.gasp.opencl, &mut dev, &fx.gasp_frames,
            ExecOptions { channel_chunks: 0, ..opts },
        ).unwrap();
        prop_assert_eq!(&gasp_outs, &fx.gasp_base, "Gaspard outputs diverged at {} lanes", lanes);
    }
}
