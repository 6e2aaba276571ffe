//! The paper's published observations, asserted as executable checks
//! (scaled-down scenario; the HD numbers are in EXPERIMENTS.md).

mod common;

use downscaler::pipelines::{build_gaspard, build_sac};
use downscaler::sac_src::{Part, Variant};
use downscaler::Scenario;
use sac_lang::opt::OptConfig;

fn scenario() -> Scenario {
    // Large enough that launch overhead does not dominate the simulated GPU.
    Scenario::new("claims", 3, 270, 480, 10).unwrap()
}

/// §VIII.C: "the final fused WITH-loop for horizontal filter after applying
/// WLF has 5 generators (the vertical filter has 7 generators). Since the
/// CUDA backend creates one kernel for each generator, this means 5 kernels
/// need to be launched."
#[test]
fn wlf_generator_counts() {
    let s = scenario();
    let h = build_sac(&s, Variant::NonGeneric, Part::Horizontal, &OptConfig::default()).unwrap();
    let v = build_sac(&s, Variant::NonGeneric, Part::Vertical, &OptConfig::default()).unwrap();
    assert_eq!(h.cuda.launches_per_run(), 5);
    assert_eq!(v.cuda.launches_per_run(), 7);
}

/// §VIII.B: "We have three kernels to do the horizontal filter and three to
/// do the vertical filter as well."
#[test]
fn gaspard_kernel_counts() {
    let g = build_gaspard(&scenario()).unwrap();
    let h = g.opencl.kernels.iter().filter(|k| k.kernel.name.starts_with("hf_")).count();
    let v = g.opencl.kernels.iter().filter(|k| k.kernel.name.starts_with("vf_")).count();
    assert_eq!((h, v), (3, 3));
}

/// §VII: "the SAC compiler does not attempt to parallelise loops apart from
/// WITH-loops, [so] the for-loop nest is executed on the host" and "the
/// intermediate result has to be transferred back to the host memory before
/// the output tiler can access it."
#[test]
fn generic_output_tiler_stays_on_host_and_forces_transfer() {
    let s = scenario();
    let g = build_sac(&s, Variant::Generic, Part::Horizontal, &OptConfig::default()).unwrap();
    assert_eq!(g.cuda.host_steps_per_run(), 1);
    // A device-to-host transfer precedes the host step in the plan.
    let plan = &g.cuda.plan;
    let host_at = plan
        .iter()
        .position(|op| matches!(op, simgpu::PlanStep::Host { .. }))
        .expect("host step present");
    assert!(
        plan[..host_at].iter().any(|op| matches!(op, simgpu::PlanStep::Download { .. })),
        "{plan:?}"
    );
}

/// §VIII.A (Figure 9 shapes): CUDA ≫ sequential; non-generic ≫ generic on
/// the GPU; generic ≈ non-generic sequentially.
#[test]
fn figure9_orderings() {
    let s = scenario();
    let rows = bench::figure9(&s).unwrap();
    let by = |label: &str| rows.iter().find(|r| r.config == label).unwrap();
    let sg = by("SAC-Seq Generic");
    let sn = by("SAC-Seq Non-Generic");
    let cg = by("SAC-CUDA Generic");
    let cn = by("SAC-CUDA Non-Generic");
    for dim in [|r: &bench::Fig9Row| r.horizontal_s, |r: &bench::Fig9Row| r.vertical_s] {
        assert!(dim(cn) < dim(sn), "GPU beats sequential");
        assert!(dim(cg) > 2.0 * dim(cn), "generic pays for the host round-trip");
        let seq_ratio = dim(sg) / dim(sn);
        assert!((0.8..1.6).contains(&seq_ratio), "sequential variants comparable, got {seq_ratio}");
    }
}

/// Tables I/II shapes: transfers are roughly half of the total for both
/// routes; SaC's kernel time exceeds Gaspard2's (more kernels, no
/// cross-kernel reuse); totals stay within the same ballpark ("performance
/// benefits of both approaches are comparable").
#[test]
fn table_shapes() {
    let s = scenario();
    let t1 = bench::table1(&s).unwrap(); // Gaspard2
    let t2 = bench::table2(&s).unwrap(); // SaC
    let transfers = |t: &bench::ProfileTable| t.rows[2].percent + t.rows[3].percent;
    assert!((30.0..70.0).contains(&transfers(&t1)), "{:?}", t1.rows);
    assert!((30.0..70.0).contains(&transfers(&t2)), "{:?}", t2.rows);
    // Kernel groups: SaC > Gaspard per filter.
    assert!(t2.rows[0].time_us > t1.rows[0].time_us);
    assert!(t2.rows[1].time_us > t1.rows[1].time_us);
    // Comparable totals (Gaspard ahead, within a factor ~1.5).
    assert!(t1.total_s < t2.total_s);
    assert!(t2.total_s / t1.total_s < 1.5, "{} vs {}", t2.total_s, t1.total_s);
}

/// §VIII.C's causal claim, as an ablation: with kernel-launch overhead and
/// the L1 advantage removed from the cost model, the gap between the routes
/// narrows.
#[test]
fn gap_tracks_launch_overhead_and_reuse() {
    let s = scenario();
    let base = simgpu::Calibration::gtx480();
    let (sac0, gas0) = bench::totals_with_calibration(&s, base.clone()).unwrap();
    let gap0 = sac0 - gas0;
    let kinder = simgpu::Calibration {
        kernel_launch_us: 0.0,
        l1_access_ns: base.dram_access_ns, // no reuse benefit for anyone
        ..base
    };
    let (sac1, gas1) = bench::totals_with_calibration(&s, kinder).unwrap();
    // Removing the two effects the paper blames must shrink SaC's deficit
    // relative to Gaspard2 (which loses its reuse advantage).
    let gap1 = sac1 - gas1;
    assert!(gap0 > 0.0);
    assert!(gap1 < gap0, "gap {gap0} -> {gap1}");
}

/// §VII: WLF "renders allocation of intermediate arrays in memory
/// unnecessary" — measured as the simulated device's memory high-water mark.
#[test]
fn wlf_shrinks_device_footprint() {
    let s = scenario();
    let frame = downscaler::FrameGenerator::new(s.channels, s.rows, s.cols, 1).frame_rank3(0);
    let mut peaks = Vec::new();
    for cfg in [OptConfig::default(), OptConfig { with_loop_folding: false, resolve_modulo: true }]
    {
        let route = build_sac(&s, Variant::NonGeneric, Part::Full, &cfg).unwrap();
        let mut device = simgpu::device::Device::gtx480();
        common::run_sac_once(
            &route.cuda,
            &mut device,
            std::slice::from_ref(&frame),
            simgpu::ExecOptions::default(),
        )
        .unwrap();
        peaks.push(device.peak_allocated_bytes());
    }
    let (folded, unfolded) = (peaks[0], peaks[1]);
    assert!(
        folded * 2 < unfolded,
        "folded peak {folded} should be well under unfolded peak {unfolded}"
    );
}

/// The structural counts hold at the paper's exact HD scale too (compile
/// only — execution at HD is exercised by the `reproduce` binary).
#[test]
fn hd_scale_structure() {
    let s = Scenario::hd1080();
    let full = build_sac(&s, Variant::NonGeneric, Part::Full, &OptConfig::default()).unwrap();
    assert_eq!(full.cuda.launches_per_run(), 12);
    assert_eq!(full.report.host_steps, 0);
    // Folded result shapes: hf [3,1080,720], vf (result) [3,480,720].
    let result = &full.flat.arrays[full.flat.result];
    assert_eq!(result.shape, vec![3, 480, 720]);

    let g = build_gaspard(&s).unwrap();
    assert_eq!(g.opencl.kernels.len(), 6);
    // Figure 10's repetition space for the horizontal channel kernels.
    let hf = g.scheduled.kernels.iter().find(|k| k.name == "hf_bhf").unwrap();
    assert_eq!(hf.repetition, vec![1080, 240]);
}
