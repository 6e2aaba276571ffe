//! Property-based tests over the core invariants.

mod common;

use arrayol::{IMat, Tiler};
use gaspard::{
    deploy, generate_opencl, schedule, to_arrayol, Allocation, Component, ComponentKind,
    Connection, Model, PartRef, Platform, Port, PortDir, Stereotype, TilerSpec, WindowSpec,
};
use mdarray::{NdArray, Shape};
use proptest::prelude::*;
use sac_lang::opt::{optimize, ArgDesc, OptConfig};
use sac_lang::value::Value;
use sac_lang::Interp;
use simgpu::device::Device;
use simgpu::ExecOptions;

/// Column-axis parameters of one repetitive filter stage (the row axis is
/// always an untiled pass-through, like the downscaler's).
struct StageParams {
    /// Paving step along the input's column axis.
    step: usize,
    /// Gathered pattern width.
    pattern: usize,
    /// Interpolation windows `(offset, len)` with `offset + len <= pattern`;
    /// one output element per window.
    windows: Vec<(usize, usize)>,
    /// Interpolation divisor.
    divisor: i64,
    /// Repetitions along the column axis.
    tiles: usize,
}

impl StageParams {
    fn out_per_tile(&self) -> usize {
        self.windows.len()
    }
}

/// A parametric version of `gaspard::fixtures::mini_two_stage_model`:
/// source → f1 → f2 → sink, with each stage's tiling drawn from `StageParams`.
fn two_stage_model(rows: usize, in_cols: usize, p1: &StageParams, p2: &StageParams) -> Model {
    let task = |name: &str, p: &StageParams| Component {
        name: name.into(),
        stereotype: Stereotype::SwResource,
        ports: vec![
            Port { name: "pin".into(), dir: PortDir::In, shape: vec![p.pattern] },
            Port { name: "pout".into(), dir: PortDir::Out, shape: vec![p.out_per_tile()] },
        ],
        kind: ComponentKind::Elementary {
            op: gaspard::ElementaryOp::InterpolateWindows {
                windows: p
                    .windows
                    .iter()
                    .map(|&(offset, len)| WindowSpec { offset, len })
                    .collect(),
                divisor: p.divisor,
            },
        },
    };
    let stage = |name: &str, in_cols: usize, p: &StageParams, task: &str| Component {
        name: name.into(),
        stereotype: Stereotype::SwResource,
        ports: vec![
            Port { name: "fin".into(), dir: PortDir::In, shape: vec![rows, in_cols] },
            Port {
                name: "fout".into(),
                dir: PortDir::Out,
                shape: vec![rows, p.tiles * p.out_per_tile()],
            },
        ],
        kind: ComponentKind::Repetitive {
            repetition: vec![rows, p.tiles],
            inner: task.into(),
            input_tilers: vec![(
                vec![p.pattern],
                TilerSpec {
                    origin: vec![0, 0],
                    fitting: vec![vec![0], vec![1]],
                    paving: vec![vec![1, 0], vec![0, p.step as i64]],
                },
            )],
            output_tilers: vec![(
                vec![p.out_per_tile()],
                TilerSpec {
                    origin: vec![0, 0],
                    fitting: vec![vec![0], vec![1]],
                    paving: vec![vec![1, 0], vec![0, p.out_per_tile() as i64]],
                },
            )],
        },
    };
    let mid_cols = p1.tiles * p1.out_per_tile();
    let out_cols = p2.tiles * p2.out_per_tile();
    Model {
        name: "prop".into(),
        components: vec![
            task("t1", p1),
            task("t2", p2),
            stage("filter1", in_cols, p1, "t1"),
            stage("filter2", mid_cols, p2, "t2"),
            Component {
                name: "source".into(),
                stereotype: Stereotype::SwResource,
                ports: vec![Port {
                    name: "frame".into(),
                    dir: PortDir::Out,
                    shape: vec![rows, in_cols],
                }],
                kind: ComponentKind::FrameSource,
            },
            Component {
                name: "sink".into(),
                stereotype: Stereotype::SwResource,
                ports: vec![Port {
                    name: "frame".into(),
                    dir: PortDir::In,
                    shape: vec![rows, out_cols],
                }],
                kind: ComponentKind::FrameSink,
            },
            Component {
                name: "app".into(),
                stereotype: Stereotype::SwResource,
                ports: vec![],
                kind: ComponentKind::Composite {
                    parts: vec![
                        ("src".into(), "source".into()),
                        ("f1".into(), "filter1".into()),
                        ("f2".into(), "filter2".into()),
                        ("snk".into(), "sink".into()),
                    ],
                    connections: vec![
                        Connection {
                            from: PartRef::Part { part: "src".into(), port: "frame".into() },
                            to: PartRef::Part { part: "f1".into(), port: "fin".into() },
                        },
                        Connection {
                            from: PartRef::Part { part: "f1".into(), port: "fout".into() },
                            to: PartRef::Part { part: "f2".into(), port: "fin".into() },
                        },
                        Connection {
                            from: PartRef::Part { part: "f2".into(), port: "fout".into() },
                            to: PartRef::Part { part: "snk".into(), port: "frame".into() },
                        },
                    ],
                },
            },
        ],
        root: "app".into(),
    }
}

fn random_windows(rng: &mut TestRng, pattern: usize, n: usize) -> Vec<(usize, usize)> {
    (0..n)
        .map(|_| {
            let offset = rng.below(pattern as u64) as usize;
            let len = 1 + rng.below((pattern - offset) as u64) as usize;
            (offset, len)
        })
        .collect()
}

proptest! {
    /// Euclidean modulo (the language's `%`) always lands in [0, n).
    #[test]
    fn euclid_mod_in_range(a in -10_000i64..10_000, n in 1i64..500) {
        let v = sac_lang::value::euclid_mod(a, n).unwrap();
        prop_assert!((0..n).contains(&v));
        // Compatible with the mathematical definition.
        prop_assert_eq!((a - v) % n, 0);
    }

    /// Non-overlapping block tilers: gather then scatter reproduces the
    /// original array for any block size / repetition count.
    #[test]
    fn tiler_gather_scatter_roundtrip(
        rows in 1usize..6,
        tiles in 1usize..6,
        block in 1usize..5,
        seed in any::<u32>(),
    ) {
        let cols = tiles * block;
        let tiler = Tiler::new(
            vec![0, 0],
            IMat::from_rows(&[&[0], &[1]]),
            IMat::from_rows(&[&[1, 0], &[0, block as i64]]),
        );
        let rep = Shape::new(vec![rows, tiles]);
        let pat = Shape::new(vec![block]);
        let arr = NdArray::from_fn([rows, cols], |ix| {
            ((ix[0] * 31 + ix[1] * 7 + seed as usize) % 251) as i64
        });
        tiler.check_exact_cover(arr.shape(), &rep, &pat).unwrap();
        let tiles_arr = tiler.gather(&arr, &rep, &pat).unwrap();
        let mut rebuilt = NdArray::filled([rows, cols], -1i64);
        tiler.scatter(&tiles_arr, &mut rebuilt, &rep, &pat).unwrap();
        prop_assert_eq!(rebuilt, arr);
    }

    /// Overlapping gathers read the elements the tiler formulae dictate,
    /// wrapping toroidally, for arbitrary origins and steps.
    #[test]
    fn tiler_gather_matches_formula(
        origin in -5i64..5,
        step in 1i64..5,
        pattern in 1usize..6,
        tiles in 1usize..5,
        cols in 6usize..20,
    ) {
        let tiler = Tiler::new(
            vec![0, origin],
            IMat::from_rows(&[&[0], &[1]]),
            IMat::from_rows(&[&[1, 0], &[0, step]]),
        );
        let rep = Shape::new(vec![2, tiles]);
        let pat = Shape::new(vec![pattern]);
        let arr = NdArray::from_fn([2usize, cols], |ix| (ix[0] * cols + ix[1]) as i64);
        let gathered = tiler.gather(&arr, &rep, &pat).unwrap();
        for i in 0..2usize {
            for t in 0..tiles {
                for p in 0..pattern {
                    let col = (origin + (t as i64) * step + p as i64)
                        .rem_euclid(cols as i64) as usize;
                    prop_assert_eq!(
                        *gathered.get(&[i, t, p]).unwrap(),
                        *arr.get(&[i, col]).unwrap()
                    );
                }
            }
        }
    }

    /// The optimiser (inline + constant fold + lower + WLF + splitting)
    /// preserves the interpreter's semantics on randomized two-stage
    /// stencil pipelines with wrap-around addressing.
    #[test]
    fn optimizer_preserves_semantics(
        n_tiles in 2usize..6,
        stepw in 2usize..5,
        off1 in 0usize..3,
        off2 in 0usize..3,
        mul in 1i64..5,
        seed in any::<u32>(),
    ) {
        let cols = n_tiles * stepw;
        let src = format!(
            r#"
int[*] stage1(int[2,{cols}] f)
{{
    out = with {{
        (. <= rep <= .) {{
            tile = with {{
                (. <= pat <= .) : f[[rep[0], (rep[1] * {stepw} + pat[0] + {off1}) % {cols}]];
            }} : genarray( [{stepw}], 0);
        }} : tile;
    }} : genarray( [2,{n_tiles}]);
    return( out);
}}
int[*] main(int[2,{cols}] f)
{{
    inter = stage1(f);
    out = with {{
        (. <= rep <= .) : inter[[rep[0], rep[1] % {n_tiles}, {off2}]] * {mul};
    }} : genarray( [2,{n_tiles}]);
    return( out);
}}
"#,
            off2 = off2.min(stepw - 1),
        );
        let prog = sac_lang::parse_program(&src).unwrap();
        let frame = NdArray::from_fn([2usize, cols], |ix| {
            ((ix[0] * 131 + ix[1] * 17 + seed as usize) % 97) as i64
        });

        let mut interp = Interp::new(&prog);
        let expect = interp.call("main", vec![Value::Arr(frame.clone())]).unwrap();

        let args = [ArgDesc::Array { name: "f".into(), shape: vec![2, cols] }];
        for cfg in [
            OptConfig::default(),
            OptConfig { with_loop_folding: false, resolve_modulo: false },
            OptConfig { with_loop_folding: true, resolve_modulo: false },
        ] {
            let (flat, _) = optimize(&prog, "main", &args, &cfg).unwrap();
            let got = flat.run(std::slice::from_ref(&frame), &mut 0).unwrap();
            prop_assert_eq!(Value::Arr(got), expect.clone(), "config {:?}", cfg);
        }
    }

    /// Kernel-IR compilation + simulated execution agree with the flat
    /// evaluator on randomized single-loop programs (stride + wrap).
    #[test]
    fn simulated_gpu_matches_flat_eval(
        rows in 1usize..5,
        cols in 2usize..16,
        stride in 1usize..4,
        shift in 0i64..8,
        bias in -50i64..50,
    ) {
        let src = format!(
            r#"
int[*] main(int[{rows},{cols}] a)
{{
    out = with {{
        ([0,0] <= iv < [{rows},{cols}] step [1,{stride}]) {{
            v = a[[iv[0], (iv[1] + {shift}) % {cols}]];
        }} : v + {bias};
    }} : genarray( [{rows},{cols}], 7);
    return( out);
}}
"#
        );
        let prog = sac_lang::parse_program(&src).unwrap();
        let args = [ArgDesc::Array { name: "a".into(), shape: vec![rows, cols] }];
        let (flat, _) = optimize(&prog, "main", &args, &OptConfig::default()).unwrap();
        let frame = NdArray::from_fn([rows, cols], |ix| (ix[0] * 100 + ix[1]) as i64);
        let expect = flat.run(std::slice::from_ref(&frame), &mut 0).unwrap();

        let cuda = sac_cuda::compile_flat_program(&flat).unwrap();
        let mut device = simgpu::device::Device::gtx480();
        let (got, _) = common::run_sac_once(
            &cuda,
            &mut device,
            &[frame],
            simgpu::ExecOptions::default(),
        )
        .unwrap();
        prop_assert_eq!(got, expect);
    }

    /// Tiler-composition fusion over random exact-cover two-stage chains is
    /// semantics-preserving: the fused program's outputs are bit-identical to
    /// the unfused program and to the ArrayOL CPU reference — serialized,
    /// double-buffered (`queues = 2`), and under OOM degradation back to one
    /// queue.
    #[test]
    fn fused_chain_matches_unfused_and_cpu_reference(
        rows in 1usize..4,
        ow1 in 1usize..4,
        grouping in any::<bool>(),
        m in 1usize..3,
        tiles_base in 1usize..4,
        st1 in 1usize..5,
        pw1_extra in 0usize..3,
        pw2_extra in 0usize..3,
        wseed in any::<u64>(),
        seed in any::<u32>(),
    ) {
        // Derive a legal chain: the producer's output tiler always paves its
        // array exactly (blocks of `ow1`); the consumer either steps in whole
        // blocks (aligned case, `st2 = m·ow1`) or groups several consumer
        // tiles inside one block (grouping case, `st2 | ow1`).
        let mut wr = TestRng::new(wseed);
        let (st2, pw2, tiles1, tiles2) = if grouping {
            let divisors: Vec<usize> = (1..=ow1).filter(|d| ow1 % d == 0).collect();
            let st2 = divisors[wr.below(divisors.len() as u64) as usize];
            let b = ow1 / st2;
            (st2, 1 + pw2_extra % st2.max(1), tiles_base, b * m)
        } else {
            (m * ow1, 1 + pw2_extra, tiles_base * m, tiles_base)
        };
        let pw1 = st1 + pw1_extra;
        let p1 = StageParams {
            step: st1,
            pattern: pw1,
            windows: random_windows(&mut wr, pw1, ow1),
            divisor: 1 + wr.below(3) as i64,
            tiles: tiles1,
        };
        let ow2 = 1 + wr.below(3) as usize;
        let p2 = StageParams {
            step: st2,
            pattern: pw2,
            windows: random_windows(&mut wr, pw2, ow2),
            divisor: 1 + wr.below(3) as i64,
            tiles: tiles2,
        };
        let in_cols = tiles1 * st1;
        let model = two_stage_model(rows, in_cols, &p1, &p2);
        let alloc = Allocation::default()
            .allocate("source", "i7_930")
            .allocate("sink", "i7_930")
            .allocate("filter1", "gtx480")
            .allocate("filter2", "gtx480");
        let sm = schedule(&deploy(model, Platform::cpu_gpu(), alloc).unwrap()).unwrap();

        let prog = generate_opencl(&sm).unwrap();
        // The plan-level pass must fuse the randomized two-stage chain
        // into a single launch.
        let mut fused_plan = gaspard::exec::lower_plan(&prog);
        let report =
            simgpu::planopt::optimize(&mut fused_plan, simgpu::PlanOptLevel::FUSION).unwrap();
        let fused_launches = fused_plan
            .steps
            .iter()
            .filter(|st| matches!(st, simgpu::schedule::PlanStep::Launch { .. }))
            .count();
        prop_assert_eq!(fused_launches, 1, "notes: {:?}", report.notes);

        let frames: Vec<Vec<NdArray<i64>>> = (0..2)
            .map(|f| {
                vec![NdArray::from_fn([rows, in_cols], |ix| {
                    ((ix[0] * 131 + ix[1] * 17 + f * 59 + seed as usize) % 97) as i64
                })]
            })
            .collect();

        // ArrayOL CPU reference from the unfused scheduled model.
        let g = to_arrayol(&sm).unwrap();
        let reference: Vec<Vec<NdArray<i64>>> = frames
            .iter()
            .map(|frame| {
                let mut inputs = std::collections::HashMap::new();
                inputs.insert(g.external_inputs[0], frame[0].clone());
                let env =
                    arrayol::exec::execute(&g, &inputs, &arrayol::exec::ExecOptions::sequential())
                        .unwrap();
                vec![env[&g.external_outputs[0]].clone()]
            })
            .collect();

        let run = |fuse: bool, queues, degrade, device: &mut Device| {
            let optimize =
                if fuse { simgpu::PlanOptLevel::FUSION } else { simgpu::PlanOptLevel::OFF };
            common::run_gaspard(
                &prog,
                device,
                &frames,
                ExecOptions {
                    streams: queues,
                    degrade_on_oom: degrade,
                    optimize,
                    ..Default::default()
                },
            )
            .unwrap()
        };
        let unfused = run(false, 1, false, &mut Device::gtx480());
        prop_assert_eq!(&unfused, &reference);

        let mut serial_dev = Device::gtx480();
        let fused_serial = run(true, 1, false, &mut serial_dev);
        prop_assert_eq!(&fused_serial, &reference);
        prop_assert_eq!(run(true, 2, false, &mut Device::gtx480()), reference.clone());

        // A device sized for one lane-set but not two: the 2-queue attempt
        // OOMs and the degradation ladder lands back on 1 queue with the
        // same bits.
        let peak = serial_dev.peak_allocated_bytes();
        let cfg = simgpu::DeviceConfig::toy(peak * 3 / 2);
        let mut constrained = Device::new(cfg, simgpu::Calibration::gtx480());
        prop_assert_eq!(run(true, 2, true, &mut constrained), reference);
        prop_assert!(
            constrained.profiler.notes().any(|n| n.contains("degraded")),
            "no degradation note"
        );
    }

    /// The frame generator stays within the 8-bit pixel range and is
    /// deterministic in (seed, frame, channel).
    #[test]
    fn frame_generator_contract(seed in any::<u64>(), frame in 0usize..50) {
        let g = downscaler::FrameGenerator::new(2, 18, 16, seed);
        let a = g.frame_channels(frame);
        let b = g.frame_channels(frame);
        prop_assert_eq!(&a, &b);
        for ch in &a {
            prop_assert!(ch.as_slice().iter().all(|&v| (0..=255).contains(&v)));
        }
    }

    /// The cost model a device is built with changes *only* the simulated
    /// clock. Outputs, launch counts, transfer counts and transfer byte
    /// totals are bit-identical across the paper model, the zero model, the
    /// alloc-charging model, the default warp/occupancy model and fully
    /// randomized calibration and warp models — at 1 and 2 streams on every
    /// small-registry workload, and through the OOM degradation ladder on a
    /// starved device. Each device names its model through `describe()`.
    #[test]
    fn cost_models_change_only_the_clock(
        entry_ix in 0usize..4,
        streams in 1usize..=2,
        launch_us in 0.0f64..200.0,
        lat_us in 0.0f64..100.0,
        h2d_bw in 1.0f64..20_000.0,
        d2h_bw in 1.0f64..20_000.0,
        instr_ns in 0.0f64..1.0,
        dram_ns in 0.0f64..1.0,
        l1_ns in 0.0f64..0.5,
        malloc_us in 0.0f64..200.0,
    ) {
        let w = scenarios::registry_small().swap_remove(entry_ix);
        let built = w.build().unwrap();
        let route = scenarios::Route::Gaspard;
        let executed = if w.temporal() { 3.min(w.frames) } else { 2 };
        let base = ExecOptions {
            streams,
            executed,
            host_ns_per_op: 40.0,
            ..Default::default()
        };
        let random_calib = simgpu::Calibration {
            kernel_launch_us: launch_us,
            h2d_latency_us: lat_us,
            h2d_bytes_per_us: h2d_bw,
            d2h_latency_us: lat_us / 2.0,
            d2h_bytes_per_us: d2h_bw,
            instr_ns,
            dram_access_ns: dram_ns,
            l1_access_ns: l1_ns,
            malloc_us,
            free_us: malloc_us / 4.0,
        };
        let random_warp = simgpu::WarpTileModel {
            kernel_launch_us: launch_us,
            transfer: random_calib,
            resident_warps_per_sm: 1 + launch_us as usize % 64,
            dram_access_ns: dram_ns,
            l1_access_ns: l1_ns,
            default_replay: 1.0 + 31.0 * instr_ns,
        };

        // Baseline: the paper-calibrated model the device boots with.
        let mut base_dev = Device::gtx480();
        let (base_outs, base_stats) = built.run(route, &mut base_dev, &base).unwrap();

        let check = |outs: &Vec<NdArray<i64>>, stats: &simgpu::RunStats, who: &str| {
            prop_assert_eq!(outs, &base_outs, "{} outputs diverged", who);
            prop_assert_eq!(stats.launches, base_stats.launches, "{} launches", who);
            prop_assert_eq!(stats.h2d, base_stats.h2d, "{} h2d count", who);
            prop_assert_eq!(stats.d2h, base_stats.d2h, "{} d2h count", who);
            prop_assert_eq!(stats.h2d_bytes, base_stats.h2d_bytes, "{} h2d bytes", who);
            prop_assert_eq!(stats.d2h_bytes, base_stats.d2h_bytes, "{} d2h bytes", who);
        };

        // Every model goes through the one construction path, and each is
        // identified by `describe()`, never by float equality.
        let models: [(simgpu::CostModel, &str); 5] = [
            (simgpu::Calibration::zero().into(), "zero"),
            (simgpu::Calibration::gtx480_alloc().into(), "paper-gtx480+alloc"),
            (simgpu::WarpTileModel::default().into(), "warp-tile"),
            (random_calib.into(), "calibration(custom)"),
            (random_warp.into(), "warp-tile(custom)"),
        ];
        for (model, name) in models {
            let mut dev = Device::new(simgpu::DeviceConfig::gtx480(), model);
            let (outs, stats) = built.run(route, &mut dev, &base).unwrap();
            check(&outs, &stats, name);
            prop_assert_eq!(dev.cost_model().describe(), name);
        }

        // OOM degradation: starve the device to one lane's worth so a
        // 2-stream batch must walk the degradation ladder; the invariance
        // holds through degradation under both the paper model and the
        // randomized one.
        if streams == 2 {
            let mut probe = Device::gtx480();
            built.run(route, &mut probe, &ExecOptions { streams: 1, ..base }).unwrap();
            let starved = || simgpu::DeviceConfig::toy(probe.peak_allocated_bytes());
            let degrade = ExecOptions { degrade_on_oom: true, ..base };

            let mut paper = Device::new(starved(), simgpu::Calibration::gtx480());
            let (outs, stats) = built.run(route, &mut paper, &degrade).unwrap();
            check(&outs, &stats, "degraded paper");

            let mut random = Device::new(starved(), random_calib);
            let (outs_r, stats_r) = built.run(route, &mut random, &degrade).unwrap();
            check(&outs_r, &stats_r, "degraded randomized");
            prop_assert_eq!(
                paper.profiler.notes().filter(|n| n.contains("degraded")).count(),
                random.profiler.notes().filter(|n| n.contains("degraded")).count(),
                "degradation ladders diverged across models"
            );
        }
    }
}
