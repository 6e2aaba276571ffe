//! Properties of the simulated async-stream timeline and the pipelined
//! frame executors.
//!
//! The invariants under test:
//! * an overlapped schedule's makespan is bounded below by the busiest
//!   engine and above by the fully serialized sum,
//! * one stream *is* the synchronous API — same results, same simulated
//!   clock, same profile, bit for bit,
//! * double buffering strictly beats the serialized baseline on both
//!   compilation routes while leaving outputs bit-identical to the golden
//!   CPU reference.

mod common;

use gpu_abstractions::{downscaler, simgpu};

use downscaler::frames::FrameGenerator;
use downscaler::pipelines::{
    build_gaspard, build_sac, reference_downscale, run_gaspard_batch, run_sac_batch,
};
use downscaler::sac_src::{Part, Variant};
use downscaler::Scenario;
use proptest::prelude::*;
use simgpu::device::Device;
use simgpu::profiler::{OpClass, Profiler};
use simgpu::schedule::{RunStats, ScheduleWitness};
use simgpu::ExecOptions;

const CLASSES: [OpClass; 4] = [OpClass::H2D, OpClass::Kernel, OpClass::D2H, OpClass::Host];

/// Schedule a random op sequence over `stream_count` streams by building a
/// schedule witness from it and replaying that on a fresh device; return
/// the device for inspection.
fn schedule_random(ops: &[(u8, u8, u16)], stream_count: usize) -> Device {
    let mut recorded = Profiler::new();
    for (i, &(stream, class, dur)) in ops.iter().enumerate() {
        let class = CLASSES[class as usize % CLASSES.len()];
        let us = f64::from(dur) + 1.0;
        recorded.record_span(&format!("op{i}"), class, stream as usize % stream_count, 0.0, us);
    }
    let witness = ScheduleWitness::capture(&recorded, 0, RunStats::default());
    let mut device = Device::gtx480();
    let streams = device.lane_streams(stream_count);
    witness.replay(&mut device, &streams).unwrap();
    device.synchronize();
    device
}

proptest! {
    #[test]
    fn makespan_bounded_by_serial_sum_and_busiest_engine(
        ops in proptest::collection::vec((0u8..4, 0u8..4, 0u16..2000), 1..40),
        stream_count in 1usize..5,
    ) {
        let device = schedule_random(&ops, stream_count);
        let makespan = device.now_us();
        let serial_sum: f64 = ops.iter().map(|&(_, _, d)| f64::from(d) + 1.0).sum();
        let busiest = CLASSES
            .iter()
            .map(|&c| device.profiler.engine_busy_us(c))
            .fold(0.0f64, f64::max);
        prop_assert!(makespan <= serial_sum + 1e-6, "{makespan} > {serial_sum}");
        prop_assert!(makespan >= busiest - 1e-6, "{makespan} < {busiest}");
        prop_assert!((device.profiler.makespan_us() - makespan).abs() < 1e-9);
    }

    #[test]
    fn one_stream_schedule_is_the_serial_sum(
        ops in proptest::collection::vec((0u8..4, 0u8..4, 0u16..2000), 1..40),
    ) {
        let device = schedule_random(&ops, 1);
        let serial_sum: f64 = ops.iter().map(|&(_, _, d)| f64::from(d) + 1.0).sum();
        prop_assert!((device.now_us() - serial_sum).abs() < 1e-6);
        prop_assert_eq!(device.profiler.overlap_percent(), 0.0);
    }
}

#[test]
fn one_stream_batches_reproduce_serialized_profiles_exactly() {
    let s = Scenario::tiny();
    let seed = 0xD05C;
    let sac = build_sac(&s, Variant::NonGeneric, Part::Full, &Default::default()).unwrap();
    let gasp = build_gaspard(&s).unwrap();
    let gen = FrameGenerator::new(s.channels, s.rows, s.cols, seed);

    // The pre-stream serialized executors, one frame at a time.
    let mut sac_serial = Device::gtx480();
    for f in 0..s.frames {
        common::run_sac_once(
            &sac.cuda,
            &mut sac_serial,
            &[gen.frame_rank3(f)],
            simgpu::ExecOptions { channel_chunks: s.channels, ..Default::default() },
        )
        .unwrap();
    }
    let mut gasp_serial = Device::gtx480();
    for f in 0..s.frames {
        common::run_gaspard_once(&gasp.opencl, &mut gasp_serial, &gen.frame_channels(f)).unwrap();
    }

    // The batch executors in 1-stream mode.
    let mut sac_batch = Device::gtx480();
    run_sac_batch(&s, &sac, &mut sac_batch, seed, ExecOptions::default()).unwrap();
    let mut gasp_batch = Device::gtx480();
    run_gaspard_batch(&s, &gasp, &mut gasp_batch, seed, ExecOptions::default()).unwrap();

    assert_eq!(sac_batch.now_us(), sac_serial.now_us());
    assert_eq!(gasp_batch.now_us(), gasp_serial.now_us());
    let serial: Vec<_> = sac_serial.profiler.records().collect();
    let batch: Vec<_> = sac_batch.profiler.records().collect();
    assert_eq!(serial, batch);
    let serial: Vec<_> = gasp_serial.profiler.records().collect();
    let batch: Vec<_> = gasp_batch.profiler.records().collect();
    assert_eq!(serial, batch);
}

#[test]
fn double_buffering_beats_sync_with_bit_identical_outputs() {
    let mut s = Scenario::tiny();
    s.frames = 8;
    let seed = 0xBEEF;
    let sac = build_sac(&s, Variant::NonGeneric, Part::Full, &Default::default()).unwrap();
    let gasp = build_gaspard(&s).unwrap();
    let gen = FrameGenerator::new(s.channels, s.rows, s.cols, seed);

    let mut makespans = Vec::new();
    for streams in [1usize, 2] {
        let opts = ExecOptions { streams, ..Default::default() };
        let mut sac_dev = Device::gtx480();
        let sac_outs = run_sac_batch(&s, &sac, &mut sac_dev, seed, opts).unwrap();
        let mut gasp_dev = Device::gtx480();
        let gasp_outs = run_gaspard_batch(&s, &gasp, &mut gasp_dev, seed, opts).unwrap();

        // Outputs stay bit-identical to the golden CPU reference at every
        // stream count.
        for f in 0..s.frames {
            let expect = reference_downscale(&s, &gen.frame_rank3(f));
            assert_eq!(sac_outs[f], expect, "SaC frame {f} at {streams} streams");
            assert_eq!(
                FrameGenerator::stack(&gasp_outs[f]),
                expect,
                "Gaspard frame {f} at {streams} streams"
            );
        }
        makespans.push((sac_dev.now_us(), gasp_dev.now_us()));
    }
    let (sync, db) = (makespans[0], makespans[1]);
    assert!(db.0 < sync.0, "SaC: {} !< {}", db.0, sync.0);
    assert!(db.1 < sync.1, "Gaspard: {} !< {}", db.1, sync.1);
}
