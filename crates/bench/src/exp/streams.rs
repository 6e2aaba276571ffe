//! Stream-count ablation: async streams and double-buffered frame
//! pipelining.

use super::{Experiment, FRAME_SEED};
use crate::record;
use crate::record::Record;
use downscaler::pipelines::{
    build_gaspard, build_sac, run_gaspard_batch, run_sac_batch, PipelineError,
};
use downscaler::sac_src::{Part, Variant};
use downscaler::Scenario;
use simgpu::ExecOptions;

/// The `streams` command.
pub const EXPERIMENT: Experiment = Experiment {
    name: "streams",
    title: "Ablation: async streams / double-buffered frame pipelining (streams=1 is the paper's serialized runtime)",
    run: |s| {
        let rows = streams_ablation(s, &[1, 2, 4])?;
        Ok(record! { "rows": rows.iter().map(StreamsRow::record).collect::<Record>() })
    },
};

/// One row of the stream-count ablation.
#[derive(Debug, Clone)]
pub struct StreamsRow {
    /// Streams (SaC) / command queues (GASPARD2) used.
    pub streams: usize,
    /// SaC route makespan for the whole run, seconds.
    pub sac_s: f64,
    /// GASPARD2 route makespan for the whole run, seconds.
    pub gaspard_s: f64,
    /// Engine busy time hidden by overlap, percent (SaC route).
    pub sac_overlap_pct: f64,
    /// Engine busy time hidden by overlap, percent (GASPARD2 route).
    pub gaspard_overlap_pct: f64,
}

impl StreamsRow {
    fn record(&self) -> Record {
        record! {
            "streams": self.streams,
            "sac_s": self.sac_s,
            "gaspard_s": self.gaspard_s,
            "sac_overlap_pct": self.sac_overlap_pct,
            "gaspard_overlap_pct": self.gaspard_overlap_pct,
        }
    }
}

/// Stream-count ablation: the whole scenario driven through both routes'
/// frame pipelines at each stream count.
///
/// One frame per configuration is executed functionally (results stay
/// bit-exact by construction — the executors are exercised against golden
/// references in their own tests); the remaining `s.frames − 1` frames are
/// timing-replayed, which is exact because per-frame cost is
/// content-independent under the cost model. `streams = 1` is the serialized
/// baseline: it reproduces the one-frame-at-a-time executors' simulated time
/// bit-for-bit.
pub fn streams_ablation(
    s: &Scenario,
    stream_counts: &[usize],
) -> Result<Vec<StreamsRow>, PipelineError> {
    let sac = build_sac(s, Variant::NonGeneric, Part::Full, &Default::default())?;
    let gasp = build_gaspard(s)?;
    let mut rows = Vec::new();
    for &streams in stream_counts {
        let opts = ExecOptions { streams, executed: 1, ..Default::default() };
        let mut sac_dev = super::gtx480();
        run_sac_batch(s, &sac, &mut sac_dev, FRAME_SEED, opts)?;
        let mut gasp_dev = super::gtx480();
        run_gaspard_batch(s, &gasp, &mut gasp_dev, FRAME_SEED, opts)?;
        rows.push(StreamsRow {
            streams,
            sac_s: sac_dev.now_us() / 1e6,
            gaspard_s: gasp_dev.now_us() / 1e6,
            sac_overlap_pct: sac_dev.profiler.overlap_percent(),
            gaspard_overlap_pct: gasp_dev.profiler.overlap_percent(),
        });
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use downscaler::frames::FrameGenerator;
    use simgpu::{run_plan, Device};

    #[test]
    fn streams_ablation_overlap_strictly_beats_sync() {
        // The acceptance shape of the HD run at test-friendly scale: same
        // frame count (300), smaller frames.
        let s = Scenario::new("hd-ish", 3, 90, 160, 300).unwrap();
        let rows = streams_ablation(&s, &[1, 2, 4]).unwrap();
        assert_eq!(rows.len(), 3);
        let (sync, two, four) = (&rows[0], &rows[1], &rows[2]);
        // Double buffering strictly beats the serialized baseline on both
        // routes, and going wider never hurts.
        assert!(two.sac_s < sync.sac_s, "{} !< {}", two.sac_s, sync.sac_s);
        assert!(two.gaspard_s < sync.gaspard_s);
        assert!(four.sac_s <= two.sac_s + 1e-12);
        assert!(four.gaspard_s <= two.gaspard_s + 1e-12);
        // Sync has nothing to hide; the pipelined runs do.
        assert_eq!(sync.sac_overlap_pct, 0.0);
        assert!(two.sac_overlap_pct > 0.0 && two.gaspard_overlap_pct > 0.0);
        // The makespan can never beat the serial sum's busiest engine: with
        // overlap% < 100·(1 − 1/engines) as a loose sanity bound.
        assert!(two.sac_overlap_pct < 100.0);
    }

    #[test]
    fn one_stream_ablation_matches_serial_total() {
        // streams=1 with replay must reproduce the serial executor's
        // simulated time for the full run bit-for-bit.
        let s = Scenario::tiny();
        let rows = streams_ablation(&s, &[1]).unwrap();

        let route = build_sac(&s, Variant::NonGeneric, Part::Full, &Default::default()).unwrap();
        let mut device = Device::gtx480();
        let gen = FrameGenerator::new(s.channels, s.rows, s.cols, FRAME_SEED);
        for f in 0..s.frames {
            let plan = sac_cuda::lower_plan(&route.cuda, s.channels).unwrap();
            run_plan(plan, &mut device, &[vec![gen.frame_rank3(f)]], &ExecOptions::default())
                .unwrap();
        }
        assert_eq!(rows[0].sac_s, device.now_us() / 1e6);
    }
}
