//! Simulator-as-oracle autotuner over the workload registry.
//!
//! The ablation infrastructure measures hand-picked configurations; this
//! module turns it into an optimizer. For every registry entry the tuner
//! searches the scheduler/lowering configuration space —
//!
//! * compilation route (SaC → CUDA vs GASPARD2 → OpenCL),
//! * pipeline lanes (`streams` ∈ {1, 2, 4}),
//! * the size-class memory pool (on/off),
//! * the [`simgpu::PlanOptLevel`] pass subset (off / kernel fusion /
//!   transfer passes / both),
//! * transfer chunking on the SaC route (per-channel vs whole-buffer),
//! * intermediate placement on the Gaspard route (device-resident vs
//!   per-kernel round trip),
//!
//! — with the simulator itself as the oracle: each candidate runs one
//! functional frame (three for the temporal entry, so the carry chain is
//! real) under the device's calibrated cost model and is scored by the
//! simulated makespan of the full default batch. Small entries are searched
//! exhaustively; the large downscaler sizes use a deterministic
//! coordinate-descent beam (sweep one dimension at a time, keep strict
//! improvements, repeat to a fixed point). Ties keep the earlier candidate,
//! so the result is bit-stable run to run.
//!
//! The oracle pays only for what a candidate changes. Per (entry, route) it
//! lowers each (chunking, placement) pair once, runs planopt once per
//! preset, builds the functional frames once, and shares one
//! [`simgpu::LaunchMemo`] across the candidates' fresh devices, so a kernel
//! launch already run on the same loaded contents is not interpreted again.
//! Scores stay bit-identical to lowering with [`BuiltWorkload::plan_placed`]
//! and running through [`simgpu::run_plan`] on a memo-free device. Every candidate's functional outputs are compared with
//! the entry's CPU reference, and a divergence is an error.
//!
//! Every winner is re-checked functionally against the entry's CPU
//! reference, re-priced under the opt-in [`simgpu::cost::WarpTileModel`]
//! (so the table shows how a warp/occupancy-aware model re-ranks the same
//! schedule), and compared against the hand-picked "pipelined" default the
//! scenario ablation has always reported.

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;

use downscaler::pipelines::PipelineError;
use downscaler::Scenario;
use gaspard::Placement;
use mdarray::NdArray;
use scenarios::{BuiltWorkload, JobMix, Kind, Route, ScenarioError, Workload};
use simgpu::cost::CostModelSpec;
use simgpu::schedule::{BatchScheduler, ExecOptions};
use simgpu::{Device, LaunchMemo, LaunchPlan};

use super::{config_err, Experiment};
use crate::record;
use crate::record::Record;

/// The `tune` command.
pub const EXPERIMENT: Experiment = Experiment {
    name: "tune",
    title: "Ablation: simulator-as-oracle autotuner (winners bit-checked and re-priced under the warp-tile model)",
    run: |s| Ok(tune_ablation(s)?.record()),
};

/// Named [`simgpu::PlanOptLevel`] subsets the tuner searches.
fn presets() -> [(&'static str, simgpu::PlanOptLevel); 4] {
    [
        ("off", simgpu::PlanOptLevel::OFF),
        ("fusion", simgpu::PlanOptLevel::FUSION),
        ("transfers", simgpu::PlanOptLevel::ALL),
        ("fusion+transfers", simgpu::PlanOptLevel { fusion: true, ..simgpu::PlanOptLevel::ALL }),
    ]
}

const STREAMS: [usize; 3] = [1, 2, 4];
const POOLS: [bool; 2] = [false, true];
const PLACEMENTS: [Placement; 2] = [Placement::Resident, Placement::PerKernelRoundTrip];

fn placement_name(p: Placement) -> &'static str {
    match p {
        Placement::Resident => "resident",
        Placement::PerKernelRoundTrip => "roundtrip",
    }
}

/// One point of the search space, in display form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TuneConfig {
    /// Compilation route (`sac` / `gaspard`).
    pub route: String,
    /// Pipeline lanes.
    pub streams: usize,
    /// Size-class memory pool enabled.
    pub pool: bool,
    /// Planopt preset name (`off` / `fusion` / `transfers` /
    /// `fusion+transfers`).
    pub optimize: String,
    /// Gaspard intermediate placement (`resident` / `roundtrip`; the SaC
    /// lowering is always resident).
    pub placement: String,
    /// SaC transfer chunking (leading-dimension chunk count; 0 =
    /// whole-buffer, the Gaspard lowering always moves whole buffers).
    pub channel_chunks: usize,
}

/// Interior candidate: indices into the fixed dimension domains, so it can
/// key a memo table deterministically.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Cand {
    route_ix: usize,
    streams_ix: usize,
    pool_ix: usize,
    opt_ix: usize,
    /// Placement index (Gaspard) — always 0 on the SaC route.
    place_ix: usize,
    /// Chunk-domain index (SaC) — always 0 on the Gaspard route.
    chunk_ix: usize,
}

impl Cand {
    fn config(self, chunk_domain: &[usize]) -> TuneConfig {
        TuneConfig {
            route: Route::BOTH[self.route_ix].name().into(),
            streams: STREAMS[self.streams_ix],
            pool: POOLS[self.pool_ix],
            optimize: presets()[self.opt_ix].0.into(),
            placement: placement_name(PLACEMENTS[self.place_ix]).into(),
            channel_chunks: chunk_domain[self.chunk_ix],
        }
    }
}

/// One tuned registry entry.
#[derive(Debug, Clone)]
pub struct TuneRow {
    /// Registry entry name.
    pub scenario: String,
    /// Search strategy used (`exhaustive` / `beam`).
    pub search: String,
    /// Oracle evaluations spent under the calibrated model.
    pub evals: usize,
    /// The winning configuration.
    pub config: TuneConfig,
    /// Simulated full-batch makespan of the winner, seconds.
    pub best_s: f64,
    /// Makespan of the hand-picked default (gaspard, 2 streams, pool,
    /// planopt off) the scenario ablation reports, seconds.
    pub default_s: f64,
    /// `default_s / best_s`.
    pub speedup: f64,
    /// The winner re-priced under the warp/occupancy-aware
    /// [`simgpu::cost::WarpTileModel`], seconds.
    pub warp_tile_s: f64,
    /// Kernel launches over the winner's executed frames.
    pub launches: usize,
    /// Whether the winner's functional outputs matched the CPU reference
    /// bit-exactly.
    pub outputs_ok: bool,
}

/// Result of [`tune_ablation`].
#[derive(Debug, Clone)]
pub struct TuneAblation {
    /// The oracle cost model's name (`CostModel::describe`).
    pub model: String,
    /// One row per registry entry.
    pub rows: Vec<TuneRow>,
}

impl TuneAblation {
    fn record(&self) -> Record {
        let rows: Record = self
            .rows
            .iter()
            .map(|r| {
                record! {
                    "scenario": &r.scenario,
                    "search": &r.search,
                    "evals": r.evals,
                    "route": &r.config.route,
                    "streams": r.config.streams,
                    "pool": r.config.pool,
                    "optimize": &r.config.optimize,
                    "placement": &r.config.placement,
                    "channel_chunks": r.config.channel_chunks,
                    "tuned_s": r.best_s,
                    "default_s": r.default_s,
                    "speedup": r.speedup,
                    "warp_tile_s": r.warp_tile_s,
                    "launches": r.launches,
                    "outputs_ok": Record::Verdict(r.outputs_ok),
                }
            })
            .collect();
        record! { "cost_model": &self.model, "rows": rows }
    }
}

/// Entries whose frames are at least this many pixels use the
/// coordinate-descent beam instead of the exhaustive sweep.
const BEAM_PIXELS: usize = 1 << 20;

/// What the oracle reuses while it searches one route of one entry: each
/// lowering per (chunking, placement), each planopt rewrite per preset, the
/// functional frames, and one launch memo that every candidate's fresh
/// device shares. Dropped when the search moves to the other route, so
/// memory stays scoped to one (entry, route).
struct RouteStage<'a> {
    route_ix: usize,
    /// Lowered plans keyed by (chunk_ix, place_ix).
    lowered: BTreeMap<(usize, usize), LaunchPlan<'a>>,
    /// Optimised plans keyed by (chunk_ix, place_ix, opt_ix).
    plans: BTreeMap<(usize, usize, usize), LaunchPlan<'a>>,
    frames: Vec<Vec<NdArray<i64>>>,
    memo: LaunchMemo,
}

impl<'a> RouteStage<'a> {
    /// Lower and optimise `cand`'s plan unless it is cached.
    fn prepare(
        &mut self,
        built: &'a BuiltWorkload,
        channel_chunks: usize,
        cand: Cand,
    ) -> Result<(usize, usize, usize), ScenarioError> {
        let key = (cand.chunk_ix, cand.place_ix, cand.opt_ix);
        if !self.plans.contains_key(&key) {
            let lowered = match self.lowered.entry((cand.chunk_ix, cand.place_ix)) {
                Entry::Occupied(e) => e.into_mut(),
                Entry::Vacant(e) => e.insert(built.plan_placed(
                    Route::BOTH[self.route_ix],
                    channel_chunks,
                    PLACEMENTS[cand.place_ix],
                )?),
            };
            let mut plan = lowered.clone();
            simgpu::planopt::optimize(&mut plan, presets()[cand.opt_ix].1)?;
            self.plans.insert(key, plan);
        }
        Ok(key)
    }
}

struct Tuner<'a> {
    built: &'a BuiltWorkload,
    chunk_domains: [Vec<usize>; 2],
    scores: BTreeMap<Cand, f64>,
    evals: usize,
    /// CPU references of the functional frames, computed once per entry.
    references: Vec<NdArray<i64>>,
    stage: Option<RouteStage<'a>>,
}

impl<'a> Tuner<'a> {
    fn new(built: &'a BuiltWorkload) -> Tuner<'a> {
        // Chunking only exists on the SaC lowering, and only bites when the
        // rank-3 frame has a multi-channel leading dimension to split.
        let channels = built.channels();
        let sac_chunks = if channels > 1 { vec![channels, 0] } else { vec![0] };
        let executed = Self::executed(built);
        Tuner {
            built,
            chunk_domains: [sac_chunks, vec![0]],
            scores: BTreeMap::new(),
            evals: 0,
            references: (0..executed).map(|f| built.reference(f)).collect(),
            stage: None,
        }
    }

    /// Functionally executed frames per candidate.
    fn executed(built: &BuiltWorkload) -> usize {
        if built.spec.temporal() {
            3.min(built.spec.frames)
        } else {
            1
        }
    }

    fn opts(&self, cand: Cand, cost: CostModelSpec) -> ExecOptions {
        ExecOptions {
            streams: STREAMS[cand.streams_ix],
            executed: Self::executed(self.built),
            channel_chunks: self.chunk_domains[cand.route_ix][cand.chunk_ix],
            pool: POOLS[cand.pool_ix],
            optimize: presets()[cand.opt_ix].1,
            cost,
            ..Default::default()
        }
    }

    /// One oracle run: simulated full-batch makespan in seconds, plus the
    /// launch count and a reference bit-check of the functional frames.
    /// Equal, bit for bit, to [`simgpu::run_plan`] over
    /// [`BuiltWorkload::plan_placed`] on a fresh memo-free device; only the
    /// host work is staged and memoised.
    fn run(
        &mut self,
        cand: Cand,
        cost: CostModelSpec,
    ) -> Result<(f64, usize, bool), PipelineError> {
        let opts = self.opts(cand, cost);
        if self.stage.as_ref().is_none_or(|st| st.route_ix != cand.route_ix) {
            // Release the other route's stage before building this one.
            self.stage = None;
            self.stage = Some(RouteStage {
                route_ix: cand.route_ix,
                lowered: BTreeMap::new(),
                plans: BTreeMap::new(),
                frames: self.built.frames(Route::BOTH[cand.route_ix], opts.executed),
                memo: LaunchMemo::new(),
            });
        }
        let stage = self.stage.as_mut().expect("stage set above");
        let key = stage.prepare(self.built, opts.channel_chunks, cand).map_err(config_err)?;
        let mut device = Device::gtx480();
        device.set_launch_memo(stage.memo.clone());
        let batch = ExecOptions { total_frames: self.built.spec.frames, ..opts };
        let (outs, stats) = BatchScheduler::new(&stage.plans[&key])
            .run(&mut device, &stage.frames, &batch)
            .map_err(config_err)?;
        let outs: Vec<NdArray<i64>> = outs.into_iter().map(|o| self.built.canon(o)).collect();
        Ok((device.now_us() / 1e6, stats.launches, outs == self.references))
    }

    /// Memoized oracle score under the calibrated model. A candidate whose
    /// functional outputs diverge from the CPU reference is an error.
    fn score(&mut self, cand: Cand) -> Result<f64, PipelineError> {
        if let Some(&s) = self.scores.get(&cand) {
            return Ok(s);
        }
        let (s, _, ok) = self.run(cand, CostModelSpec::Inherit)?;
        if !ok {
            return Err(PipelineError::Config(format!(
                "{}: candidate {:?} diverged from the CPU reference",
                self.built.spec.name,
                cand.config(&self.chunk_domains[cand.route_ix])
            )));
        }
        self.evals += 1;
        self.scores.insert(cand, s);
        Ok(s)
    }

    fn domain_len(&self, route_ix: usize, dim: usize) -> usize {
        match dim {
            0 => presets().len(),
            1 => STREAMS.len(),
            2 => POOLS.len(),
            3 => PLACEMENTS.len().min(if route_ix == 0 { 1 } else { 2 }),
            _ => self.chunk_domains[route_ix].len(),
        }
    }

    fn with_dim(cand: Cand, dim: usize, ix: usize) -> Cand {
        let mut c = cand;
        match dim {
            0 => c.opt_ix = ix,
            1 => c.streams_ix = ix,
            2 => c.pool_ix = ix,
            3 => c.place_ix = ix,
            _ => c.chunk_ix = ix,
        }
        c
    }

    /// One route's full cross product, in sweep order.
    fn candidates(&self, route_ix: usize) -> Vec<Cand> {
        let mut out = Vec::new();
        for opt_ix in 0..presets().len() {
            for streams_ix in 0..STREAMS.len() {
                for pool_ix in 0..POOLS.len() {
                    for place_ix in 0..self.domain_len(route_ix, 3) {
                        for chunk_ix in 0..self.chunk_domains[route_ix].len() {
                            out.push(Cand {
                                route_ix,
                                streams_ix,
                                pool_ix,
                                opt_ix,
                                place_ix,
                                chunk_ix,
                            });
                        }
                    }
                }
            }
        }
        out
    }

    /// Exhaustive sweep of one route's full cross product.
    fn exhaustive(&mut self, route_ix: usize) -> Result<(Cand, f64), PipelineError> {
        let mut best: Option<(Cand, f64)> = None;
        for cand in self.candidates(route_ix) {
            let s = self.score(cand)?;
            if best.as_ref().is_none_or(|&(_, b)| s < b) {
                best = Some((cand, s));
            }
        }
        Ok(best.expect("non-empty search space"))
    }

    /// Deterministic coordinate descent: sweep one dimension at a time in a
    /// fixed order, keep strict improvements, repeat until a full pass
    /// changes nothing (at most four passes).
    fn beam(&mut self, route_ix: usize) -> Result<(Cand, f64), PipelineError> {
        let mut cand =
            Cand { route_ix, streams_ix: 0, pool_ix: 0, opt_ix: 0, place_ix: 0, chunk_ix: 0 };
        let mut best = self.score(cand)?;
        for _pass in 0..4 {
            let before = cand;
            for dim in 0..5 {
                for ix in 0..self.domain_len(route_ix, dim) {
                    let probe = Self::with_dim(cand, dim, ix);
                    let s = self.score(probe)?;
                    if s < best {
                        best = s;
                        cand = probe;
                    }
                }
            }
            if cand == before {
                break;
            }
        }
        Ok((cand, best))
    }
}

/// The bench scenario's own full-length downscaler batch as a registry-style
/// entry, so the tuner also optimises the paper's headline number (300 HD
/// frames for `hd1080`) and not just the registry's short serving batches.
fn headline(s: &Scenario) -> Workload {
    Workload {
        name: "downscale-headline",
        summary: "the bench scenario's full-length downscaler batch",
        kind: Kind::Downscale,
        rows: s.rows,
        cols: s.cols,
        frames: s.frames,
        seed: 0x5CE4,
        mix: JobMix { jobs: 1, mean_gap_us: 0.0, tenants: 1, frames_per_job: 1 },
    }
}

/// Tune the bench scenario's headline downscaler batch plus every registry
/// entry (`hd1080` runs the full registry including the 1080p and 4K
/// downscaler sizes; other scenario selections use the small registry,
/// which is what CI smoke-tests) and report each entry's best
/// configuration under the calibrated paper model.
pub fn tune_ablation(s: &Scenario) -> Result<TuneAblation, PipelineError> {
    let mut entries = vec![headline(s)];
    entries.extend(if s.name == "hd1080" {
        scenarios::registry()
    } else {
        scenarios::registry_small()
    });
    let model = Device::gtx480().cost_model().describe();

    let mut rows = Vec::new();
    for w in &entries {
        let built = w.build().map_err(config_err)?;
        let mut tuner = Tuner::new(&built);
        let beam = w.rows * w.cols >= BEAM_PIXELS;
        let search = if beam { "beam" } else { "exhaustive" };

        // Search each route independently, then take the overall winner
        // (ties keep the earlier route in report order).
        let mut best: Option<(Cand, f64)> = None;
        for route_ix in 0..Route::BOTH.len() {
            let (cand, s) = if beam { tuner.beam(route_ix) } else { tuner.exhaustive(route_ix) }?;
            if best.as_ref().is_none_or(|&(_, b)| s < b) {
                best = Some((cand, s));
            }
        }
        let (cand, best_s) = best.expect("two routes searched");

        // The hand-picked default the scenario ablation has always led
        // with: gaspard route, 2 streams, pool on, planopt off.
        let default_cand =
            Cand { route_ix: 1, streams_ix: 1, pool_ix: 1, opt_ix: 0, place_ix: 0, chunk_ix: 0 };
        let default_s = tuner.score(default_cand)?;
        let evals = tuner.evals;

        // Re-run the winner for its counters and reference bit-check, and
        // re-price the same schedule under the warp/occupancy model.
        let (_, launches, outputs_ok) = tuner.run(cand, CostModelSpec::Inherit)?;
        let (warp_tile_s, _, warp_ok) = tuner.run(cand, CostModelSpec::WarpTile)?;

        let chunk_domain = tuner.chunk_domains[cand.route_ix].clone();
        rows.push(TuneRow {
            scenario: w.name.into(),
            search: search.into(),
            evals,
            config: cand.config(&chunk_domain),
            best_s,
            default_s,
            speedup: default_s / best_s,
            warp_tile_s,
            launches,
            outputs_ok: outputs_ok && warp_ok,
        });
    }

    Ok(TuneAblation { model, rows })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_scenario_tunes_the_small_registry() {
        let a = tune_ablation(&Scenario::tiny()).unwrap();
        assert_eq!(a.model, "paper-gtx480");
        let names: Vec<&str> = a.rows.iter().map(|r| r.scenario.as_str()).collect();
        assert_eq!(
            names,
            ["downscale-headline", "imagepipe", "delta", "blockmean", "downscale-thumb"]
        );
        // Each exhaustive search spends one evaluation per candidate: the
        // staged oracle changes the cost of an evaluation, not their count.
        let evals: Vec<usize> = a.rows.iter().map(|r| r.evals).collect();
        assert_eq!(evals, [96, 72, 72, 72, 96]);
        for r in &a.rows {
            assert!(r.outputs_ok, "{}: tuned winner diverged from reference", r.scenario);
            assert_eq!(r.search, "exhaustive");
            assert!(r.evals > 0);
            assert!(r.best_s > 0.0);
            // The tuned config can never lose to the hand-picked default:
            // the default is in the search space.
            assert!(
                r.best_s <= r.default_s + 1e-12,
                "{}: best {} > default {}",
                r.scenario,
                r.best_s,
                r.default_s
            );
            assert!(r.warp_tile_s > 0.0);
        }
        // The temporal carry entry cannot profit from extra lanes.
        let delta = a.rows.iter().find(|r| r.scenario == "delta").unwrap();
        assert_eq!(delta.config.streams, 1, "{:?}", delta.config);
    }

    #[test]
    fn staged_oracle_matches_a_fresh_memo_free_run() {
        let s = Scenario::tiny();
        for w in std::iter::once(headline(&s)).chain(scenarios::registry_small()) {
            let built = w.build().unwrap();
            let mut tuner = Tuner::new(&built);
            for route_ix in 0..Route::BOTH.len() {
                for cand in tuner.candidates(route_ix) {
                    let got = tuner.score(cand).unwrap();
                    let opts = tuner.opts(cand, CostModelSpec::Inherit);
                    let route = Route::BOTH[route_ix];
                    let plan = built
                        .plan_placed(route, opts.channel_chunks, PLACEMENTS[cand.place_ix])
                        .unwrap();
                    let frames = built.frames(route, opts.executed);
                    let opts = ExecOptions { total_frames: built.spec.frames, ..opts };
                    let mut device = Device::gtx480();
                    simgpu::run_plan(plan, &mut device, &frames, &opts).unwrap();
                    let want = device.now_us() / 1e6;
                    assert_eq!(got.to_bits(), want.to_bits(), "{}: {cand:?}", w.name);
                }
            }
        }
    }

    #[test]
    fn beam_and_exhaustive_agree_on_a_small_entry() {
        let w = scenarios::registry_small().remove(0);
        let built = w.build().unwrap();
        let mut ex = Tuner::new(&built);
        let mut bm = Tuner::new(&built);
        for route_ix in 0..2 {
            let (_, best_ex) = ex.exhaustive(route_ix).unwrap();
            let (_, best_bm) = bm.beam(route_ix).unwrap();
            assert_eq!(best_ex, best_bm, "route {route_ix}");
        }
        assert!(bm.evals <= ex.evals, "beam must not out-spend exhaustive");
    }
}
