//! Analytic cost model for simulated GPU time.
//!
//! The simulator executes kernels functionally and *charges* time with this
//! model. The constants are not microarchitectural truths — they are
//! device-wide effective costs calibrated so that the paper's own measurements
//! on a GTX480 are reproduced in shape (see `EXPERIMENTS.md` for measured vs
//! paper values). The model deliberately keeps only the terms the paper's
//! analysis turns on:
//!
//! * **launch overhead** per kernel — "each kernel launch incurs context
//!   overheads; the more kernels a program executes, the higher this cost",
//! * **DRAM vs L1 pricing** — the first access to an address within a launch
//!   pays [`Calibration::dram_access_ns`]; repeated accesses pay
//!   [`Calibration::l1_access_ns`]. The cache is not persistent across
//!   launches, so "separating computations of the same data array into
//!   different kernels hinders effective data reuse",
//! * **compute throughput** — dynamic instructions at
//!   [`Calibration::instr_ns`] apiece (device-wide amortised),
//! * **PCIe transfers** — latency plus bytes over effective bandwidth,
//!   asymmetric between host→device and device→host as measured in the paper
//!   (Tables I/II imply ≈5.4 GB/s H2D and ≈6.3 GB/s D2H effective).
//!
//! A device prices through one [`CostModel`]: either a [`Calibration`] or the
//! opt-in, occupancy-aware [`WarpTileModel`]. It is a plain `Copy` value,
//! chosen once when the device is built (`Device::new(config, model)`) and
//! named by [`CostModel::describe`].

use crate::device::DeviceConfig;
use crate::exec::LaunchStats;
use crate::profiler::OpClass;
use arrayol::access::TiledAccess;

/// The device resource an operation occupies while it runs.
///
/// A Fermi-class GPU exposes two DMA copy engines (one per PCIe direction)
/// and the SM array; a blocking host step occupies the host CPU. Operations
/// on *different* engines enqueued on *different* streams may overlap;
/// operations on the same engine serialize in enqueue order regardless of
/// stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Engine {
    /// Host→device DMA copy engine.
    H2D = 0,
    /// The SM array executing kernels.
    Compute = 1,
    /// Device→host DMA copy engine.
    D2H = 2,
    /// The host CPU (fallback steps, blocking host work).
    Host = 3,
}

/// Number of distinct engines.
pub const ENGINE_COUNT: usize = 4;

impl Engine {
    /// The engine an operation class occupies.
    pub fn of_class(class: OpClass) -> Engine {
        match class {
            OpClass::H2D => Engine::H2D,
            OpClass::Kernel => Engine::Compute,
            OpClass::D2H => Engine::D2H,
            OpClass::Host => Engine::Host,
        }
    }
}

/// Transfer direction for [`Calibration::transfer_time_us`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Host memory → device memory (`cudaMemcpyHostToDevice`).
    HostToDevice,
    /// Device memory → host memory (`cudaMemcpyDeviceToHost`).
    DeviceToHost,
}

/// Calibrated cost constants for a simulated device.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Calibration {
    /// Fixed overhead charged per kernel launch (µs).
    pub kernel_launch_us: f64,
    /// Fixed latency per host→device transfer (µs).
    pub h2d_latency_us: f64,
    /// Effective host→device bandwidth (bytes per µs; 5364 ≈ 5.36 GB/s).
    pub h2d_bytes_per_us: f64,
    /// Fixed latency per device→host transfer (µs).
    pub d2h_latency_us: f64,
    /// Effective device→host bandwidth (bytes per µs).
    pub d2h_bytes_per_us: f64,
    /// Device-wide amortised cost per dynamic instruction (ns).
    pub instr_ns: f64,
    /// Cost per *distinct-address* global memory access in a launch (ns).
    pub dram_access_ns: f64,
    /// Cost per repeated-address access within a launch — an L1 hit (ns).
    pub l1_access_ns: f64,
    /// Cost of a `cudaMalloc`/`clCreateBuffer` that actually reaches the
    /// driver (µs). On Fermi the call also device-synchronizes every stream;
    /// the device models that whenever this is non-zero. Zero disables
    /// allocation charging entirely (no sync, no profiler record), which is
    /// what the paper-calibrated [`Calibration::gtx480`] uses: Tables I/II do
    /// not profile allocation, so charging it would change the reproduced
    /// totals. Enable it with [`Calibration::gtx480_alloc`].
    pub malloc_us: f64,
    /// Cost of a `cudaFree`/`clReleaseMemObject` returning memory to the
    /// driver (µs); like [`Calibration::malloc_us`] it device-synchronizes
    /// when non-zero and is skipped entirely at zero. Pool-cached releases
    /// never pay this — only true driver frees (naive frees and pool
    /// evictions) do.
    pub free_us: f64,
}

impl Calibration {
    /// Constants calibrated against the paper's GTX480 measurements.
    ///
    /// Derivation of the transfer numbers from Table I: 900 H2D transfers of a
    /// 1080×1920 `int` channel plane (8.29 MB) took 1.391 s ⇒ ≈5.4 GB/s;
    /// 900 D2H transfers of a 480×720 plane (1.38 MB) took 0.197 s ⇒
    /// ≈6.3 GB/s. Kernel constants were fit to the per-kernel times implied by
    /// Tables I and II (see DESIGN.md §5, "Cost-model calibration", and EXPERIMENTS.md).
    pub fn gtx480() -> Self {
        Calibration {
            kernel_launch_us: 12.0,
            h2d_latency_us: 15.0,
            h2d_bytes_per_us: 5364.0,
            d2h_latency_us: 15.0,
            d2h_bytes_per_us: 6316.0,
            instr_ns: 0.014,
            dram_access_ns: 0.105,
            l1_access_ns: 0.03,
            malloc_us: 0.0,
            free_us: 0.0,
        }
    }

    /// [`Calibration::gtx480`] plus calibrated Fermi allocation costs.
    ///
    /// On Fermi-generation drivers `cudaMalloc` implies a device
    /// synchronization and costs on the order of 100 µs; `cudaFree` is
    /// cheaper but also synchronizing. The paper's tables never profile
    /// allocation (their host loops allocate once per frame and the cost
    /// hides in "runtime overhead"), so these constants live in a separate
    /// calibration: the memory ablation turns them on to make per-frame
    /// allocation visible, while every paper-facing experiment keeps the
    /// allocation-free [`Calibration::gtx480`] and reproduces bit-exactly.
    pub fn gtx480_alloc() -> Self {
        Calibration { malloc_us: 100.0, free_us: 20.0, ..Self::gtx480() }
    }

    /// A free device: zero-cost everything. Useful in tests that only check
    /// functional results.
    pub fn zero() -> Self {
        Calibration {
            kernel_launch_us: 0.0,
            h2d_latency_us: 0.0,
            h2d_bytes_per_us: f64::INFINITY,
            d2h_latency_us: 0.0,
            d2h_bytes_per_us: f64::INFINITY,
            instr_ns: 0.0,
            dram_access_ns: 0.0,
            l1_access_ns: 0.0,
            malloc_us: 0.0,
            free_us: 0.0,
        }
    }

    /// Simulated duration of a PCIe transfer of `bytes` bytes (µs).
    pub fn transfer_time_us(&self, bytes: usize, dir: Direction) -> f64 {
        let (lat, bw) = match dir {
            Direction::HostToDevice => (self.h2d_latency_us, self.h2d_bytes_per_us),
            Direction::DeviceToHost => (self.d2h_latency_us, self.d2h_bytes_per_us),
        };
        lat + bytes as f64 / bw
    }

    /// Simulated duration of a kernel launch with the given dynamic counts (µs).
    ///
    /// `t = launch + instr·instr_ns + distinct·dram_ns + hits·l1_ns`.
    pub fn kernel_time_us(&self, stats: &LaunchStats) -> f64 {
        let compute_ns = stats.instructions as f64 * self.instr_ns;
        let dram_ns = stats.distinct_accesses as f64 * self.dram_access_ns;
        let l1_ns = stats.l1_hits as f64 * self.l1_access_ns;
        self.kernel_launch_us + (compute_ns + dram_ns + l1_ns) / 1000.0
    }
}

impl Calibration {
    /// Bit-exact equality against another calibration.
    ///
    /// The `PartialEq` derive compares the `f64` fields with IEEE `==`,
    /// which is a surprise the moment a constant is `NaN` (never equal,
    /// even to itself) or a signed zero (`0.0 == -0.0` despite different
    /// bits). Model *identity* therefore never goes through `PartialEq`
    /// anymore — [`CostModel::describe`] names models explicitly — and the
    /// one place that still wants "is this exactly that preset"
    /// (`describe` itself) compares bit patterns.
    pub fn bit_eq(&self, other: &Calibration) -> bool {
        let fields = |c: &Calibration| {
            [
                c.kernel_launch_us,
                c.h2d_latency_us,
                c.h2d_bytes_per_us,
                c.d2h_latency_us,
                c.d2h_bytes_per_us,
                c.instr_ns,
                c.dram_access_ns,
                c.l1_access_ns,
                c.malloc_us,
                c.free_us,
            ]
            .map(f64::to_bits)
        };
        fields(self) == fields(other)
    }
}

/// The pricing model of a simulated device: a plain value a
/// [`crate::device::Device`] is built with.
///
/// The simulator executes kernels functionally and charges time through
/// this; [`Calibration`] is the paper-faithful model and every published
/// golden number is produced under it. Both variants are pure functions of
/// their inputs — the same stats and access description always price to the
/// same duration — which is what keeps timing replay and the golden records
/// exact.
#[derive(Debug, Clone, Copy)]
pub enum CostModel {
    /// The paper-faithful, device-wide amortised [`Calibration`].
    Calibration(Calibration),
    /// The occupancy/coalescing-aware [`WarpTileModel`].
    WarpTile(WarpTileModel),
}

impl From<Calibration> for CostModel {
    fn from(c: Calibration) -> Self {
        CostModel::Calibration(c)
    }
}

impl From<WarpTileModel> for CostModel {
    fn from(m: WarpTileModel) -> Self {
        CostModel::WarpTile(m)
    }
}

impl CostModel {
    /// Stable human-readable model name, used in bench JSON records. Models
    /// are identified by this name — never by comparing parameter structs
    /// (see [`Calibration::bit_eq`] for why `PartialEq` on `f64` fields is
    /// not an identity test).
    pub fn describe(&self) -> String {
        match self {
            CostModel::Calibration(c) if c.bit_eq(&Calibration::gtx480()) => "paper-gtx480".into(),
            CostModel::Calibration(c) if c.bit_eq(&Calibration::gtx480_alloc()) => {
                "paper-gtx480+alloc".into()
            }
            CostModel::Calibration(c) if c.bit_eq(&Calibration::zero()) => "zero".into(),
            CostModel::Calibration(_) => "calibration(custom)".into(),
            CostModel::WarpTile(m) if m.bit_eq(&WarpTileModel::default()) => "warp-tile".into(),
            CostModel::WarpTile(_) => "warp-tile(custom)".into(),
        }
    }

    /// Simulated duration of a PCIe transfer of `bytes` bytes (µs).
    pub fn transfer_time_us(&self, bytes: usize, dir: Direction) -> f64 {
        match self {
            CostModel::Calibration(c) => c.transfer_time_us(bytes, dir),
            CostModel::WarpTile(m) => m.transfer.transfer_time_us(bytes, dir),
        }
    }

    /// Simulated duration of a kernel launch (µs) given its dynamic counts,
    /// the device it runs on and — when the plan layer knows it — the
    /// launch's tiled-access description. [`Calibration`] ignores the last
    /// two (its pricing is device-wide and shape-blind, which is what the
    /// published numbers were calibrated against).
    pub fn kernel_time_us(
        &self,
        stats: &LaunchStats,
        device: &DeviceConfig,
        access: Option<&TiledAccess>,
    ) -> f64 {
        match self {
            CostModel::Calibration(c) => c.kernel_time_us(stats),
            CostModel::WarpTile(m) => m.kernel_time_us(stats, device, access),
        }
    }

    /// Cost of an allocation that reaches the driver (µs). Non-zero values
    /// device-synchronize, modelling Fermi's `cudaMalloc`.
    pub fn malloc_us(&self) -> f64 {
        match self {
            CostModel::Calibration(c) => c.malloc_us,
            CostModel::WarpTile(_) => 0.0,
        }
    }

    /// Cost of a free that reaches the driver (µs).
    pub fn free_us(&self) -> f64 {
        match self {
            CostModel::Calibration(c) => c.free_us,
            CostModel::WarpTile(_) => 0.0,
        }
    }
}

/// An occupancy/warp-aware launch pricing model (opt-in).
///
/// Where [`Calibration`] charges device-wide amortised per-instruction and
/// per-access costs, this model prices a launch from the machine geometry in
/// the style of Jangda & Guha's model-based warp costing:
///
/// * **Issue throughput.** The launch's dynamic instructions are spread over
///   the device's `sm_count × cores_per_sm` scalar lanes at one instruction
///   per lane-cycle (`1 / clock_ghz` ns each), derated by occupancy.
/// * **Occupancy.** Warps are `ceil(threads / warp_size)`; the device keeps
///   at most `resident_warps_per_sm × sm_count` warps resident (the
///   registers/shared-memory-free proxy). A launch smaller than one full
///   wave leaves lanes idle: occupancy is the filled fraction of the wave
///   slots its warps round up to, so undersized launches price *worse* per
///   instruction, exactly the effect the flat model cannot express.
/// * **Coalescing.** Distinct-address DRAM traffic is multiplied by a replay
///   factor read from the launch's [`TiledAccess`]: a fitting step of ±1 in
///   the innermost array axis means adjacent work-items touch adjacent
///   addresses (one transaction per warp — factor 1); an innermost stride of
///   `s` replays `min(|s|, warp_size)` transactions; any fitting step that
///   walks a *non*-innermost axis serializes the warp entirely
///   (`warp_size`). Launches without an access description get
///   [`WarpTileModel::default_replay`].
/// * **Transfers and launch overhead** keep the paper's calibrated PCIe and
///   launch constants — the model refines kernel pricing only.
///
/// The model is deliberately coarse (no bank conflicts, no dual issue), but
/// it makes fusion and tiling decisions change simulated time for
/// model-grounded reasons: fusing kernels raises per-launch work and thus
/// occupancy, and composed accesses keep their innermost-stride structure
/// visible to the replay term.
#[derive(Debug, Clone, Copy)]
pub struct WarpTileModel {
    /// Fixed overhead charged per kernel launch (µs).
    pub kernel_launch_us: f64,
    /// PCIe pricing (kept from the paper's calibration).
    pub transfer: Calibration,
    /// Resident-warp ceiling per SM (Fermi: 48).
    pub resident_warps_per_sm: usize,
    /// DRAM transaction latency per distinct access before replay (ns).
    pub dram_access_ns: f64,
    /// L1-hit latency (ns).
    pub l1_access_ns: f64,
    /// Replay factor used when a launch carries no access description.
    pub default_replay: f64,
}

impl Default for WarpTileModel {
    fn default() -> Self {
        WarpTileModel {
            kernel_launch_us: Calibration::gtx480().kernel_launch_us,
            transfer: Calibration::gtx480(),
            resident_warps_per_sm: 48,
            dram_access_ns: 0.105,
            l1_access_ns: 0.03,
            default_replay: 4.0,
        }
    }
}

impl WarpTileModel {
    /// The coalescing replay factor for an access description: how many
    /// memory transactions a warp's gather of one pattern step costs,
    /// derived from the signs/strides of the input tiler's fitting matrix.
    pub fn replay_factor(&self, access: Option<&TiledAccess>, warp_size: usize) -> f64 {
        let Some(a) = access else { return self.default_replay };
        // The fitting matrix maps pattern steps to array-index steps: one
        // row per array axis, one column per pattern dimension. The
        // innermost (fastest-varying in memory) axis is the last row.
        let rows = a.in_tiler.fitting.len();
        if rows == 0 {
            return self.default_replay;
        }
        let cols = a.in_tiler.fitting.iter().map(|r| r.len()).max().unwrap_or(0);
        if cols == 0 {
            return self.default_replay;
        }
        // Worst fitting column decides: each column is the array-index step
        // between successive pattern elements a warp gathers together.
        let mut worst = 1.0f64;
        for c in 0..cols {
            let mut non_inner = 0i64;
            let mut inner_step = 0i64;
            for (axis, row) in a.in_tiler.fitting.iter().enumerate() {
                let v = row.get(c).copied().unwrap_or(0);
                if axis == rows - 1 {
                    inner_step = v;
                } else {
                    non_inner += v.abs();
                }
            }
            let f = if non_inner != 0 {
                warp_size as f64
            } else {
                (inner_step.unsigned_abs() as f64).clamp(1.0, warp_size as f64)
            };
            worst = worst.max(f);
        }
        worst
    }

    /// Bit-exact equality against another model (see
    /// [`Calibration::bit_eq`]).
    pub fn bit_eq(&self, other: &WarpTileModel) -> bool {
        let floats = |m: &WarpTileModel| {
            [m.kernel_launch_us, m.dram_access_ns, m.l1_access_ns, m.default_replay]
                .map(f64::to_bits)
        };
        floats(self) == floats(other)
            && self.resident_warps_per_sm == other.resident_warps_per_sm
            && self.transfer.bit_eq(&other.transfer)
    }

    /// Simulated duration of a kernel launch (µs) on `d`; see the type
    /// docs for the terms.
    pub fn kernel_time_us(
        &self,
        stats: &LaunchStats,
        d: &DeviceConfig,
        access: Option<&TiledAccess>,
    ) -> f64 {
        let warp = d.warp_size.max(1);
        let threads = stats.threads.max(1) as usize;
        let warps = threads.div_ceil(warp);
        let wave_slots = (d.sm_count * self.resident_warps_per_sm).max(1);
        let waves = warps.div_ceil(wave_slots);
        let occupancy = warps as f64 / (waves * wave_slots) as f64;
        let lanes = (d.sm_count * d.cores_per_sm) as f64;
        let cycle_ns = 1.0 / d.clock_ghz;
        let issue_ns = stats.instructions as f64 * cycle_ns / (lanes * occupancy);
        let replay = self.replay_factor(access, warp);
        let mem_ns = (stats.distinct_accesses as f64 * self.dram_access_ns * replay
            + stats.l1_hits as f64 * self.l1_access_ns)
            / (d.sm_count as f64 * occupancy);
        self.kernel_launch_us + (issue_ns + mem_ns) / 1000.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(instr: u64, distinct: u64, hits: u64) -> LaunchStats {
        LaunchStats {
            threads: 0,
            instructions: instr,
            loads: 0,
            stores: 0,
            distinct_accesses: distinct,
            l1_hits: hits,
        }
    }

    #[test]
    fn transfer_time_includes_latency_and_bandwidth() {
        let c = Calibration::gtx480();
        let t = c.transfer_time_us(8_294_400, Direction::HostToDevice);
        // 15 µs latency + 8.29 MB at 5364 B/µs ≈ 1561 µs.
        assert!((t - (15.0 + 8_294_400.0 / 5364.0)).abs() < 1e-9);
        // D2H is faster per byte in the paper's measurements.
        let h = c.transfer_time_us(1_000_000, Direction::HostToDevice);
        let d = c.transfer_time_us(1_000_000, Direction::DeviceToHost);
        assert!(d < h);
    }

    #[test]
    fn kernel_time_has_fixed_launch_floor() {
        let c = Calibration::gtx480();
        assert!((c.kernel_time_us(&stats(0, 0, 0)) - c.kernel_launch_us).abs() < 1e-12);
    }

    #[test]
    fn dram_costs_more_than_l1() {
        let c = Calibration::gtx480();
        let all_dram = c.kernel_time_us(&stats(0, 1000, 0));
        let all_l1 = c.kernel_time_us(&stats(0, 0, 1000));
        assert!(all_dram > all_l1);
    }

    #[test]
    fn zero_calibration_charges_nothing() {
        let c = Calibration::zero();
        assert_eq!(c.transfer_time_us(123456, Direction::DeviceToHost), 0.0);
        assert_eq!(c.kernel_time_us(&stats(1000, 1000, 1000)), 0.0);
    }

    #[test]
    fn alloc_costs_are_opt_in() {
        // The paper-calibrated constants must not charge allocation — every
        // previously reported simulated total depends on it.
        let paper = Calibration::gtx480();
        assert_eq!(paper.malloc_us, 0.0);
        assert_eq!(paper.free_us, 0.0);
        let alloc = Calibration::gtx480_alloc();
        assert!(alloc.malloc_us > 0.0 && alloc.free_us > 0.0);
        // Only the allocation terms differ.
        assert_eq!(Calibration { malloc_us: 0.0, free_us: 0.0, ..alloc }, paper);
    }

    #[test]
    fn more_kernels_cost_more_for_same_work() {
        // The paper's launch-overhead observation: splitting the same dynamic
        // work across k launches adds (k-1) launch overheads.
        let c = Calibration::gtx480();
        let fused = c.kernel_time_us(&stats(9000, 900, 0));
        let split: f64 = (0..3).map(|_| c.kernel_time_us(&stats(3000, 300, 0))).sum();
        assert!(split > fused);
        assert!((split - fused - 2.0 * c.kernel_launch_us).abs() < 1e-9);
    }

    #[test]
    fn every_model_names_its_preset_or_custom() {
        let name = |m: CostModel| m.describe();
        assert_eq!(name(Calibration::gtx480().into()), "paper-gtx480");
        assert_eq!(name(Calibration::gtx480_alloc().into()), "paper-gtx480+alloc");
        assert_eq!(name(Calibration::zero().into()), "zero");
        assert_eq!(
            name(Calibration { instr_ns: 0.02, ..Calibration::gtx480() }.into()),
            "calibration(custom)"
        );
        assert_eq!(name(WarpTileModel::default().into()), "warp-tile");
        // A fitted warp model is distinguishable from the default, whichever
        // field moved — the transfer calibration included.
        let base = WarpTileModel::default();
        for fitted in [
            WarpTileModel { dram_access_ns: 0.2, ..base },
            WarpTileModel { resident_warps_per_sm: 32, ..base },
            WarpTileModel { transfer: Calibration::gtx480_alloc(), ..base },
        ] {
            assert_eq!(name(fitted.into()), "warp-tile(custom)");
        }
    }
}
