//! The simulated device: configuration, memory, launches, simulated clock,
//! and the asynchronous stream/engine timeline.

use crate::cost::{Calibration, CostModel, Direction, Engine, ENGINE_COUNT};
use crate::exec::{run_kernel, LaunchConfig, LaunchStats};
use crate::kir::{Kernel, KernelArg};
use crate::memo::{untag_written, LaunchMemo};
use crate::profiler::{OpClass, Profiler, Slot};
use crate::SimError;
use arrayol::access::TiledAccess;
use std::collections::BTreeMap;

/// Static description of a simulated GPU.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceConfig {
    /// Marketing name, for reports.
    pub name: String,
    /// Streaming multiprocessors.
    pub sm_count: usize,
    /// Scalar cores ("streaming processors") per SM.
    pub cores_per_sm: usize,
    /// Core clock, GHz.
    pub clock_ghz: f64,
    /// Threads per warp.
    pub warp_size: usize,
    /// Maximum threads per block accepted by a launch.
    pub max_threads_per_block: usize,
    /// Global memory capacity, bytes.
    pub global_mem_bytes: usize,
    /// Host threads used to *execute* simulated launches. Part of the config
    /// (not probed from the machine) so identical runs produce identical
    /// simulated timings everywhere; tune with [`Device::set_host_workers`]
    /// when wall-clock throughput matters more than the default.
    pub host_workers: usize,
}

/// Fixed default for [`DeviceConfig::host_workers`]: enough to exercise the
/// multi-worker merge paths without oversubscribing small CI hosts.
pub const DEFAULT_HOST_WORKERS: usize = 8;

impl DeviceConfig {
    /// The paper's test device: Nvidia Fermi GTX480 — 15 SMs × 32 SPs at
    /// 1.4 GHz with 1.5 GB of device memory on PCIe x16 Gen2.
    pub fn gtx480() -> Self {
        DeviceConfig {
            name: "NVIDIA GeForce GTX 480 (simulated)".into(),
            sm_count: 15,
            cores_per_sm: 32,
            clock_ghz: 1.4,
            warp_size: 32,
            max_threads_per_block: 1024,
            global_mem_bytes: 1536 * 1024 * 1024,
            host_workers: DEFAULT_HOST_WORKERS,
        }
    }

    /// A tiny device for tests that exercise memory exhaustion.
    pub fn toy(mem_bytes: usize) -> Self {
        DeviceConfig { name: "toy".into(), global_mem_bytes: mem_bytes, ..Self::gtx480() }
    }
}

/// Handle to a device buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BufferId(pub usize);

/// Handle to a command stream (CUDA stream / OpenCL in-order command queue).
///
/// Operations enqueued on one stream execute in enqueue order; operations on
/// different streams may overlap when they occupy different engines. Stream
/// 0 is the default stream every device starts with — the synchronous
/// [`Device`] API is exactly the 1-stream special case.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StreamId(pub usize);

impl StreamId {
    /// The default stream.
    pub const DEFAULT: StreamId = StreamId(0);
}

/// Size-class pooling allocator over device memory.
///
/// Freed buffers are cached in bins keyed by their power-of-two size class
/// instead of returning to the (simulated) driver; a later allocation of the
/// same class pops a cached block — a host-side pointer swap that costs no
/// simulated time and skips the Fermi `cudaMalloc` device-sync entirely. The
/// price is internal fragmentation (a request is charged its class size, not
/// its exact size) and a cache that still occupies device memory: under
/// memory pressure the device evicts cached blocks back to the driver,
/// largest class first, before declaring out-of-memory.
///
/// Disabled by default — the naive allocate/free behaviour (and with it,
/// every previously calibrated experiment) is untouched until
/// [`Device::set_pool_enabled`] opts in.
#[derive(Debug, Clone, Default)]
pub struct MemPool {
    enabled: bool,
    /// Cached blocks keyed by size class (elements; always a power of two).
    bins: BTreeMap<usize, Vec<Vec<i32>>>,
    cached_bytes: usize,
}

impl MemPool {
    /// Size class (in elements) serving a request of `len` elements: the next
    /// power of two. `None` when the class overflows `usize`.
    pub fn class_len(len: usize) -> Option<usize> {
        len.max(1).checked_next_power_of_two()
    }

    /// Whether pooling is active.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Bytes held by cached (freed, not yet evicted) blocks.
    pub fn cached_bytes(&self) -> usize {
        self.cached_bytes
    }

    /// Pop a cached block of exactly `class_len` elements, if any.
    fn take(&mut self, class_len: usize) -> Option<Vec<i32>> {
        let bin = self.bins.get_mut(&class_len)?;
        let block = bin.pop()?;
        if bin.is_empty() {
            self.bins.remove(&class_len);
        }
        self.cached_bytes -= class_len * 4;
        Some(block)
    }

    /// Cache a freed block under `class_len`.
    fn put(&mut self, class_len: usize, block: Vec<i32>) {
        self.cached_bytes += class_len * 4;
        self.bins.entry(class_len).or_default().push(block);
    }

    /// Evict one cached block, largest class first; returns its byte size.
    fn evict_one(&mut self) -> Option<usize> {
        let &class_len = self.bins.keys().next_back()?;
        self.take(class_len)?;
        Some(class_len * 4)
    }
}

/// A simulated GPU: device memory, a kernel execution engine, a calibrated
/// clock and a profiler.
///
/// Buffer elements are 32-bit integers (the paper's frames are `int` arrays).
/// All timing is *simulated*: [`Device::now_us`] advances by the cost model,
/// never by wall-clock.
///
/// ```
/// use simgpu::device::Device;
/// use simgpu::exec::LaunchConfig;
/// use simgpu::kir::{BinOp, KernelArg, KernelBuilder, KernelFlavor, Special};
///
/// // y[i] = 3 * y[i]
/// let mut b = KernelBuilder::new("scale", KernelFlavor::Cuda);
/// let y = b.buffer_param("y", true);
/// let gid = b.special(Special::GlobalIdX);
/// let v = b.load(y, gid);
/// let three = b.constant(3);
/// let scaled = b.bin(BinOp::Mul, v, three);
/// b.store(y, gid, scaled);
/// let kernel = b.finish();
///
/// let mut device = Device::gtx480();
/// let buf = device.malloc(4).unwrap();
/// device.host2device(&[1, 2, 3, 4], buf).unwrap();
/// device.launch(&kernel, LaunchConfig::cover_1d(4, 4), &[KernelArg::Buffer(buf.0)]).unwrap();
/// assert_eq!(device.device2host(buf).unwrap(), vec![3, 6, 9, 12]);
/// assert!(device.now_us() > 0.0); // simulated time advanced
/// ```
#[derive(Debug, Clone)]
pub struct Device {
    config: DeviceConfig,
    model: CostModel,
    buffers: Vec<Option<Vec<i32>>>,
    /// Per slot, the id of the installed memo's stored content that the
    /// buffer is known to hold (see [`crate::memo`]). Every write that does
    /// not go through the memo clears it.
    tags: Vec<Option<usize>>,
    /// Bytes charged against device memory per slot (the size class with
    /// pooling on, the exact size otherwise).
    buffer_bytes: Vec<usize>,
    free_slots: Vec<usize>,
    pool: MemPool,
    allocated_bytes: usize,
    peak_allocated_bytes: usize,
    /// Host-visible simulated clock: advanced by blocking (synchronous)
    /// calls and by stream/device synchronisation, never by async enqueues.
    sim_time_us: f64,
    /// Completion time of the last operation enqueued on each stream.
    stream_tail_us: Vec<f64>,
    /// Time each engine becomes free (engines serialize their operations).
    engine_free_us: [f64; ENGINE_COUNT],
    host_workers: usize,
    /// Launch memo shared with other devices, when one is installed.
    memo: Option<LaunchMemo>,
    /// Profiling records for every operation this device executed.
    pub profiler: Profiler,
}

impl Device {
    /// Create a device with explicit configuration, pricing simulated time
    /// through `model` (a [`Calibration`] or a
    /// [`crate::cost::WarpTileModel`]) for its whole life.
    pub fn new(config: DeviceConfig, model: impl Into<CostModel>) -> Self {
        let host_workers = config.host_workers.max(1);
        Device {
            config,
            model: model.into(),
            buffers: Vec::new(),
            tags: Vec::new(),
            buffer_bytes: Vec::new(),
            free_slots: Vec::new(),
            pool: MemPool::default(),
            allocated_bytes: 0,
            peak_allocated_bytes: 0,
            sim_time_us: 0.0,
            stream_tail_us: vec![0.0],
            engine_free_us: [0.0; ENGINE_COUNT],
            host_workers,
            memo: None,
            profiler: Profiler::new(),
        }
    }

    /// The paper's GTX480 with its calibration.
    pub fn gtx480() -> Self {
        Device::new(DeviceConfig::gtx480(), Calibration::gtx480())
    }

    /// Device configuration.
    pub fn config(&self) -> &DeviceConfig {
        &self.config
    }

    /// The cost model pricing this device's simulated time.
    pub fn cost_model(&self) -> &CostModel {
        &self.model
    }

    /// Number of host threads used to execute launches.
    pub fn set_host_workers(&mut self, workers: usize) {
        self.host_workers = workers.max(1);
    }

    /// Serve kernel launches through `memo` (see [`crate::memo`]): a launch
    /// the memo has recorded copies its stored results instead of being
    /// interpreted. Simulated time is unchanged, since the cost model still
    /// prices every launch from its stats. No memo is installed by default.
    pub fn set_launch_memo(&mut self, memo: LaunchMemo) {
        self.tags.fill(None);
        self.memo = Some(memo);
    }

    /// The host-visible simulated clock, µs since device creation.
    ///
    /// Blocking calls advance it; asynchronous enqueues do not until the
    /// stream (or device) is synchronised.
    pub fn now_us(&self) -> f64 {
        self.sim_time_us
    }

    // ------------------------------------------------------------------
    // Stream management
    // ------------------------------------------------------------------

    /// Streams `0..n` (the default stream first), creating only the ones
    /// that do not exist yet (`cudaStreamCreate` / `clCreateCommandQueue`):
    /// lane `k` of every batch and every replay runs on stream `k`, so a
    /// device keeps one stream set however many jobs it serves.
    pub fn lane_streams(&mut self, n: usize) -> Vec<StreamId> {
        if self.stream_tail_us.len() < n {
            self.stream_tail_us.resize(n, self.sim_time_us);
        }
        (0..n).map(StreamId).collect()
    }

    /// Number of streams, including the default stream.
    pub fn stream_count(&self) -> usize {
        self.stream_tail_us.len()
    }

    pub(crate) fn stream_tail(&self, stream: StreamId) -> Result<f64, SimError> {
        self.stream_tail_us.get(stream.0).copied().ok_or(SimError::UnknownStream { id: stream.0 })
    }

    /// Block the host until every stream drains (`cudaDeviceSynchronize`);
    /// returns the new host clock — the makespan of all enqueued work.
    pub fn synchronize(&mut self) -> f64 {
        for &tail in &self.stream_tail_us {
            if tail > self.sim_time_us {
                self.sim_time_us = tail;
            }
        }
        self.sim_time_us
    }

    /// Schedule one operation of duration `us` on `stream`: resolve its
    /// profiler slot, then charge it ([`Device::schedule_slot`]).
    pub(crate) fn schedule_on(
        &mut self,
        name: &str,
        class: OpClass,
        stream: StreamId,
        us: f64,
    ) -> Result<(), SimError> {
        self.stream_tail(stream)?;
        let slot = self.profiler.slot(name, class);
        self.schedule_slot(slot, stream, us);
        Ok(())
    }

    /// Schedule one charge of the profiler's `slot`, of duration `us`, on
    /// `stream`, which must exist ([`Device::stream_tail`]).
    ///
    /// The operation starts when its stream has drained, its engine is free,
    /// and the host has enqueued it (`start = max(stream tail, engine free,
    /// host clock)`); both the stream and the engine then advance to its
    /// completion. With a single stream every `max` resolves to the stream
    /// tail, so the timeline degenerates to exactly the serial clock the
    /// synchronous API always had.
    pub(crate) fn schedule_slot(&mut self, slot: Slot, stream: StreamId, us: f64) {
        let engine = Engine::of_class(slot.class()) as usize;
        let start =
            self.stream_tail_us[stream.0].max(self.engine_free_us[engine]).max(self.sim_time_us);
        let end = start + us;
        self.stream_tail_us[stream.0] = end;
        self.engine_free_us[engine] = end;
        self.profiler.charge(slot, stream.0, start, us);
    }

    /// Advance the simulated clock by a blocking host-side cost and record it.
    pub fn charge_host(&mut self, name: &str, us: f64) {
        self.charge_host_on(name, us, StreamId::DEFAULT).expect("default stream always exists");
        self.sim_time_us = self.stream_tail_us[StreamId::DEFAULT.0];
    }

    /// Schedule host-side work of duration `us` on a stream's timeline
    /// without blocking the enqueueing host clock (a host step inside a
    /// pipelined frame).
    pub fn charge_host_on(
        &mut self,
        name: &str,
        us: f64,
        stream: StreamId,
    ) -> Result<(), SimError> {
        self.schedule_on(name, OpClass::Host, stream, us)
    }

    /// Bytes of device memory held by live buffers.
    pub fn allocated_bytes(&self) -> usize {
        self.allocated_bytes
    }

    /// Bytes of device memory occupied overall: live buffers plus blocks the
    /// pool has cached for reuse (cached blocks are real device memory — the
    /// driver has not seen them freed).
    pub fn footprint_bytes(&self) -> usize {
        self.allocated_bytes + self.pool.cached_bytes
    }

    /// High-water mark of [`Device::footprint_bytes`] over the device's
    /// lifetime — the footprint measure behind WLF's "renders allocation of
    /// intermediate arrays in memory unnecessary".
    pub fn peak_allocated_bytes(&self) -> usize {
        self.peak_allocated_bytes
    }

    /// The pooling allocator (read-only).
    pub fn pool(&self) -> &MemPool {
        &self.pool
    }

    /// Enable or disable the size-class pooling allocator. Disabling first
    /// trims every cached block back to the driver (charging per-block
    /// `cudaFree` when calibrated), so naive and pooled runs never share
    /// hidden state.
    pub fn set_pool_enabled(&mut self, enabled: bool) {
        if !enabled {
            self.trim_pool();
        }
        self.pool.enabled = enabled;
    }

    /// Release every pool-cached block back to the driver.
    pub fn trim_pool(&mut self) {
        self.trim_pool_to(0);
    }

    /// Evict cached blocks (largest class first) until at most
    /// `target_bytes` remain cached, charging one `cudaFree` per eviction.
    fn trim_pool_to(&mut self, target_bytes: usize) {
        while self.pool.cached_bytes > target_bytes {
            if self.pool.evict_one().is_none() {
                break;
            }
            self.profiler.alloc.evictions += 1;
            self.charge_driver_call("cudaFree", self.model.free_us());
        }
        self.note_footprint();
    }

    /// A synchronizing driver call (Fermi `cudaMalloc`/`cudaFree`): when the
    /// calibrated cost is non-zero, every stream is drained — malloc on Fermi
    /// is an implicit `cudaDeviceSynchronize` — and the call blocks the host
    /// for `us`. At zero cost the call is free *and invisible*: no sync, no
    /// profiler record, so zero-cost calibrations reproduce the pre-costed
    /// timelines bit-for-bit.
    fn charge_driver_call(&mut self, name: &str, us: f64) {
        if us > 0.0 {
            self.synchronize();
            self.charge_host(name, us);
        }
    }

    /// Update footprint watermarks (device + profiler observation window).
    fn note_footprint(&mut self) {
        let footprint = self.footprint_bytes();
        self.peak_allocated_bytes = self.peak_allocated_bytes.max(footprint);
        self.profiler.alloc.current_bytes = footprint;
        self.profiler.alloc.peak_bytes = self.profiler.alloc.peak_bytes.max(footprint);
    }

    /// Place `data` in a buffer slot, charging `bytes` against device memory.
    fn install(&mut self, data: Vec<i32>, bytes: usize) -> BufferId {
        self.allocated_bytes += bytes;
        let id = if let Some(slot) = self.free_slots.pop() {
            self.buffers[slot] = Some(data);
            self.tags[slot] = None;
            self.buffer_bytes[slot] = bytes;
            slot
        } else {
            self.buffers.push(Some(data));
            self.tags.push(None);
            self.buffer_bytes.push(bytes);
            self.buffers.len() - 1
        };
        self.note_footprint();
        BufferId(id)
    }

    /// Allocate a buffer of `len` 32-bit elements (zero-initialised, as a
    /// deterministic stand-in for `cudaMalloc`).
    ///
    /// With pooling enabled the request is rounded up to its power-of-two
    /// size class and served from the cache when a block of that class is
    /// available — a pool hit is a host-side pointer pop that charges no
    /// simulated time. Requests that reach the (simulated) driver charge
    /// [`Calibration::malloc_us`] and device-synchronize all streams first,
    /// as `cudaMalloc` does on Fermi; under memory pressure, pool-cached
    /// blocks are evicted (largest class first) before giving up with
    /// [`SimError::OutOfMemory`].
    pub fn malloc(&mut self, len: usize) -> Result<BufferId, SimError> {
        let bytes = if self.pool.enabled {
            MemPool::class_len(len).and_then(|class| class.checked_mul(4))
        } else {
            len.checked_mul(4)
        }
        .ok_or(SimError::AllocTooLarge { len })?;

        if self.pool.enabled {
            if let Some(mut block) = self.pool.take(bytes / 4) {
                // Recycled blocks come back zeroed, exactly like a fresh
                // malloc, so pooled and naive runs stay bit-identical.
                block.clear();
                block.resize(len, 0);
                self.profiler.alloc.pool_hits += 1;
                return Ok(self.install(block, bytes));
            }
            self.profiler.alloc.pool_misses += 1;
        }

        if self.footprint_bytes() + bytes > self.config.global_mem_bytes {
            let target = self.config.global_mem_bytes.saturating_sub(self.allocated_bytes + bytes);
            self.trim_pool_to(target);
        }
        if self.footprint_bytes() + bytes > self.config.global_mem_bytes {
            return Err(SimError::OutOfMemory {
                requested: bytes,
                available: self.config.global_mem_bytes.saturating_sub(self.footprint_bytes()),
            });
        }
        self.charge_driver_call("cudaMalloc", self.model.malloc_us());
        self.profiler.alloc.mallocs += 1;
        Ok(self.install(vec![0i32; len], bytes))
    }

    /// Release a buffer.
    ///
    /// With pooling enabled the block is cached in its size-class bin for
    /// reuse — no driver call, no simulated time. Otherwise it returns to
    /// the driver, charging [`Calibration::free_us`] (with the Fermi device
    /// sync) when calibrated.
    pub fn free(&mut self, id: BufferId) -> Result<(), SimError> {
        match self.buffers.get_mut(id.0) {
            Some(slot @ Some(_)) => {
                let block = slot.take().expect("matched Some above");
                self.tags[id.0] = None;
                let bytes = self.buffer_bytes[id.0];
                self.allocated_bytes -= bytes;
                self.free_slots.push(id.0);
                self.profiler.alloc.frees += 1;
                if self.pool.enabled {
                    self.pool.put(bytes / 4, block);
                } else {
                    self.charge_driver_call("cudaFree", self.model.free_us());
                }
                self.note_footprint();
                Ok(())
            }
            _ => Err(SimError::UnknownBuffer { id: id.0 }),
        }
    }

    /// Length (in elements) of a buffer.
    pub fn buffer_len(&self, id: BufferId) -> Result<usize, SimError> {
        self.buffers
            .get(id.0)
            .and_then(|b| b.as_ref())
            .map(|b| b.len())
            .ok_or(SimError::UnknownBuffer { id: id.0 })
    }

    /// Read a buffer without charging time (test/verification escape hatch).
    pub fn peek(&self, id: BufferId) -> Result<&[i32], SimError> {
        self.buffers
            .get(id.0)
            .and_then(|b| b.as_ref())
            .map(|b| b.as_slice())
            .ok_or(SimError::UnknownBuffer { id: id.0 })
    }

    /// Overwrite a buffer without charging time (test escape hatch).
    #[cfg(test)]
    pub(crate) fn poke(&mut self, id: BufferId, data: &[i32]) -> Result<(), SimError> {
        let buf = self
            .buffers
            .get_mut(id.0)
            .and_then(|b| b.as_mut())
            .ok_or(SimError::UnknownBuffer { id: id.0 })?;
        if buf.len() != data.len() {
            return Err(SimError::TransferSize { host: data.len(), device: buf.len() });
        }
        buf.copy_from_slice(data);
        self.tags[id.0] = None;
        Ok(())
    }

    /// Copy host data into a device buffer — the `host2device` instruction
    /// the SaC backend inserts, or OpenCL's `clEnqueueWriteBuffer`: a
    /// one-chunk [`Device::host2device_on`] on the default stream that then
    /// blocks the host clock.
    pub fn host2device(&mut self, host: &[i32], id: BufferId) -> Result<(), SimError> {
        self.host2device_on(host, id, 1, StreamId::DEFAULT)?;
        self.sim_time_us = self.stream_tail_us[StreamId::DEFAULT.0];
        Ok(())
    }

    /// Enqueue an upload on `stream` as `chunks` back-to-back transfers of
    /// equal size — the per-plane streaming a host runtime does for
    /// multi-channel frames (each chunk pays the transfer latency and is one
    /// `memcpyHtoDasync` profiler call) — and return without advancing the
    /// host clock (`cudaMemcpyAsync`). Returns the number of transfers
    /// actually issued, so callers accounting transfer counts report what
    /// the engine saw, not what was requested.
    ///
    /// The host side is any integer slice that widens to `i64`: `&[i32]`
    /// copies as is, and the scheduler's `&[i64]` host values are narrowed
    /// to device `int`s inside the one copy into the buffer, with no staging
    /// vector. A value outside the `i32` range refuses the whole transfer
    /// with [`SimError::Overflow`] naming the first such element.
    ///
    /// Chunking rule: `chunks` is honoured only when it is greater than 1
    /// *and* divides `host.len()` exactly; any other request degrades to a
    /// single chunk. Because that changes the profiled op count, the
    /// downgrade is recorded as a profiler note rather than happening
    /// silently.
    ///
    /// Every check (stream, size, range) runs before anything is charged,
    /// and the copy is committed only after the schedule succeeded: a
    /// refused upload leaves the buffer, the records and the clock as they
    /// were. The copy itself is performed eagerly — buffers always hold the
    /// result of every enqueued operation in enqueue order, so correctness
    /// of an overlapped schedule is the *timing* model's concern only,
    /// exactly as when double-buffering keeps real streams race-free.
    pub fn host2device_on<T: Copy + Into<i64>>(
        &mut self,
        host: &[T],
        id: BufferId,
        chunks: usize,
        stream: StreamId,
    ) -> Result<usize, SimError> {
        self.stream_tail(stream)?;
        self.check_upload(host, id)?;
        let chunks = self.effective_chunks(host.len(), chunks);
        let bytes = host.len() * 4 / chunks;
        for _ in 0..chunks {
            let us = self.model.transfer_time_us(bytes, Direction::HostToDevice);
            self.schedule_on("memcpyHtoDasync", OpClass::H2D, stream, us)?;
        }
        self.commit_upload(host, id);
        Ok(chunks)
    }

    /// Upload several host arrays in one batched transfer (`cudaMemcpy` of a
    /// packed staging area): every part is validated first — size, then
    /// range, part by part in order — then the whole batch is charged as a
    /// *single* H2D operation whose byte count is the sum of the parts — one
    /// transfer latency instead of one per part. Each part narrows into its
    /// buffer as in [`Device::host2device_on`].
    ///
    /// Recorded under `memcpyHtoDbatched` so batched traffic is separable
    /// from the per-array `memcpyHtoDasync` calls in profiles.
    pub fn host2device_batch_on<T: Copy + Into<i64>>(
        &mut self,
        parts: &[(&[T], BufferId)],
        stream: StreamId,
    ) -> Result<(), SimError> {
        self.stream_tail(stream)?;
        let mut total = 0usize;
        for &(host, id) in parts {
            self.check_upload(host, id)?;
            total += host.len();
        }
        if parts.is_empty() {
            return Ok(());
        }
        let us = self.model.transfer_time_us(total * 4, Direction::HostToDevice);
        self.schedule_on("memcpyHtoDbatched", OpClass::H2D, stream, us)?;
        for &(host, id) in parts {
            self.commit_upload(host, id);
        }
        Ok(())
    }

    /// Every check an upload of `host` into `id` makes before it is
    /// charged: the buffer exists, the lengths agree, and every value fits
    /// a device `int`. The range check reads the host slice in place; for
    /// `i32` hosts it is trivially true.
    fn check_upload<T: Copy + Into<i64>>(&self, host: &[T], id: BufferId) -> Result<(), SimError> {
        let dev_len = self.buffer_len(id)?;
        if dev_len != host.len() {
            return Err(SimError::TransferSize { host: host.len(), device: dev_len });
        }
        // `v` fits exactly when `v + 2^31` (mod 2^64) has no bit above bit
        // 31: an add, a shift and an OR per value, which the compiler
        // vectorises with baseline SSE2. The first offender is looked up
        // only on the error path.
        let high = |v: i64| (v as u64).wrapping_add(1 << 31) >> 32;
        if host.iter().fold(0, |acc, &v| acc | high(v.into())) == 0 {
            return Ok(());
        }
        let value = host.iter().map(|&v| v.into()).find(|&v| high(v) != 0).expect("fold saw one");
        Err(SimError::Overflow { value })
    }

    /// The functional half of an upload [`Device::check_upload`] accepted:
    /// one narrowing copy from the host slice into the buffer.
    fn commit_upload<T: Copy + Into<i64>>(&mut self, host: &[T], id: BufferId) {
        let buf = self.buffers[id.0].as_mut().expect("validated by check_upload");
        for (d, &v) in buf.iter_mut().zip(host) {
            *d = v.into() as i32;
        }
        self.tags[id.0] = None;
    }

    /// Read several device buffers back in one batched transfer — the D2H
    /// counterpart of [`Device::host2device_batch_on`]. One D2H operation is
    /// charged for the summed bytes; the returned vectors are in `ids` order,
    /// each widened from the buffer as in [`Device::device2host_on`].
    ///
    /// Recorded under `memcpyDtoHbatched`.
    pub fn device2host_batch_on<T: From<i32>>(
        &mut self,
        ids: &[BufferId],
        stream: StreamId,
    ) -> Result<Vec<Vec<T>>, SimError> {
        self.stream_tail(stream)?;
        let mut total = 0usize;
        for &id in ids {
            total += self.buffer_len(id)?;
        }
        if ids.is_empty() {
            return Ok(Vec::new());
        }
        let us = self.model.transfer_time_us(total * 4, Direction::DeviceToHost);
        self.schedule_on("memcpyDtoHbatched", OpClass::D2H, stream, us)?;
        ids.iter().map(|&id| self.widen(id)).collect()
    }

    /// A buffer's contents as a host vector: one widening copy.
    fn widen<T: From<i32>>(&self, id: BufferId) -> Result<Vec<T>, SimError> {
        Ok(self.peek(id)?.iter().map(|&v| T::from(v)).collect())
    }

    /// The chunking rule shared by both chunked transfers, with the
    /// `chunks -> 1` downgrade surfaced as a profiler note.
    fn effective_chunks(&mut self, len: usize, chunks: usize) -> usize {
        if chunks <= 1 {
            1
        } else if len.is_multiple_of(chunks) {
            chunks
        } else {
            self.profiler.note(format!(
                "chunked transfer fell back to 1 chunk: length {len} is not divisible by {chunks}"
            ));
            1
        }
    }

    /// Copy a device buffer back to the host — `device2host` /
    /// `clEnqueueReadBuffer`: a one-chunk [`Device::device2host_on`] on the
    /// default stream that then blocks the host clock.
    pub fn device2host(&mut self, id: BufferId) -> Result<Vec<i32>, SimError> {
        let (out, _) = self.device2host_on(id, 1, StreamId::DEFAULT)?;
        self.sim_time_us = self.stream_tail_us[StreamId::DEFAULT.0];
        Ok(out)
    }

    /// Enqueue a readback on `stream` as `chunks` transfers, recorded under
    /// `memcpyDtoHasync`. The returned data is the buffer contents at
    /// enqueue time, widened straight into the host element type (`i32` or
    /// the scheduler's `i64`) in one copy, paired with the number of
    /// transfers actually issued; the host clock is not advanced —
    /// synchronise the stream before *using* the data at a simulated time.
    ///
    /// Chunking follows the same rule as [`Device::host2device_on`]:
    /// honoured only when `chunks > 1` divides the length exactly, with the
    /// downgrade to a single chunk recorded as a profiler note.
    pub fn device2host_on<T: From<i32>>(
        &mut self,
        id: BufferId,
        chunks: usize,
        stream: StreamId,
    ) -> Result<(Vec<T>, usize), SimError> {
        self.stream_tail(stream)?;
        let len = self.buffer_len(id)?;
        let chunks = self.effective_chunks(len, chunks);
        let bytes = len * 4 / chunks;
        for _ in 0..chunks {
            let us = self.model.transfer_time_us(bytes, Direction::DeviceToHost);
            self.schedule_on("memcpyDtoHasync", OpClass::D2H, stream, us)?;
        }
        Ok((self.widen(id)?, chunks))
    }

    /// Launch a kernel: a [`Device::launch_on`] on the default stream, with
    /// no access description, that then blocks the host clock.
    pub fn launch(
        &mut self,
        kernel: &Kernel,
        cfg: LaunchConfig,
        args: &[KernelArg],
    ) -> Result<LaunchStats, SimError> {
        let stats = self.launch_on(kernel, cfg, args, StreamId::DEFAULT, None)?;
        self.sim_time_us = self.stream_tail_us[StreamId::DEFAULT.0];
        Ok(stats)
    }

    /// Enqueue a kernel launch on `stream` (`kernel<<<grid, block, 0,
    /// stream>>>`): the kernel runs functionally now (buffers are updated),
    /// its simulated time — the cost model applied to the dynamic counters —
    /// is scheduled on the compute engine, and the host clock is not
    /// advanced. Stats are returned for inspection.
    ///
    /// `access` is the launch's tiled-access description, when the caller
    /// (the plan scheduler) knows it. It is advisory context for
    /// occupancy/coalescing-aware cost models — the paper-faithful
    /// [`Calibration`] ignores it, so passing it is observationally
    /// invisible under the default model.
    pub fn launch_on(
        &mut self,
        kernel: &Kernel,
        cfg: LaunchConfig,
        args: &[KernelArg],
        stream: StreamId,
        access: Option<&TiledAccess>,
    ) -> Result<LaunchStats, SimError> {
        self.stream_tail(stream)?;
        let block_threads = (cfg.block.0 as usize) * (cfg.block.1 as usize);
        if block_threads > self.config.max_threads_per_block {
            return Err(SimError::InvalidLaunchConfig {
                kernel: kernel.name.clone(),
                grid: cfg.grid,
                block: cfg.block,
            });
        }
        let stats = match &self.memo {
            Some(memo) => memo.launch(
                kernel,
                cfg,
                args,
                &mut self.buffers,
                &mut self.tags,
                self.host_workers,
            )?,
            None => {
                untag_written(kernel, args, &mut self.tags);
                run_kernel(kernel, cfg, args, &mut self.buffers, self.host_workers)?
            }
        };
        let us = self.model.kernel_time_us(&stats, &self.config, access);
        self.schedule_on(&kernel.name, OpClass::Kernel, stream, us)?;
        Ok(stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kir::{BinOp, KernelBuilder, KernelFlavor, Special};

    fn inc_kernel() -> Kernel {
        let mut b = KernelBuilder::new("inc", KernelFlavor::Cuda);
        let x = b.buffer_param("x", true);
        let n = b.scalar_param("n");
        let gid = b.special(Special::GlobalIdX);
        let nv = b.param_value(n);
        let ok = b.bin(BinOp::Lt, gid, nv);
        b.begin_if(ok);
        let v = b.load(x, gid);
        let one = b.constant(1);
        let w = b.bin(BinOp::Add, v, one);
        b.store(x, gid, w);
        b.end_if();
        b.finish()
    }

    #[test]
    fn oversized_block_is_rejected() {
        let mut d = Device::gtx480();
        let x = d.malloc(4).unwrap();
        let cfg = LaunchConfig { grid: (1, 1), block: (64, 32) };
        let err = d
            .launch(&inc_kernel(), cfg, &[KernelArg::Buffer(x.0), KernelArg::Scalar(4)])
            .unwrap_err();
        let expected =
            SimError::InvalidLaunchConfig { kernel: "inc".into(), grid: (1, 1), block: (64, 32) };
        assert_eq!(err, expected);
    }

    #[test]
    fn malloc_free_tracks_allocation() {
        let mut d = Device::new(DeviceConfig::toy(1024), Calibration::zero());
        let a = d.malloc(100).unwrap(); // 400 bytes
        let b = d.malloc(100).unwrap();
        assert_eq!(d.allocated_bytes(), 800);
        assert!(matches!(d.malloc(100), Err(SimError::OutOfMemory { .. })));
        d.free(a).unwrap();
        assert_eq!(d.allocated_bytes(), 400);
        let c = d.malloc(100).unwrap();
        // Slot is recycled.
        assert_eq!(c, a);
        d.free(b).unwrap();
        d.free(c).unwrap();
        assert!(d.free(c).is_err());
    }

    #[test]
    fn overflowing_malloc_is_rejected_not_wrapped() {
        // len * 4 would wrap in release mode and pass the capacity check; the
        // checked path must reject it before `vec![0; len]` aborts.
        let mut d = Device::new(DeviceConfig::toy(1024), Calibration::zero());
        let err = d.malloc(usize::MAX / 2);
        assert!(matches!(err, Err(SimError::AllocTooLarge { .. })), "{err:?}");
        assert_eq!(d.allocated_bytes(), 0);
        // Same guard with pooling (the size class itself can overflow).
        d.set_pool_enabled(true);
        assert!(matches!(d.malloc(usize::MAX - 1), Err(SimError::AllocTooLarge { .. })));
    }

    #[test]
    fn pool_reuses_freed_blocks() {
        let mut d = Device::new(DeviceConfig::toy(4096), Calibration::zero());
        d.set_pool_enabled(true);
        let a = d.malloc(100).unwrap(); // class 128 -> 512 B charged
        assert_eq!(d.allocated_bytes(), 512);
        d.poke(a, &vec![7; 100]).unwrap();
        d.free(a).unwrap();
        // Freed block is cached, not returned to the driver.
        assert_eq!(d.allocated_bytes(), 0);
        assert_eq!(d.pool().cached_bytes(), 512);
        assert_eq!(d.footprint_bytes(), 512);
        // Same class (even a different length) is a hit and comes back zeroed.
        let b = d.malloc(128).unwrap();
        assert!(d.peek(b).unwrap().iter().all(|&v| v == 0));
        assert_eq!(d.pool().cached_bytes(), 0);
        let st = &d.profiler.alloc;
        assert_eq!((st.mallocs, st.frees, st.pool_hits, st.pool_misses), (1, 1, 1, 1));
    }

    #[test]
    fn pool_evicts_under_pressure_before_oom() {
        let mut d = Device::new(DeviceConfig::toy(2048), Calibration::zero());
        d.set_pool_enabled(true);
        let a = d.malloc(256).unwrap(); // 1024 B
        d.free(a).unwrap(); // cached
        assert_eq!(d.pool().cached_bytes(), 1024);
        // 512 elements = 2048 B: only fits if the cached block is evicted.
        let b = d.malloc(512).unwrap();
        assert_eq!(d.pool().cached_bytes(), 0);
        assert_eq!(d.profiler.alloc.evictions, 1);
        assert_eq!(d.allocated_bytes(), 2048);
        // And a request that cannot fit even after trimming still errors.
        assert!(matches!(d.malloc(1), Err(SimError::OutOfMemory { .. })));
        d.free(b).unwrap();
    }

    #[test]
    fn malloc_charges_calibrated_cost_and_synchronizes() {
        let mut d = Device::new(DeviceConfig::gtx480(), Calibration::gtx480_alloc());
        let malloc_us = d.cost_model().malloc_us();
        // Pending async work on a second stream...
        let s = d.lane_streams(2)[1];
        d.charge_host_on("producer", 500.0, s).unwrap();
        assert_eq!(d.now_us(), 0.0);
        // ...is drained by the Fermi-style device-sync in cudaMalloc.
        let buf = d.malloc(16).unwrap();
        assert_eq!(d.now_us(), 500.0 + malloc_us);
        let rec = d.profiler.records().find(|r| &*r.name == "cudaMalloc").unwrap();
        assert_eq!(rec.calls, 1);
        // cudaFree charges and records too.
        d.free(buf).unwrap();
        assert_eq!(d.now_us(), 500.0 + malloc_us + d.cost_model().free_us());
        assert!(d.profiler.records().any(|r| &*r.name == "cudaFree"));
    }

    #[test]
    fn pool_hits_charge_nothing() {
        let mut d = Device::new(DeviceConfig::gtx480(), Calibration::gtx480_alloc());
        d.set_pool_enabled(true);
        let a = d.malloc(64).unwrap(); // miss: pays cudaMalloc
        let after_miss = d.now_us();
        assert!(after_miss > 0.0);
        d.free(a).unwrap(); // cached: no cudaFree
        assert_eq!(d.now_us(), after_miss);
        let b = d.malloc(64).unwrap(); // hit: free
        assert_eq!(d.now_us(), after_miss);
        assert_eq!(d.profiler.alloc.pool_hits, 1);
        d.free(b).unwrap();
    }

    #[test]
    fn zero_cost_allocation_is_invisible() {
        // The paper calibration charges no allocation: no clock movement, no
        // profiler records, exactly the pre-costed behaviour.
        let mut d = Device::gtx480();
        let buf = d.malloc(100).unwrap();
        d.free(buf).unwrap();
        assert_eq!(d.now_us(), 0.0);
        assert_eq!(d.profiler.records().count(), 0);
        // Events are still counted for observability.
        assert_eq!(d.profiler.alloc.mallocs, 1);
        assert_eq!(d.profiler.alloc.frees, 1);
    }

    #[test]
    fn failed_upload_leaves_buffer_and_timeline_untouched() {
        let mut d = Device::gtx480();
        let buf = d.malloc(4).unwrap();
        d.poke(buf, &[9, 9, 9, 9]).unwrap();
        // Size mismatch and unknown stream both fail before any mutation.
        assert!(d.host2device(&[1, 2, 3], buf).is_err());
        assert!(d.host2device_on(&[1, 2, 3, 4], buf, 1, StreamId(7)).is_err());
        // A wide host value out of the device int's range refuses the whole
        // upload, naming the first offender.
        let wide = [1, i64::from(i32::MIN) - 1, i64::from(i32::MAX) + 1, 4];
        let err = d.host2device_on(&wide, buf, 2, StreamId::DEFAULT);
        assert_eq!(err, Err(SimError::Overflow { value: i64::from(i32::MIN) - 1 }));
        assert_eq!(d.peek(buf).unwrap(), &[9, 9, 9, 9]);
        assert_eq!(d.profiler.records().count(), 0);
        assert_eq!(d.now_us(), 0.0);
    }

    #[test]
    fn upload_range_check_agrees_with_try_from() {
        let mut d = Device::gtx480();
        let buf = d.malloc(1).unwrap();
        let edges = [0, 1, 1 << 31, 1 << 32, (1 << 32) + 1, (1 << 31) + (1 << 32), i64::MAX];
        for v in edges.into_iter().flat_map(|e: i64| [e, e - 1, e.wrapping_neg(), -e - 1]) {
            let up = d.host2device_on(&[v], buf, 1, StreamId::DEFAULT);
            match i32::try_from(v) {
                Ok(narrow) => {
                    assert_eq!(up, Ok(1), "{v}");
                    assert_eq!(d.peek(buf).unwrap(), &[narrow]);
                }
                Err(_) => assert_eq!(up, Err(SimError::Overflow { value: v })),
            }
        }
    }

    #[test]
    fn chunk_fallback_is_noted_not_silent() {
        let mut d = Device::gtx480();
        let buf = d.malloc(10).unwrap();
        // 10 elements cannot split into 3 equal chunks: one transfer, one note.
        d.host2device_on(&[0; 10], buf, 3, StreamId::DEFAULT).unwrap();
        let rec = d.profiler.records().find(|r| &*r.name == "memcpyHtoDasync").unwrap();
        assert_eq!(rec.calls, 1);
        let notes: Vec<&str> = d.profiler.notes().collect();
        assert_eq!(notes.len(), 1);
        assert!(notes[0].contains("fell back to 1 chunk"), "{notes:?}");
        // The divisible case is honoured without a note.
        d.device2host_on::<i32>(buf, 2, StreamId::DEFAULT).unwrap();
        assert_eq!(d.profiler.notes().count(), 1);
    }

    #[test]
    fn chunked_transfers_report_actual_counts() {
        let mut d = Device::gtx480();
        let buf = d.malloc(12).unwrap();
        // Divisible: honoured.
        assert_eq!(d.host2device_on(&[1; 12], buf, 3, StreamId::DEFAULT).unwrap(), 3);
        // Not divisible: falls back to one transfer, and says so.
        assert_eq!(d.host2device_on(&[2; 12], buf, 5, StreamId::DEFAULT).unwrap(), 1);
        let (out, issued) = d.device2host_on::<i32>(buf, 5, StreamId::DEFAULT).unwrap();
        assert_eq!(out, vec![2; 12]);
        assert_eq!(issued, 1);
        d.synchronize();
    }

    #[test]
    fn batched_transfers_charge_one_operation_for_summed_bytes() {
        let mut d = Device::gtx480();
        let a = d.malloc(1000).unwrap();
        let b = d.malloc(3000).unwrap();
        let da: Vec<i32> = (0..1000).collect();
        let db: Vec<i32> = (0..3000).collect();
        d.host2device_batch_on(&[(&da, a), (&db, b)], StreamId::DEFAULT).unwrap();
        let rec = d.profiler.records().find(|r| &*r.name == "memcpyHtoDbatched").unwrap();
        assert_eq!(rec.calls, 1);
        // One latency for the whole batch: cheaper than two separate uploads.
        let model = *d.cost_model();
        let separate = model.transfer_time_us(4000, Direction::HostToDevice)
            + model.transfer_time_us(12000, Direction::HostToDevice);
        let batched = model.transfer_time_us(16000, Direction::HostToDevice);
        assert!((rec.total_us - batched).abs() < 1e-9);
        assert!(batched < separate);
        let outs = d.device2host_batch_on::<i32>(&[a, b], StreamId::DEFAULT).unwrap();
        assert_eq!(outs, vec![da, db]);
        assert_eq!(
            d.profiler.records().find(|r| &*r.name == "memcpyDtoHbatched").unwrap().calls,
            1
        );
        d.synchronize();
    }

    #[test]
    fn failed_batch_upload_mutates_nothing() {
        let mut d = Device::gtx480();
        let a = d.malloc(4).unwrap();
        let b = d.malloc(4).unwrap();
        d.poke(a, &[9, 9, 9, 9]).unwrap();
        // Second part has a size mismatch: the whole batch must be rejected
        // before any copy or charge happens.
        let good: Vec<i32> = vec![1, 2, 3, 4];
        let bad: Vec<i32> = vec![1, 2, 3];
        assert!(d.host2device_batch_on(&[(&good, a), (&bad, b)], StreamId::DEFAULT).is_err());
        assert_eq!(d.peek(a).unwrap(), &[9, 9, 9, 9]);
        // So does a later part out of the device int's range.
        let wide: [&[i64]; 2] = [&[1, 2, 3, 4], &[5, i64::from(i32::MAX) + 1, 7, 8]];
        let err = d.host2device_batch_on(&[(wide[0], a), (wide[1], b)], StreamId::DEFAULT);
        assert_eq!(err, Err(SimError::Overflow { value: i64::from(i32::MAX) + 1 }));
        assert_eq!(d.peek(a).unwrap(), &[9, 9, 9, 9]);
        assert_eq!(d.profiler.records().count(), 0);
        // Empty batch is a no-op, not a zero-byte transfer.
        d.host2device_batch_on::<i32>(&[], StreamId::DEFAULT).unwrap();
        assert!(d.device2host_batch_on::<i32>(&[], StreamId::DEFAULT).unwrap().is_empty());
        assert_eq!(d.profiler.records().count(), 0);
    }

    #[test]
    fn transfers_roundtrip_and_charge_time() {
        let mut d = Device::gtx480();
        let buf = d.malloc(1000).unwrap();
        let host: Vec<i32> = (0..1000).collect();
        let t0 = d.now_us();
        d.host2device(&host, buf).unwrap();
        assert!(d.now_us() > t0);
        let back = d.device2host(buf).unwrap();
        assert_eq!(back, host);
        // Wide hosts narrow on the way up and widen on the way down, exact
        // at both ends of the device int's range.
        let wide: Vec<i64> =
            (0..1000).map(|i| if i % 2 == 0 { i32::MIN } else { i32::MAX }.into()).collect();
        d.host2device_on(&wide, buf, 1, StreamId::DEFAULT).unwrap();
        assert_eq!(d.device2host_on::<i64>(buf, 1, StreamId::DEFAULT).unwrap().0, wide);
        assert_eq!(d.profiler.records().count(), 2);
    }

    #[test]
    fn transfer_size_mismatch_rejected() {
        let mut d = Device::gtx480();
        let buf = d.malloc(10).unwrap();
        assert!(matches!(d.host2device(&[1, 2, 3], buf), Err(SimError::TransferSize { .. })));
    }

    #[test]
    fn launch_executes_and_profiles() {
        let mut d = Device::gtx480();
        let buf = d.malloc(64).unwrap();
        d.poke(buf, &vec![5i32; 64]).unwrap();
        let k = inc_kernel();
        let stats = d
            .launch(
                &k,
                LaunchConfig::cover_1d(64, 32),
                &[KernelArg::Buffer(buf.0), KernelArg::Scalar(64)],
            )
            .unwrap();
        assert_eq!(stats.stores, 64);
        assert!(d.peek(buf).unwrap().iter().all(|&v| v == 6));
        assert!(d.now_us() >= Calibration::gtx480().kernel_launch_us);
        let rec: Vec<_> = d.profiler.records().collect();
        assert_eq!(&*rec[0].name, "inc");
        assert_eq!(rec[0].calls, 1);
    }

    #[test]
    fn oversized_block_rejected() {
        let mut d = Device::gtx480();
        let buf = d.malloc(16).unwrap();
        let k = inc_kernel();
        let err = d.launch(
            &k,
            LaunchConfig { grid: (1, 1), block: (2048, 1) },
            &[KernelArg::Buffer(buf.0), KernelArg::Scalar(16)],
        );
        assert!(err.is_err());
    }

    #[test]
    fn charge_host_advances_clock() {
        let mut d = Device::gtx480();
        d.charge_host("generic_output_tiler(host)", 123.0);
        assert_eq!(d.now_us(), 123.0);
        assert_eq!(d.profiler.class_total_us(OpClass::Host), 123.0);
    }

    #[test]
    fn host_workers_come_from_config_not_machine() {
        let cfg = DeviceConfig::gtx480();
        assert_eq!(cfg.host_workers, super::DEFAULT_HOST_WORKERS);
        let d = Device::gtx480();
        // Two devices created anywhere agree on the execution worker count.
        assert_eq!(d.config().host_workers, DeviceConfig::gtx480().host_workers);
    }

    #[test]
    fn async_enqueue_does_not_advance_host_clock() {
        let mut d = Device::gtx480();
        let buf = d.malloc(1000).unwrap();
        let s = d.lane_streams(2)[1];
        d.host2device_on(&vec![7; 1000], buf, 1, s).unwrap();
        assert_eq!(d.now_us(), 0.0);
        let t = d.synchronize();
        assert!(t > 0.0);
        assert_eq!(d.now_us(), t);
    }

    #[test]
    fn different_streams_overlap_on_different_engines() {
        let mut d = Device::gtx480();
        let a = d.malloc(100_000).unwrap();
        let b = d.malloc(100_000).unwrap();
        let streams = d.lane_streams(3);
        let (up, down) = (streams[1], streams[2]);
        let data = vec![1; 100_000];
        // Serial baseline: same ops on one stream.
        let mut serial = Device::gtx480();
        let sa = serial.malloc(100_000).unwrap();
        serial.host2device(&data, sa).unwrap();
        serial.device2host(sa).unwrap();
        let serial_total = serial.now_us();
        // Overlapped: upload and download on different streams/engines.
        d.host2device_on(&data, a, 1, up).unwrap();
        d.device2host_on::<i32>(b, 1, down).unwrap();
        let makespan = d.synchronize();
        assert!(makespan < serial_total, "{makespan} !< {serial_total}");
        // Both engines were busy; makespan is the slower of the two.
        let h2d = d.profiler.class_total_us(OpClass::H2D);
        let d2h = d.profiler.class_total_us(OpClass::D2H);
        assert!((makespan - h2d.max(d2h)).abs() < 1e-9);
    }

    #[test]
    fn same_engine_serializes_across_streams() {
        let mut d = Device::gtx480();
        let a = d.malloc(50_000).unwrap();
        let b = d.malloc(50_000).unwrap();
        let streams = d.lane_streams(3);
        let (s1, s2) = (streams[1], streams[2]);
        let data = vec![3; 50_000];
        d.host2device_on(&data, a, 1, s1).unwrap();
        d.host2device_on(&data, b, 1, s2).unwrap();
        let makespan = d.synchronize();
        // Two uploads share the H2D engine: no overlap possible.
        assert!((makespan - d.profiler.class_total_us(OpClass::H2D)).abs() < 1e-9);
    }

    #[test]
    fn stream_ids_validated() {
        let mut d = Device::gtx480();
        let buf = d.malloc(4).unwrap();
        assert!(matches!(
            d.host2device_on(&[1, 2, 3, 4], buf, 1, StreamId(5)),
            Err(SimError::UnknownStream { id: 5 })
        ));
    }

    #[test]
    fn sync_api_is_one_stream_special_case() {
        // The synchronous calls must produce the exact same clock as the
        // explicit schedule on the default stream.
        let k = inc_kernel();
        let data: Vec<i32> = (0..256).collect();

        let mut sync = Device::gtx480();
        let sb = sync.malloc(256).unwrap();
        sync.host2device(&data, sb).unwrap();
        sync.launch(
            &k,
            LaunchConfig::cover_1d(256, 64),
            &[KernelArg::Buffer(sb.0), KernelArg::Scalar(256)],
        )
        .unwrap();
        let sync_back = sync.device2host(sb).unwrap();

        let mut strm = Device::gtx480();
        let ab = strm.malloc(256).unwrap();
        strm.host2device_on(&data, ab, 1, StreamId::DEFAULT).unwrap();
        strm.launch_on(
            &k,
            LaunchConfig::cover_1d(256, 64),
            &[KernelArg::Buffer(ab.0), KernelArg::Scalar(256)],
            StreamId::DEFAULT,
            None,
        )
        .unwrap();
        let (strm_back, _) = strm.device2host_on(ab, 1, StreamId::DEFAULT).unwrap();
        strm.synchronize();

        assert_eq!(sync_back, strm_back);
        assert_eq!(sync.now_us(), strm.now_us());
        let a: Vec<_> = sync.profiler.records().collect();
        let b: Vec<_> = strm.profiler.records().collect();
        assert_eq!(a, b);
    }

    #[test]
    fn replay_matches_measured_schedule() {
        use crate::schedule::{RunStats, ScheduleWitness};
        let mut real = Device::gtx480();
        let buf = real.malloc(1024).unwrap();
        real.host2device(&vec![1; 1024], buf).unwrap();
        let witness = ScheduleWitness::capture(&real.profiler, 0, RunStats::default());

        let mut replayed = Device::gtx480();
        witness.replay(&mut replayed, &[StreamId::DEFAULT]).unwrap();
        assert_eq!(replayed.synchronize(), real.now_us());
    }
}
