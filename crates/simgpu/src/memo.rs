//! An exact, content-addressed launch memo.
//!
//! The kernel interpreter is a pure function. Reads see the pre-launch
//! contents, stores apply in block order, and the host worker count
//! changes nothing. So a launch's [`LaunchStats`] and its stores follow
//! from the kernel, the [`LaunchConfig`], the scalar arguments, which
//! arguments alias one buffer, the *contents* of every buffer the kernel
//! can load from, and the length of every other bound buffer. Buffer ids
//! are not part of that. A [`LaunchMemo`] records the function's results:
//! the stats, plus for every written buffer its effect. A device with a
//! memo installed ([`crate::Device::set_launch_memo`]) applies a recorded
//! launch's effects instead of interpreting it again. The device's cost
//! model still prices every launch, hit or miss, from the recorded stats,
//! so swapping the model on a hit is a real re-price.
//!
//! A buffer the kernel only stores to is keyed by its length alone: nothing
//! the launch does depends on its contents. Each distinct content the memo
//! sees is stored once, behind a 64-bit digest that only narrows the
//! search: storing or finding a content confirms the match by comparing it
//! in full. A launch that touched every address of a written buffer
//! records that buffer's final contents as a stored content. Any other
//! written buffer records the bitset of touched addresses and their final
//! values, and the addresses the launch leaves untouched keep whatever
//! they hold on a hit. So SaC's split generators, which fill one buffer in
//! several launches, never store the buffer's intermediate states whole.
//! A launch that errors records no entry.
//!
//! # Content tags
//!
//! The device keeps, per buffer, a *tag*: the id of a stored content the
//! buffer is known to hold. A lookup reads a loaded buffer's tag instead of
//! its contents. An untagged loaded buffer is digested and confirmed in
//! full, as the key needs, and then tagged. A launch that writes a buffer
//! whole tags it with its final content: a miss stores that content, and a
//! hit copies it in. A launch that writes part of a buffer, hit or miss,
//! leaves it untagged.
//! Every other write clears the tag: allocation (pool reuse included),
//! free, each upload, each writable argument of an interpreted launch
//! before it runs, and the test-only `poke`. Installing a memo clears every
//! tag, since ids name one memo's contents. So a tag exists only where the
//! contents were confirmed equal or copied from that content, and a hit
//! stays exact: the key is the one a full comparison would give. What the
//! tags save is the digest: on one device, each buffer content is digested
//! at most once per write, and the chained intermediates that whole-write
//! hits produce not at all.
//!
//! A memo keeps every content it has seen, so its memory grows with the
//! distinct launches of its users. Callers scope it: the autotuner holds
//! one per (registry entry, route) and drops it when the search moves on.
//! Nothing installs a memo by default.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, PoisonError};

use crate::exec::{run_kernel, run_kernel_touching, LaunchConfig, LaunchStats};
use crate::kir::{Instr, Kernel, KernelArg, Param};
use crate::SimError;

/// A launch memo that every device it is installed on shares (cloning the
/// handle shares the table).
#[derive(Clone, Default)]
pub struct LaunchMemo {
    table: Arc<Mutex<Table>>,
}

/// Counters of a [`LaunchMemo`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct MemoStats {
    /// Launches served from the memo.
    pub(crate) hits: u64,
    /// Launches interpreted (and then recorded, unless they errored).
    pub(crate) misses: u64,
    /// Recorded launches.
    pub(crate) entries: usize,
    /// Bytes of buffer contents digested, on lookups and records alike.
    pub(crate) digested_bytes: u64,
}

impl std::fmt::Debug for LaunchMemo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("LaunchMemo").field(&self.stats()).finish()
    }
}

/// One bound argument of a launch.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum ArgKey {
    Scalar(i64),
    /// A buffer the kernel loads from: the id of its stored content.
    Loaded {
        blob: usize,
        first: usize,
    },
    /// A buffer the kernel only stores to: its length.
    Stored {
        len: usize,
        first: usize,
    },
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct Key {
    kernel: usize,
    config: LaunchConfig,
    args: Vec<ArgKey>,
}

/// The recorded effect of a launch on one written buffer.
struct Stores {
    /// Position of the first argument bound to the buffer.
    pos: usize,
    effect: Effect,
}

enum Effect {
    /// The launch touched every address: the id of the buffer's final
    /// contents.
    Whole(usize),
    /// The launch touched some addresses: their bitset, and their final
    /// values in address order.
    Masked { mask: Vec<u64>, values: Vec<i32> },
}

/// Write `values` to the addresses set in `mask`, in address order.
fn apply_masked(mask: &[u64], values: &[i32], buf: &mut [i32]) {
    let mut values = values.iter();
    for (w, &bits) in mask.iter().enumerate() {
        let mut bits = bits;
        while bits != 0 {
            let addr = w * 64 + bits.trailing_zeros() as usize;
            buf[addr] = *values.next().expect("one value per mask bit");
            bits &= bits - 1;
        }
    }
}

/// What a recorded launch did.
struct Outcome {
    stats: LaunchStats,
    stores: Vec<Stores>,
}

#[derive(Default)]
struct Table {
    /// Recorded kernels, with which of their parameters they load from.
    kernels: Vec<(Kernel, Vec<bool>)>,
    blobs: Vec<Vec<i32>>,
    by_digest: HashMap<u64, Vec<usize>>,
    entries: HashMap<Key, Outcome>,
    hits: u64,
    misses: u64,
    digested_bytes: u64,
}

/// A bound buffer argument.
struct BufArg {
    id: usize,
    /// Position of the first argument bound to the same buffer.
    first: usize,
    writable: bool,
}

/// FxHash-style digest of a buffer's contents (length included), over four
/// independent lanes of two elements each so the multiplies pipeline.
fn digest(data: &[i32]) -> u64 {
    const K: u64 = 0x517c_c1b7_2722_0a95;
    let mix = |h: u64, x: u64| (h.rotate_left(5) ^ x).wrapping_mul(K);
    let pair = |a: i32, b: i32| u64::from(a as u32) | (u64::from(b as u32) << 32);
    let mut lanes = [1u64, 2, 3, 4];
    let chunks = data.chunks_exact(8);
    let rest = chunks.remainder();
    for c in chunks {
        for (l, h) in lanes.iter_mut().enumerate() {
            *h = mix(*h, pair(c[2 * l], c[2 * l + 1]));
        }
    }
    let h = lanes.iter().fold(data.len() as u64, |h, &l| mix(h, l));
    rest.iter().fold(h, |h, &x| mix(h, u64::from(x as u32)))
}

/// Which parameters `kernel` loads from anywhere in its body. A load of a
/// parameter the kernel does not declare is left to the interpreter, which
/// rejects it when the launch runs.
fn loaded_params(kernel: &Kernel) -> Vec<bool> {
    fn walk(instrs: &[Instr], loaded: &mut [bool]) {
        for i in instrs {
            match i {
                Instr::Load { param, .. } => {
                    if let Some(l) = loaded.get_mut(*param) {
                        *l = true;
                    }
                }
                Instr::For { body, .. } => walk(body, loaded),
                Instr::If { then, els, .. } => {
                    walk(then, loaded);
                    walk(els, loaded);
                }
                _ => {}
            }
        }
    }
    let mut loaded = vec![false; kernel.params.len()];
    walk(&kernel.body, &mut loaded);
    loaded
}

/// Clear the tag of every buffer `kernel` may store to through `args`: the
/// interpreter rejects a store through a read-only parameter, so these are
/// the only buffers a launch can change.
pub(crate) fn untag_written(kernel: &Kernel, args: &[KernelArg], tags: &mut [Option<usize>]) {
    for (p, a) in kernel.params.iter().zip(args) {
        if let (Param::Buffer { writable: true, .. }, KernelArg::Buffer(id)) = (p, a) {
            if let Some(tag) = tags.get_mut(*id) {
                *tag = None;
            }
        }
    }
}

impl Table {
    /// Id of the stored content equal to `data`, storing it first unless an
    /// equal content is already stored. The digest only narrows the search;
    /// equality is confirmed in full.
    fn intern(&mut self, data: &[i32]) -> usize {
        self.digested_bytes += 4 * data.len() as u64;
        let d = digest(data);
        let blobs = &self.blobs;
        let ids = self.by_digest.entry(d).or_default();
        if let Some(b) = ids.iter().copied().find(|&b| blobs[b] == data) {
            return b;
        }
        self.blobs.push(data.to_vec());
        ids.push(self.blobs.len() - 1);
        self.blobs.len() - 1
    }

    /// The launch's key, storing every part of it not stored yet. A loaded
    /// buffer's tag stands for its contents; an untagged one is interned
    /// and tagged.
    fn key(
        &mut self,
        kernel: &Kernel,
        config: LaunchConfig,
        args: &[KernelArg],
        bufs: &[Option<BufArg>],
        buffers: &[Option<Vec<i32>>],
        tags: &mut [Option<usize>],
    ) -> Key {
        let k = match self.kernels.iter().position(|(k, _)| k == kernel) {
            Some(k) => k,
            None => {
                self.kernels.push((kernel.clone(), loaded_params(kernel)));
                self.kernels.len() - 1
            }
        };
        let mut keys = Vec::with_capacity(args.len());
        for (a, b) in args.iter().zip(bufs) {
            keys.push(match (a, b) {
                (KernelArg::Scalar(v), _) => ArgKey::Scalar(*v),
                (KernelArg::Buffer(_), Some(b)) => {
                    let data = buffers[b.id].as_deref().expect("bound buffers exist");
                    // Aliases share contents: loading through any of them
                    // makes the buffer's contents an input.
                    let loaded = bufs
                        .iter()
                        .zip(&self.kernels[k].1)
                        .any(|(o, &l)| l && o.as_ref().is_some_and(|o| o.id == b.id));
                    if loaded {
                        let blob = match tags[b.id] {
                            Some(blob) => blob,
                            None => *tags[b.id].insert(self.intern(data)),
                        };
                        ArgKey::Loaded { blob, first: b.first }
                    } else {
                        ArgKey::Stored { len: data.len(), first: b.first }
                    }
                }
                (KernelArg::Buffer(_), None) => unreachable!("bind covers every buffer arg"),
            });
        }
        Key { kernel: k, config, args: keys }
    }
}

/// Resolve `args` against `kernel`'s parameters: `Some` entry per buffer
/// argument, `None` per scalar. Returns `None` when the arguments do not
/// bind (wrong count or kind, unknown buffer) — the interpreter reports
/// those errors itself.
fn bind(
    kernel: &Kernel,
    args: &[KernelArg],
    buffers: &[Option<Vec<i32>>],
) -> Option<Vec<Option<BufArg>>> {
    if args.len() != kernel.params.len() {
        return None;
    }
    let mut out = Vec::with_capacity(args.len());
    for (i, (p, a)) in kernel.params.iter().zip(args).enumerate() {
        out.push(match (p, a) {
            (Param::Buffer { writable, .. }, KernelArg::Buffer(id)) => {
                buffers.get(*id)?.as_ref()?;
                let first = args.iter().position(|b| b == a).unwrap_or(i);
                Some(BufArg { id: *id, first, writable: *writable })
            }
            (Param::Scalar { .. }, KernelArg::Scalar(_)) => None,
            _ => return None,
        });
    }
    Some(out)
}

impl LaunchMemo {
    /// An empty memo.
    pub fn new() -> Self {
        LaunchMemo::default()
    }

    /// Every update leaves the table consistent (a content stored without
    /// an entry is merely unreachable), so a lock poisoned by a panicking
    /// launch is still safe to use.
    fn lock(&self) -> std::sync::MutexGuard<'_, Table> {
        self.table.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Current counters.
    pub(crate) fn stats(&self) -> MemoStats {
        let t = self.lock();
        MemoStats {
            hits: t.hits,
            misses: t.misses,
            entries: t.entries.len(),
            digested_bytes: t.digested_bytes,
        }
    }

    /// [`run_kernel`] through the memo: a recorded launch applies its
    /// recorded stores to `buffers` and returns its recorded stats; any
    /// other launch is interpreted and, if it succeeds, recorded.
    ///
    /// `tags[id]`, when set, is the id of this memo's stored content that
    /// buffer `id` holds. The launch reads tags in place of contents and
    /// keeps them exact: it tags what it has confirmed or written whole,
    /// and clears the tag of every other buffer it may change.
    pub(crate) fn launch(
        &self,
        kernel: &Kernel,
        config: LaunchConfig,
        args: &[KernelArg],
        buffers: &mut [Option<Vec<i32>>],
        tags: &mut [Option<usize>],
        host_workers: usize,
    ) -> Result<LaunchStats, SimError> {
        let Some(bufs) = bind(kernel, args, buffers) else {
            untag_written(kernel, args, tags);
            return run_kernel(kernel, config, args, buffers, host_workers);
        };
        let mut guard = self.lock();
        let t = &mut *guard;
        // Keying stores the loaded contents before the launch overwrites
        // them.
        let key = t.key(kernel, config, args, &bufs, buffers, tags);
        if let Some(out) = t.entries.get(&key) {
            for s in &out.stores {
                let id = bufs[s.pos].as_ref().expect("stores name buffer args").id;
                let buf = buffers[id].as_mut().expect("bound buffers exist");
                tags[id] = match &s.effect {
                    Effect::Whole(blob) => {
                        buf.copy_from_slice(&t.blobs[*blob]);
                        Some(*blob)
                    }
                    Effect::Masked { mask, values } => {
                        apply_masked(mask, values, buf);
                        None
                    }
                };
            }
            let stats = out.stats;
            t.hits += 1;
            return Ok(stats);
        }
        t.misses += 1;
        untag_written(kernel, args, tags);
        let (stats, touched) = run_kernel_touching(kernel, config, args, buffers, host_workers)?;
        let mut stores = Vec::new();
        for (pos, b) in bufs.iter().enumerate() {
            let Some(b) = b.as_ref().filter(|b| b.first == pos) else { continue };
            let aliases = || {
                bufs.iter().zip(&touched).filter(|(o, _)| o.as_ref().is_some_and(|o| o.id == b.id))
            };
            if !aliases().any(|(o, _)| o.as_ref().is_some_and(|o| o.writable)) {
                continue;
            }
            let mut mask = vec![0u64; touched[pos].len()];
            for (_, bits) in aliases() {
                mask.iter_mut().zip(bits).for_each(|(m, w)| *m |= w);
            }
            let data = buffers[b.id].as_deref().expect("bound buffers exist");
            let effect =
                if mask.iter().map(|w| w.count_ones() as usize).sum::<usize>() == data.len() {
                    Effect::Whole(*tags[b.id].insert(t.intern(data)))
                } else {
                    let values = (0..data.len())
                        .filter(|&a| mask[a / 64] >> (a % 64) & 1 == 1)
                        .map(|a| data[a])
                        .collect();
                    Effect::Masked { mask, values }
                };
            stores.push(Stores { pos, effect });
        }
        t.entries.insert(key, Outcome { stats, stores });
        Ok(stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::WarpTileModel;
    use crate::device::{BufferId, Device, DeviceConfig, StreamId};
    use crate::kir::{BinOp, KernelBuilder, KernelFlavor, Special};
    use proptest::prelude::*;

    /// `y[i] = 3 x[i] + sum(0..x[i])` for `i < n` (plus the old `y[i]`
    /// when `accumulate`): the instruction count depends on the contents
    /// of `x`, so stale stats would show.
    fn tri_kernel(name: &str, accumulate: bool) -> Kernel {
        tri_kernel_mod(name, accumulate, None)
    }

    /// [`tri_kernel`], storing `y[i] % m` when `modulus` is `Some(m)`.
    fn tri_kernel_mod(name: &str, accumulate: bool, modulus: Option<i64>) -> Kernel {
        let mut b = KernelBuilder::new(name, KernelFlavor::Cuda);
        let x = b.buffer_param("x", false);
        let y = b.buffer_param("y", true);
        let n = b.scalar_param("n");
        let gid = b.special(Special::GlobalIdX);
        let nv = b.param_value(n);
        let ok = b.bin(BinOp::Lt, gid, nv);
        b.begin_if(ok);
        let v = b.load(x, gid);
        let acc = b.bin_imm(BinOp::Mul, v, 3);
        if accumulate {
            let old = b.load(y, gid);
            let sum = b.bin(BinOp::Add, acc, old);
            b.mov(acc, sum);
        }
        let zero = b.constant(0);
        let one = b.constant(1);
        let k = b.begin_for(zero, v, one);
        let next = b.bin(BinOp::Add, acc, k);
        b.mov(acc, next);
        b.end_for();
        if let Some(m) = modulus {
            let r = b.bin_imm(BinOp::Rem, acc, m);
            b.mov(acc, r);
        }
        b.store(y, gid, acc);
        b.end_if();
        b.finish()
    }

    /// One launch's inputs.
    #[derive(Clone)]
    struct Launch {
        kernel: Kernel,
        config: LaunchConfig,
        x: Vec<i32>,
        y: Vec<i32>,
        n: i64,
        /// Bind one buffer holding `x` to both parameters.
        aliased: bool,
        /// Allocate through the pool, after a spare buffer (shifting ids).
        pool: bool,
    }

    impl Launch {
        fn base() -> Launch {
            Launch {
                kernel: tri_kernel("tri", false),
                config: LaunchConfig::cover_1d(6, 4),
                x: vec![3, 0, 5, 2, 7, 1, 4, 9],
                y: vec![0; 8],
                n: 6,
                aliased: false,
                pool: false,
            }
        }

        /// The same launch of the kernel that also loads `y`.
        fn accumulating() -> Launch {
            Launch { kernel: tri_kernel("tri_acc", true), y: vec![1; 8], ..Launch::base() }
        }

        /// Run on `device`; returns the launch result, the final contents
        /// of the written buffer and the device clock.
        fn run(&self, device: &mut Device) -> (Result<LaunchStats, SimError>, Vec<i32>, f64) {
            device.set_pool_enabled(self.pool);
            if self.pool {
                device.malloc(3).unwrap();
            }
            let put = |d: &mut Device, data: &[i32]| -> BufferId {
                let id = d.malloc(data.len()).unwrap();
                d.poke(id, data).unwrap();
                id
            };
            let xb = put(device, &self.x);
            let yb = if self.aliased { xb } else { put(device, &self.y) };
            let args =
                [KernelArg::Buffer(xb.0), KernelArg::Buffer(yb.0), KernelArg::Scalar(self.n)];
            let r = device.launch(&self.kernel, self.config, &args);
            (r, device.peek(yb).unwrap().to_vec(), device.now_us())
        }

        /// Run on a fresh memo-free device and on a fresh device sharing
        /// `memo`, check both agree bit for bit, and return whether the
        /// memo served the launch.
        fn check(&self, memo: &LaunchMemo) -> Result<bool, SimError> {
            self.check_on(memo, Device::gtx480)
        }

        fn check_on(
            &self,
            memo: &LaunchMemo,
            device: impl Fn() -> Device,
        ) -> Result<bool, SimError> {
            let (want, want_y, want_t) = self.run(&mut device());
            let mut d = device();
            d.set_launch_memo(memo.clone());
            let hits = memo.stats().hits;
            let (got, got_y, got_t) = self.run(&mut d);
            assert_eq!(got, want);
            assert_eq!(got_y, want_y);
            assert_eq!(got_t.to_bits(), want_t.to_bits());
            got.map(|_| memo.stats().hits > hits)
        }
    }

    #[test]
    fn a_hit_reproduces_buffers_stats_and_clock() {
        for l in [Launch::base(), Launch::accumulating()] {
            let memo = LaunchMemo::new();
            assert!(!l.check(&memo).unwrap());
            assert!(l.check(&memo).unwrap());
            assert_eq!(memo.stats().entries, 1);
        }
    }

    #[test]
    fn any_changed_input_misses() {
        let memo = LaunchMemo::new();
        let base = Launch::base();
        let acc = Launch::accumulating();
        base.check(&memo).unwrap();
        acc.check(&memo).unwrap();
        let mut variants = Vec::new();
        for i in 0..base.x.len() {
            let mut l = base.clone();
            l.x[i] += 1;
            variants.push(l);
        }
        // The contents of a buffer the kernel loads are an input even
        // when it also stores to it.
        for i in 0..acc.y.len() {
            let mut l = acc.clone();
            l.y[i] += 1;
            variants.push(l);
        }
        let mut l = base.clone();
        l.n = 5;
        variants.push(l);
        let mut l = base.clone();
        l.config = LaunchConfig::cover_1d(6, 2);
        variants.push(l);
        let mut l = base.clone();
        l.kernel = tri_kernel("tri2", false);
        variants.push(l);
        let mut l = base.clone();
        l.y = vec![0; 9];
        variants.push(l);
        let mut l = base.clone();
        l.y = l.x.clone();
        l.check(&memo).unwrap();
        l.aliased = true;
        variants.push(l);

        for (i, l) in variants.iter().enumerate() {
            assert!(!l.check(&memo).unwrap(), "variant {i} hit");
        }
    }

    #[test]
    fn one_buffer_bound_twice_differs_from_two_buffers() {
        // `b[i] = 2; a[i] = 1`: through one buffer the later store wins.
        let mut k = KernelBuilder::new("two_stores", KernelFlavor::Cuda);
        let a = k.buffer_param("a", true);
        let b = k.buffer_param("b", true);
        let gid = k.special(Special::GlobalIdX);
        let two = k.constant(2);
        k.store(b, gid, two);
        let one = k.constant(1);
        k.store(a, gid, one);
        let kernel = k.finish();
        let memo = LaunchMemo::new();
        let run = |device: &mut Device, aliased: bool| {
            let a = device.malloc(4).unwrap();
            let b = if aliased { a } else { device.malloc(4).unwrap() };
            let args = [KernelArg::Buffer(a.0), KernelArg::Buffer(b.0)];
            device.launch(&kernel, LaunchConfig::cover_1d(4, 4), &args).unwrap();
            (device.peek(a).unwrap().to_vec(), device.peek(b).unwrap().to_vec())
        };
        for aliased in [false, true] {
            let mut d = Device::gtx480();
            d.set_launch_memo(memo.clone());
            assert_eq!(run(&mut d, aliased), run(&mut Device::gtx480(), aliased));
        }
        assert_eq!((memo.stats().hits, memo.stats().misses), (0, 2));
    }

    #[test]
    fn a_buffer_the_kernel_only_stores_to_is_keyed_by_length() {
        let memo = LaunchMemo::new();
        let l = Launch::base();
        l.check(&memo).unwrap();
        // y[6..] is never stored, so its old contents must survive the hit.
        let stale = Launch { y: vec![5, 4, 3, 2, 1, 0, -1, -2], ..l };
        assert!(stale.check(&memo).unwrap());
    }

    #[test]
    fn equal_contents_hit_under_other_buffer_ids() {
        let memo = LaunchMemo::new();
        let l = Launch::accumulating();
        l.check(&memo).unwrap();
        assert!(Launch { pool: true, ..l }.check(&memo).unwrap());
    }

    #[test]
    fn a_failing_launch_is_never_recorded() {
        let memo = LaunchMemo::new();
        // Threads past the end of `x` read out of bounds.
        let l = Launch { n: 9, config: LaunchConfig::cover_1d(9, 4), ..Launch::base() };
        for misses in 1..=2 {
            let err = l.check(&memo).unwrap_err();
            assert!(matches!(err, SimError::OutOfBounds { .. }), "{err:?}");
            let st = memo.stats();
            assert_eq!((st.hits, st.misses, st.entries), (0, misses, 0));
        }
    }

    /// Launch `tri_kernel` reading `x` and writing the first `n` elements
    /// of `y`.
    fn tri(device: &mut Device, kernel: &Kernel, x: BufferId, y: BufferId, n: usize) {
        let args = [KernelArg::Buffer(x.0), KernelArg::Buffer(y.0), KernelArg::Scalar(n as i64)];
        device.launch(kernel, LaunchConfig::cover_1d(n, 4), &args).unwrap();
    }

    #[test]
    fn each_content_is_digested_once_per_write() {
        let kernel = tri_kernel("tri", false);
        let len = 24;
        let x: Vec<i32> = (0..len as i32).map(|i| i % 5).collect();
        let memo = LaunchMemo::new();
        // Returns the bytes digested after each launch.
        let chain = |device: &mut Device| -> Vec<u64> {
            device.set_launch_memo(memo.clone());
            let [xb, y, z, w, v] = [(); 5].map(|_| device.malloc(len).unwrap());
            device.host2device(&x, xb).unwrap();
            let mut digested = Vec::new();
            let mut step = |d: &mut Device, src, dst, n| {
                tri(d, &kernel, src, dst, n);
                digested.push(memo.stats().digested_bytes);
            };
            // Whole writes: `y` from `x`, then `z` from `y`.
            step(device, xb, y, len);
            step(device, y, z, len);
            // A partial write of `w`, then two launches that read it.
            step(device, z, w, len / 2);
            step(device, w, v, len);
            step(device, w, v, len / 2);
            digested
        };
        chain(&mut Device::gtx480());
        let before = memo.stats();
        let digested = chain(&mut Device::gtx480());
        let after = memo.stats();
        assert_eq!((after.hits - before.hits, after.misses - before.misses), (5, 0));
        let bytes = 4 * len as u64;
        let since: Vec<u64> = digested.iter().map(|d| d - before.digested_bytes).collect();
        // `x` is digested once, on the first read after its upload; the
        // whole writes leave `y` and `z` tagged. The partial write leaves
        // `w` untagged, so its next read digests it, and tags it.
        assert_eq!(since, [bytes, bytes, bytes, 2 * bytes, 2 * bytes]);
    }

    #[test]
    fn installing_a_memo_forgets_the_tags_of_the_last() {
        let kernel = tri_kernel("tri", false);
        let x = Launch::base().x;
        // Launch on `x` once under each memo in turn; returns `y`.
        let run = |x: &[i32], memos: &[&LaunchMemo]| {
            let mut d = Device::gtx480();
            let (xb, y) = (d.malloc(x.len()).unwrap(), d.malloc(x.len()).unwrap());
            d.host2device(x, xb).unwrap();
            for &m in memos {
                d.set_launch_memo(m.clone());
                tri(&mut d, &kernel, xb, y, x.len());
            }
            d.peek(y).unwrap().to_vec()
        };
        let (old, new) = (LaunchMemo::new(), LaunchMemo::new());
        // `new` stores other contents under the id `old` gives `x`.
        let other: Vec<i32> = x.iter().map(|v| v + 1).collect();
        run(&other, &[&new]);
        assert_eq!(run(&x, &[&old, &new]), run(&x, &[&LaunchMemo::new()]));
    }

    #[test]
    fn a_hit_is_priced_by_the_device_cost_model() {
        let memo = LaunchMemo::new();
        let l = Launch::base();
        let (_, _, paper_us) = l.run(&mut Device::gtx480());
        l.check(&memo).unwrap();
        let warp_tile = || Device::new(DeviceConfig::gtx480(), WarpTileModel::default());
        assert!(l.check_on(&memo, warp_tile).unwrap());
        let (_, _, warp_us) = l.run(&mut warp_tile());
        assert_ne!(warp_us.to_bits(), paper_us.to_bits(), "the re-price must be real");
    }

    /// `x[i] = (2 x[i] + 1) % 9` for `i < n`: loads and stores one buffer.
    fn in_place_kernel() -> Kernel {
        let mut b = KernelBuilder::new("in_place", KernelFlavor::Cuda);
        let x = b.buffer_param("x", true);
        let n = b.scalar_param("n");
        let gid = b.special(Special::GlobalIdX);
        let nv = b.param_value(n);
        let ok = b.bin(BinOp::Lt, gid, nv);
        b.begin_if(ok);
        let v = b.load(x, gid);
        let two = b.bin_imm(BinOp::Mul, v, 2);
        let odd = b.bin_imm(BinOp::Add, two, 1);
        let w = b.bin_imm(BinOp::Rem, odd, 9);
        b.store(x, gid, w);
        b.end_if();
        b.finish()
    }

    /// Contents drawn from few patterns, so equal contents recur under
    /// other buffers and other writes.
    fn pattern(seed: u8, len: usize) -> Vec<i32> {
        (0..len).map(|i| (i as i32 * (i32::from(seed % 3) + 1) + i32::from(seed % 4)) % 5).collect()
    }

    /// Run `ops` step by step on a memo-free device and on two devices that
    /// share one memo. After every step the three agree on results, clocks
    /// and live buffer contents, and the second memo device, which repeats
    /// what the first just recorded, hits every launch that succeeds.
    ///
    /// An op `(kind, a, b, c)` is a malloc, a free, a pool switch, an
    /// upload, a batched upload, a `poke`, a two-buffer launch (aliased
    /// when `a` and `b` pick one buffer; `c` picks a whole write, a partial
    /// one or one past the end) or an in-place launch.
    fn run_differential(ops: Vec<(u8, u8, u8, u8)>) {
        // Results reduced mod 7 keep chained launches cheap.
        let kernels = [
            tri_kernel_mod("tri", false, Some(7)),
            tri_kernel_mod("tri_acc", true, Some(7)),
            in_place_kernel(),
        ];
        let memo = LaunchMemo::new();
        let mut devices = [Device::gtx480(), Device::gtx480(), Device::gtx480()];
        for d in &mut devices {
            d.set_host_workers(2);
        }
        devices[1].set_launch_memo(memo.clone());
        devices[2].set_launch_memo(memo.clone());
        let mut live: Vec<BufferId> = Vec::new();
        for (op, a, b, c) in ops {
            let pick = |i: u8| live.get(usize::from(i) % live.len().max(1)).copied();
            let (px, py) = (pick(a), pick(b));
            let launches = matches!((op, px, py), (6 | 7, Some(_), Some(_)) | (8, Some(_), _));
            let mut results = Vec::new();
            let mut allocated = Vec::new();
            for (which, d) in devices.iter_mut().enumerate() {
                let hits = memo.stats().hits;
                let r = match (op, px, py) {
                    (0, ..) => d.malloc(1 + usize::from(a % 12)).map(|id| {
                        allocated.push(id);
                        LaunchStats::default()
                    }),
                    (1, Some(x), _) => d.free(x).map(|()| LaunchStats::default()),
                    (2, ..) => {
                        d.set_pool_enabled(a % 2 == 1);
                        Ok(LaunchStats::default())
                    }
                    (3, Some(x), _) => {
                        let host = pattern(b, d.buffer_len(x).unwrap());
                        d.host2device(&host, x).map(|()| LaunchStats::default())
                    }
                    (4, Some(x), Some(y)) => {
                        let wide = |id, seed| -> Vec<i64> {
                            pattern(seed, d.buffer_len(id).unwrap())
                                .into_iter()
                                .map(i64::from)
                                .collect()
                        };
                        let (hx, hy) = (wide(x, c), wide(y, c / 4));
                        d.host2device_batch_on(&[(&hx[..], x), (&hy[..], y)], StreamId::DEFAULT)
                            .map(|()| LaunchStats::default())
                    }
                    (5, Some(x), _) => {
                        let host = pattern(b, d.buffer_len(x).unwrap());
                        d.poke(x, &host).map(|()| LaunchStats::default())
                    }
                    (6 | 7, Some(x), Some(y)) => {
                        // x == y binds one buffer to both parameters.
                        let len = d.buffer_len(y).unwrap();
                        let n = match c % 4 {
                            0 => (len / 2).max(1),
                            1 => len + 1,
                            _ => len,
                        };
                        let args = [
                            KernelArg::Buffer(x.0),
                            KernelArg::Buffer(y.0),
                            KernelArg::Scalar(n as i64),
                        ];
                        d.launch(&kernels[usize::from(op - 6)], LaunchConfig::cover_1d(n, 4), &args)
                    }
                    (8, Some(x), _) => {
                        let len = d.buffer_len(x).unwrap();
                        let n = if c % 2 == 0 { (len / 2).max(1) } else { len };
                        let args = [KernelArg::Buffer(x.0), KernelArg::Scalar(n as i64)];
                        d.launch(&kernels[2], LaunchConfig::cover_1d(n, 4), &args)
                    }
                    _ => Ok(LaunchStats::default()),
                };
                if which == 2 && launches && r.is_ok() {
                    assert!(memo.stats().hits > hits, "the second memo device missed");
                }
                results.push(r);
            }
            assert_eq!(&results[1], &results[0]);
            assert_eq!(&results[2], &results[0]);
            if let Some(&id) = allocated.first() {
                assert!(allocated.iter().all(|&o| o == id));
                live.push(id);
            }
            if let (1, Some(x), Ok(_)) = (op, px, &results[0]) {
                live.retain(|&l| l != x);
            }
            for d in &devices[1..] {
                assert_eq!(d.now_us().to_bits(), devices[0].now_us().to_bits());
                for &id in &live {
                    assert_eq!(d.peek(id).unwrap(), devices[0].peek(id).unwrap());
                }
            }
        }
    }

    proptest! {
        #[test]
        fn memo_devices_match_a_memo_free_device_step_for_step(
            ops in proptest::collection::vec((0u8..9, any::<u8>(), any::<u8>(), any::<u8>()), 1..40),
        ) {
            run_differential(ops);
        }
    }
}
