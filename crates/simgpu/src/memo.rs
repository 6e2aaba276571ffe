//! An exact, content-addressed launch memo.
//!
//! The kernel interpreter is a pure function. Reads see the pre-launch
//! contents, stores apply in block order, and the host worker count
//! changes nothing. So a launch's [`LaunchStats`] and its stores follow
//! from the kernel, the [`LaunchConfig`], the scalar arguments, which
//! arguments alias one buffer, the *contents* of every buffer the kernel
//! can load from, and the length of every other bound buffer. Buffer ids
//! are not part of that. A [`LaunchMemo`] records the function's results:
//! the stats, plus for every written buffer the addresses the launch
//! touched and their final values. A device with a memo installed
//! ([`crate::Device::set_launch_memo`]) applies a recorded launch's stores
//! instead of interpreting it again. The device's cost model still prices
//! every launch, hit or miss, from the recorded stats, so swapping the
//! model on a hit is a real re-price.
//!
//! A buffer the kernel only stores to is keyed by its length alone: nothing
//! the launch does depends on its contents, and the addresses the launch
//! leaves untouched keep whatever they hold. Each distinct content of a
//! loaded buffer is stored once and indexed by a 64-bit digest. The digest
//! only narrows the search: every lookup confirms the match by comparing
//! the full contents, so a hit is exact, never probabilistic. A launch
//! that errors records no entry.
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
    /// Bitset of the addresses the launch touched.
    mask: Vec<u64>,
    /// Their final values, in address order.
    values: Vec<i32>,
}

impl Stores {
    fn apply(&self, buf: &mut [i32]) {
        let mut values = self.values.iter();
        for (w, &bits) in self.mask.iter().enumerate() {
            let mut bits = bits;
            while bits != 0 {
                let addr = w * 64 + bits.trailing_zeros() as usize;
                buf[addr] = *values.next().expect("one value per mask bit");
                bits &= bits - 1;
            }
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

impl Table {
    /// Id of the stored content equal to `data`, if any.
    fn find(&self, data: &[i32], d: u64) -> Option<usize> {
        self.by_digest.get(&d)?.iter().copied().find(|&b| self.blobs[b] == data)
    }

    /// Store `data` unless an equal content is already stored.
    fn intern(&mut self, data: &[i32]) -> usize {
        let d = digest(data);
        if let Some(b) = self.find(data, d) {
            return b;
        }
        self.blobs.push(data.to_vec());
        let b = self.blobs.len() - 1;
        self.by_digest.entry(d).or_default().push(b);
        b
    }

    /// The launch's key, or `None` when some part of it was never stored
    /// (then the launch cannot have been recorded). With `store`, missing
    /// parts are stored and the key is always returned.
    fn key(
        &mut self,
        kernel: &Kernel,
        config: LaunchConfig,
        args: &[KernelArg],
        bufs: &[Option<BufArg>],
        buffers: &[Option<Vec<i32>>],
        store: bool,
    ) -> Option<Key> {
        let k = match self.kernels.iter().position(|(k, _)| k == kernel) {
            Some(k) => k,
            None if store => {
                self.kernels.push((kernel.clone(), loaded_params(kernel)));
                self.kernels.len() - 1
            }
            None => return None,
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
                        let blob =
                            if store { self.intern(data) } else { self.find(data, digest(data))? };
                        ArgKey::Loaded { blob, first: b.first }
                    } else {
                        ArgKey::Stored { len: data.len(), first: b.first }
                    }
                }
                (KernelArg::Buffer(_), None) => unreachable!("bind covers every buffer arg"),
            });
        }
        Some(Key { kernel: k, config, args: keys })
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
        MemoStats { hits: t.hits, misses: t.misses, entries: t.entries.len() }
    }

    /// [`run_kernel`] through the memo: a recorded launch applies its
    /// recorded stores to `buffers` and returns its recorded stats; any
    /// other launch is interpreted and, if it succeeds, recorded.
    pub(crate) fn launch(
        &self,
        kernel: &Kernel,
        config: LaunchConfig,
        args: &[KernelArg],
        buffers: &mut [Option<Vec<i32>>],
        host_workers: usize,
    ) -> Result<LaunchStats, SimError> {
        let Some(bufs) = bind(kernel, args, buffers) else {
            return run_kernel(kernel, config, args, buffers, host_workers);
        };
        let mut t = self.lock();
        if let Some(key) = t.key(kernel, config, args, &bufs, buffers, false) {
            if let Some(out) = t.entries.get(&key) {
                for s in &out.stores {
                    let id = bufs[s.pos].as_ref().expect("stores name buffer args").id;
                    s.apply(buffers[id].as_mut().expect("bound buffers exist"));
                }
                let stats = out.stats;
                t.hits += 1;
                return Ok(stats);
            }
        }
        t.misses += 1;
        // Store the loaded contents before the launch overwrites them.
        let key = t.key(kernel, config, args, &bufs, buffers, true).expect("storing always keys");
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
            let values = (0..data.len())
                .filter(|&a| mask[a / 64] >> (a % 64) & 1 == 1)
                .map(|a| data[a])
                .collect();
            stores.push(Stores { pos, mask, values });
        }
        t.entries.insert(key, Outcome { stats, stores });
        Ok(stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::WarpTileModel;
    use crate::device::{BufferId, Device, DeviceConfig};
    use crate::kir::{BinOp, KernelBuilder, KernelFlavor, Special};

    /// `y[i] = 3 x[i] + sum(0..x[i])` for `i < n` (plus the old `y[i]`
    /// when `accumulate`): the instruction count depends on the contents
    /// of `x`, so stale stats would show.
    fn tri_kernel(name: &str, accumulate: bool) -> Kernel {
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
}
