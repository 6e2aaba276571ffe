//! Generator splitting: modulo resolution and lattice partitioning.
//!
//! Two clients:
//!
//! 1. **Modulo resolution** ([`resolve_mods`]) — after folding, generator
//!    bodies contain wrap-around addressing like `(8*t + p) % 1920`. Over most
//!    of a generator's range the modulo is the identity; near the frame edge
//!    it wraps. Splitting the generator at the crossing lattice point lets
//!    each piece drop (or statically resolve) the modulo — this is precisely
//!    why the paper's folded horizontal filter has 5 generators and the
//!    vertical one 7 rather than 3 and 4.
//! 2. **Producer-region matching** for WITH-loop folding ([`split_by_runs`]
//!    used from [`crate::opt::wlf`]) — a consumer generator is split so each
//!    piece's accesses land in exactly one producer generator.
//!
//! Splitting is best-effort and bounded; when it gives up, the (still
//! correct) modulo stays in the body and execution proceeds unchanged.

use crate::ast::BinKind;
use crate::opt::sym::{congruence, interval};
use crate::wir::{FlatGen, SymExpr};

/// Upper bound on pieces produced from one original generator.
pub const MAX_PIECES: usize = 32;
/// Upper bound on signature runs a single split may produce. Boundary
/// phenomena (wrap-around tiles, producer-region edges) yield 2–3 runs; a
/// signature that alternates per lattice point would fragment the generator
/// into per-point kernels, which is never profitable — such splits are
/// rejected, which in turn (correctly) stops WITH-loop folding from fusing
/// across filter boundaries where tilings interleave.
pub const MAX_RUNS: usize = 8;
/// Recursion depth bound for nested split attempts.
const MAX_DEPTH: usize = 8;
/// Largest per-dimension lattice we are willing to scan for split points.
const MAX_SCAN: i64 = 1 << 20;

/// Resolve wrap-around `%` in `gen`'s body, splitting the generator where the
/// value range crosses window boundaries. Returns the resulting pieces (just
/// `[gen]`, rewritten or untouched, when no split is possible or needed).
pub fn resolve_mods(gen: FlatGen) -> Vec<FlatGen> {
    let mut out = Vec::new();
    resolve_rec(gen, MAX_DEPTH, &mut out);
    out
}

fn resolve_rec(mut gen: FlatGen, depth: usize, out: &mut Vec<FlatGen>) {
    // First rewrite everything the interval analysis already resolves.
    gen.body = rewrite_resolvable(&gen.body, &gen).simplify();
    let Some(problem) = first_unresolved_mod(&gen.body, &gen) else {
        out.push(gen);
        return;
    };
    if depth == 0 || out.len() + 1 >= MAX_PIECES {
        out.push(gen);
        return;
    }
    // Scan candidate dimensions for a signature-run split.
    let Some(pieces) = split_by_runs(&gen, |pinned| {
        // Signature: the window index when the problematic mod resolves for
        // this pinned slice, or None when it still straddles a boundary.
        window_of(&problem.0, problem.1, pinned)
    }) else {
        out.push(gen);
        return;
    };
    for p in pieces {
        resolve_rec(p, depth - 1, out);
    }
}

/// The first `e % n` in the body whose value range is not confined to one
/// window, together with its modulus.
fn first_unresolved_mod(e: &SymExpr, g: &FlatGen) -> Option<(SymExpr, i64)> {
    match e {
        SymExpr::Const(_) | SymExpr::Idx(_) => None,
        SymExpr::Bin(BinKind::Mod, l, r) => {
            if let Some(inner) = first_unresolved_mod(l, g) {
                return Some(inner);
            }
            if let SymExpr::Const(n) = **r {
                if n > 0 && window_of(l, n, g).is_none() {
                    return Some(((**l).clone(), n));
                }
            }
            first_unresolved_mod(r, g)
        }
        SymExpr::Bin(_, l, r) => first_unresolved_mod(l, g).or_else(|| first_unresolved_mod(r, g)),
        SymExpr::Load { index, .. } => index.iter().find_map(|ix| first_unresolved_mod(ix, g)),
    }
}

/// If `e`'s range over `g` stays within one length-`n` window, its index.
fn window_of(e: &SymExpr, n: i64, g: &FlatGen) -> Option<i64> {
    let iv = interval(e, g)?;
    let k_lo = iv.lo.div_euclid(n);
    let k_hi = iv.hi.div_euclid(n);
    (k_lo == k_hi).then_some(k_lo)
}

/// Rewrite every `e % n` whose range is confined to window `k` as `e - k*n`.
fn rewrite_resolvable(e: &SymExpr, g: &FlatGen) -> SymExpr {
    match e {
        SymExpr::Const(_) | SymExpr::Idx(_) => e.clone(),
        SymExpr::Bin(BinKind::Mod, l, r) => {
            let l2 = rewrite_resolvable(l, g);
            let r2 = rewrite_resolvable(r, g);
            if let SymExpr::Const(n) = r2 {
                if n > 0 {
                    // Congruence shortcut: value mod n constant.
                    let c = congruence(&l2, g);
                    if c.modulus == 0 {
                        return SymExpr::Const(c.residue.rem_euclid(n));
                    }
                    if let Some(k) = window_of(&l2, n, g) {
                        if k == 0 {
                            return l2;
                        }
                        return SymExpr::bin(BinKind::Sub, l2, SymExpr::Const(k * n));
                    }
                }
            }
            SymExpr::bin(BinKind::Mod, l2, r2)
        }
        SymExpr::Bin(op, l, r) => {
            SymExpr::bin(*op, rewrite_resolvable(l, g), rewrite_resolvable(r, g))
        }
        SymExpr::Load { array, index } => SymExpr::Load {
            array: *array,
            index: index.iter().map(|ix| rewrite_resolvable(ix, g)).collect(),
        },
    }
}

/// Split `gen` along one dimension into runs of lattice points that share a
/// signature. `sig` is evaluated on a pin of `gen`: its bounds with the
/// candidate dimension pinned to a single lattice point, and a placeholder
/// body (`Const(0)`). Signatures must therefore read bounds only — as
/// [`interval`], [`congruence`] and the window and membership tests built on
/// them do — and see exactly what they would on a full copy of `gen`. The
/// one pin is updated in place per point instead of cloning `gen`, folded
/// body included, for every point scanned.
///
/// Returns `None` when no dimension yields more than one distinct signature
/// (splitting would not make progress) or when scanning is infeasible.
pub fn split_by_runs<S: PartialEq>(
    gen: &FlatGen,
    sig: impl Fn(&FlatGen) -> S,
) -> Option<Vec<FlatGen>> {
    let mut pin = FlatGen {
        lower: gen.lower.clone(),
        upper: gen.upper.clone(),
        step: gen.step.clone(),
        width: gen.width.clone(),
        body: SymExpr::Const(0),
    };
    // Prefer later (faster-varying) dimensions: in the downscaler flows the
    // wrap variable is the column/tile dimension.
    for d in (0..gen.rank()).rev() {
        if gen.width[d] != 1 {
            continue; // phase-preserving split with width > 1 is not supported
        }
        let (l, u, s) = (gen.lower[d], gen.upper[d], gen.step[d]);
        if l >= u {
            continue;
        }
        let points = (u - 1 - l) / s + 1;
        if !(2..=MAX_SCAN).contains(&points) {
            continue;
        }
        // Collect signature runs.
        let mut runs: Vec<(i64, i64, S)> = Vec::new(); // [start, end) lattice bounds
        pin.step[d] = 1;
        let mut x = l;
        while x < u {
            pin.lower[d] = x;
            pin.upper[d] = x + 1;
            let s_here = sig(&pin);
            match runs.last_mut() {
                Some((_, end, prev)) if *prev == s_here => *end = x + 1,
                _ => runs.push((x, x + 1, s_here)),
            }
            x += s;
        }
        (pin.lower[d], pin.upper[d], pin.step[d]) = (l, u, s);
        if runs.len() < 2 || runs.len() > MAX_RUNS {
            continue;
        }
        let mut pieces = Vec::with_capacity(runs.len());
        for (start, end, _) in runs {
            let mut p = gen.clone();
            p.lower[d] = start;
            p.upper[d] = end;
            pieces.push(p);
        }
        return Some(pieces);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use BinKind::*;

    fn affine(k: i64, d: usize, c: i64) -> SymExpr {
        SymExpr::bin(Add, SymExpr::bin(Mul, SymExpr::Const(k), SymExpr::Idx(d)), SymExpr::Const(c))
    }

    fn modn(e: SymExpr, n: i64) -> SymExpr {
        SymExpr::bin(Mod, e, SymExpr::Const(n))
    }

    /// The paper's horizontal-filter situation: one generator whose body
    /// loads `(8t + off) % 1920` for window offsets off..off+5 over t∈[0,240).
    fn hfilter_gen(k_off: i64) -> FlatGen {
        // Body: sum of 6 loads at (8t + k_off + p) % 1920.
        let mut body = SymExpr::Const(0);
        for p in 0..6 {
            let load = SymExpr::Load {
                array: 0,
                index: vec![SymExpr::Idx(0), modn(affine(8, 1, k_off + p), 1920)],
            };
            body = SymExpr::bin(Add, body, load);
        }
        FlatGen {
            lower: vec![0, 0],
            upper: vec![1080, 240],
            step: vec![1, 1],
            width: vec![1, 1],
            body,
        }
    }

    #[test]
    fn non_wrapping_generator_stays_single() {
        // Offsets 0..6: max 8*239+5 = 1917 < 1920 — no wrap, one piece,
        // and all mods drop away.
        let pieces = resolve_mods(hfilter_gen(0));
        assert_eq!(pieces.len(), 1);
        let mut loads = Vec::new();
        pieces[0].body.loads(&mut loads);
        assert_eq!(loads.len(), 6);
        assert!(!has_mod(&pieces[0].body), "{:?}", pieces[0].body);
    }

    #[test]
    fn wrapping_generator_splits_in_two() {
        // Offsets 5..11: 8*239+10 = 1922 wraps — the last tile splits off.
        let pieces = resolve_mods(hfilter_gen(5));
        assert_eq!(pieces.len(), 2);
        // Main piece: t in [0, 239); tail: t = 239.
        assert_eq!(pieces[0].upper[1], 239);
        assert_eq!(pieces[1].lower[1], 239);
        for p in &pieces {
            assert!(!has_mod(&p.body), "unresolved mod in {:?}", p.body);
        }
    }

    #[test]
    fn negative_origin_splits_head() {
        // Vertical-filter shape: (9t - 3 + p) % 1080 for p in 0..6, t in [0,120).
        let mut body = SymExpr::Const(0);
        for p in 0..6 {
            let load = SymExpr::Load {
                array: 0,
                index: vec![modn(affine(9, 0, p - 3), 1080), SymExpr::Idx(1)],
            };
            body = SymExpr::bin(Add, body, load);
        }
        let g = FlatGen {
            lower: vec![0, 0],
            upper: vec![120, 720],
            step: vec![1, 1],
            width: vec![1, 1],
            body,
        };
        let pieces = resolve_mods(g);
        // Head tile (t=0) reads negative rows; the rest is wrap-free.
        assert_eq!(pieces.len(), 2);
        assert_eq!(pieces[0].upper[0], 1);
        assert_eq!(pieces[1].lower[0], 1);
        for p in &pieces {
            assert!(!has_mod(&p.body));
        }
    }

    #[test]
    fn unresolvable_mod_is_left_in_place() {
        // (t*t) % 7 — non-affine; interval [0, ...] crosses windows and the
        // scan cannot isolate single-window runs cheaply, but dims of size 1
        // make each point constant, so use two dims to defeat pinning.
        let body = modn(SymExpr::bin(Mul, SymExpr::Idx(0), SymExpr::Idx(1)), 7);
        let g = FlatGen {
            lower: vec![0, 0],
            upper: vec![100, 100],
            step: vec![1, 1],
            width: vec![1, 1],
            body,
        };
        let pieces = resolve_mods(g.clone());
        // Either split into some pieces or left alone; totals must cover the
        // same lattice and remain correct (checked by counting points).
        let total: u64 = pieces.iter().map(|p| p.points()).sum();
        assert_eq!(total, g.points());
    }

    #[test]
    fn split_preserves_lattice_phase() {
        // j in [1, 20) step 3; a signature that flips at j >= 10.
        let g = FlatGen {
            lower: vec![1],
            upper: vec![20],
            step: vec![3],
            width: vec![1],
            body: SymExpr::Const(0),
        };
        let pieces = split_by_runs(&g, |p| p.lower[0] >= 10).unwrap();
        assert_eq!(pieces.len(), 2);
        let pts: Vec<i64> = {
            let mut v = Vec::new();
            for p in &pieces {
                p.for_each_point(|iv| v.push(iv[0]));
            }
            v
        };
        let mut orig = Vec::new();
        g.for_each_point(|iv| orig.push(iv[0]));
        assert_eq!(pts, orig);
    }

    fn has_mod(e: &SymExpr) -> bool {
        match e {
            SymExpr::Const(_) | SymExpr::Idx(_) => false,
            SymExpr::Bin(BinKind::Mod, ..) => true,
            SymExpr::Bin(_, l, r) => has_mod(l) || has_mod(r),
            SymExpr::Load { index, .. } => index.iter().any(has_mod),
        }
    }

    /// The scan [`split_by_runs`] replaced: a full clone of `gen`, body
    /// included, per lattice point.
    fn split_by_runs_cloning<S: PartialEq>(
        gen: &FlatGen,
        sig: impl Fn(&FlatGen) -> S,
    ) -> Option<Vec<FlatGen>> {
        for d in (0..gen.rank()).rev() {
            if gen.width[d] != 1 {
                continue;
            }
            let (l, u, s) = (gen.lower[d], gen.upper[d], gen.step[d]);
            if l >= u {
                continue;
            }
            let points = (u - 1 - l) / s + 1;
            if !(2..=MAX_SCAN).contains(&points) {
                continue;
            }
            let mut runs: Vec<(i64, i64, S)> = Vec::new();
            let mut x = l;
            while x < u {
                let mut pinned = gen.clone();
                pinned.lower[d] = x;
                pinned.upper[d] = x + 1;
                pinned.step[d] = 1;
                pinned.width[d] = 1;
                let s_here = sig(&pinned);
                match runs.last_mut() {
                    Some((_, end, prev)) if *prev == s_here => *end = x + 1,
                    _ => runs.push((x, x + 1, s_here)),
                }
                x += s;
            }
            if runs.len() < 2 || runs.len() > MAX_RUNS {
                continue;
            }
            let mut pieces = Vec::with_capacity(runs.len());
            for (start, end, _) in runs {
                let mut p = gen.clone();
                p.lower[d] = start;
                p.upper[d] = end;
                pieces.push(p);
            }
            return Some(pieces);
        }
        None
    }

    /// A random rank-1..3 generator whose body loads `(k·iv + c) % n` for a
    /// few random affine index maps, the shape wrap-around folding leaves.
    fn random_gen(rng: &mut proptest::TestRng) -> (FlatGen, Vec<(SymExpr, i64)>) {
        let mut below = |n: u64| rng.below(n) as i64;
        let rank = 1 + below(3) as usize;
        let mut g = FlatGen {
            lower: vec![],
            upper: vec![],
            step: vec![],
            width: vec![],
            body: SymExpr::Const(0),
        };
        for _ in 0..rank {
            let lower = below(12) - 2;
            let step = 1 + below(3);
            g.lower.push(lower);
            g.upper.push(lower + below(40));
            g.step.push(step);
            g.width.push(if below(4) == 0 { 1 + below(step as u64) } else { 1 });
        }
        let mut mods = Vec::new();
        for _ in 0..1 + below(3) {
            let mut e = SymExpr::Const(below(21) - 10);
            for d in 0..rank {
                e = SymExpr::bin(
                    Add,
                    e,
                    SymExpr::bin(Mul, SymExpr::Const(below(9) - 4), SymExpr::Idx(d)),
                );
            }
            let n = 1 + below(30);
            let load = SymExpr::Load { array: 0, index: vec![modn(e.clone(), n)] };
            g.body = SymExpr::bin(Add, g.body, load);
            mods.push((e, n));
        }
        (g, mods)
    }

    proptest::proptest! {
        /// Scanning with one body-less pin yields the same pieces, bodies
        /// included, as cloning the generator per point, for the window
        /// signature of modulo resolution and an interval signature.
        #[test]
        fn pinned_scan_matches_cloning_scan(seed in proptest::prelude::any::<u64>()) {
            let mut rng = proptest::TestRng::new(seed);
            for _ in 0..16 {
                let (g, mods) = random_gen(&mut rng);
                let (e, n) = mods[0].clone();
                let window = |p: &FlatGen| window_of(&e, n, p);
                proptest::prop_assert_eq!(split_by_runs(&g, window), split_by_runs_cloning(&g, window));
                let range = |p: &FlatGen| {
                    mods.iter().map(|(e, _)| interval(e, p).map(|iv| (iv.lo, iv.hi))).collect::<Vec<_>>()
                };
                proptest::prop_assert_eq!(split_by_runs(&g, range), split_by_runs_cloning(&g, range));
            }
        }
    }
}
