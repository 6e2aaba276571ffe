//! WITH-loop folding (WLF).
//!
//! The paper (§VII, citing Scholz's original WLF work) describes the
//! optimisation as: "identifies consecutive WITH-loops with Use-Def
//! relationship and fuses them aggressively. This renders allocation of
//! intermediate arrays in memory unnecessary and, more importantly, avoids
//! expensive data copy and enables better data reuse."
//!
//! On the flat WIR this becomes: when array `A` is produced by one `With`
//! step and consumed by exactly one later `With` step, replace every
//! `A[e…]` load in the consumer by the producing generator's body with the
//! index expressions substituted. Because a producer has several generators
//! (each covering part of `A`), a consumer generator may need to be *split*
//! until each piece's accesses land in exactly one producer generator — this
//! splitting, plus the wrap-around modulo splitting that follows
//! ([`crate::opt::split::resolve_mods`]), is what turns the downscaler's
//! three folded loops into the paper's 5 (horizontal) / 7 (vertical)
//! generators.

use crate::opt::split::{split_by_runs, MAX_PIECES};
use crate::opt::sym::{congruence, interval};
use crate::wir::{FlatGen, FlatProgram, FlatWith, HostBinding, Step, SymExpr};

/// Outcome counters from a folding run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FoldStats {
    /// Producer → consumer fusions performed.
    pub folds: usize,
    /// Generators added by producer-region splitting.
    pub splits: usize,
}

/// Fold until fixpoint. Returns statistics.
///
/// Candidates that fail to fold (e.g. fusing across a filter boundary would
/// fragment generators beyond the split budget) are remembered and skipped,
/// so one unprofitable pair does not stop profitable folds elsewhere.
pub fn fold_program(p: &mut FlatProgram) -> FoldStats {
    let mut stats = FoldStats::default();
    let mut rejected: Vec<(usize, usize)> = Vec::new(); // (producer target, consumer target)
    while let Some((prod_idx, cons_idx)) = find_candidate(p, &rejected) {
        let key = (step_target(&p.steps[prod_idx]), step_target(&p.steps[cons_idx]));
        match try_fold(p, prod_idx, cons_idx) {
            Some(splits) => {
                stats.folds += 1;
                stats.splits += splits;
            }
            None => rejected.push(key),
        }
    }
    elide_covered_modarray(p);
    stats
}

fn step_target(s: &Step) -> usize {
    match s {
        Step::With { target, .. } | Step::Host { target, .. } => *target,
    }
}

/// Find a producer With step whose target is consumed by exactly one later
/// With step (and nowhere else), skipping rejected pairs.
fn find_candidate(p: &FlatProgram, rejected: &[(usize, usize)]) -> Option<(usize, usize)> {
    'outer: for (i, step) in p.steps.iter().enumerate() {
        let Step::With { target, .. } = step else { continue };
        if p.result == *target || p.inputs.contains(target) {
            continue;
        }
        let mut consumer: Option<usize> = None;
        let mut load_count = 0usize;
        for (j, other) in p.steps.iter().enumerate() {
            if i == j {
                continue;
            }
            match other {
                Step::With { with, .. } => {
                    if with.modarray_src == Some(*target) {
                        continue 'outer; // folding through modarray seeds is not supported
                    }
                    let mut loads = Vec::new();
                    for g in &with.generators {
                        g.body.loads(&mut loads);
                    }
                    let uses = loads.iter().filter(|&&a| a == *target).count();
                    if uses > 0 {
                        if consumer.is_some() && consumer != Some(j) {
                            continue 'outer;
                        }
                        if j < i {
                            continue 'outer;
                        }
                        consumer = Some(j);
                        load_count += uses;
                    }
                }
                Step::Host { bindings, .. } => {
                    if bindings.iter().any(|b| matches!(b, HostBinding::Array(a) if a == target)) {
                        continue 'outer;
                    }
                }
            }
        }
        if let Some(j) = consumer {
            if load_count > 0 && !rejected.contains(&(*target, step_target(&p.steps[j]))) {
                return Some((i, j));
            }
        }
    }
    None
}

/// Attempt to fold producer step `pi` into consumer step `ci`.
/// Returns the number of extra generators created, or `None` on failure
/// (in which case the program is left unchanged).
fn try_fold(p: &mut FlatProgram, pi: usize, ci: usize) -> Option<usize> {
    let (producer_target, producer) = match &p.steps[pi] {
        Step::With { target, with } => (*target, with.clone()),
        _ => return None,
    };
    let consumer = match &p.steps[ci] {
        Step::With { with, .. } => with.clone(),
        _ => return None,
    };

    let mut new_gens: Vec<FlatGen> = Vec::new();
    let before: usize = consumer.generators.len();
    for g in consumer.generators {
        let pieces = fold_generator(g, producer_target, &producer, 8)?;
        new_gens.extend(pieces);
        if new_gens.len() > MAX_PIECES * 4 {
            return None;
        }
    }
    let splits = new_gens.len().saturating_sub(before);

    // Commit: rewrite the consumer and delete the producer step.
    if let Step::With { with, .. } = &mut p.steps[ci] {
        with.generators = new_gens;
    }
    p.steps.remove(pi);
    Some(splits)
}

/// Fold all loads of `target` out of one generator, splitting as needed.
fn fold_generator(
    mut g: FlatGen,
    target: usize,
    producer: &FlatWith,
    depth: usize,
) -> Option<Vec<FlatGen>> {
    for _ in 0..64 {
        let Some(img) = first_load_of(&g.body, target) else {
            return Some(vec![g]);
        };
        match choose_producer_gen(&img, &g, producer) {
            Choice::Gen(k) => {
                let replacement = producer.generators[k].body.subst_idx(&img).simplify();
                g.body = replace_first_load(&g.body, target, &replacement).0;
            }
            Choice::Default => {
                let replacement = match producer.modarray_src {
                    Some(src) => SymExpr::Load { array: src, index: img.clone() },
                    None => SymExpr::Const(producer.default),
                };
                g.body = replace_first_load(&g.body, target, &replacement).0;
            }
            Choice::Ambiguous => {
                if depth == 0 {
                    return None;
                }
                let pieces = split_by_runs(&g, |pinned| {
                    match choose_producer_gen(&img, pinned, producer) {
                        Choice::Gen(k) => k as i64,
                        Choice::Default => -1,
                        Choice::Ambiguous => -2,
                    }
                })?;
                let mut out = Vec::new();
                for piece in pieces {
                    out.extend(fold_generator(piece, target, producer, depth - 1)?);
                    if out.len() > MAX_PIECES {
                        return None;
                    }
                }
                return Some(out);
            }
        }
    }
    None // did not converge
}

/// Which producer generator defines `A[img]` for every point of `g`?
enum Choice {
    /// A unique generator (index into the producer's generator list).
    Gen(usize),
    /// No generator covers: the default (or modarray source) value applies.
    Default,
    /// Mixed coverage: the consumer must be split.
    Ambiguous,
}

fn choose_producer_gen(img: &[SymExpr], g: &FlatGen, producer: &FlatWith) -> Choice {
    // Later generators shadow earlier ones, so scan from the end.
    for (k, pg) in producer.generators.iter().enumerate().rev() {
        match membership(img, g, pg) {
            Tri::Always => return Choice::Gen(k),
            Tri::Never => continue,
            Tri::Sometimes => return Choice::Ambiguous,
        }
    }
    Choice::Default
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Tri {
    Always,
    Never,
    Sometimes,
}

/// Is the image point `img` inside producer generator `pg`'s region, for all
/// lattice points of the consumer generator `g`?
fn membership(img: &[SymExpr], g: &FlatGen, pg: &FlatGen) -> Tri {
    debug_assert_eq!(img.len(), pg.rank());
    let mut all_always = true;
    for (d, img_d) in img.iter().enumerate() {
        let (l, u, s, w) = (pg.lower[d], pg.upper[d], pg.step[d], pg.width[d]);
        if l >= u {
            return Tri::Never;
        }
        let last_block = l + ((u - 1 - l) / s) * s;
        let hi = (last_block + w - 1).min(u - 1);

        // Interval containment in [lower, last] — checked independently of
        // the phase test so a phase refutation still yields Never even when
        // the interval is inconclusive.
        let mut dim_always = true;
        match interval(img_d, g) {
            Some(iv) if iv.disjoint(l, hi) => return Tri::Never,
            Some(iv) if iv.within(l, hi) => {}
            _ => dim_always = false,
        }
        // Lattice-phase containment.
        if s > 1 {
            if w == 1 {
                let c = congruence(img_d, g);
                if c.refutes(s, l) {
                    return Tri::Never;
                }
                if !c.implies(s, l) {
                    dim_always = false;
                }
            } else if w < s {
                // Width strips: only provable for constants.
                match interval(img_d, g) {
                    Some(iv) if iv.lo == iv.hi => {
                        if (iv.lo - l).rem_euclid(s) >= w {
                            return Tri::Never;
                        }
                    }
                    _ => dim_always = false,
                }
            }
        }
        all_always &= dim_always;
    }
    if all_always {
        Tri::Always
    } else {
        Tri::Sometimes
    }
}

/// First load of `target` in DFS order; returns its index expressions.
fn first_load_of(e: &SymExpr, target: usize) -> Option<Vec<SymExpr>> {
    match e {
        SymExpr::Const(_) | SymExpr::Idx(_) => None,
        SymExpr::Bin(_, l, r) => first_load_of(l, target).or_else(|| first_load_of(r, target)),
        SymExpr::Load { array, index } => {
            for ix in index {
                if let Some(found) = first_load_of(ix, target) {
                    return Some(found);
                }
            }
            if *array == target {
                Some(index.clone())
            } else {
                None
            }
        }
    }
}

/// Replace the first (same DFS order as [`first_load_of`]) load of `target`.
fn replace_first_load(e: &SymExpr, target: usize, replacement: &SymExpr) -> (SymExpr, bool) {
    match e {
        SymExpr::Const(_) | SymExpr::Idx(_) => (e.clone(), false),
        SymExpr::Bin(op, l, r) => {
            let (l2, done) = replace_first_load(l, target, replacement);
            if done {
                return (SymExpr::bin(*op, l2, (**r).clone()), true);
            }
            let (r2, done) = replace_first_load(r, target, replacement);
            (SymExpr::bin(*op, l2, r2), done)
        }
        SymExpr::Load { array, index } => {
            let mut new_index = Vec::with_capacity(index.len());
            let mut replaced = false;
            for ix in index {
                if replaced {
                    new_index.push(ix.clone());
                } else {
                    let (ix2, done) = replace_first_load(ix, target, replacement);
                    new_index.push(ix2);
                    replaced = done;
                }
            }
            if replaced {
                return (SymExpr::Load { array: *array, index: new_index }, true);
            }
            if *array == target {
                (replacement.clone(), true)
            } else {
                (SymExpr::Load { array: *array, index: new_index }, false)
            }
        }
    }
}

/// Turn `modarray(src)` loops whose generators cover the whole shape into
/// plain `genarray` loops (dropping the dependency on the seed array). This
/// matches the paper's folded result, which is a `genarray` (Figure 8).
pub fn elide_covered_modarray(p: &mut FlatProgram) {
    for step in &mut p.steps {
        let Step::With { with, .. } = step else { continue };
        if with.modarray_src.is_some() && covers_shape(&with.shape, &with.generators) {
            with.modarray_src = None;
            with.default = 0;
        }
    }
}

/// Does every index of `shape` lie in some generator of `gens`?
///
/// A generator's region is a product of per-dimension sets: coordinate `x`
/// of dimension `d` is in it iff `lower ≤ x < upper` and
/// `(x − lower) mod step < width`. So the question splits by dimension. For
/// each coordinate, the set of generators containing it is a bitset with one
/// bit per generator. The shape is covered iff every choice of one such set
/// per dimension has a non-empty intersection. Only distinct sets matter, and
/// the intersections are deduplicated dimension by dimension, so the cost is
/// the sum of the extents times the generator count, not the array size.
fn covers_shape(shape: &[usize], gens: &[FlatGen]) -> bool {
    if shape.contains(&0) {
        return true; // no index to miss
    }
    let words = gens.len().div_ceil(64);
    let mut all = vec![0u64; words];
    for k in 0..gens.len() {
        all[k / 64] |= 1 << (k % 64);
    }
    let mut partial = vec![all];
    for (d, &n) in shape.iter().enumerate() {
        let mut sets: Vec<Vec<u64>> = (0..n as i64)
            .map(|x| {
                let mut set = vec![0u64; words];
                for (k, g) in gens.iter().enumerate() {
                    let (l, u, s, w) = (g.lower[d], g.upper[d], g.step[d], g.width[d]);
                    if l <= x && x < u && (x - l).rem_euclid(s) < w {
                        set[k / 64] |= 1 << (k % 64);
                    }
                }
                set
            })
            .collect();
        sets.sort_unstable();
        sets.dedup();
        let mut next = Vec::with_capacity(partial.len() * sets.len());
        for p in &partial {
            for s in &sets {
                let meet: Vec<u64> = p.iter().zip(s).map(|(a, b)| a & b).collect();
                if meet.iter().all(|&w| w == 0) {
                    return false;
                }
                next.push(meet);
            }
        }
        next.sort_unstable();
        next.dedup();
        partial = next;
    }
    partial.iter().all(|p| p.iter().any(|&w| w != 0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::BinKind::*;
    use mdarray::NdArray;

    fn load(arr: usize, index: Vec<SymExpr>) -> SymExpr {
        SymExpr::Load { array: arr, index }
    }

    /// a -> b = a*2 -> c = b+1, all dense [8].
    fn pipeline_program() -> FlatProgram {
        let mut p = FlatProgram::default();
        let a = p.declare("a", vec![8]);
        let b = p.declare("b", vec![8]);
        let c = p.declare("c", vec![8]);
        p.inputs.push(a);
        p.result = c;
        p.steps.push(Step::With {
            target: b,
            with: FlatWith {
                shape: vec![8],
                default: 0,
                modarray_src: None,
                generators: vec![FlatGen::dense(
                    &[8],
                    SymExpr::bin(Mul, load(a, vec![SymExpr::Idx(0)]), SymExpr::Const(2)),
                )],
            },
        });
        p.steps.push(Step::With {
            target: c,
            with: FlatWith {
                shape: vec![8],
                default: 0,
                modarray_src: None,
                generators: vec![FlatGen::dense(
                    &[8],
                    SymExpr::bin(Add, load(b, vec![SymExpr::Idx(0)]), SymExpr::Const(1)),
                )],
            },
        });
        p
    }

    #[test]
    fn folds_simple_pipeline() {
        let mut p = pipeline_program();
        let input = NdArray::from_fn([8usize], |ix| ix[0] as i64);
        let expect = p.run(std::slice::from_ref(&input), &mut 0).unwrap();

        let stats = fold_program(&mut p);
        assert_eq!(stats.folds, 1);
        assert_eq!(p.steps.len(), 1);
        let got = p.run(&[input], &mut 0).unwrap();
        assert_eq!(got, expect);
        // Folded body reads `a` directly.
        match &p.steps[0] {
            Step::With { with, .. } => {
                let mut loads = Vec::new();
                with.generators[0].body.loads(&mut loads);
                assert_eq!(loads, vec![0]);
            }
            _ => panic!(),
        }
    }

    #[test]
    fn folds_across_region_structure() {
        // Producer with two generators (even/odd step-2 phases); consumer
        // reads with a shifted index, forcing phase analysis and a split-free
        // exact match per phase.
        let mut p = FlatProgram::default();
        let a = p.declare("a", vec![16]);
        let b = p.declare("b", vec![16]);
        let c = p.declare("c", vec![8]);
        p.inputs.push(a);
        p.result = c;
        let even = FlatGen {
            lower: vec![0],
            upper: vec![16],
            step: vec![2],
            width: vec![1],
            body: load(a, vec![SymExpr::Idx(0)]),
        };
        let odd = FlatGen {
            lower: vec![1],
            upper: vec![16],
            step: vec![2],
            width: vec![1],
            body: SymExpr::bin(Add, load(a, vec![SymExpr::Idx(0)]), SymExpr::Const(100)),
        };
        p.steps.push(Step::With {
            target: b,
            with: FlatWith {
                shape: vec![16],
                default: 0,
                modarray_src: None,
                generators: vec![even, odd],
            },
        });
        // c[t] = b[2t] + b[2t+1]
        let two_t = SymExpr::bin(Mul, SymExpr::Const(2), SymExpr::Idx(0));
        let body = SymExpr::bin(
            Add,
            load(b, vec![two_t.clone()]),
            load(b, vec![SymExpr::bin(Add, two_t, SymExpr::Const(1))]),
        );
        p.steps.push(Step::With {
            target: c,
            with: FlatWith {
                shape: vec![8],
                default: 0,
                modarray_src: None,
                generators: vec![FlatGen::dense(&[8], body)],
            },
        });

        let input = NdArray::from_fn([16usize], |ix| (ix[0] * 3) as i64);
        let expect = p.run(std::slice::from_ref(&input), &mut 0).unwrap();
        let stats = fold_program(&mut p);
        assert_eq!(stats.folds, 1);
        assert_eq!(p.steps.len(), 1);
        assert_eq!(p.run(&[input], &mut 0).unwrap(), expect);
    }

    #[test]
    fn splits_consumer_when_producer_regions_differ() {
        // Producer: [0,8) -> a[i], [8,16) -> -a[i]. Consumer reads b[i]
        // densely over [0,16): must split into two pieces.
        let mut p = FlatProgram::default();
        let a = p.declare("a", vec![16]);
        let b = p.declare("b", vec![16]);
        let c = p.declare("c", vec![16]);
        p.inputs.push(a);
        p.result = c;
        let lo_gen = FlatGen {
            lower: vec![0],
            upper: vec![8],
            step: vec![1],
            width: vec![1],
            body: load(a, vec![SymExpr::Idx(0)]),
        };
        let hi_gen = FlatGen {
            lower: vec![8],
            upper: vec![16],
            step: vec![1],
            width: vec![1],
            body: SymExpr::bin(Sub, SymExpr::Const(0), load(a, vec![SymExpr::Idx(0)])),
        };
        p.steps.push(Step::With {
            target: b,
            with: FlatWith {
                shape: vec![16],
                default: 0,
                modarray_src: None,
                generators: vec![lo_gen, hi_gen],
            },
        });
        p.steps.push(Step::With {
            target: c,
            with: FlatWith {
                shape: vec![16],
                default: 0,
                modarray_src: None,
                generators: vec![FlatGen::dense(
                    &[16],
                    SymExpr::bin(Add, load(b, vec![SymExpr::Idx(0)]), SymExpr::Const(5)),
                )],
            },
        });

        let input = NdArray::from_fn([16usize], |ix| ix[0] as i64 + 1);
        let expect = p.run(std::slice::from_ref(&input), &mut 0).unwrap();
        let stats = fold_program(&mut p);
        assert_eq!(stats.folds, 1);
        assert!(stats.splits >= 1);
        assert_eq!(p.steps.len(), 1);
        match &p.steps[0] {
            Step::With { with, .. } => assert_eq!(with.generators.len(), 2),
            _ => panic!(),
        }
        assert_eq!(p.run(&[input], &mut 0).unwrap(), expect);
    }

    #[test]
    fn uncovered_reads_fold_to_default() {
        // Producer covers [0,4) of an [8]-array with default 7; consumer
        // reads all of it.
        let mut p = FlatProgram::default();
        let a = p.declare("a", vec![8]);
        let b = p.declare("b", vec![8]);
        let c = p.declare("c", vec![8]);
        p.inputs.push(a);
        p.result = c;
        p.steps.push(Step::With {
            target: b,
            with: FlatWith {
                shape: vec![8],
                default: 7,
                modarray_src: None,
                generators: vec![FlatGen {
                    lower: vec![0],
                    upper: vec![4],
                    step: vec![1],
                    width: vec![1],
                    body: load(a, vec![SymExpr::Idx(0)]),
                }],
            },
        });
        p.steps.push(Step::With {
            target: c,
            with: FlatWith {
                shape: vec![8],
                default: 0,
                modarray_src: None,
                generators: vec![FlatGen::dense(&[8], load(b, vec![SymExpr::Idx(0)]))],
            },
        });
        let input = NdArray::from_fn([8usize], |ix| ix[0] as i64 * 10);
        let expect = p.run(std::slice::from_ref(&input), &mut 0).unwrap();
        fold_program(&mut p);
        assert_eq!(p.steps.len(), 1);
        assert_eq!(p.run(&[input], &mut 0).unwrap(), expect);
    }

    #[test]
    fn multiple_consumers_prevent_folding() {
        let mut p = pipeline_program();
        // Add a second consumer of b.
        let d = p.declare("d", vec![8]);
        p.steps.push(Step::With {
            target: d,
            with: FlatWith {
                shape: vec![8],
                default: 0,
                modarray_src: None,
                generators: vec![FlatGen::dense(&[8], load(1, vec![SymExpr::Idx(0)]))],
            },
        });
        let before = p.steps.len();
        let stats = fold_program(&mut p);
        assert_eq!(stats.folds, 0);
        assert_eq!(p.steps.len(), before);
    }

    #[test]
    fn covered_modarray_becomes_genarray() {
        let mut p = FlatProgram::default();
        let seed = p.declare("seed", vec![6]);
        let out = p.declare("out", vec![6]);
        p.inputs.push(seed);
        p.result = out;
        p.steps.push(Step::With {
            target: out,
            with: FlatWith {
                shape: vec![6],
                default: 0,
                modarray_src: Some(seed),
                generators: vec![
                    FlatGen {
                        lower: vec![0],
                        upper: vec![6],
                        step: vec![2],
                        width: vec![1],
                        body: SymExpr::Const(1),
                    },
                    FlatGen {
                        lower: vec![1],
                        upper: vec![6],
                        step: vec![2],
                        width: vec![1],
                        body: SymExpr::Const(2),
                    },
                ],
            },
        });
        elide_covered_modarray(&mut p);
        match &p.steps[0] {
            Step::With { with, .. } => assert!(with.modarray_src.is_none()),
            _ => panic!(),
        }
    }

    #[test]
    fn partially_covered_modarray_is_kept() {
        let mut p = FlatProgram::default();
        let seed = p.declare("seed", vec![6]);
        let out = p.declare("out", vec![6]);
        p.inputs.push(seed);
        p.result = out;
        p.steps.push(Step::With {
            target: out,
            with: FlatWith {
                shape: vec![6],
                default: 0,
                modarray_src: Some(seed),
                generators: vec![FlatGen {
                    lower: vec![0],
                    upper: vec![6],
                    step: vec![2],
                    width: vec![1],
                    body: SymExpr::Const(1),
                }],
            },
        });
        elide_covered_modarray(&mut p);
        match &p.steps[0] {
            Step::With { with, .. } => assert_eq!(with.modarray_src, Some(seed)),
            _ => panic!(),
        }
    }

    /// The enumerative decision [`covers_shape`] replaced: mark every
    /// generator point in an array-sized buffer.
    fn covers_by_enumeration(shape: &[usize], gens: &[FlatGen]) -> bool {
        let total: usize = shape.iter().product();
        let mut seen = vec![false; total];
        for g in gens {
            g.for_each_point(|iv| {
                let off = iv.iter().zip(shape).fold(0, |acc, (&x, &n)| acc * n + x as usize);
                seen[off] = true;
            });
        }
        seen.into_iter().all(|b| b)
    }

    /// A random in-shape generator over `shape`: a dense block or a strided
    /// strip per dimension.
    fn random_gen(rng: &mut proptest::TestRng, shape: &[usize]) -> FlatGen {
        let mut g = FlatGen::dense(shape, SymExpr::Const(0));
        for (d, &n) in shape.iter().enumerate() {
            if rng.below(2) == 0 {
                continue; // dense along d
            }
            let n = n as i64;
            let lower = rng.below(n as u64 + 1) as i64;
            g.lower[d] = lower;
            g.upper[d] = lower + rng.below((n - lower) as u64 + 1) as i64;
            g.step[d] = 1 + rng.below(3) as i64;
            g.width[d] = 1 + rng.below(g.step[d] as u64) as i64;
        }
        g
    }

    proptest::proptest! {
        /// Deciding coverage per dimension gives the same elision decision as
        /// marking every point, on covering and non-covering sets alike.
        #[test]
        fn coverage_matches_enumeration(seed in proptest::prelude::any::<u64>()) {
            let mut rng = proptest::TestRng::new(seed);
            let mut covered = 0;
            for _ in 0..32 {
                let rank = rng.below(4) as usize;
                let shape: Vec<usize> = (0..rank).map(|_| 1 + rng.below(6) as usize).collect();
                let count = rng.below(7) as usize;
                let gens: Vec<FlatGen> = (0..count).map(|_| random_gen(&mut rng, &shape)).collect();
                let want = covers_by_enumeration(&shape, &gens);
                proptest::prop_assert_eq!(covers_shape(&shape, &gens), want, "{:?} {:?}", shape, gens);
                covered += usize::from(want);
            }
            proptest::prop_assert!(covered < 32);
        }
    }

    #[test]
    fn coverage_needs_every_combination_of_dimension_sets() {
        // Rows 0..2 and 2..4 are each covered, and so are columns 0..2 and
        // 2..4, but by the two diagonal blocks only: (0, 2) is missed.
        let block = |r: i64, c: i64| FlatGen {
            lower: vec![r, c],
            upper: vec![r + 2, c + 2],
            step: vec![1, 1],
            width: vec![1, 1],
            body: SymExpr::Const(0),
        };
        let diagonal = [block(0, 0), block(2, 2)];
        assert!(!covers_shape(&[4, 4], &diagonal));
        let all = [block(0, 0), block(2, 2), block(0, 2), block(2, 0)];
        assert!(covers_shape(&[4, 4], &all));
        // Far more generators than one bitset word holds.
        let strips: Vec<FlatGen> = (0..130).map(|c| block(0, c)).collect();
        assert!(covers_shape(&[2, 131], &strips));
        assert!(!covers_shape(&[2, 133], &strips));
    }
}
