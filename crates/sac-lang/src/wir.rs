//! WIR — the flat WITH-loop intermediate representation.
//!
//! Lowering (see [`crate::opt::lower`]) turns an inlined SaC function into a
//! `FlatProgram`: a sequence of steps, each either a *flat WITH-loop* (scalar
//! cells, explicit bounds/step/width, a symbolic scalar body per generator) or
//! a *host step* (an unlowerable construct — the paper's generic output tiler
//! `for` nest — kept as AST to be interpreted on the host).
//!
//! This is the representation on which WITH-loop folding operates and from
//! which the CUDA backend generates one kernel per generator. It also has a
//! direct sequential evaluator used both as a cross-check against the AST
//! interpreter and as the op-counting engine behind the *SAC-Seq* numbers.

use crate::ast::{BinKind, FunDef};
use crate::eval::Interp;
use crate::value::{euclid_mod, trunc_div, Value};
use crate::SacError;
use mdarray::NdArray;

/// A symbolic scalar expression over the index variables of one generator.
#[derive(Debug, Clone, PartialEq)]
pub enum SymExpr {
    /// Integer constant.
    Const(i64),
    /// Component `d` of the generator's index vector.
    Idx(usize),
    /// Binary operation (`Concat` never appears; `Mod` is Euclidean).
    Bin(BinKind, Box<SymExpr>, Box<SymExpr>),
    /// Load `arrays[array][index...]` — the index is one component per
    /// dimension of the source array.
    Load {
        /// Array id within the [`FlatProgram`].
        array: usize,
        /// One index expression per array dimension.
        index: Vec<SymExpr>,
    },
}

impl SymExpr {
    /// Shorthand constructor.
    pub fn bin(op: BinKind, l: SymExpr, r: SymExpr) -> SymExpr {
        SymExpr::Bin(op, Box::new(l), Box::new(r))
    }

    /// Count nodes (used in tests and cost heuristics).
    pub fn node_count(&self) -> usize {
        match self {
            SymExpr::Const(_) | SymExpr::Idx(_) => 1,
            SymExpr::Bin(_, l, r) => 1 + l.node_count() + r.node_count(),
            SymExpr::Load { index, .. } => 1 + index.iter().map(|e| e.node_count()).sum::<usize>(),
        }
    }

    /// All array ids loaded from, in syntactic order (with repeats).
    pub fn loads(&self, out: &mut Vec<usize>) {
        match self {
            SymExpr::Const(_) | SymExpr::Idx(_) => {}
            SymExpr::Bin(_, l, r) => {
                l.loads(out);
                r.loads(out);
            }
            SymExpr::Load { array, index } => {
                out.push(*array);
                for e in index {
                    e.loads(out);
                }
            }
        }
    }

    /// Constant-simplify: fold constant subtrees and algebraic identities
    /// (`x+0`, `x*1`, `x*0`, `0/n`…). Pure syntactic rewriting.
    pub fn simplify(self) -> SymExpr {
        match self {
            SymExpr::Bin(op, l, r) => {
                let l = l.simplify();
                let r = r.simplify();
                if let (SymExpr::Const(a), SymExpr::Const(b)) = (&l, &r) {
                    if let Some(v) = eval_const(op, *a, *b) {
                        return SymExpr::Const(v);
                    }
                }
                match (op, &l, &r) {
                    (BinKind::Add, SymExpr::Const(0), _) => r,
                    (BinKind::Add, _, SymExpr::Const(0)) => l,
                    (BinKind::Sub, _, SymExpr::Const(0)) => l,
                    (BinKind::Mul, SymExpr::Const(1), _) => r,
                    (BinKind::Mul, _, SymExpr::Const(1)) => l,
                    (BinKind::Mul, SymExpr::Const(0), _) => SymExpr::Const(0),
                    (BinKind::Mul, _, SymExpr::Const(0)) => SymExpr::Const(0),
                    (BinKind::Div, _, SymExpr::Const(1)) => l,
                    _ => SymExpr::Bin(op, Box::new(l), Box::new(r)),
                }
            }
            SymExpr::Load { array, index } => {
                SymExpr::Load { array, index: index.into_iter().map(|e| e.simplify()).collect() }
            }
            other => other,
        }
    }

    /// Substitute each `Idx(d)` by `subst[d]` (used by WITH-loop folding).
    pub fn subst_idx(&self, subst: &[SymExpr]) -> SymExpr {
        match self {
            SymExpr::Const(v) => SymExpr::Const(*v),
            SymExpr::Idx(d) => subst[*d].clone(),
            SymExpr::Bin(op, l, r) => SymExpr::bin(*op, l.subst_idx(subst), r.subst_idx(subst)),
            SymExpr::Load { array, index } => SymExpr::Load {
                array: *array,
                index: index.iter().map(|e| e.subst_idx(subst)).collect(),
            },
        }
    }

    /// Evaluate with concrete index values against the program's array store.
    /// `ops` counts visited nodes (loads count double: address + access).
    pub fn eval(
        &self,
        iv: &[i64],
        store: &[Option<NdArray<i64>>],
        ops: &mut u64,
    ) -> Result<i64, SacError> {
        *ops += 1;
        match self {
            SymExpr::Const(v) => Ok(*v),
            SymExpr::Idx(d) => Ok(iv[*d]),
            SymExpr::Bin(op, l, r) => {
                let a = l.eval(iv, store, ops)?;
                let b = r.eval(iv, store, ops)?;
                eval_const_checked(*op, a, b)
            }
            SymExpr::Load { array, index } => {
                *ops += 1;
                let arr = store[*array]
                    .as_ref()
                    .ok_or_else(|| SacError::Eval { msg: format!("array {array} not computed") })?;
                let mut ix = Vec::with_capacity(index.len());
                for (d, e) in index.iter().enumerate() {
                    let x = e.eval(iv, store, ops)?;
                    let extent = arr.shape().dim(d) as i64;
                    if x < 0 || x >= extent {
                        return Err(SacError::Eval {
                            msg: format!("flat load index {x} out of bounds (extent {extent})"),
                        });
                    }
                    ix.push(x as usize);
                }
                Ok(*arr.get_unchecked(&ix))
            }
        }
    }
}

fn eval_const(op: BinKind, a: i64, b: i64) -> Option<i64> {
    eval_const_checked(op, a, b).ok()
}

fn eval_const_checked(op: BinKind, a: i64, b: i64) -> Result<i64, SacError> {
    Ok(match op {
        BinKind::Add => a.wrapping_add(b),
        BinKind::Sub => a.wrapping_sub(b),
        BinKind::Mul => a.wrapping_mul(b),
        BinKind::Div => trunc_div(a, b)?,
        BinKind::Mod => euclid_mod(a, b)?,
        BinKind::Lt => (a < b) as i64,
        BinKind::Le => (a <= b) as i64,
        BinKind::Gt => (a > b) as i64,
        BinKind::Ge => (a >= b) as i64,
        BinKind::Eq => (a == b) as i64,
        BinKind::Ne => (a != b) as i64,
        BinKind::Concat => {
            return Err(SacError::Eval { msg: "concat is not a scalar operation".into() })
        }
    })
}

/// One generator of a flat WITH-loop.
///
/// Covers `{ iv : lower <= iv < upper ∧ (iv-lower) mod step < width }`,
/// writing `body(iv)` to the target array at `iv`.
#[derive(Debug, Clone, PartialEq)]
pub struct FlatGen {
    /// Inclusive lower bound.
    pub lower: Vec<i64>,
    /// Exclusive upper bound.
    pub upper: Vec<i64>,
    /// Step filter (≥ 1 per dimension).
    pub step: Vec<i64>,
    /// Width filter (1 ≤ width ≤ step).
    pub width: Vec<i64>,
    /// Scalar cell expression.
    pub body: SymExpr,
}

impl FlatGen {
    /// A dense generator covering the whole `shape`.
    pub fn dense(shape: &[usize], body: SymExpr) -> FlatGen {
        FlatGen {
            lower: vec![0; shape.len()],
            upper: shape.iter().map(|&d| d as i64).collect(),
            step: vec![1; shape.len()],
            width: vec![1; shape.len()],
            body,
        }
    }

    /// Rank of the index space.
    pub fn rank(&self) -> usize {
        self.lower.len()
    }

    /// Number of lattice points covered.
    pub fn points(&self) -> u64 {
        let mut n = 1u64;
        for d in 0..self.rank() {
            let extent = (self.upper[d] - self.lower[d]).max(0) as u64;
            let (s, w) = (self.step[d] as u64, self.width[d] as u64);
            let full = extent / s;
            let rem = (extent % s).min(w);
            n *= full * w + rem;
        }
        n
    }

    /// Is the region empty?
    pub fn is_empty(&self) -> bool {
        self.points() == 0
    }

    /// Visit every lattice point.
    pub fn for_each_point(&self, mut f: impl FnMut(&[i64])) {
        if self.is_empty() {
            return;
        }
        let rank = self.rank();
        let mut iv = self.lower.clone();
        loop {
            if iv
                .iter()
                .zip(&self.lower)
                .zip(self.step.iter().zip(&self.width))
                .all(|((x, l), (s, w))| (x - l).rem_euclid(*s) < *w)
            {
                f(&iv);
            }
            let mut d = rank;
            loop {
                if d == 0 {
                    return;
                }
                d -= 1;
                iv[d] += 1;
                if iv[d] < self.upper[d] {
                    break;
                }
                iv[d] = self.lower[d];
            }
        }
    }
}

/// A flat WITH-loop: scalar-celled, explicit shape, one or more generators.
#[derive(Debug, Clone, PartialEq)]
pub struct FlatWith {
    /// Result shape.
    pub shape: Vec<usize>,
    /// Default cell value for uncovered indices (genarray).
    pub default: i64,
    /// For lowered `modarray`: the array whose copy seeds the result.
    pub modarray_src: Option<usize>,
    /// The generators; later generators win overlaps.
    pub generators: Vec<FlatGen>,
}

/// An array declared in a flat program.
#[derive(Debug, Clone, PartialEq)]
pub struct ArrayDef {
    /// Diagnostic name (source variable it came from).
    pub name: String,
    /// Shape.
    pub shape: Vec<usize>,
}

/// One execution step.
#[derive(Debug, Clone)]
pub enum Step {
    /// Compute `target` with a flat WITH-loop (GPU-eligible: this is what the
    /// paper calls a CUDA-WITH-loop once it reaches the backend).
    With {
        /// Target array id.
        target: usize,
        /// The loop.
        with: FlatWith,
    },
    /// Run an unlowerable piece on the host via the AST interpreter. The
    /// synthesized function receives `bindings` as arguments and returns the
    /// new contents of `target`.
    Host {
        /// Target array id.
        target: usize,
        /// Synthesized single-function wrapper around the original AST.
        fun: FunDef,
        /// Positional bindings for the wrapper's parameters.
        bindings: Vec<HostBinding>,
        /// Why this step could not be lowered (for reports).
        reason: String,
    },
}

/// How a host-step parameter is bound.
#[derive(Debug, Clone)]
pub enum HostBinding {
    /// Pass the current contents of a program array.
    Array(usize),
    /// Pass a constant value.
    Const(Value),
}

/// A lowered program: arrays, external inputs, steps, and the result array.
#[derive(Debug, Clone, Default)]
pub struct FlatProgram {
    /// All arrays; ids index into this.
    pub arrays: Vec<ArrayDef>,
    /// Ids bound to caller-supplied arrays, in parameter order.
    pub inputs: Vec<usize>,
    /// Steps in execution order.
    pub steps: Vec<Step>,
    /// Id of the returned array.
    pub result: usize,
}

impl FlatProgram {
    /// Declare an array, returning its id.
    pub fn declare(&mut self, name: impl Into<String>, shape: Vec<usize>) -> usize {
        self.arrays.push(ArrayDef { name: name.into(), shape });
        self.arrays.len() - 1
    }

    /// Total generators across all With steps (= kernel count after codegen).
    pub fn generator_count(&self) -> usize {
        self.steps
            .iter()
            .map(|s| match s {
                Step::With { with, .. } => with.generators.len(),
                Step::Host { .. } => 0,
            })
            .sum()
    }

    /// A fresh evaluation store with the caller's inputs bound, after
    /// checking their count and shapes against the declared inputs.
    fn bind_inputs(&self, inputs: &[NdArray<i64>]) -> Result<Vec<Option<NdArray<i64>>>, SacError> {
        if inputs.len() != self.inputs.len() {
            return Err(SacError::Eval {
                msg: format!("expected {} inputs, got {}", self.inputs.len(), inputs.len()),
            });
        }
        let mut store: Vec<Option<NdArray<i64>>> = vec![None; self.arrays.len()];
        for (&id, arr) in self.inputs.iter().zip(inputs) {
            if arr.shape().dims() != self.arrays[id].shape.as_slice() {
                return Err(SacError::Eval {
                    msg: format!(
                        "input '{}' has shape {:?}, expected {:?}",
                        self.arrays[id].name,
                        arr.shape().dims(),
                        self.arrays[id].shape
                    ),
                });
            }
            store[id] = Some(arr.clone());
        }
        Ok(store)
    }

    /// Execute sequentially. Returns the result array; `ops` accumulates the
    /// abstract op count that models SAC-Seq execution cost.
    pub fn run(&self, inputs: &[NdArray<i64>], ops: &mut u64) -> Result<NdArray<i64>, SacError> {
        let mut store = self.bind_inputs(inputs)?;

        for step in &self.steps {
            match step {
                Step::With { target, with } => {
                    let mut out = match with.modarray_src {
                        Some(src) => store[src]
                            .as_ref()
                            .ok_or_else(|| SacError::Eval {
                                msg: format!("modarray source {src} not computed"),
                            })?
                            .clone(),
                        None => crate::builtins::genarray(with.shape.clone(), with.default)?,
                    };
                    for gen in &with.generators {
                        let mut err = None;
                        gen.for_each_point(|iv| {
                            if err.is_some() {
                                return;
                            }
                            match gen.body.eval(iv, &store, ops) {
                                Ok(v) => {
                                    let ix: Vec<usize> = iv.iter().map(|&x| x as usize).collect();
                                    out.set_unchecked(&ix, v);
                                }
                                Err(e) => err = Some(e),
                            }
                        });
                        if let Some(e) = err {
                            return Err(e);
                        }
                    }
                    store[*target] = Some(out);
                }
                Step::Host { target, fun, bindings, .. } => {
                    let (out, host_ops) = run_host_step(fun, bindings, |id| stored(&store, id))?;
                    *ops += host_ops;
                    store[*target] = Some(out);
                }
            }
        }
        store[self.result]
            .take()
            .ok_or_else(|| SacError::Eval { msg: "result array never computed".into() })
    }
}

/// Run one host step: call `fun` in a fresh interpreter with its
/// parameters bound per `bindings`, fetching each bound program array
/// through `array`. Returns the new contents of the step's target and the
/// interpreter's abstract op count. The flat evaluators and the CUDA
/// route's host fallback both run host steps through this one function.
pub fn run_host_step(
    fun: &FunDef,
    bindings: &[HostBinding],
    mut array: impl FnMut(usize) -> Result<NdArray<i64>, SacError>,
) -> Result<(NdArray<i64>, u64), SacError> {
    let args = bindings
        .iter()
        .map(|b| match b {
            HostBinding::Array(id) => array(*id).map(Value::Arr),
            HostBinding::Const(v) => Ok(v.clone()),
        })
        .collect::<Result<Vec<Value>, SacError>>()?;
    let prog = crate::ast::Program { funs: vec![fun.clone()] };
    let mut interp = Interp::new(&prog);
    let out = interp.call(&fun.name, args)?;
    Ok((out.as_array()?.clone(), interp.ops))
}

/// The computed contents of array `id` in an evaluation store.
fn stored(store: &[Option<NdArray<i64>>], id: usize) -> Result<NdArray<i64>, SacError> {
    store[id]
        .clone()
        .ok_or_else(|| SacError::Eval { msg: format!("host step input {id} not computed") })
}

impl std::fmt::Display for FlatProgram {
    /// Render in SaC-like syntax — this reproduces the paper's Figure 8
    /// artefact when applied to the folded downscaler.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for (id, a) in self.arrays.iter().enumerate() {
            if self.inputs.contains(&id) {
                writeln!(
                    f,
                    "int[{}] {};   // external input",
                    a.shape.iter().map(|d| d.to_string()).collect::<Vec<_>>().join(","),
                    a.name
                )?;
            }
        }
        for step in &self.steps {
            match step {
                Step::With { target, with } => {
                    let t = &self.arrays[*target];
                    writeln!(f, "{} = with {{", t.name)?;
                    for g in &with.generators {
                        let fmt_vec = |v: &[i64]| {
                            format!(
                                "[{}]",
                                v.iter().map(|x| x.to_string()).collect::<Vec<_>>().join(",")
                            )
                        };
                        write!(f, "  ( {} <= iv < {}", fmt_vec(&g.lower), fmt_vec(&g.upper))?;
                        if g.step.iter().any(|&s| s != 1) {
                            write!(f, " step {}", fmt_vec(&g.step))?;
                        }
                        if g.width.iter().any(|&w| w != 1) {
                            write!(f, " width {}", fmt_vec(&g.width))?;
                        }
                        writeln!(f, " ) : {};", self.fmt_sym(&g.body))?;
                    }
                    match with.modarray_src {
                        Some(src) => writeln!(f, "}} : modarray( {});", self.arrays[src].name)?,
                        None => writeln!(
                            f,
                            "}} : genarray( [{}], {});",
                            with.shape.iter().map(|d| d.to_string()).collect::<Vec<_>>().join(","),
                            with.default
                        )?,
                    }
                }
                Step::Host { target, reason, .. } => {
                    writeln!(f, "{} = <host step: {}>;", self.arrays[*target].name, reason)?;
                }
            }
        }
        writeln!(f, "return( {});", self.arrays[self.result].name)
    }
}

impl FlatProgram {
    fn fmt_sym(&self, e: &SymExpr) -> String {
        match e {
            SymExpr::Const(v) => v.to_string(),
            SymExpr::Idx(d) => format!("iv{d}"),
            SymExpr::Bin(op, l, r) => {
                let o = match op {
                    BinKind::Add => "+",
                    BinKind::Sub => "-",
                    BinKind::Mul => "*",
                    BinKind::Div => "/",
                    BinKind::Mod => "%",
                    BinKind::Lt => "<",
                    BinKind::Le => "<=",
                    BinKind::Gt => ">",
                    BinKind::Ge => ">=",
                    BinKind::Eq => "==",
                    BinKind::Ne => "!=",
                    BinKind::Concat => "++",
                };
                format!("({} {} {})", self.fmt_sym(l), o, self.fmt_sym(r))
            }
            SymExpr::Load { array, index } => {
                let name = self
                    .arrays
                    .get(*array)
                    .map(|a| a.name.clone())
                    .unwrap_or_else(|| format!("arr{array}"));
                format!(
                    "{name}[[{}]]",
                    index.iter().map(|e| self.fmt_sym(e)).collect::<Vec<_>>().join(", ")
                )
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use BinKind::*;

    #[test]
    fn simplify_folds_constants_and_identities() {
        let e = SymExpr::bin(Add, SymExpr::Const(2), SymExpr::Const(3)).simplify();
        assert_eq!(e, SymExpr::Const(5));
        let e = SymExpr::bin(Mul, SymExpr::Idx(0), SymExpr::Const(1)).simplify();
        assert_eq!(e, SymExpr::Idx(0));
        let e = SymExpr::bin(Add, SymExpr::Idx(0), SymExpr::Const(0)).simplify();
        assert_eq!(e, SymExpr::Idx(0));
        let e = SymExpr::bin(Mul, SymExpr::Idx(0), SymExpr::Const(0)).simplify();
        assert_eq!(e, SymExpr::Const(0));
        // Euclidean mod in constant folding.
        let e = SymExpr::bin(Mod, SymExpr::Const(-1), SymExpr::Const(10)).simplify();
        assert_eq!(e, SymExpr::Const(9));
    }

    #[test]
    fn subst_replaces_index_vars() {
        let body = SymExpr::bin(Add, SymExpr::Idx(0), SymExpr::Idx(1));
        let s = body
            .subst_idx(&[SymExpr::Const(5), SymExpr::bin(Mul, SymExpr::Idx(0), SymExpr::Const(2))]);
        let v = s.eval(&[3], &[], &mut 0).unwrap();
        assert_eq!(v, 11);
    }

    #[test]
    fn flat_gen_point_counting() {
        let g = FlatGen {
            lower: vec![0, 1],
            upper: vec![2, 7],
            step: vec![1, 3],
            width: vec![1, 1],
            body: SymExpr::Const(0),
        };
        // dim0: 2 points; dim1: from 1 step 3 in [1,7): {1,4} = 2 points.
        assert_eq!(g.points(), 4);
        let mut seen = Vec::new();
        g.for_each_point(|iv| seen.push(iv.to_vec()));
        assert_eq!(seen.len(), 4);
        assert!(seen.contains(&vec![1, 4]));
    }

    #[test]
    fn dense_generator_covers_shape() {
        let g = FlatGen::dense(&[3, 4], SymExpr::Const(1));
        assert_eq!(g.points(), 12);
    }

    #[test]
    fn width_greater_than_one() {
        let g = FlatGen {
            lower: vec![0],
            upper: vec![10],
            step: vec![4],
            width: vec![2],
            body: SymExpr::Const(0),
        };
        // {0,1, 4,5, 8,9} = 6 points.
        assert_eq!(g.points(), 6);
        let mut seen = Vec::new();
        g.for_each_point(|iv| seen.push(iv[0]));
        assert_eq!(seen, vec![0, 1, 4, 5, 8, 9]);
    }

    #[test]
    fn run_executes_generators_in_order() {
        let mut p = FlatProgram::default();
        let a = p.declare("a", vec![4]);
        let out = p.declare("out", vec![4]);
        p.inputs.push(a);
        p.result = out;
        p.steps.push(Step::With {
            target: out,
            with: FlatWith {
                shape: vec![4],
                default: -1,
                modarray_src: None,
                generators: vec![
                    FlatGen::dense(
                        &[4],
                        SymExpr::bin(
                            Mul,
                            SymExpr::Load { array: a, index: vec![SymExpr::Idx(0)] },
                            SymExpr::Const(2),
                        ),
                    ),
                    FlatGen {
                        lower: vec![0],
                        upper: vec![1],
                        step: vec![1],
                        width: vec![1],
                        body: SymExpr::Const(99),
                    },
                ],
            },
        });
        let input = NdArray::from_vec([4usize], vec![1, 2, 3, 4]).unwrap();
        let mut ops = 0;
        let out = p.run(&[input], &mut ops).unwrap();
        assert_eq!(out.as_slice(), &[99, 4, 6, 8]);
        assert!(ops > 0);
    }

    #[test]
    fn run_validates_inputs() {
        let mut p = FlatProgram::default();
        let a = p.declare("a", vec![4]);
        p.inputs.push(a);
        p.result = a;
        assert!(p.run(&[], &mut 0).is_err());
        let wrong = NdArray::filled([5usize], 0i64);
        assert!(p.run(&[wrong], &mut 0).is_err());
    }

    /// Both forms of an over-large `genarray` fail with a typed error, not
    /// a "capacity overflow" panic: the bare call while optimising (lowering
    /// evaluates it), and the WITH-loop over it when the flat program runs.
    /// The reference interpreter refuses the WITH-loop forms too: with a
    /// default, without one, and without one over an empty generator.
    #[test]
    fn over_large_genarray_is_a_typed_error() {
        use crate::opt::{optimize, ArgDesc, OptConfig};
        let parse = |body: &str| {
            let src = format!("int[*] main(int[1] a) {{ out = {body}; return( out); }}");
            crate::parse_program(&src).unwrap()
        };
        let compile = |body: &str| {
            let args = [ArgDesc::Array { name: "a".into(), shape: vec![1] }];
            optimize(&parse(body), "main", &args, &OptConfig::default()).map(|(flat, _)| flat)
        };
        let interpret = |body: &str| {
            let arg = Value::Arr(NdArray::filled([1usize], 0));
            Interp::new(&parse(body)).call("main", vec![arg])
        };
        let too_large = |e: &SacError| e.to_string().contains("too many elements");
        let too_large_eval = |e: &SacError| matches!(e, SacError::Eval { .. }) && too_large(e);

        let err = compile("genarray([9999999999,9999999999], 0)").unwrap_err();
        assert!(too_large(&err), "{err:?}");

        let with_loop =
            "with { (. <= iv <= .) : a[[0]] + 1; } : genarray([9999999999,9999999999], 0)";
        let flat = compile(with_loop).unwrap();
        let err = flat.run(&[NdArray::filled([1usize], 0)], &mut 0).unwrap_err();
        assert!(too_large_eval(&err), "{err:?}");

        for body in [
            with_loop,
            "with { (. <= iv <= .) : a[[0]] + 1; } : genarray([9999999999,9999999999])",
            "with { ([0,0] <= iv < [0,0]) : 1; } : genarray([9999999999,9999999999])",
        ] {
            let err = interpret(body).unwrap_err();
            assert!(too_large_eval(&err), "{body}: {err:?}");
        }
    }

    #[test]
    fn display_renders_sac_like_text() {
        let mut p = FlatProgram::default();
        let a = p.declare("in_frame", vec![4, 8]);
        let out = p.declare("output", vec![4, 8]);
        p.inputs.push(a);
        p.result = out;
        p.steps.push(Step::With {
            target: out,
            with: FlatWith {
                shape: vec![4, 8],
                default: 0,
                modarray_src: None,
                generators: vec![FlatGen {
                    lower: vec![0, 1],
                    upper: vec![4, 8],
                    step: vec![1, 3],
                    width: vec![1, 1],
                    body: SymExpr::Load { array: a, index: vec![SymExpr::Idx(0), SymExpr::Idx(1)] },
                }],
            },
        });
        let text = p.to_string();
        assert!(text.contains("output = with {"), "{text}");
        assert!(text.contains("( [0,1] <= iv < [4,8] step [1,3] )"), "{text}");
        assert!(text.contains("in_frame[[iv0, iv1]]"), "{text}");
        assert!(text.contains("genarray( [4,8], 0)"), "{text}");
    }
}
