//! Lowering: inlined AST → flat WIR.
//!
//! This pass performs, in one sweep, what sac2c spreads over several phases:
//!
//! * **constant propagation** — tiler matrices, pattern shapes and repetition
//!   spaces become known values,
//! * **vector scalarisation** — index vectors (`rep ++ pat`,
//!   `MV(CAT(paving, fitting), …)`, `off % shape(f)`) become per-component
//!   symbolic scalar expressions over generator index variables,
//! * **WITH-loop scalarisation** — nested WITH-loops (the input tiler's
//!   tile-producing inner loop) and the `tile = genarray(...); tile[k] = …`
//!   idiom (the task function) are flattened into scalar-celled generators
//!   over the concatenated index space,
//! * **host fallback** — constructs outside the data-parallel fragment
//!   (the generic output tiler's `for` nest) become [`Step::Host`] entries,
//!   exactly mirroring the paper: "the SAC compiler does not attempt to
//!   parallelise loops apart from WITH-loops, \[so\] the for-loop nest is
//!   executed on the host".

use crate::ast::*;
use crate::builtins::{call_builtin, is_builtin};
use crate::value::Value;
use crate::wir::{FlatGen, FlatProgram, FlatWith, HostBinding, Step, SymExpr};
use crate::SacError;
use std::collections::HashMap;

/// How an entry-function argument is supplied.
#[derive(Debug, Clone)]
pub enum ArgDesc {
    /// A runtime array input of known shape.
    Array {
        /// Diagnostic name.
        name: String,
        /// The (AKS) shape.
        shape: Vec<usize>,
    },
    /// A compile-time constant (scalars, tiler vectors/matrices).
    Const(Value),
}

/// Lower `entry` (already inlined) to a flat program.
pub fn lower_function(entry: &FunDef, args: &[ArgDesc]) -> Result<FlatProgram, SacError> {
    if entry.params.len() != args.len() {
        return Err(SacError::NotLowerable {
            construct: "entry".into(),
            msg: format!(
                "expected {} argument descriptors, got {}",
                entry.params.len(),
                args.len()
            ),
        });
    }
    let mut lw = Lowerer { prog: FlatProgram::default(), env: HashMap::new(), ctx_rank: 0, tmp: 0 };
    for ((_, pname), desc) in entry.params.iter().zip(args) {
        match desc {
            ArgDesc::Array { name, shape } => {
                let id = lw.prog.declare(name.clone(), shape.clone());
                lw.prog.inputs.push(id);
                lw.env.insert(pname.clone(), LV::Array(id));
            }
            ArgDesc::Const(v) => {
                lw.env.insert(pname.clone(), LV::Known(v.clone()));
            }
        }
    }
    let flat = flatten_blocks(&entry.body);
    let result = lw.lower_toplevel(&flat)?;
    lw.prog.result = result;
    Ok(lw.prog)
}

/// Splice `Expr::Block`s produced by the inliner into straight-line statement
/// lists (inliner-renamed names are globally unique, so flattening is safe).
fn flatten_blocks(stmts: &[Stmt]) -> Vec<Stmt> {
    let mut out = Vec::new();
    for s in stmts {
        match s {
            Stmt::Assign(lv, Expr::Block(inner, res)) => {
                out.extend(flatten_blocks(inner));
                out.extend(flatten_blocks(&[Stmt::Assign(lv.clone(), (**res).clone())]));
            }
            Stmt::Return(Expr::Block(inner, res)) => {
                out.extend(flatten_blocks(inner));
                out.extend(flatten_blocks(&[Stmt::Return((**res).clone())]));
            }
            other => out.push(other.clone()),
        }
    }
    out
}

/// A lowered value.
#[derive(Debug, Clone)]
enum LV {
    /// Fully known constant.
    Known(Value),
    /// Symbolic scalar over generator index variables.
    Scalar(SymExpr),
    /// Symbolic vector of known length.
    Vector(Vec<SymExpr>),
    /// A program-level array.
    Array(usize),
    /// Partial selection into an array: `array[prefix…]`.
    Slice {
        /// Array id.
        array: usize,
        /// Leading index components already applied.
        prefix: Vec<SymExpr>,
    },
    /// A with-loop lowered inside a generator context (a "tile"): its own
    /// dims occupy `Idx(base..base+shape.len())`.
    Nested(NestedW),
}

#[derive(Debug, Clone)]
struct NestedW {
    shape: Vec<usize>,
    default: i64,
    /// Generators with bounds over the nested dims only; bodies may reference
    /// outer `Idx` values below `base`.
    gens: Vec<FlatGen>,
    /// First `Idx` number of the nested dims.
    base: usize,
}

struct Lowerer {
    prog: FlatProgram,
    env: HashMap<String, LV>,
    /// Number of generator index vars currently in scope.
    ctx_rank: usize,
    tmp: usize,
}

fn not_lowerable(construct: &str, msg: impl Into<String>) -> SacError {
    SacError::NotLowerable { construct: construct.into(), msg: msg.into() }
}

impl Lowerer {
    // ---- toplevel ------------------------------------------------------

    fn lower_toplevel(&mut self, stmts: &[Stmt]) -> Result<usize, SacError> {
        for s in stmts {
            match s {
                Stmt::Assign(LValue::Var(name), e) => {
                    let lv = self.lower_expr(e, Some(name))?;
                    // Top-level aliases rename the array: the user-facing name
                    // (`hf = output_tiler(...)`) wins over inliner-generated
                    // temporaries (never the other way round), which keeps
                    // kernel names readable.
                    if let LV::Array(id) = lv {
                        if !name.starts_with("__inl") {
                            self.prog.arrays[id].name = name.clone();
                        }
                    }
                    self.env.insert(name.clone(), lv);
                }
                Stmt::Return(e) => {
                    let lv = self.lower_expr(e, Some("result"))?;
                    return match lv {
                        LV::Array(id) => Ok(id),
                        LV::Known(Value::Arr(a)) => {
                            // Materialise a constant result via a dense fill.
                            let id = self.prog.declare("const_result", a.shape().dims().to_vec());
                            // One generator per element would be wasteful; a
                            // constant array result does not occur in the
                            // studied programs.
                            let _ = id;
                            Err(not_lowerable("return", "constant array results unsupported"))
                        }
                        other => Err(not_lowerable(
                            "return",
                            format!("result must be an array, found {other:?}"),
                        )),
                    };
                }
                // Imperative constructs: host fallback.
                Stmt::For { .. } | Stmt::Assign(LValue::Index(..), _) => {
                    self.lower_host_step(s)?;
                }
            }
        }
        Err(not_lowerable("entry", "function has no return statement"))
    }

    /// Wrap one unlowerable statement into a host step.
    fn lower_host_step(&mut self, stmt: &Stmt) -> Result<(), SacError> {
        // Free variables and assignment targets of the statement.
        let mut free = Vec::new();
        let mut targets = Vec::new();
        stmt_vars(stmt, &mut free, &mut targets);
        free.sort();
        free.dedup();
        targets.sort();
        targets.dedup();
        // Targets that name array-valued bindings (program arrays or known
        // constants like a zero-initialised frame) are outputs; everything
        // the statement reads must be bindable.
        let mut out_arrays: Vec<&String> = targets
            .iter()
            .filter(|t| {
                matches!(
                    self.env.get(t.as_str()),
                    Some(LV::Array(_)) | Some(LV::Known(Value::Arr(_)))
                )
            })
            .collect();
        if out_arrays.len() != 1 {
            return Err(not_lowerable(
                "host step",
                format!("expected exactly one array target, found {out_arrays:?}"),
            ));
        }
        let target_name = out_arrays.pop().unwrap().clone();

        let mut params: Vec<(TypeAnn, String)> = Vec::new();
        let mut bindings = Vec::new();
        for name in &free {
            match self.env.get(name.as_str()) {
                Some(LV::Array(id)) => {
                    params.push((TypeAnn::ArrAnyRank, name.clone()));
                    bindings.push(HostBinding::Array(*id));
                }
                Some(LV::Known(v)) => {
                    let ann = match v {
                        Value::Int(_) => TypeAnn::Int,
                        Value::Arr(a) => TypeAnn::ArrRank(a.rank()),
                    };
                    params.push((ann, name.clone()));
                    bindings.push(HostBinding::Const(v.clone()));
                }
                Some(other) => {
                    return Err(not_lowerable(
                        "host step",
                        format!("free variable '{name}' has non-materialisable value {other:?}"),
                    ))
                }
                None => {
                    // Names bound inside the statement itself (loop vars).
                    continue;
                }
            }
        }

        let shape = match self.env.get(&target_name) {
            Some(LV::Array(id)) => self.prog.arrays[*id].shape.clone(),
            Some(LV::Known(Value::Arr(a))) => a.shape().dims().to_vec(),
            _ => unreachable!("checked above"),
        };
        self.tmp += 1;
        let fun = FunDef {
            name: format!("__host_step_{}", self.tmp),
            ret: TypeAnn::ArrAnyRank,
            params,
            body: vec![stmt.clone(), Stmt::Return(Expr::Var(target_name.clone()))],
        };
        let new_id = self.prog.declare(format!("{target_name}_host"), shape);
        self.prog.steps.push(Step::Host {
            target: new_id,
            fun,
            bindings,
            reason: "for-loop nest is not data-parallel (stays on the host)".into(),
        });
        self.env.insert(target_name, LV::Array(new_id));
        Ok(())
    }

    // ---- expressions -----------------------------------------------------

    fn lower_expr(&mut self, e: &Expr, name_hint: Option<&str>) -> Result<LV, SacError> {
        match e {
            Expr::Int(v) => Ok(LV::Known(Value::Int(*v))),
            Expr::Var(n) => self
                .env
                .get(n)
                .cloned()
                .ok_or_else(|| not_lowerable("variable", format!("unknown variable '{n}'"))),
            Expr::Neg(x) => {
                let v = self.lower_expr(x, None)?;
                self.lower_binop(BinKind::Sub, LV::Known(Value::Int(0)), v)
            }
            Expr::VecLit(es) => {
                let parts: Result<Vec<LV>, _> =
                    es.iter().map(|x| self.lower_expr(x, None)).collect();
                let parts = parts?;
                // All-known components collapse to a known value.
                if parts.iter().all(|p| matches!(p, LV::Known(_))) {
                    let vals: Vec<Value> = parts
                        .iter()
                        .map(|p| match p {
                            LV::Known(v) => v.clone(),
                            _ => unreachable!(),
                        })
                        .collect();
                    if vals.iter().all(|v| matches!(v, Value::Int(_))) {
                        return Ok(LV::Known(Value::from_ivec(
                            vals.iter().map(|v| v.as_int().unwrap()).collect(),
                        )));
                    }
                    // Matrix literal.
                    let rows: Result<Vec<Vec<i64>>, _> = vals.iter().map(|v| v.as_ivec()).collect();
                    let rows = rows.map_err(|e| not_lowerable("matrix literal", e.to_string()))?;
                    let cols = rows.first().map_or(0, |r| r.len());
                    if rows.iter().any(|r| r.len() != cols) {
                        return Err(not_lowerable("matrix literal", "ragged rows"));
                    }
                    let data: Vec<i64> = rows.into_iter().flatten().collect();
                    return Ok(LV::Known(Value::Arr(
                        mdarray::NdArray::from_vec([vals.len(), cols], data)
                            .expect("length matches"),
                    )));
                }
                // Symbolic vector.
                let mut out = Vec::with_capacity(parts.len());
                for p in parts {
                    out.push(self.as_scalar(p)?);
                }
                Ok(LV::Vector(out))
            }
            Expr::Bin(op, l, r) => {
                let lv = self.lower_expr(l, None)?;
                let rv = self.lower_expr(r, None)?;
                self.lower_binop(*op, lv, rv)
            }
            Expr::Call(fname, args) => self.lower_call(fname, args),
            Expr::Select(a, ix) => {
                let base = self.lower_expr(a, None)?;
                let index = self.lower_expr(ix, None)?;
                self.lower_select(base, index)
            }
            Expr::With(w) => self.lower_with(w, name_hint),
            Expr::Block(stmts, result) => {
                // Generator-context blocks: just process assignments.
                for s in stmts {
                    match s {
                        Stmt::Assign(LValue::Var(n), e) => {
                            let lv = self.lower_expr(e, Some(n))?;
                            self.env.insert(n.clone(), lv);
                        }
                        Stmt::Assign(LValue::Index(n, ix), e) => {
                            self.lower_tile_write(n, ix, e)?;
                        }
                        other => {
                            return Err(not_lowerable(
                                "block",
                                format!("unsupported statement in expression block: {other:?}"),
                            ))
                        }
                    }
                }
                self.lower_expr(result, None)
            }
        }
    }

    fn lower_call(&mut self, fname: &str, args: &[Expr]) -> Result<LV, SacError> {
        if !is_builtin(fname) {
            return Err(not_lowerable("call", format!("user function '{fname}' was not inlined")));
        }
        let lowered: Result<Vec<LV>, _> = args.iter().map(|a| self.lower_expr(a, None)).collect();
        let lowered = lowered?;
        // `genarray` inside a generator builds a local tile: route it to the
        // nested representation even when fully constant, so subsequent
        // `tile[c] = …` writes can attach override generators.
        if fname == "genarray" && self.ctx_rank > 0 {
            let dims = match lowered.first() {
                Some(LV::Known(v)) => {
                    v.as_shape().map_err(|e| not_lowerable("genarray", e.to_string()))?
                }
                _ => return Err(not_lowerable("genarray", "shape must be constant")),
            };
            let d = match lowered.get(1) {
                Some(LV::Known(v)) => {
                    v.as_int().map_err(|e| not_lowerable("genarray", e.to_string()))?
                }
                None => 0,
                _ => return Err(not_lowerable("genarray", "default must be constant")),
            };
            return Ok(LV::Nested(NestedW {
                shape: dims,
                default: d,
                gens: Vec::new(),
                base: self.ctx_rank,
            }));
        }
        // Fully-known arguments: evaluate directly.
        if lowered.iter().all(|p| matches!(p, LV::Known(_))) {
            let vals: Vec<Value> = lowered
                .iter()
                .map(|p| match p {
                    LV::Known(v) => v.clone(),
                    _ => unreachable!(),
                })
                .collect();
            let v =
                call_builtin(fname, &vals).map_err(|e| not_lowerable("builtin", e.to_string()))?;
            return Ok(LV::Known(v));
        }
        match (fname, lowered.as_slice()) {
            ("shape", [arg]) => {
                let dims = self.shape_of(arg)?;
                Ok(LV::Known(Value::from_ivec(dims.iter().map(|&d| d as i64).collect())))
            }
            ("dim", [arg]) => Ok(LV::Known(Value::Int(self.shape_of(arg)?.len() as i64))),
            ("MV", [LV::Known(m), v]) => {
                let m = m.as_array().map_err(|e| not_lowerable("MV", e.to_string()))?;
                if m.rank() != 2 {
                    return Err(not_lowerable("MV", "matrix must be rank 2"));
                }
                let vec = self.as_vector(v.clone())?;
                let (rows, cols) = (m.shape().dim(0), m.shape().dim(1));
                if vec.len() != cols {
                    return Err(not_lowerable("MV", "dimension mismatch"));
                }
                let data = m.as_slice();
                let out: Vec<SymExpr> = (0..rows)
                    .map(|r| {
                        let mut acc = SymExpr::Const(0);
                        for (c, comp) in vec.iter().enumerate() {
                            let term = SymExpr::bin(
                                BinKind::Mul,
                                SymExpr::Const(data[r * cols + c]),
                                comp.clone(),
                            );
                            acc = SymExpr::bin(BinKind::Add, acc, term);
                        }
                        acc.simplify()
                    })
                    .collect();
                Ok(LV::Vector(out))
            }
            ("genarray", [shape, default]) => {
                let dims = match shape {
                    LV::Known(v) => {
                        v.as_shape().map_err(|e| not_lowerable("genarray", e.to_string()))?
                    }
                    _ => return Err(not_lowerable("genarray", "shape must be constant")),
                };
                let d = match default {
                    LV::Known(v) => {
                        v.as_int().map_err(|e| not_lowerable("genarray", e.to_string()))?
                    }
                    _ => return Err(not_lowerable("genarray", "default must be constant")),
                };
                Ok(LV::Nested(NestedW {
                    shape: dims,
                    default: d,
                    gens: Vec::new(),
                    base: self.ctx_rank,
                }))
            }
            _ => Err(not_lowerable(
                "builtin",
                format!("'{fname}' with symbolic arguments is not lowerable"),
            )),
        }
    }

    fn shape_of(&self, lv: &LV) -> Result<Vec<usize>, SacError> {
        match lv {
            LV::Known(v) => Ok(v.shape_vec()),
            LV::Array(id) => Ok(self.prog.arrays[*id].shape.clone()),
            LV::Slice { array, prefix } => {
                Ok(self.prog.arrays[*array].shape[prefix.len()..].to_vec())
            }
            LV::Vector(vs) => Ok(vec![vs.len()]),
            LV::Nested(nw) => Ok(nw.shape.clone()),
            LV::Scalar(_) => Ok(Vec::new()),
        }
    }

    fn as_scalar(&self, lv: LV) -> Result<SymExpr, SacError> {
        match lv {
            LV::Scalar(e) => Ok(e),
            LV::Known(Value::Int(v)) => Ok(SymExpr::Const(v)),
            other => Err(not_lowerable("scalar", format!("expected scalar, found {other:?}"))),
        }
    }

    fn as_vector(&self, lv: LV) -> Result<Vec<SymExpr>, SacError> {
        match lv {
            LV::Vector(vs) => Ok(vs),
            LV::Known(v) => {
                let iv = v.as_ivec().map_err(|e| not_lowerable("vector", e.to_string()))?;
                Ok(iv.into_iter().map(SymExpr::Const).collect())
            }
            other => Err(not_lowerable("vector", format!("expected vector, found {other:?}"))),
        }
    }

    fn lower_binop(&mut self, op: BinKind, l: LV, r: LV) -> Result<LV, SacError> {
        // Fully known: constant-fold.
        if let (LV::Known(a), LV::Known(b)) = (&l, &r) {
            let v = crate::eval::fold_binop(op, a, b)
                .map_err(|e| not_lowerable("binop", e.to_string()))?;
            return Ok(LV::Known(v));
        }
        if op == BinKind::Concat {
            let mut a = self.as_vector(l)?;
            let b = self.as_vector(r)?;
            a.extend(b);
            return Ok(LV::Vector(a));
        }
        // Vector-valued elementwise with broadcasting.
        let l_is_vec =
            matches!(&l, LV::Vector(_)) || matches!(&l, LV::Known(Value::Arr(a)) if a.rank() == 1);
        let r_is_vec =
            matches!(&r, LV::Vector(_)) || matches!(&r, LV::Known(Value::Arr(a)) if a.rank() == 1);
        match (l_is_vec, r_is_vec) {
            (true, true) => {
                let a = self.as_vector(l)?;
                let b = self.as_vector(r)?;
                if a.len() != b.len() {
                    return Err(not_lowerable("binop", "vector length mismatch"));
                }
                Ok(LV::Vector(
                    a.into_iter().zip(b).map(|(x, y)| SymExpr::bin(op, x, y).simplify()).collect(),
                ))
            }
            (true, false) => {
                let a = self.as_vector(l)?;
                let s = self.as_scalar(r)?;
                Ok(LV::Vector(
                    a.into_iter().map(|x| SymExpr::bin(op, x, s.clone()).simplify()).collect(),
                ))
            }
            (false, true) => {
                let s = self.as_scalar(l)?;
                let b = self.as_vector(r)?;
                Ok(LV::Vector(
                    b.into_iter().map(|y| SymExpr::bin(op, s.clone(), y).simplify()).collect(),
                ))
            }
            (false, false) => {
                let a = self.as_scalar(l)?;
                let b = self.as_scalar(r)?;
                Ok(LV::Scalar(SymExpr::bin(op, a, b).simplify()))
            }
        }
    }

    fn lower_select(&mut self, base: LV, index: LV) -> Result<LV, SacError> {
        let comps: Vec<SymExpr> = match &index {
            LV::Scalar(e) => vec![e.clone()],
            LV::Known(Value::Int(v)) => vec![SymExpr::Const(*v)],
            LV::Vector(_) | LV::Known(Value::Arr(_)) => self.as_vector(index.clone())?,
            other => return Err(not_lowerable("select", format!("bad index value {other:?}"))),
        };
        match base {
            LV::Array(id) => self.select_into(id, Vec::new(), comps),
            LV::Slice { array, prefix } => self.select_into(array, prefix, comps),
            LV::Known(Value::Arr(a)) => {
                // Constant table with symbolic index: only constant indices fold.
                let consts: Option<Vec<i64>> = comps
                    .iter()
                    .map(|c| match c {
                        SymExpr::Const(v) => Some(*v),
                        _ => None,
                    })
                    .collect();
                match consts {
                    Some(ix) => {
                        let v = crate::value::select_vec(&a, &ix)
                            .map_err(|e| not_lowerable("select", e.to_string()))?;
                        Ok(LV::Known(v))
                    }
                    None => Err(not_lowerable("select", "symbolic index into a constant array")),
                }
            }
            LV::Vector(vs) => {
                // Selecting a component of a symbolic vector needs a constant.
                match comps.as_slice() {
                    [SymExpr::Const(c)] if *c >= 0 && (*c as usize) < vs.len() => {
                        Ok(LV::Scalar(vs[*c as usize].clone()))
                    }
                    _ => Err(not_lowerable("select", "symbolic index into a symbolic vector")),
                }
            }
            other => Err(not_lowerable("select", format!("cannot select from {other:?}"))),
        }
    }

    fn select_into(
        &self,
        array: usize,
        mut prefix: Vec<SymExpr>,
        comps: Vec<SymExpr>,
    ) -> Result<LV, SacError> {
        let rank = self.prog.arrays[array].shape.len();
        prefix.extend(comps);
        if prefix.len() > rank {
            return Err(not_lowerable("select", "index rank exceeds array rank"));
        }
        if prefix.len() == rank {
            Ok(LV::Scalar(SymExpr::Load { array, index: prefix }))
        } else {
            Ok(LV::Slice { array, prefix })
        }
    }

    /// `tile[c] = value` inside a generator body: record an override generator
    /// on the nested with-loop bound to `name`.
    fn lower_tile_write(&mut self, name: &str, ix: &Expr, value: &Expr) -> Result<(), SacError> {
        let ixv = self.lower_expr(ix, None)?;
        let val = self.lower_expr(value, None)?;
        let val = self.as_scalar(val)?;
        let index: Vec<i64> = match ixv {
            LV::Known(v) => match &v {
                Value::Int(x) => vec![*x],
                Value::Arr(_) => {
                    v.as_ivec().map_err(|e| not_lowerable("tile write", e.to_string()))?
                }
            },
            _ => {
                return Err(not_lowerable(
                    "tile write",
                    "indexed assignment with a non-constant index inside a generator",
                ))
            }
        };
        // Promote known or symbolic vector values to the nested-tile form so
        // indexed writes can attach override generators (constant folding may
        // have turned `genarray([n], 0)` into a literal already).
        match self.env.get(name) {
            Some(LV::Known(Value::Arr(a))) if a.rank() >= 1 => {
                let shape = a.shape().dims().to_vec();
                let uniform = a.as_slice().windows(2).all(|w| w[0] == w[1]);
                let nw = if uniform {
                    NestedW {
                        shape,
                        default: a.as_slice().first().copied().unwrap_or(0),
                        gens: Vec::new(),
                        base: self.ctx_rank,
                    }
                } else {
                    let arr = a.clone();
                    let mut gens = Vec::new();
                    let mut iv = vec![0usize; arr.rank()];
                    loop {
                        gens.push(FlatGen {
                            lower: iv.iter().map(|&x| x as i64).collect(),
                            upper: iv.iter().map(|&x| x as i64 + 1).collect(),
                            step: vec![1; arr.rank()],
                            width: vec![1; arr.rank()],
                            body: SymExpr::Const(*arr.get_unchecked(&iv)),
                        });
                        let mut d = arr.rank();
                        let mut done = true;
                        while d > 0 {
                            d -= 1;
                            iv[d] += 1;
                            if iv[d] < arr.shape().dim(d) {
                                done = false;
                                break;
                            }
                            iv[d] = 0;
                        }
                        if done {
                            break;
                        }
                    }
                    NestedW { shape, default: 0, gens, base: self.ctx_rank }
                };
                self.env.insert(name.to_string(), LV::Nested(nw));
            }
            Some(LV::Vector(vs)) => {
                let gens = vs
                    .iter()
                    .enumerate()
                    .map(|(c, e)| FlatGen {
                        lower: vec![c as i64],
                        upper: vec![c as i64 + 1],
                        step: vec![1],
                        width: vec![1],
                        body: e.clone(),
                    })
                    .collect();
                let nw = NestedW { shape: vec![vs.len()], default: 0, gens, base: self.ctx_rank };
                self.env.insert(name.to_string(), LV::Nested(nw));
            }
            _ => {}
        }
        let Some(LV::Nested(nw)) = self.env.get_mut(name) else {
            return Err(not_lowerable(
                "tile write",
                format!("'{name}' is not a local tile (genarray) value"),
            ));
        };
        if index.len() != nw.shape.len() {
            return Err(not_lowerable("tile write", "index rank mismatch"));
        }
        for (d, (&x, &extent)) in index.iter().zip(&nw.shape).enumerate() {
            if x < 0 || x as usize >= extent {
                return Err(not_lowerable(
                    "tile write",
                    format!("index {x} out of bounds in dim {d} (extent {extent})"),
                ));
            }
        }
        nw.gens.push(FlatGen {
            lower: index.clone(),
            upper: index.iter().map(|&x| x + 1).collect(),
            step: vec![1; index.len()],
            width: vec![1; index.len()],
            body: val,
        });
        Ok(())
    }

    // ---- with-loops ------------------------------------------------------

    fn lower_with(&mut self, w: &WithLoop, name_hint: Option<&str>) -> Result<LV, SacError> {
        let outer_rank = self.ctx_rank;
        // Frame shape and default.
        let (frame, default, modarray_src): (Vec<usize>, i64, Option<usize>) = match &w.op {
            WithOp::Genarray { shape, default } => {
                let sv = self.lower_expr(shape, None)?;
                let frame = match sv {
                    LV::Known(v) => {
                        v.as_shape().map_err(|e| not_lowerable("genarray", e.to_string()))?
                    }
                    _ => return Err(not_lowerable("genarray", "shape must be constant")),
                };
                let d = match default {
                    Some(e) => match self.lower_expr(e, None)? {
                        LV::Known(v) => {
                            v.as_int().map_err(|e| not_lowerable("genarray", e.to_string()))?
                        }
                        _ => return Err(not_lowerable("genarray", "default must be constant")),
                    },
                    None => 0,
                };
                (frame, d, None)
            }
            WithOp::Modarray(src) => {
                let sv = self.lower_expr(src, None)?;
                let LV::Array(id) = sv else {
                    return Err(not_lowerable("modarray", "source must be a program-level array"));
                };
                let shape = self.prog.arrays[id].shape.clone();
                (shape, 0, Some(id))
            }
            WithOp::Fold { .. } => {
                // Reductions are outside the backend's data-parallel fragment
                // (the paper's backend handles genarray/modarray only).
                return Err(not_lowerable(
                    "fold",
                    "fold WITH-loops are not parallelised; they stay on the host",
                ));
            }
        };
        let rank = frame.len();

        // Lower each generator.
        struct LoweredGen {
            lower: Vec<i64>,
            upper: Vec<i64>,
            step: Vec<i64>,
            width: Vec<i64>,
            cell: LV,
        }
        let mut lowered: Vec<LoweredGen> = Vec::new();
        for gen in &w.generators {
            let eval_bound = |lw: &mut Self, e: &Option<Expr>, incl: bool, dotv: Vec<i64>| match e {
                None => Ok::<Vec<i64>, SacError>(dotv),
                Some(e) => {
                    let v = lw.lower_expr(e, None)?;
                    let LV::Known(v) = v else {
                        return Err(not_lowerable("generator bound", "must be constant"));
                    };
                    let mut vec = match &v {
                        Value::Int(x) if rank == 1 => vec![*x],
                        _ => v
                            .as_ivec()
                            .map_err(|e| not_lowerable("generator bound", e.to_string()))?,
                    };
                    if incl {
                        vec.iter_mut().for_each(|x| *x += 1);
                    }
                    if vec.len() != rank {
                        return Err(not_lowerable("generator bound", "rank mismatch"));
                    }
                    Ok(vec)
                }
            };
            let lower = eval_bound(self, &gen.lower, false, vec![0; rank])?;
            let upper = eval_bound(
                self,
                &gen.upper,
                gen.upper.is_some() && gen.upper_inclusive,
                frame.iter().map(|&d| d as i64).collect(),
            )?;
            let step = eval_bound(self, &gen.step, false, vec![1; rank])?;
            let width = eval_bound(self, &gen.width, false, vec![1; rank])?;
            for d in 0..rank {
                if lower[d] < 0 || upper[d] > frame[d] as i64 {
                    return Err(not_lowerable("generator", "range outside frame"));
                }
                if step[d] < 1 || width[d] < 1 || width[d] > step[d] {
                    return Err(not_lowerable("generator", "invalid step/width"));
                }
            }

            // Bind index variables and lower the body in generator context.
            let saved_env = self.env.clone();
            self.ctx_rank = outer_rank + rank;
            match &gen.var {
                GenVar::Name(n) => {
                    let comps = (0..rank).map(|d| SymExpr::Idx(outer_rank + d)).collect();
                    self.env.insert(n.clone(), LV::Vector(comps));
                }
                GenVar::Components(ns) => {
                    if ns.len() != rank {
                        self.env = saved_env;
                        self.ctx_rank = outer_rank;
                        return Err(not_lowerable("generator", "variable component mismatch"));
                    }
                    for (d, n) in ns.iter().enumerate() {
                        self.env.insert(n.clone(), LV::Scalar(SymExpr::Idx(outer_rank + d)));
                    }
                }
            }
            let cell = (|| {
                for s in &gen.body {
                    match s {
                        Stmt::Assign(LValue::Var(n), e) => {
                            let lv = self.lower_expr(e, Some(n))?;
                            self.env.insert(n.clone(), lv);
                        }
                        Stmt::Assign(LValue::Index(n, ix), e) => {
                            self.lower_tile_write(n, ix, e)?;
                        }
                        other => {
                            return Err(not_lowerable(
                                "generator body",
                                format!("unsupported statement {other:?}"),
                            ))
                        }
                    }
                }
                self.lower_expr(&gen.yield_expr, None)
            })();
            self.env = saved_env;
            self.ctx_rank = outer_rank;
            lowered.push(LoweredGen { lower, upper, step, width, cell: cell? });
        }

        // Convert cells to a uniform nested form and determine the cell shape.
        let mut nested_cells: Vec<NestedW> = Vec::with_capacity(lowered.len());
        for lg in &lowered {
            let nw = self.cell_to_nested(&lg.cell, outer_rank + rank)?;
            nested_cells.push(nw);
        }
        let cell_shape = nested_cells.first().map(|n| n.shape.clone()).unwrap_or_default();
        if nested_cells.iter().any(|n| n.shape != cell_shape) {
            return Err(not_lowerable("with", "generators yield differently-shaped cells"));
        }

        // Assemble the flattened generators.
        let mut total_shape = frame.clone();
        total_shape.extend_from_slice(&cell_shape);
        let mut gens: Vec<FlatGen> = Vec::new();
        for (lg, nw) in lowered.iter().zip(&nested_cells) {
            let extend = |outer: &[i64], inner: &[i64]| {
                let mut v = outer.to_vec();
                v.extend_from_slice(inner);
                v
            };
            // Fill generator when the nested part leaves gaps with a
            // different default than the outer with-loop's.
            let covers = nested_covers_fully(nw);
            if !covers && nw.default != default {
                gens.push(FlatGen {
                    lower: extend(&lg.lower, &vec![0; cell_shape.len()]),
                    upper: extend(
                        &lg.upper,
                        &cell_shape.iter().map(|&d| d as i64).collect::<Vec<_>>(),
                    ),
                    step: extend(&lg.step, &vec![1; cell_shape.len()]),
                    width: extend(&lg.width, &vec![1; cell_shape.len()]),
                    body: SymExpr::Const(nw.default),
                });
            }
            for inner in &nw.gens {
                gens.push(FlatGen {
                    lower: extend(&lg.lower, &inner.lower),
                    upper: extend(&lg.upper, &inner.upper),
                    step: extend(&lg.step, &inner.step),
                    width: extend(&lg.width, &inner.width),
                    body: inner.body.clone().simplify(),
                });
            }
        }

        if outer_rank == 0 {
            // Program level: emit a step.
            let name = name_hint.unwrap_or("with");
            self.tmp += 1;
            let id = self.prog.declare(name.to_string(), total_shape.clone());
            self.prog.steps.push(Step::With {
                target: id,
                with: FlatWith { shape: total_shape, default, modarray_src, generators: gens },
            });
            Ok(LV::Array(id))
        } else {
            // Nested: hand back to the enclosing generator as a tile value.
            if modarray_src.is_some() {
                return Err(not_lowerable("modarray", "nested modarray is unsupported"));
            }
            Ok(LV::Nested(NestedW { shape: total_shape, default, gens, base: outer_rank }))
        }
    }

    /// View a generator's cell value as a nested with-loop over the cell dims.
    fn cell_to_nested(&self, cell: &LV, base: usize) -> Result<NestedW, SacError> {
        match cell {
            LV::Scalar(e) => Ok(NestedW {
                shape: Vec::new(),
                default: 0,
                gens: vec![FlatGen {
                    lower: vec![],
                    upper: vec![],
                    step: vec![],
                    width: vec![],
                    body: e.clone(),
                }],
                base,
            }),
            LV::Known(Value::Int(v)) => Ok(NestedW {
                shape: Vec::new(),
                default: 0,
                gens: vec![FlatGen {
                    lower: vec![],
                    upper: vec![],
                    step: vec![],
                    width: vec![],
                    body: SymExpr::Const(*v),
                }],
                base,
            }),
            LV::Nested(nw) => {
                if nw.base != base {
                    return Err(not_lowerable("tile", "nested tile from a different context"));
                }
                Ok(nw.clone())
            }
            LV::Vector(vs) => Ok(NestedW {
                shape: vec![vs.len()],
                default: 0,
                gens: vs
                    .iter()
                    .enumerate()
                    .map(|(c, e)| FlatGen {
                        lower: vec![c as i64],
                        upper: vec![c as i64 + 1],
                        step: vec![1],
                        width: vec![1],
                        body: e.clone(),
                    })
                    .collect(),
                base,
            }),
            LV::Known(Value::Arr(a)) if a.rank() == 1 => Ok(NestedW {
                shape: vec![a.len()],
                default: 0,
                gens: a
                    .as_slice()
                    .iter()
                    .enumerate()
                    .map(|(c, &v)| FlatGen {
                        lower: vec![c as i64],
                        upper: vec![c as i64 + 1],
                        step: vec![1],
                        width: vec![1],
                        body: SymExpr::Const(v),
                    })
                    .collect(),
                base,
            }),
            LV::Slice { array, prefix } => {
                // Whole-subarray cell: a dense nested copy loop.
                let cell_dims = self.prog.arrays[*array].shape[prefix.len()..].to_vec();
                let mut index = prefix.clone();
                for (d, _) in cell_dims.iter().enumerate() {
                    index.push(SymExpr::Idx(base + d));
                }
                Ok(NestedW {
                    shape: cell_dims.clone(),
                    default: 0,
                    gens: vec![FlatGen {
                        lower: vec![0; cell_dims.len()],
                        upper: cell_dims.iter().map(|&d| d as i64).collect(),
                        step: vec![1; cell_dims.len()],
                        width: vec![1; cell_dims.len()],
                        body: SymExpr::Load { array: *array, index },
                    }],
                    base,
                })
            }
            other => Err(not_lowerable("cell", format!("unsupported cell value {other:?}"))),
        }
    }
}

/// Does the nested with-loop's generator set provably cover its whole shape?
/// (Conservative: only recognises scalar cells and full single-gen covers and
/// per-position partitions.)
fn nested_covers_fully(nw: &NestedW) -> bool {
    if nw.shape.is_empty() {
        return !nw.gens.is_empty();
    }
    let total: u64 = nw.shape.iter().map(|&d| d as u64).product();
    // Upper bound: if the (possibly overlapping) union cannot reach the total
    // count, it certainly does not cover.
    let sum: u64 = nw.gens.iter().map(|g| g.points()).sum();
    if sum < total {
        return false;
    }
    // Exact check by marking (cheap for tile-sized shapes; bail out above 1M).
    if total > 1 << 20 {
        return false;
    }
    let mut seen = vec![false; total as usize];
    let strides: Vec<u64> = {
        let mut s = vec![1u64; nw.shape.len()];
        for d in (0..nw.shape.len().saturating_sub(1)).rev() {
            s[d] = s[d + 1] * nw.shape[d + 1] as u64;
        }
        s
    };
    for g in &nw.gens {
        g.for_each_point(|iv| {
            let off: u64 = iv.iter().zip(&strides).map(|(&x, &s)| x as u64 * s).sum();
            seen[off as usize] = true;
        });
    }
    seen.into_iter().all(|b| b)
}

/// Collect free variable names and assignment-target names of a statement.
fn stmt_vars(s: &Stmt, free: &mut Vec<String>, targets: &mut Vec<String>) {
    match s {
        Stmt::Assign(LValue::Var(n), e) => {
            targets.push(n.clone());
            expr_vars(e, free);
        }
        Stmt::Assign(LValue::Index(n, ix), e) => {
            targets.push(n.clone());
            free.push(n.clone());
            expr_vars(ix, free);
            expr_vars(e, free);
        }
        Stmt::For { var, init, limit, body } => {
            targets.push(var.clone());
            expr_vars(init, free);
            expr_vars(limit, free);
            for s in body {
                stmt_vars(s, free, targets);
            }
        }
        Stmt::Return(e) => expr_vars(e, free),
    }
}

fn expr_vars(e: &Expr, free: &mut Vec<String>) {
    match e {
        Expr::Int(_) => {}
        Expr::Var(n) => free.push(n.clone()),
        Expr::VecLit(es) => es.iter().for_each(|x| expr_vars(x, free)),
        Expr::Neg(x) => expr_vars(x, free),
        Expr::Bin(_, l, r) | Expr::Select(l, r) => {
            expr_vars(l, free);
            expr_vars(r, free);
        }
        Expr::Call(_, args) => args.iter().for_each(|x| expr_vars(x, free)),
        Expr::With(w) => {
            for g in &w.generators {
                for b in [&g.lower, &g.upper, &g.step, &g.width].into_iter().flatten() {
                    expr_vars(b, free);
                }
                for s in &g.body {
                    let mut t = Vec::new();
                    stmt_vars(s, free, &mut t);
                }
                expr_vars(&g.yield_expr, free);
            }
            match &w.op {
                WithOp::Genarray { shape, default } => {
                    expr_vars(shape, free);
                    if let Some(d) = default {
                        expr_vars(d, free);
                    }
                }
                WithOp::Modarray(src) => expr_vars(src, free),
                WithOp::Fold { neutral, .. } => expr_vars(neutral, free),
            }
        }
        Expr::Block(stmts, r) => {
            for s in stmts {
                let mut t = Vec::new();
                stmt_vars(s, free, &mut t);
            }
            expr_vars(r, free);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::Interp;
    use crate::opt::inline::inline_entry;
    use crate::parser::parse_program;
    use mdarray::NdArray;

    /// Lower `main` of `src`, run both the AST interpreter and the flat
    /// program on `inputs`, and require identical results.
    fn check_equivalence(src: &str, arrays: &[NdArray<i64>]) -> FlatProgram {
        let prog = parse_program(src).unwrap();
        crate::types::check_program(&prog).unwrap();
        let entry = prog.fun("main").unwrap();
        let inlined = inline_entry(&prog, entry);
        let descs: Vec<ArgDesc> = arrays
            .iter()
            .enumerate()
            .map(|(i, a)| ArgDesc::Array {
                name: format!("in{i}"),
                shape: a.shape().dims().to_vec(),
            })
            .collect();
        let flat = lower_function(&inlined, &descs).unwrap();

        let wrapped = Program { funs: vec![inlined] };
        let mut interp = Interp::new(&wrapped);
        let args = arrays.iter().map(|a| Value::Arr(a.clone())).collect();
        let expect = interp.call("main", args).unwrap();

        let mut ops = 0;
        let got = flat.run(arrays, &mut ops).unwrap();
        assert_eq!(Value::Arr(got), expect, "flat program diverges from interpreter");
        flat
    }

    #[test]
    fn lowers_identity_with_loop() {
        let src = r#"
int[*] main(int[4,6] a)
{
    out = with { (. <= iv <= .) : a[iv]; } : genarray( shape(a), 0);
    return( out);
}
"#;
        let a = NdArray::from_fn([4usize, 6], |ix| (ix[0] * 6 + ix[1]) as i64);
        let flat = check_equivalence(src, &[a]);
        assert_eq!(flat.steps.len(), 1);
        assert_eq!(flat.generator_count(), 1);
    }

    #[test]
    fn lowers_stepped_generators() {
        let src = r#"
int[*] main(int[4,9] a)
{
    out = with {
        ([0,0] <= iv < [4,9] step [1,3]) : a[iv] * 2;
        ([0,1] <= iv < [4,9] step [1,3]) : 0 - a[iv];
    } : genarray( [4,9], 7);
    return( out);
}
"#;
        let a = NdArray::from_fn([4usize, 9], |ix| (ix[0] * 9 + ix[1]) as i64 + 1);
        let flat = check_equivalence(src, &[a]);
        assert_eq!(flat.generator_count(), 2);
    }

    #[test]
    fn lowers_nested_with_scalarisation() {
        // The input-tiler shape: outer over repetitions, inner builds tiles.
        let src = r#"
int[*] main(int[2,12] a)
{
    out = with {
        (. <= rep <= .) {
            tile = with {
                (. <= pat <= .) : a[[rep[0], (rep[1] * 4 + pat[0]) % 12]];
            } : genarray( [5], 0);
        } : tile;
    } : genarray( [2,3]);
    return( out);
}
"#;
        let a = NdArray::from_fn([2usize, 12], |ix| (ix[0] * 100 + ix[1]) as i64);
        let flat = check_equivalence(src, &[a]);
        // One flat loop over [2,3,5] with one dense generator.
        assert_eq!(flat.steps.len(), 1);
        assert_eq!(flat.generator_count(), 1);
        match &flat.steps[0] {
            Step::With { with, .. } => assert_eq!(with.shape, vec![2, 3, 5]),
            _ => panic!("expected a with step"),
        }
    }

    #[test]
    fn lowers_tile_write_idiom() {
        // The task-function shape: genarray then constant-index writes.
        let src = r#"
int[*] main(int[6] a)
{
    out = with {
        (. <= rep <= .) {
            tile = genarray( [2], 0);
            t = a[[rep[0]]];
            tile[0] = t * 2;
            tile[1] = t + 100;
        } : tile;
    } : genarray( [6]);
    return( out);
}
"#;
        let a = NdArray::from_fn([6usize], |ix| ix[0] as i64);
        let flat = check_equivalence(src, &[a]);
        // Two generators: one per tile position.
        assert_eq!(flat.generator_count(), 2);
    }

    #[test]
    fn lowers_mv_cat_tiler_arithmetic() {
        // Generic tiler arithmetic with constant matrices, symbolic index.
        let src = r#"
int[*] main(int[3,16] f)
{
    origin = [0, 0];
    paving = [[1, 0], [0, 4]];
    fitting = [[0], [1]];
    out = with {
        (. <= rep <= .) {
            tile = with {
                (. <= pat <= .) {
                    off = origin + MV( CAT( paving, fitting), rep ++ pat);
                    iv = off % shape(f);
                    elem = f[iv];
                } : elem;
            } : genarray( [6], 0);
        } : tile;
    } : genarray( [3,4]);
    return( out);
}
"#;
        let f = NdArray::from_fn([3usize, 16], |ix| (ix[0] * 16 + ix[1]) as i64);
        let flat = check_equivalence(src, &[f]);
        assert_eq!(flat.generator_count(), 1);
    }

    #[test]
    fn modarray_with_loop() {
        let src = r#"
int[*] main(int[2,6] zero, int[2,2,3] input)
{
    out = with {
        ([0,0]<=[i,j]<=. step [1,3]):input[[i, j/3, 0]];
        ([0,1]<=[i,j]<=. step [1,3]):input[[i, j/3, 1]];
        ([0,2]<=[i,j]<=. step [1,3]):input[[i, j/3, 2]];
    } : modarray( zero);
    return( out);
}
"#;
        let zero = NdArray::filled([2usize, 6], -5i64);
        let input =
            NdArray::from_fn([2usize, 2, 3], |ix| (ix[0] * 100 + ix[1] * 10 + ix[2]) as i64);
        let flat = check_equivalence(src, &[zero, input]);
        assert_eq!(flat.generator_count(), 3);
        match &flat.steps[0] {
            Step::With { with, .. } => assert!(with.modarray_src.is_some()),
            _ => panic!(),
        }
    }

    #[test]
    fn for_nest_becomes_host_step() {
        // The generic output tiler's scatter loop.
        let src = r#"
int[*] main(int[2,6] out_frame, int[2,6] input)
{
    for( i=0; i< 2; i++) {
        for( j=0; j< 6; j++) {
            out_frame[[i, j]] = input[[i, j]] * 3;
        }
    }
    return( out_frame);
}
"#;
        let out0 = NdArray::filled([2usize, 6], 0i64);
        let input = NdArray::from_fn([2usize, 6], |ix| (ix[0] * 6 + ix[1]) as i64);
        let flat = check_equivalence(src, &[out0, input]);
        assert_eq!(flat.steps.len(), 1);
        assert!(matches!(flat.steps[0], Step::Host { .. }));
    }

    #[test]
    fn mixed_gpu_and_host_steps() {
        let src = r#"
int[*] main(int[8] a)
{
    doubled = with { (. <= iv <= .) : a[iv] * 2; } : genarray( [8], 0);
    out = with { (. <= iv <= .) : 0; } : genarray( [8]);
    for( i=0; i< 8; i++) {
        out[[i]] = doubled[[i]] + 1;
    }
    return( out);
}
"#;
        let a = NdArray::from_fn([8usize], |ix| ix[0] as i64);
        let flat = check_equivalence(src, &[a]);
        assert_eq!(flat.steps.len(), 3); // with, zero-fill with, host
        assert!(matches!(flat.steps[2], Step::Host { .. }));
    }

    #[test]
    fn unlowerable_user_call_reports_cleanly() {
        // A function that cannot be inlined (early return) stays a call and
        // lowering reports NotLowerable.
        let src = r#"
int pick(int x) { for( i=0; i< x; i++) { return( i); } return( 0); }
int[*] main(int[4] a)
{
    out = with { (. <= iv <= .) : pick(a[iv]); } : genarray( [4], 0);
    return( out);
}
"#;
        let prog = parse_program(src).unwrap();
        let inlined = inline_entry(&prog, prog.fun("main").unwrap());
        let err = lower_function(&inlined, &[ArgDesc::Array { name: "a".into(), shape: vec![4] }])
            .unwrap_err();
        assert!(matches!(err, SacError::NotLowerable { .. }));
    }
}

#[cfg(test)]
mod cell_tests {
    use super::*;
    use crate::eval::Interp;
    use crate::opt::inline::inline_entry;
    use crate::parser::parse_program;
    use crate::value::Value;
    use mdarray::NdArray;

    fn check(src: &str, arrays: &[NdArray<i64>]) -> FlatProgram {
        let prog = parse_program(src).unwrap();
        let entry = prog.fun("main").unwrap();
        let inlined = inline_entry(&prog, entry);
        let descs: Vec<ArgDesc> = arrays
            .iter()
            .enumerate()
            .map(|(i, a)| ArgDesc::Array {
                name: format!("in{i}"),
                shape: a.shape().dims().to_vec(),
            })
            .collect();
        let flat = lower_function(&inlined, &descs).unwrap();
        let wrapped = Program { funs: vec![inlined] };
        let mut interp = Interp::new(&wrapped);
        let args = arrays.iter().map(|a| Value::Arr(a.clone())).collect();
        let expect = interp.call("main", args).unwrap();
        let got = flat.run(arrays, &mut 0).unwrap();
        assert_eq!(Value::Arr(got), expect);
        flat
    }

    #[test]
    fn subarray_cells_lower_as_copy_loops() {
        // Yielding a whole row sub-array: cell = Slice, handled by the dense
        // nested copy generator.
        let src = r#"
int[*] main(int[3,5] a)
{
    out = with { (. <= rep <= .) : a[rep]; } : genarray( [3]);
    return( out);
}
"#;
        let a = NdArray::from_fn([3usize, 5], |ix| (ix[0] * 5 + ix[1]) as i64);
        let flat = check(src, &[a]);
        match &flat.steps[0] {
            Step::With { with, .. } => {
                assert_eq!(with.shape, vec![3, 5]);
                assert_eq!(with.generators.len(), 1);
            }
            _ => panic!(),
        }
    }

    #[test]
    fn vector_cells_become_per_component_generators() {
        let src = r#"
int[*] main(int[4] a)
{
    out = with { (. <= rep <= .) : [a[rep], a[rep] * 10]; } : genarray( [4]);
    return( out);
}
"#;
        let a = NdArray::from_fn([4usize], |ix| ix[0] as i64 + 1);
        let flat = check(src, &[a]);
        assert_eq!(flat.generator_count(), 2);
    }

    #[test]
    fn constant_scalar_cells() {
        let src = r#"
int[*] main(int[2,2] a)
{
    out = with {
        ([0,0] <= iv < [1,2]) : 5;
        ([1,0] <= iv < [2,2]) : a[iv];
    } : genarray( [2,2], 9);
    return( out);
}
"#;
        let a = NdArray::from_fn([2usize, 2], |ix| (ix[0] * 2 + ix[1]) as i64);
        check(src, &[a]);
    }

    #[test]
    fn nonuniform_known_tile_promotes_with_per_element_generators() {
        // `tile` starts as a non-uniform literal and is then partially
        // overwritten — exercises the Known-array promotion path.
        let src = r#"
int[*] main(int[3] a)
{
    out = with {
        (. <= rep <= .) {
            tile = [7, 8];
            tile[1] = a[[rep[0]]];
        } : tile;
    } : genarray( [3]);
    return( out);
}
"#;
        let a = NdArray::from_fn([3usize], |ix| 100 + ix[0] as i64);
        let flat = check(src, &[a]);
        match &flat.steps[0] {
            Step::With { with, .. } => assert_eq!(with.shape, vec![3, 2]),
            _ => panic!(),
        }
    }
}
