//! The reference interpreter for the SaC subset.
//!
//! This is the semantic oracle of the workspace: the optimiser and both GPU
//! backends are tested against it. It also counts abstract operations
//! (`ops`), which the benchmark harness multiplies by a calibrated per-op cost
//! to model the paper's *SAC-Seq* sequential executions.

use crate::ast::*;
use crate::builtins::{call_builtin, genarray, is_builtin};
use crate::value::{assign_vec, broadcast2, euclid_mod, select_vec, trunc_div, Value};
use crate::SacError;
use mdarray::NdArray;
use std::collections::HashMap;

/// Maximum user-function call depth (SaC programs here are non-recursive;
/// the limit guards against accidental cycles).
const MAX_CALL_DEPTH: usize = 64;

/// Interpreter state over a parsed program.
pub struct Interp<'p> {
    prog: &'p Program,
    scopes: Vec<HashMap<String, Value>>,
    call_depth: usize,
    /// Abstract operations executed (AST node evaluations).
    pub ops: u64,
}

impl<'p> Interp<'p> {
    /// Create an interpreter for `prog`.
    pub fn new(prog: &'p Program) -> Self {
        Interp { prog, scopes: vec![HashMap::new()], call_depth: 0, ops: 0 }
    }

    /// Call function `name` with `args` and return its result.
    pub fn call(&mut self, name: &str, args: Vec<Value>) -> Result<Value, SacError> {
        if is_builtin(name) {
            self.ops += 1;
            return call_builtin(name, &args);
        }
        let f = self
            .prog
            .fun(name)
            .ok_or_else(|| SacError::Eval { msg: format!("unknown function '{name}'") })?;
        if f.params.len() != args.len() {
            return Err(SacError::Eval {
                msg: format!(
                    "function '{name}' expects {} arguments, got {}",
                    f.params.len(),
                    args.len()
                ),
            });
        }
        if self.call_depth >= MAX_CALL_DEPTH {
            return Err(SacError::Eval { msg: format!("call depth exceeded calling '{name}'") });
        }
        for ((ann, pname), arg) in f.params.iter().zip(&args) {
            crate::types::check_value(ann, arg).map_err(|msg| SacError::Eval {
                msg: format!("argument '{pname}' of '{name}': {msg}"),
            })?;
        }

        // Fresh scope stack: callee does not see caller locals.
        let mut scope = HashMap::new();
        for ((_, pname), arg) in f.params.iter().zip(args) {
            scope.insert(pname.clone(), arg);
        }
        let saved = std::mem::replace(&mut self.scopes, vec![scope]);
        self.call_depth += 1;
        let result = self.exec_stmts(&f.body);
        self.call_depth -= 1;
        self.scopes = saved;

        match result? {
            Some(v) => {
                crate::types::check_value(&f.ret, &v).map_err(|msg| SacError::Eval {
                    msg: format!("return value of '{name}': {msg}"),
                })?;
                Ok(v)
            }
            None => Err(SacError::Eval { msg: format!("function '{name}' did not return") }),
        }
    }

    // ---- environment ---------------------------------------------------

    fn lookup(&self, name: &str) -> Option<&Value> {
        self.scopes.iter().rev().find_map(|s| s.get(name))
    }

    /// Assign: update where found, else define in the innermost scope.
    fn assign(&mut self, name: &str, value: Value) {
        for s in self.scopes.iter_mut().rev() {
            if let Some(slot) = s.get_mut(name) {
                *slot = value;
                return;
            }
        }
        self.scopes.last_mut().expect("scope stack").insert(name.to_string(), value);
    }

    fn lookup_mut(&mut self, name: &str) -> Option<&mut Value> {
        self.scopes.iter_mut().rev().find_map(|s| s.get_mut(name))
    }

    // ---- statements ----------------------------------------------------

    fn exec_stmts(&mut self, stmts: &[Stmt]) -> Result<Option<Value>, SacError> {
        for s in stmts {
            self.ops += 1;
            match s {
                Stmt::Assign(LValue::Var(name), e) => {
                    let v = self.eval(e)?;
                    self.assign(name, v);
                }
                Stmt::Assign(LValue::Index(name, ix), e) => {
                    let ixv = self.eval(ix)?;
                    let index = match &ixv {
                        Value::Int(i) => vec![*i],
                        Value::Arr(_) => ixv.as_ivec()?,
                    };
                    let value = self.eval(e)?;
                    let target = self.lookup_mut(name).ok_or_else(|| SacError::Eval {
                        msg: format!("indexed assignment to unknown variable '{name}'"),
                    })?;
                    match target {
                        Value::Arr(a) => assign_vec(a, &index, &value)?,
                        Value::Int(_) => {
                            return Err(SacError::Eval {
                                msg: format!("cannot index-assign scalar '{name}'"),
                            })
                        }
                    }
                }
                Stmt::For { var, init, limit, body } => {
                    let mut i = self.eval(init)?.as_int()?;
                    // Re-evaluate the limit each iteration, as C would; the
                    // paper's loops have invariant limits so this is benign.
                    loop {
                        let lim = self.eval(limit)?.as_int()?;
                        if i >= lim {
                            break;
                        }
                        self.scopes.push(HashMap::new());
                        self.assign_innermost(var, Value::Int(i));
                        let r = self.exec_stmts(body);
                        self.scopes.pop();
                        if let Some(v) = r? {
                            return Ok(Some(v));
                        }
                        i += 1;
                    }
                }
                Stmt::Return(e) => {
                    let v = self.eval(e)?;
                    return Ok(Some(v));
                }
            }
        }
        Ok(None)
    }

    fn assign_innermost(&mut self, name: &str, value: Value) {
        self.scopes.last_mut().expect("scope stack").insert(name.to_string(), value);
    }

    // ---- expressions ---------------------------------------------------

    /// Evaluate an expression in the current scope stack.
    pub fn eval(&mut self, e: &Expr) -> Result<Value, SacError> {
        self.ops += 1;
        match e {
            Expr::Int(v) => Ok(Value::Int(*v)),
            Expr::Var(name) => self
                .lookup(name)
                .cloned()
                .ok_or_else(|| SacError::Eval { msg: format!("unknown variable '{name}'") }),
            Expr::VecLit(elems) => {
                let vals: Result<Vec<Value>, _> = elems.iter().map(|e| self.eval(e)).collect();
                let vals = vals?;
                if vals.iter().all(|v| matches!(v, Value::Int(_))) {
                    Ok(Value::from_ivec(vals.iter().map(|v| v.as_int()).collect::<Result<_, _>>()?))
                } else {
                    // Matrix literal: rows must be equal-length vectors.
                    let rows: Result<Vec<Vec<i64>>, _> = vals.iter().map(|v| v.as_ivec()).collect();
                    let rows = rows?;
                    let cols = rows.first().map_or(0, |r| r.len());
                    if rows.iter().any(|r| r.len() != cols) {
                        return Err(SacError::Eval { msg: "ragged matrix literal".into() });
                    }
                    let data: Vec<i64> = rows.into_iter().flatten().collect();
                    Ok(Value::Arr(
                        NdArray::from_vec([vals.len(), cols], data).expect("length matches"),
                    ))
                }
            }
            Expr::Neg(inner) => {
                let v = self.eval(inner)?;
                broadcast2(&Value::Int(0), &v, |a, b| Ok(a - b))
            }
            Expr::Bin(op, l, r) => {
                let lv = self.eval(l)?;
                let rv = self.eval(r)?;
                self.binop(*op, &lv, &rv)
            }
            Expr::Call(name, args) => {
                // Fast path: `shape(x)` / `dim(x)` on a variable avoid cloning
                // the (possibly frame-sized) array just to read its extents.
                if let [Expr::Var(n)] = args.as_slice() {
                    if name == "shape" || name == "dim" {
                        self.ops += 1;
                        let v = self.lookup(n).ok_or_else(|| SacError::Eval {
                            msg: format!("unknown variable '{n}'"),
                        })?;
                        return Ok(if name == "shape" {
                            Value::from_ivec(v.shape_vec().into_iter().map(|d| d as i64).collect())
                        } else {
                            Value::Int(v.rank() as i64)
                        });
                    }
                }
                let vals: Result<Vec<Value>, _> = args.iter().map(|a| self.eval(a)).collect();
                self.call(name, vals?)
            }
            Expr::Select(arr, ix) => {
                let iv = self.eval(ix)?;
                let index = match &iv {
                    Value::Int(i) => vec![*i],
                    Value::Arr(_) => iv.as_ivec()?,
                };
                // Fast path: selecting from a variable borrows the stored
                // array instead of cloning it (critical for the generic
                // output tiler's scatter nest, whose inner loop reads one
                // element of a frame-sized intermediate per iteration).
                if let Expr::Var(n) = &**arr {
                    let a = self
                        .lookup(n)
                        .ok_or_else(|| SacError::Eval { msg: format!("unknown variable '{n}'") })?;
                    return select_vec(a.as_array()?, &index);
                }
                let a = self.eval(arr)?;
                select_vec(a.as_array()?, &index)
            }
            Expr::With(w) => self.eval_with(w),
            Expr::Block(stmts, result) => {
                self.scopes.push(HashMap::new());
                let r = (|| {
                    if self.exec_stmts(stmts)?.is_some() {
                        return Err(SacError::Eval {
                            msg: "return inside expression block".into(),
                        });
                    }
                    self.eval(result)
                })();
                self.scopes.pop();
                r
            }
        }
    }

    fn binop(&mut self, op: BinKind, l: &Value, r: &Value) -> Result<Value, SacError> {
        fold_binop(op, l, r)
    }

    // ---- WITH-loops ----------------------------------------------------

    fn eval_with(&mut self, w: &WithLoop) -> Result<Value, SacError> {
        if let WithOp::Fold { fun, neutral } = &w.op {
            return self.eval_fold(w, fun, neutral);
        }
        // Determine the frame (index-space) shape.
        let (frame, mut result, mut cell_dims): (
            Vec<usize>,
            Option<NdArray<i64>>,
            Option<Vec<usize>>,
        ) = match &w.op {
            WithOp::Genarray { shape, default } => {
                let frame = self.eval(shape)?.as_shape()?;
                match default {
                    Some(d) => {
                        let dv = self.eval(d)?;
                        let cd = dv.shape_vec();
                        let mut dims = frame.clone();
                        dims.extend_from_slice(&cd);
                        let fill = match &dv {
                            Value::Int(v) => genarray(dims, *v)?,
                            Value::Arr(cell) => {
                                let mut fill = genarray(dims, 0)?;
                                if !cell.is_empty() {
                                    for c in fill.as_mut_slice().chunks_exact_mut(cell.len()) {
                                        c.copy_from_slice(cell.as_slice());
                                    }
                                }
                                fill
                            }
                        };
                        (frame, Some(fill), Some(cd))
                    }
                    None => (frame, None, None),
                }
            }
            WithOp::Modarray(src) => {
                let base = self.eval(src)?;
                let base = base.as_array()?.clone();
                let rank = self.infer_gen_rank(w)?.ok_or_else(|| SacError::Eval {
                    msg: "cannot infer generator rank for modarray with-loop".into(),
                })?;
                if rank > base.rank() {
                    return Err(SacError::Eval {
                        msg: format!(
                            "generator rank {rank} exceeds modarray base rank {}",
                            base.rank()
                        ),
                    });
                }
                let frame = base.shape().dims()[..rank].to_vec();
                let cd = base.shape().dims()[rank..].to_vec();
                (frame, Some(base), Some(cd))
            }
            WithOp::Fold { .. } => unreachable!("fold handled by eval_fold"),
        };

        for gen in &w.generators {
            let region = self.gen_region(gen, &frame)?;
            let mut iv = region.lower.clone();
            if region.is_empty() {
                continue;
            }
            loop {
                if region.contains_lattice(&iv) {
                    self.scopes.push(HashMap::new());
                    let cell = (|| {
                        self.bind_gen_var(&gen.var, &iv)?;
                        if self.exec_stmts(&gen.body)?.is_some() {
                            return Err(SacError::Eval {
                                msg: "return inside generator body".into(),
                            });
                        }
                        self.eval(&gen.yield_expr)
                    })();
                    self.scopes.pop();
                    let cell = cell?;

                    // Lazily allocate the result once the cell shape is known.
                    if result.is_none() {
                        let cd = cell.shape_vec();
                        let mut dims = frame.clone();
                        dims.extend_from_slice(&cd);
                        result = Some(genarray(dims, 0)?);
                        cell_dims = Some(cd);
                    }
                    let out = result.as_mut().expect("allocated above");
                    let expected = cell_dims.as_ref().expect("set with result");
                    if &cell.shape_vec() != expected {
                        return Err(SacError::Eval {
                            msg: format!(
                                "generator cell shape {:?} differs from with-loop cell shape {:?}",
                                cell.shape_vec(),
                                expected
                            ),
                        });
                    }
                    assign_vec(out, &iv, &cell)?;
                }
                if !region.advance(&mut iv) {
                    break;
                }
            }
        }

        let result = match result {
            Some(r) => r,
            // Nothing covered and no default: an all-zero scalar-celled array.
            None => genarray(frame, 0)?,
        };
        Ok(Value::Arr(result))
    }

    /// `fold(fun, neutral)`: reduce scalar cells with an associative builtin.
    /// Fold generators need explicit bounds (there is no result frame to
    /// give `.` a meaning).
    fn eval_fold(&mut self, w: &WithLoop, fun: &str, neutral: &Expr) -> Result<Value, SacError> {
        let mut acc = self.eval(neutral)?.as_int()?;
        let combine = |a: i64, b: i64| -> Result<i64, SacError> {
            Ok(match fun {
                "+" => a.wrapping_add(b),
                "*" => a.wrapping_mul(b),
                "min" => a.min(b),
                "max" => a.max(b),
                other => {
                    return Err(SacError::Eval { msg: format!("unknown fold function '{other}'") })
                }
            })
        };
        for gen in &w.generators {
            if gen.lower.is_none() || gen.upper.is_none() {
                return Err(SacError::Eval { msg: "fold generators need explicit bounds".into() });
            }
            // Bound ranks are self-describing; use the lower bound's length.
            let rank = self.eval(gen.lower.as_ref().expect("checked"))?.as_ivec()?.len();
            let frame = vec![i64::MAX as usize; rank]; // no frame limit for fold
            let region = self.gen_region_unbounded(gen, &frame)?;
            let mut iv = region.lower.clone();
            if region.is_empty() {
                continue;
            }
            loop {
                if region.contains_lattice(&iv) {
                    self.scopes.push(HashMap::new());
                    let cell = (|| {
                        self.bind_gen_var(&gen.var, &iv)?;
                        if self.exec_stmts(&gen.body)?.is_some() {
                            return Err(SacError::Eval {
                                msg: "return inside generator body".into(),
                            });
                        }
                        self.eval(&gen.yield_expr)
                    })();
                    self.scopes.pop();
                    acc = combine(acc, cell?.as_int()?)?;
                }
                if !region.advance(&mut iv) {
                    break;
                }
            }
        }
        Ok(Value::Int(acc))
    }

    /// Like `gen_region` but without requiring the range to sit inside a
    /// result frame (fold has none).
    fn gen_region_unbounded(
        &mut self,
        gen: &Generator,
        frame: &[usize],
    ) -> Result<Region, SacError> {
        let rank = frame.len();
        let ones = vec![1i64; rank];
        let lower = match &gen.lower {
            Some(e) => self.eval_bound(e, rank, "lower")?,
            None => vec![0i64; rank],
        };
        let upper = match &gen.upper {
            Some(e) => {
                let mut u = self.eval_bound(e, rank, "upper")?;
                if gen.upper_inclusive {
                    u.iter_mut().for_each(|x| *x += 1);
                }
                u
            }
            None => frame.iter().map(|&d| d as i64).collect(),
        };
        let step = match &gen.step {
            Some(e) => self.eval_bound(e, rank, "step")?,
            None => ones.clone(),
        };
        let width = match &gen.width {
            Some(e) => self.eval_bound(e, rank, "width")?,
            None => ones,
        };
        for d in 0..rank {
            if step[d] < 1 || width[d] < 1 || width[d] > step[d] {
                return Err(SacError::Eval {
                    msg: format!("invalid step/width {:?}/{:?}", step, width),
                });
            }
        }
        Ok(Region { lower, upper, step, width })
    }

    /// Try to infer the generator index-space rank from bounds, step or the
    /// destructured variable.
    fn infer_gen_rank(&mut self, w: &WithLoop) -> Result<Option<usize>, SacError> {
        for gen in &w.generators {
            if let Some(r) = gen.var.rank() {
                return Ok(Some(r));
            }
            for e in [&gen.lower, &gen.upper, &gen.step, &gen.width].into_iter().flatten() {
                let v = self.eval(e)?;
                if let Value::Arr(a) = &v {
                    if a.rank() == 1 {
                        return Ok(Some(a.len()));
                    }
                }
            }
        }
        Ok(None)
    }

    fn gen_region(&mut self, gen: &Generator, frame: &[usize]) -> Result<Region, SacError> {
        let rank = frame.len();
        let ones = vec![1i64; rank];
        let lower = match &gen.lower {
            Some(e) => self.eval_bound(e, rank, "lower")?,
            None => vec![0i64; rank],
        };
        let upper = match &gen.upper {
            Some(e) => {
                let mut u = self.eval_bound(e, rank, "upper")?;
                if gen.upper_inclusive {
                    u.iter_mut().for_each(|x| *x += 1);
                }
                u
            }
            None => frame.iter().map(|&d| d as i64).collect(),
        };
        let step = match &gen.step {
            Some(e) => self.eval_bound(e, rank, "step")?,
            None => ones.clone(),
        };
        let width = match &gen.width {
            Some(e) => self.eval_bound(e, rank, "width")?,
            None => ones,
        };
        for d in 0..rank {
            if lower[d] < 0 || upper[d] > frame[d] as i64 {
                return Err(SacError::Eval {
                    msg: format!(
                        "generator range [{:?},{:?}) outside frame {:?}",
                        lower, upper, frame
                    ),
                });
            }
            if step[d] < 1 || width[d] < 1 || width[d] > step[d] {
                return Err(SacError::Eval {
                    msg: format!("invalid step/width {:?}/{:?}", step, width),
                });
            }
        }
        Ok(Region { lower, upper, step, width })
    }

    fn eval_bound(&mut self, e: &Expr, rank: usize, what: &str) -> Result<Vec<i64>, SacError> {
        let v = self.eval(e)?;
        let vec = match v {
            Value::Int(x) if rank == 1 => vec![x],
            other => other.as_ivec()?,
        };
        if vec.len() != rank {
            return Err(SacError::Eval {
                msg: format!("{what} bound has {} components, frame rank is {rank}", vec.len()),
            });
        }
        Ok(vec)
    }

    fn bind_gen_var(&mut self, var: &GenVar, iv: &[i64]) -> Result<(), SacError> {
        match var {
            GenVar::Name(name) => {
                self.assign_innermost(name, Value::from_ivec(iv.to_vec()));
            }
            GenVar::Components(names) => {
                if names.len() != iv.len() {
                    return Err(SacError::Eval {
                        msg: format!(
                            "generator variable has {} components, index has {}",
                            names.len(),
                            iv.len()
                        ),
                    });
                }
                for (n, &x) in names.iter().zip(iv) {
                    self.assign_innermost(n, Value::Int(x));
                }
            }
        }
        Ok(())
    }
}

/// Evaluate a binary operation on values (shared with the constant folder).
pub fn fold_binop(op: BinKind, l: &Value, r: &Value) -> Result<Value, SacError> {
    match op {
        BinKind::Add => broadcast2(l, r, |a, b| Ok(a.wrapping_add(b))),
        BinKind::Sub => broadcast2(l, r, |a, b| Ok(a.wrapping_sub(b))),
        BinKind::Mul => broadcast2(l, r, |a, b| Ok(a.wrapping_mul(b))),
        BinKind::Div => broadcast2(l, r, trunc_div),
        BinKind::Mod => broadcast2(l, r, euclid_mod),
        BinKind::Lt => broadcast2(l, r, |a, b| Ok((a < b) as i64)),
        BinKind::Le => broadcast2(l, r, |a, b| Ok((a <= b) as i64)),
        BinKind::Gt => broadcast2(l, r, |a, b| Ok((a > b) as i64)),
        BinKind::Ge => broadcast2(l, r, |a, b| Ok((a >= b) as i64)),
        BinKind::Eq => broadcast2(l, r, |a, b| Ok((a == b) as i64)),
        BinKind::Ne => broadcast2(l, r, |a, b| Ok((a != b) as i64)),
        BinKind::Concat => {
            let lv = l.as_ivec()?;
            let rv = r.as_ivec()?;
            let mut out = lv;
            out.extend(rv);
            Ok(Value::from_ivec(out))
        }
    }
}

/// A generator's index region: box bounds plus step/width lattice filter.
struct Region {
    lower: Vec<i64>,
    upper: Vec<i64>,
    step: Vec<i64>,
    width: Vec<i64>,
}

impl Region {
    fn is_empty(&self) -> bool {
        self.lower.iter().zip(&self.upper).any(|(l, u)| l >= u)
    }

    /// Is `iv` on the step/width lattice? (`iv` is already inside the box.)
    fn contains_lattice(&self, iv: &[i64]) -> bool {
        iv.iter()
            .zip(&self.lower)
            .zip(self.step.iter().zip(&self.width))
            .all(|((x, l), (s, w))| (x - l).rem_euclid(*s) < *w)
    }

    /// Odometer increment within the box; false when exhausted.
    fn advance(&self, iv: &mut [i64]) -> bool {
        for d in (0..iv.len()).rev() {
            iv[d] += 1;
            if iv[d] < self.upper[d] {
                return true;
            }
            iv[d] = self.lower[d];
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;

    fn run(src: &str, fun: &str, args: Vec<Value>) -> Value {
        let prog = parse_program(src).unwrap();
        let mut interp = Interp::new(&prog);
        interp.call(fun, args).unwrap()
    }

    fn arr2(rows: usize, cols: usize, f: impl Fn(usize, usize) -> i64) -> Value {
        Value::Arr(NdArray::from_fn([rows, cols], |ix| f(ix[0], ix[1])))
    }

    #[test]
    fn scalar_function() {
        let v = run("int f(int x) { y = x * 2 + 1; return( y); }", "f", vec![Value::Int(20)]);
        assert_eq!(v, Value::Int(41));
    }

    #[test]
    fn genarray_identity() {
        let src = r#"
int[*] id(int[.,.] a)
{
    out = with { (. <= iv <= .) : a[iv]; } : genarray( shape(a), 0);
    return( out);
}
"#;
        let input = arr2(3, 4, |i, j| (i * 4 + j) as i64);
        let v = run(src, "id", vec![input.clone()]);
        assert_eq!(v, input);
    }

    #[test]
    fn genarray_with_step_width() {
        // Zero everything except columns where j % 3 == 1.
        let src = r#"
int[*] pick(int[2,6] a)
{
    out = with { ([0,1] <= iv < [2,6] step [1,3] width [1,1]) : a[iv]; } : genarray( [2,6], 0);
    return( out);
}
"#;
        let input = arr2(2, 6, |_, _| 7);
        let v = run(src, "pick", vec![input]);
        let out = v.as_array().unwrap();
        for i in 0..2 {
            for j in 0..6 {
                let expect = if j % 3 == 1 { 7 } else { 0 };
                assert_eq!(*out.get(&[i, j]).unwrap(), expect, "at ({i},{j})");
            }
        }
    }

    #[test]
    fn later_generators_win_overlaps() {
        let src = r#"
int[*] f()
{
    out = with {
        ([0] <= iv < [4]) : 1;
        ([1] <= iv < [3]) : 2;
    } : genarray( [4], 0);
    return( out);
}
"#;
        let v = run(src, "f", vec![]);
        assert_eq!(v.as_array().unwrap().as_slice(), &[1, 2, 2, 1]);
    }

    #[test]
    fn modarray_updates_cells() {
        let src = r#"
int[*] f(int[.,.] a)
{
    out = with { ([0,0] <= [i,j] < [1,3]) : 99; } : modarray( a);
    return( out);
}
"#;
        let v = run(src, "f", vec![arr2(2, 3, |i, j| (i * 3 + j) as i64)]);
        assert_eq!(v.as_array().unwrap().as_slice(), &[99, 99, 99, 3, 4, 5]);
    }

    #[test]
    fn nested_with_builds_tiles() {
        // Outer over [2], inner builds [3]-tiles: result [2,3].
        let src = r#"
int[*] f()
{
    out = with {
        (. <= rep <= .) {
            tile = with { (. <= pat <= .) : rep[0] * 10 + pat[0]; } : genarray( [3], 0);
        } : tile;
    } : genarray( [2]);
    return( out);
}
"#;
        let v = run(src, "f", vec![]);
        let a = v.as_array().unwrap();
        assert_eq!(a.shape().dims(), &[2, 3]);
        assert_eq!(a.as_slice(), &[0, 1, 2, 10, 11, 12]);
    }

    #[test]
    fn for_loop_scatter() {
        let src = r#"
int[*] f(int[4] out)
{
    for( i=0; i< 4; i++) {
        out[[i]] = i * i;
    }
    return( out);
}
"#;
        let v = run(src, "f", vec![Value::Arr(NdArray::filled([4usize], 0i64))]);
        assert_eq!(v.as_array().unwrap().as_slice(), &[0, 1, 4, 9]);
    }

    #[test]
    fn user_function_calls_and_vector_ops() {
        let src = r#"
int[.] off(int[.] origin, int[.,.] paving, int[.,.] fitting, int[.] rep, int[.] pat)
{
    o = origin + MV( CAT( paving, fitting), rep ++ pat);
    return( o);
}
"#;
        let paving = Value::Arr(NdArray::from_vec([2usize, 2], vec![1, 0, 0, 8]).unwrap());
        let fitting = Value::Arr(NdArray::from_vec([2usize, 1], vec![0, 1]).unwrap());
        let v = run(
            src,
            "off",
            vec![
                Value::from_ivec(vec![0, 0]),
                paving,
                fitting,
                Value::from_ivec(vec![2, 3]),
                Value::from_ivec(vec![5]),
            ],
        );
        // o = P.(2,3) + F.(5) = (2, 24) + (0, 5) = (2, 29)
        assert_eq!(v.as_ivec().unwrap(), vec![2, 29]);
    }

    #[test]
    fn euclidean_mod_in_language() {
        let v = run("int f(int x) { return( x % 10); }", "f", vec![Value::Int(-3)]);
        assert_eq!(v, Value::Int(7));
    }

    #[test]
    fn tile_local_array_writes() {
        // The paper's task-function idiom: build a tile by indexed writes.
        let src = r#"
int[.] f()
{
    tile = with { (. <= iv <= .) : 0; } : genarray( [3]);
    tile[0] = 11;
    tile[1] = 22;
    tile[2] = 33;
    return( tile);
}
"#;
        let v = run(src, "f", vec![]);
        assert_eq!(v.as_array().unwrap().as_slice(), &[11, 22, 33]);
    }

    #[test]
    fn op_counter_increases() {
        let prog = parse_program("int f(int x) { return( x + 1); }").unwrap();
        let mut i = Interp::new(&prog);
        i.call("f", vec![Value::Int(1)]).unwrap();
        let first = i.ops;
        i.call("f", vec![Value::Int(1)]).unwrap();
        assert_eq!(i.ops, first * 2);
        assert!(first > 0);
    }

    #[test]
    fn errors_are_reported() {
        let prog = parse_program("int f(int x) { return( x / 0); }").unwrap();
        let mut i = Interp::new(&prog);
        assert!(matches!(i.call("f", vec![Value::Int(1)]), Err(SacError::Eval { .. })));

        let prog = parse_program("int f() { return( nosuch(1)); }").unwrap();
        let mut i = Interp::new(&prog);
        assert!(i.call("f", vec![]).is_err());

        // Arity error.
        let prog = parse_program("int f(int x) { return( x); }").unwrap();
        let mut i = Interp::new(&prog);
        assert!(i.call("f", vec![]).is_err());
    }

    #[test]
    fn out_of_frame_generator_rejected() {
        let src = r#"
int[*] f()
{
    out = with { ([0] <= iv < [9]) : 1; } : genarray( [4], 0);
    return( out);
}
"#;
        let prog = parse_program(src).unwrap();
        let mut i = Interp::new(&prog);
        assert!(i.call("f", vec![]).is_err());
    }
}

#[cfg(test)]
mod fold_tests {
    use super::*;
    use crate::parser::parse_program;

    fn run(src: &str, args: Vec<Value>) -> Result<Value, SacError> {
        let prog = parse_program(src)?;
        crate::types::check_program(&prog)?;
        Interp::new(&prog).call("main", args)
    }

    #[test]
    fn fold_sums_over_a_range() {
        let src = r#"
int main(int[8] a)
{
    s = with { ([0] <= iv < [8]) : a[iv]; } : fold( +, 0);
    return( s);
}
"#;
        let a = Value::Arr(NdArray::from_fn([8usize], |ix| ix[0] as i64 + 1));
        assert_eq!(run(src, vec![a]).unwrap(), Value::Int(36));
    }

    #[test]
    fn fold_max_with_step_filter() {
        let src = r#"
int main(int[10] a)
{
    m = with { ([1] <= iv < [10] step [2]) : a[iv]; } : fold( max, 0 - 1000);
    return( m);
}
"#;
        // Odd indices of [0, 10, 20, ...]: max = a[9] = 90.
        let a = Value::Arr(NdArray::from_fn([10usize], |ix| ix[0] as i64 * 10));
        assert_eq!(run(src, vec![a]).unwrap(), Value::Int(90));
    }

    #[test]
    fn fold_product_and_min_2d() {
        let src = r#"
int main()
{
    p = with { ([0,0] <= [i,j] < [2,3]) : i + j + 1; } : fold( *, 1);
    return( p);
}
"#;
        // Cells: 1,2,3,2,3,4 -> product 144.
        assert_eq!(run(src, vec![]).unwrap(), Value::Int(144));
    }

    #[test]
    fn fold_requires_explicit_bounds() {
        let src = r#"
int main(int[4] a)
{
    s = with { (. <= iv <= .) : a[iv]; } : fold( +, 0);
    return( s);
}
"#;
        let a = Value::Arr(NdArray::filled([4usize], 1i64));
        assert!(run(src, vec![a]).is_err());
    }

    #[test]
    fn fold_rejects_array_cells() {
        let src = r#"
int main(int[2,3] a)
{
    s = with { ([0] <= iv < [2]) : a[iv]; } : fold( +, 0);
    return( s);
}
"#;
        let a = Value::Arr(NdArray::filled([2usize, 3], 1i64));
        assert!(run(src, vec![a]).is_err());
    }

    #[test]
    fn fold_is_not_lowerable_and_reports_cleanly() {
        let src = r#"
int main(int[4] a)
{
    s = with { ([0] <= iv < [4]) : a[iv]; } : fold( +, 0);
    return( s);
}
"#;
        let prog = parse_program(src).unwrap();
        let err = crate::opt::optimize(
            &prog,
            "main",
            &[crate::opt::ArgDesc::Array { name: "a".into(), shape: vec![4] }],
            &Default::default(),
        )
        .unwrap_err();
        assert!(
            matches!(err, SacError::NotLowerable { ref construct, .. } if construct == "fold"),
            "{err:?}"
        );
    }

    #[test]
    fn fold_pretty_prints_and_reparses() {
        let src = r#"
int main(int[4] a)
{
    s = with { ([0] <= iv < [4]) : a[iv] * 2; } : fold( +, 5);
    return( s);
}
"#;
        let p1 = parse_program(src).unwrap();
        let printed = crate::pretty::print_program(&p1);
        let p2 = parse_program(&printed).unwrap_or_else(|e| panic!("{e}\n{printed}"));
        assert_eq!(p1, p2);
    }
}
