//! Builtin functions of the SaC subset.
//!
//! Besides standard SaC intrinsics (`shape`, `dim`), the paper's code uses two
//! helpers it describes as "functions performing matrix-vector multiplication
//! and array concatenation respectively": `MV` and `CAT`.

use crate::value::Value;
use crate::SacError;
use mdarray::{NdArray, Shape};

/// Is `name` a builtin? (Builtins shadow user functions.)
pub fn is_builtin(name: &str) -> bool {
    matches!(name, "shape" | "dim" | "MV" | "CAT" | "min" | "max" | "abs" | "sum" | "genarray")
}

/// Evaluate builtin `name` on `args`.
pub fn call_builtin(name: &str, args: &[Value]) -> Result<Value, SacError> {
    let arity = |n: usize| -> Result<(), SacError> {
        if args.len() != n {
            Err(SacError::Eval {
                msg: format!("builtin '{name}' expects {n} arguments, got {}", args.len()),
            })
        } else {
            Ok(())
        }
    };
    match name {
        "shape" => {
            arity(1)?;
            let dims = args[0].shape_vec();
            Ok(Value::from_ivec(dims.into_iter().map(|d| d as i64).collect()))
        }
        "dim" => {
            arity(1)?;
            Ok(Value::Int(args[0].rank() as i64))
        }
        "MV" => {
            arity(2)?;
            mv(&args[0], &args[1])
        }
        "CAT" => {
            arity(2)?;
            cat(&args[0], &args[1])
        }
        "min" => {
            arity(2)?;
            Ok(Value::Int(args[0].as_int()?.min(args[1].as_int()?)))
        }
        "max" => {
            arity(2)?;
            Ok(Value::Int(args[0].as_int()?.max(args[1].as_int()?)))
        }
        "abs" => {
            arity(1)?;
            Ok(Value::Int(args[0].as_int()?.abs()))
        }
        "sum" => {
            arity(1)?;
            let a = args[0].as_array()?;
            Ok(Value::Int(a.as_slice().iter().sum()))
        }
        "genarray" => {
            if args.len() != 1 && args.len() != 2 {
                return Err(SacError::Eval {
                    msg: format!("genarray expects 1 or 2 arguments, got {}", args.len()),
                });
            }
            let shape = args[0]
                .as_shape()
                .map_err(|e| SacError::Eval { msg: format!("genarray shape: {e}") })?;
            let fill = match args.get(1) {
                Some(v) => v.as_int()?,
                None => 0,
            };
            Ok(Value::Arr(genarray(shape, fill)?))
        }
        other => Err(SacError::Eval { msg: format!("unknown builtin '{other}'") }),
    }
}

/// A `genarray` result: `shape` filled with `fill`, or a typed error when
/// the shape has too many elements to allocate.
pub(crate) fn genarray(shape: impl Into<Shape>, fill: i64) -> Result<NdArray<i64>, SacError> {
    NdArray::try_filled(shape, fill).map_err(|e| SacError::Eval { msg: format!("genarray: {e}") })
}

/// Matrix–vector product: `MV(m, v)[r] = sum_c m[r,c] * v[c]`.
fn mv(m: &Value, v: &Value) -> Result<Value, SacError> {
    let m = m.as_array()?;
    if m.rank() != 2 {
        return Err(SacError::Eval { msg: format!("MV: matrix must be rank 2, got {}", m.rank()) });
    }
    let vec = v.as_ivec()?;
    let (rows, cols) = (m.shape().dim(0), m.shape().dim(1));
    if vec.len() != cols {
        return Err(SacError::Eval {
            msg: format!("MV: matrix has {cols} columns but vector has {} elements", vec.len()),
        });
    }
    let data = m.as_slice();
    let out: Vec<i64> =
        (0..rows).map(|r| (0..cols).map(|c| data[r * cols + c] * vec[c]).sum()).collect();
    Ok(Value::from_ivec(out))
}

/// Concatenation along the *last* axis.
///
/// For vectors this is ordinary concatenation; for matrices it is the
/// horizontal `[P | F]` the tiler formulae need, so that
/// `MV(CAT(paving, fitting), rep ++ pat) == MV(paving, rep) + MV(fitting, pat)`.
fn cat(a: &Value, b: &Value) -> Result<Value, SacError> {
    let a = a.as_array()?;
    let b = b.as_array()?;
    if a.rank() != b.rank() {
        return Err(SacError::Eval {
            msg: format!("CAT: rank mismatch {} vs {}", a.rank(), b.rank()),
        });
    }
    match a.rank() {
        1 => {
            let mut out = a.as_slice().to_vec();
            out.extend_from_slice(b.as_slice());
            Ok(Value::from_ivec(out))
        }
        2 => {
            let (ra, ca) = (a.shape().dim(0), a.shape().dim(1));
            let (rb, cb) = (b.shape().dim(0), b.shape().dim(1));
            if ra != rb {
                return Err(SacError::Eval {
                    msg: format!("CAT: row count mismatch {ra} vs {rb}"),
                });
            }
            let mut out = Vec::with_capacity(ra * (ca + cb));
            for r in 0..ra {
                out.extend_from_slice(&a.as_slice()[r * ca..(r + 1) * ca]);
                out.extend_from_slice(&b.as_slice()[r * cb..(r + 1) * cb]);
            }
            Ok(Value::Arr(NdArray::from_vec([ra, ca + cb], out).expect("length matches")))
        }
        r => Err(SacError::Eval { msg: format!("CAT: unsupported rank {r}") }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mat(rows: usize, cols: usize, data: Vec<i64>) -> Value {
        Value::Arr(NdArray::from_vec([rows, cols], data).unwrap())
    }

    #[test]
    fn shape_and_dim() {
        let a = Value::Arr(NdArray::filled([4usize, 8], 0i64));
        assert_eq!(
            call_builtin("shape", std::slice::from_ref(&a)).unwrap().as_ivec().unwrap(),
            vec![4, 8]
        );
        assert_eq!(call_builtin("dim", &[a]).unwrap(), Value::Int(2));
        assert_eq!(
            call_builtin("shape", &[Value::Int(3)]).unwrap().as_ivec().unwrap(),
            Vec::<i64>::new()
        );
    }

    #[test]
    fn mv_multiplies() {
        // The paper's horizontal paving {{1,0},{0,8}}.
        let p = mat(2, 2, vec![1, 0, 0, 8]);
        let r = call_builtin("MV", &[p, Value::from_ivec(vec![3, 5])]).unwrap();
        assert_eq!(r.as_ivec().unwrap(), vec![3, 40]);
    }

    #[test]
    fn mv_validates_dimensions() {
        let p = mat(2, 2, vec![1, 0, 0, 8]);
        assert!(call_builtin("MV", &[p.clone(), Value::from_ivec(vec![1])]).is_err());
        assert!(
            call_builtin("MV", &[Value::from_ivec(vec![1]), Value::from_ivec(vec![1])]).is_err()
        );
    }

    #[test]
    fn cat_vectors_and_matrices() {
        let v = call_builtin("CAT", &[Value::from_ivec(vec![1, 2]), Value::from_ivec(vec![3])])
            .unwrap();
        assert_eq!(v.as_ivec().unwrap(), vec![1, 2, 3]);

        // CAT(paving 2x2, fitting 2x1) = 2x3 — the tiler identity.
        let paving = mat(2, 2, vec![1, 0, 0, 8]);
        let fitting = mat(2, 1, vec![0, 1]);
        let catm = call_builtin("CAT", &[paving.clone(), fitting.clone()]).unwrap();
        assert_eq!(catm.shape_vec(), vec![2, 3]);

        // MV(CAT(P,F), rep++pat) == MV(P,rep) + MV(F,pat)
        let rep = Value::from_ivec(vec![7, 9]);
        let pat = Value::from_ivec(vec![4]);
        let reppat = Value::from_ivec(vec![7, 9, 4]);
        let lhs = call_builtin("MV", &[catm, reppat]).unwrap().as_ivec().unwrap();
        let a = call_builtin("MV", &[paving, rep]).unwrap().as_ivec().unwrap();
        let b = call_builtin("MV", &[fitting, pat]).unwrap().as_ivec().unwrap();
        let rhs: Vec<i64> = a.iter().zip(&b).map(|(x, y)| x + y).collect();
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn cat_rejects_mismatched_rows() {
        let a = mat(2, 1, vec![1, 2]);
        let b = mat(3, 1, vec![1, 2, 3]);
        assert!(call_builtin("CAT", &[a, b]).is_err());
    }

    #[test]
    fn scalar_builtins() {
        assert_eq!(call_builtin("min", &[Value::Int(3), Value::Int(5)]).unwrap(), Value::Int(3));
        assert_eq!(call_builtin("max", &[Value::Int(3), Value::Int(5)]).unwrap(), Value::Int(5));
        assert_eq!(call_builtin("abs", &[Value::Int(-7)]).unwrap(), Value::Int(7));
        assert_eq!(call_builtin("sum", &[Value::from_ivec(vec![1, 2, 3])]).unwrap(), Value::Int(6));
    }

    #[test]
    fn arity_errors() {
        assert!(call_builtin("shape", &[]).is_err());
        assert!(call_builtin("MV", &[Value::Int(1)]).is_err());
    }
}
