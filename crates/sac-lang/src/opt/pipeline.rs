//! The optimisation driver: parse → check → inline → fold constants → lower
//! → WLF → modulo resolution → DCE.

use crate::ast::{FunDef, Program};
use crate::opt::constfold::fold_function;
use crate::opt::dce::eliminate_dead_steps;
use crate::opt::inline::inline_entry;
use crate::opt::lower::{lower_function, ArgDesc};
use crate::opt::split::resolve_mods;
use crate::opt::wlf::{fold_program, FoldStats};
use crate::wir::{FlatProgram, Step};
use crate::SacError;

/// Pipeline configuration.
#[derive(Debug, Clone)]
pub struct OptConfig {
    /// Run WITH-loop folding (the paper's WLF). Disabling it is the
    /// ablation knob for `reproduce ablations`.
    pub with_loop_folding: bool,
    /// Split generators to statically resolve wrap-around `%` addressing.
    pub resolve_modulo: bool,
}

impl Default for OptConfig {
    fn default() -> Self {
        OptConfig { with_loop_folding: true, resolve_modulo: true }
    }
}

/// What the optimiser did (for reports and EXPERIMENTS.md).
#[derive(Debug, Clone, Default)]
pub struct OptReport {
    /// WLF statistics.
    pub fold: FoldStats,
    /// Steps removed by DCE.
    pub dead_steps: usize,
    /// Generators before modulo-resolution splitting.
    pub generators_before_split: usize,
    /// Final generator count (= kernel count for the CUDA backend).
    pub generators_after_split: usize,
    /// Number of host (non-GPU) steps in the final program.
    pub host_steps: usize,
}

/// Run the full high-level optimisation pipeline on `entry` of `prog` and
/// lower to a flat program.
pub fn optimize(
    prog: &Program,
    entry: &str,
    args: &[ArgDesc],
    cfg: &OptConfig,
) -> Result<(FlatProgram, OptReport), SacError> {
    crate::types::check_program(prog)?;
    let entry_fun = prog
        .fun(entry)
        .ok_or_else(|| SacError::Type { msg: format!("unknown entry function '{entry}'") })?;
    let inlined = inline_entry(prog, entry_fun);
    let folded: FunDef = fold_function(&inlined);
    let mut flat = lower_function(&folded, args)?;

    let mut report = OptReport::default();
    if cfg.with_loop_folding {
        report.fold = fold_program(&mut flat);
    }
    report.dead_steps = eliminate_dead_steps(&mut flat);
    report.generators_before_split = flat.generator_count();
    if cfg.resolve_modulo {
        for step in &mut flat.steps {
            if let Step::With { with, .. } = step {
                let gens = std::mem::take(&mut with.generators);
                for g in gens {
                    with.generators.extend(resolve_mods(g));
                }
            }
        }
    }
    report.generators_after_split = flat.generator_count();
    report.host_steps = flat.steps.iter().filter(|s| matches!(s, Step::Host { .. })).count();
    Ok((flat, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::Interp;
    use crate::parser::parse_program;
    use crate::value::Value;
    use mdarray::NdArray;

    /// A miniature 3-stage downscaler-like pipeline: gather (windowed sums),
    /// transform, scatter — enough to exercise fold + split end to end.
    const MINI: &str = r#"
int[*] gather(int[2,16] f)
{
    out = with {
        (. <= rep <= .) {
            tile = with {
                (. <= pat <= .) : f[[rep[0], (rep[1] * 4 + pat[0]) % 16]];
            } : genarray( [6], 0);
        } : tile;
    } : genarray( [2,4]);
    return( out);
}

int[*] transform(int[2,4,6] input)
{
    out = with {
        (. <= rep <= .) {
            tile = genarray( [2], 0);
            t0 = input[rep][0] + input[rep][1] + input[rep][2];
            t1 = input[rep][3] + input[rep][4] + input[rep][5];
            tile[0] = t0 / 3 - t0 % 3;
            tile[1] = t1 / 3 - t1 % 3;
        } : tile;
    } : genarray( [2,4]);
    return( out);
}

int[*] scatter(int[2,8] output, int[2,4,2] input)
{
    output = with {
        ([0,0]<=[i,j]<=. step [1,2]):input[[i, j/2, 0]];
        ([0,1]<=[i,j]<=. step [1,2]):input[[i, j/2, 1]];
    } : modarray( output);
    return( output);
}

int[*] main(int[2,16] frame)
{
    inter1 = gather(frame);
    inter2 = transform(inter1);
    zero = with { (. <= iv <= .) : 0; } : genarray( [2,8]);
    out = scatter(zero, inter2);
    return( out);
}
"#;

    fn reference_result(frame: &NdArray<i64>) -> Value {
        let prog = parse_program(MINI).unwrap();
        let mut i = Interp::new(&prog);
        i.call("main", vec![Value::Arr(frame.clone())]).unwrap()
    }

    #[test]
    fn full_pipeline_folds_to_single_loop() {
        let prog = parse_program(MINI).unwrap();
        let frame = NdArray::from_fn([2usize, 16], |ix| (ix[0] * 31 + ix[1] * 7) as i64 % 50);
        let args = [ArgDesc::Array { name: "frame".into(), shape: vec![2, 16] }];

        let (flat, report) = optimize(&prog, "main", &args, &OptConfig::default()).unwrap();
        // Everything fuses into one with-loop step (the zero seed is elided).
        assert_eq!(flat.steps.len(), 1, "{flat}");
        assert!(report.fold.folds >= 2, "{report:?}");
        assert_eq!(report.host_steps, 0);

        // Bit-exact vs the AST interpreter.
        let expect = reference_result(&frame);
        let got = flat.run(&[frame], &mut 0).unwrap();
        assert_eq!(Value::Arr(got), expect);
    }

    #[test]
    fn folding_can_be_disabled() {
        let prog = parse_program(MINI).unwrap();
        let args = [ArgDesc::Array { name: "frame".into(), shape: vec![2, 16] }];
        let cfg = OptConfig { with_loop_folding: false, resolve_modulo: false };
        let (flat, report) = optimize(&prog, "main", &args, &cfg).unwrap();
        assert_eq!(report.fold.folds, 0);
        assert!(flat.steps.len() >= 3, "{flat}");
        // Still correct.
        let frame = NdArray::from_fn([2usize, 16], |ix| (ix[0] + ix[1]) as i64);
        let expect = reference_result(&frame);
        let got = flat.run(&[frame], &mut 0).unwrap();
        assert_eq!(Value::Arr(got), expect);
    }

    #[test]
    fn boundary_wrap_splits_generators() {
        // Window 4*rep + pat with pat up to 6 wraps at rep=3 (12+5=17 > 15):
        // after folding, the wrap tile splits off extra generators.
        let prog = parse_program(MINI).unwrap();
        let args = [ArgDesc::Array { name: "frame".into(), shape: vec![2, 16] }];
        let (_, report) = optimize(&prog, "main", &args, &OptConfig::default()).unwrap();
        assert!(report.generators_after_split > report.generators_before_split, "{report:?}");
    }
}
