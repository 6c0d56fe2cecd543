//! Install-time compilation of verified actions.
//!
//! §3.1: "The RMT bytecode can further be JIT compiled directly to
//! machine code for efficiency." Emitting native code requires
//! `mmap(PROT_EXEC)`, which this reproduction deliberately avoids (see
//! DESIGN.md substitution #4). Here "compiling" an action means running
//! the optimizing-pass pipeline ([`crate::opt`]) at the program's
//! [`OptLevel`] and re-verifying the rewritten body; the result is
//! still bytecode and executes through the machine's one dispatch loop,
//! [`crate::interp::run_action`].
//!
//! An earlier pre-decoded threaded-code engine re-implemented every
//! opcode of the interpreter and measured within 2–4% of it, so it was
//! deleted: the optimizer is where the speed comes from, and a single
//! engine leaves nothing for a second one to disagree with. The O0
//! interpreter over the verified bytecode stays the reference oracle
//! for the optimized bodies.

use crate::bytecode::Action;
use crate::error::VmError;
use crate::interp::{run_action, ActionOutcome, ExecEnv};
use crate::opt::{OptLevel, Optimized, Pass};
use crate::prog::RmtProgram;
use crate::verifier::reverify_action;

/// An installed action body: the verified bytecode, optimized and
/// re-verified when the program's level asks for it.
#[derive(Clone, Debug)]
pub struct CompiledAction {
    action: Action,
}

impl CompiledAction {
    /// Wraps `action` unchanged (the O0 body). Performs no checks:
    /// [`CompiledAction::run`] faults on operands the verifier would
    /// have rejected, exactly as the interpreter does.
    pub fn compile(action: &Action) -> CompiledAction {
        CompiledAction {
            action: action.clone(),
        }
    }

    /// Runs the optimizing-pass pipeline at `level`, re-verifies the
    /// rewritten body against `prog`, and returns it together with its
    /// (possibly tighter) worst-case dynamic instruction count.
    ///
    /// Re-verification failure is a hard [`VmError::Verify`]: a pass
    /// that emits an inadmissible body must never reach the machine.
    /// At [`OptLevel::O0`] this is exactly [`CompiledAction::compile`]
    /// plus the unchanged `worst_case` — the retained oracle path.
    pub fn compile_optimized(
        id: u16,
        action: &Action,
        prog: &RmtProgram,
        level: OptLevel,
        worst_case: u64,
    ) -> Result<(CompiledAction, u64), VmError> {
        Self::compile_optimized_report(id, action, prog, level, worst_case)
            .map(|(c, wc, _)| (c, wc))
    }

    /// [`CompiledAction::compile_optimized`] that also returns the
    /// pipeline's [`Optimized`] report, so the machine can account
    /// per-program optimizer statistics and fixpoint-cap hits. At `O0`
    /// the report is an empty zero-round run.
    pub fn compile_optimized_report(
        id: u16,
        action: &Action,
        prog: &RmtProgram,
        level: OptLevel,
        worst_case: u64,
    ) -> Result<(CompiledAction, u64, Optimized), VmError> {
        if level == OptLevel::O0 {
            let report = Optimized {
                action: action.clone(),
                rounds: 0,
                fired: Vec::new(),
                capped: false,
            };
            return Ok((CompiledAction::compile(action), worst_case, report));
        }
        let opt = crate::opt::optimize(action, level);
        let (compiled, wc) = Self::reverified(id, &opt, prog, worst_case)?;
        Ok((compiled, wc, opt))
    }

    /// [`CompiledAction::compile_optimized`] with an explicit pass
    /// list — the seam the broken-pass meta-safety tests drive.
    pub fn compile_optimized_with(
        id: u16,
        action: &Action,
        prog: &RmtProgram,
        passes: &[&dyn Pass],
        worst_case: u64,
    ) -> Result<(CompiledAction, u64), VmError> {
        let opt = crate::opt::optimize_with(action, passes, crate::opt::MAX_FIXPOINT_ROUNDS);
        Self::reverified(id, &opt, prog, worst_case)
    }

    /// Re-verifies an optimizer result and keeps the tighter of the
    /// two worst cases (optimization never grows it), so fuel
    /// accounting benefits too.
    fn reverified(
        id: u16,
        opt: &Optimized,
        prog: &RmtProgram,
        worst_case: u64,
    ) -> Result<(CompiledAction, u64), VmError> {
        let wc = reverify_action(id, &opt.action, prog)?;
        Ok((CompiledAction::compile(&opt.action), wc.min(worst_case)))
    }

    /// Executes the body through [`crate::interp::run_action`]; same
    /// contract.
    pub fn run(
        &self,
        fuel: u64,
        arg: i64,
        env: &mut ExecEnv<'_>,
    ) -> Result<ActionOutcome, VmError> {
        run_action(&self.action, fuel, arg, env)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bytecode::{Insn, Reg, VReg};
    use crate::ctxt::CtxtSchema;
    use crate::dp::PrivacyLedger;
    use crate::maps::MapId;
    use crate::prog::PrivacyPolicy;
    use rkd_testkit::rng::{SeedableRng, StdRng};

    /// Runs `code` unverified against an environment with no maps,
    /// tensors or models and a one-field ctxt.
    fn run_unverified(code: Vec<Insn>) -> Result<ActionOutcome, VmError> {
        let mut schema = CtxtSchema::new();
        schema.add_scratch("a");
        let mut ctxt = schema.make_ctxt();
        let mut rng = StdRng::seed_from_u64(1);
        let mut ledger = PrivacyLedger::new(10_000);
        let mut env = ExecEnv {
            ctxt: &mut ctxt,
            maps: &mut [],
            tensors: &[],
            models: &[],
            tick: 0,
            rng: &mut rng,
            ledger: &mut ledger,
            privacy: PrivacyPolicy::default(),
            ml_stats: &mut [],
            time_ml: false,
        };
        CompiledAction::compile(&Action::new("untrusted", code)).run(100, 0, &mut env)
    }

    #[test]
    fn untrusted_operands_fault_instead_of_panicking() {
        let r = Reg(0);
        let bad_map = MapId(7);
        let cases = [
            vec![Insn::MapLookup {
                dst: r,
                map: bad_map,
                key: r,
                default: 0,
            }],
            vec![Insn::MapUpdate {
                map: bad_map,
                key: r,
                value: r,
            }],
            vec![Insn::DpAggregate {
                dst: r,
                map: bad_map,
            }],
            vec![Insn::LdImm {
                dst: Reg(99),
                imm: 0,
            }],
            vec![Insn::VectorClear { dst: VReg(9) }],
        ];
        for code in cases {
            let what = format!("{code:?}");
            assert!(
                matches!(run_unverified(code), Err(VmError::Fault(_))),
                "{what} must fault"
            );
        }
    }

    #[test]
    fn fuel_is_enforced() {
        assert!(matches!(
            run_unverified(vec![Insn::Jmp { target: 0 }]),
            Err(VmError::FuelExhausted)
        ));
    }
}
