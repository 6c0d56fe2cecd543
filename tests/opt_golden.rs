//! Pinned golden tests for the optimizing-pass pipeline: hand-written
//! bytecode with the exact expected post-optimization instruction
//! stream for each pass. A pass regression shows up here as a readable
//! stream diff, not as "divergence at seed N" in the differential
//! suite.
//!
//! Also pins the verify-after-optimize invariant with a deliberately
//! broken mock pass: optimizer output that fails re-verification is a
//! hard compile-time error, never an installed body.

use rkd::core::bytecode::{Action, AluOp, CmpOp, Insn, Reg};
use rkd::core::ctxt::FieldId;
use rkd::core::error::VmError;
use rkd::core::jit::CompiledAction;
use rkd::core::opt::{
    fuse_chain, optimize, BranchFold, ConstFold, DeadCode, GuardHoist, OptLevel, Pass, Specialize,
};
use rkd::core::prog::ProgramBuilder;
use rkd::core::table::{ActionId, Entry, MatchKey, MatchKind, Table, TableDef, TableId};

fn run_once(pass: &dyn Pass, input: Vec<Insn>) -> Vec<Insn> {
    let mut code = input;
    pass.run(&mut code);
    code
}

#[test]
fn const_fold_golden() {
    // Constants propagate through Mov/Alu/AluImm and decide the
    // comparison; the decided branch becomes an unconditional Jmp
    // (collected by BranchFold later), everything else stays 1:1.
    let input = vec![
        Insn::LdImm {
            dst: Reg(1),
            imm: 7,
        },
        Insn::Mov {
            dst: Reg(2),
            src: Reg(1),
        },
        Insn::Alu {
            op: AluOp::Add,
            dst: Reg(2),
            src: Reg(1),
        },
        Insn::AluImm {
            op: AluOp::Mul,
            dst: Reg(2),
            imm: 3,
        },
        Insn::JmpIfImm {
            cmp: CmpOp::Eq,
            lhs: Reg(2),
            imm: 42,
            target: 6,
        },
        Insn::LdImm {
            dst: Reg(2),
            imm: 0,
        },
        Insn::Mov {
            dst: Reg(0),
            src: Reg(2),
        },
        Insn::Exit,
    ];
    let expected = vec![
        Insn::LdImm {
            dst: Reg(1),
            imm: 7,
        },
        Insn::LdImm {
            dst: Reg(2),
            imm: 7,
        },
        Insn::LdImm {
            dst: Reg(2),
            imm: 14,
        },
        Insn::LdImm {
            dst: Reg(2),
            imm: 42,
        },
        // 42 == 42: the conditional is decided taken.
        Insn::Jmp { target: 6 },
        Insn::LdImm {
            dst: Reg(2),
            imm: 0,
        },
        // Instruction 6 is a jump target (block leader): constant
        // state resets there, so the Mov survives.
        Insn::Mov {
            dst: Reg(0),
            src: Reg(2),
        },
        Insn::Exit,
    ];
    assert_eq!(run_once(&ConstFold, input), expected);
}

#[test]
fn const_fold_turns_register_compare_into_immediate_compare() {
    let input = vec![
        Insn::LdImm {
            dst: Reg(1),
            imm: 10,
        },
        Insn::JmpIf {
            cmp: CmpOp::Lt,
            lhs: Reg(3),
            rhs: Reg(1),
            target: 3,
        },
        Insn::LdImm {
            dst: Reg(0),
            imm: 0,
        },
        Insn::Exit,
    ];
    let expected = vec![
        Insn::LdImm {
            dst: Reg(1),
            imm: 10,
        },
        // r3 is unknown but the rhs is constant: JmpIf -> JmpIfImm.
        Insn::JmpIfImm {
            cmp: CmpOp::Lt,
            lhs: Reg(3),
            imm: 10,
            target: 3,
        },
        Insn::LdImm {
            dst: Reg(0),
            imm: 0,
        },
        Insn::Exit,
    ];
    assert_eq!(run_once(&ConstFold, input), expected);
}

#[test]
fn dead_store_golden() {
    // The first StCtxt is overwritten before any read; the self-move
    // and the never-read register definition are dead too. The second
    // StCtxt is observable at action exit and must survive.
    let input = vec![
        Insn::LdImm {
            dst: Reg(1),
            imm: 5,
        },
        Insn::StCtxt {
            field: FieldId(1),
            src: Reg(1),
        },
        Insn::LdImm {
            dst: Reg(2),
            imm: 6,
        },
        Insn::Mov {
            dst: Reg(3),
            src: Reg(3),
        },
        Insn::StCtxt {
            field: FieldId(1),
            src: Reg(2),
        },
        Insn::LdImm {
            dst: Reg(4),
            imm: 123,
        },
        Insn::LdImm {
            dst: Reg(0),
            imm: 0,
        },
        Insn::Exit,
    ];
    let expected = vec![
        // r1's definition is only dead once its (dead) store is gone —
        // a later fixpoint round collects it; one DeadCode run keeps it.
        Insn::LdImm {
            dst: Reg(1),
            imm: 5,
        },
        Insn::LdImm {
            dst: Reg(2),
            imm: 6,
        },
        Insn::StCtxt {
            field: FieldId(1),
            src: Reg(2),
        },
        Insn::LdImm {
            dst: Reg(0),
            imm: 0,
        },
        Insn::Exit,
    ];
    assert_eq!(run_once(&DeadCode, input.clone()), expected);
    // The full pipeline reaches the fixpoint: the stranded r1
    // definition goes too.
    let pipeline_expected = vec![
        Insn::LdImm {
            dst: Reg(2),
            imm: 6,
        },
        Insn::StCtxt {
            field: FieldId(1),
            src: Reg(2),
        },
        Insn::LdImm {
            dst: Reg(0),
            imm: 0,
        },
        Insn::Exit,
    ];
    let opt = optimize(&Action::new("g", input), OptLevel::O2);
    assert_eq!(opt.action.code, pipeline_expected);
}

#[test]
fn branch_fold_golden() {
    // Threading follows the Jmp chain, a jump landing on Exit becomes
    // Exit, unreachable instructions vanish, and surviving targets are
    // rewritten to the compacted positions.
    let input = vec![
        Insn::JmpIfImm {
            cmp: CmpOp::Eq,
            lhs: Reg(0),
            imm: 0,
            target: 4,
        },
        Insn::LdImm {
            dst: Reg(1),
            imm: 1,
        },
        Insn::Jmp { target: 6 },
        Insn::LdImm {
            dst: Reg(1),
            imm: 2,
        },
        Insn::Jmp { target: 6 },
        Insn::LdImm {
            dst: Reg(1),
            imm: 3,
        },
        Insn::Exit,
    ];
    let expected = vec![
        // Threaded through the Jmp at 4 onto the Exit at 6, then
        // rewritten to the compacted position of that Exit.
        Insn::JmpIfImm {
            cmp: CmpOp::Eq,
            lhs: Reg(0),
            imm: 0,
            target: 3,
        },
        Insn::LdImm {
            dst: Reg(1),
            imm: 1,
        },
        // Jmp-to-Exit duplicates the terminator in place.
        Insn::Exit,
        Insn::Exit,
    ];
    assert_eq!(run_once(&BranchFold, input), expected);
}

#[test]
fn specialize_golden() {
    // Store-to-load forwarding: both reloads of the stored field
    // become register moves.
    let input = vec![
        Insn::LdImm {
            dst: Reg(1),
            imm: 9,
        },
        Insn::StCtxt {
            field: FieldId(2),
            src: Reg(1),
        },
        Insn::LdCtxt {
            dst: Reg(3),
            field: FieldId(2),
        },
        Insn::LdCtxt {
            dst: Reg(4),
            field: FieldId(2),
        },
        Insn::Exit,
    ];
    let expected = vec![
        Insn::LdImm {
            dst: Reg(1),
            imm: 9,
        },
        Insn::StCtxt {
            field: FieldId(2),
            src: Reg(1),
        },
        Insn::Mov {
            dst: Reg(3),
            src: Reg(1),
        },
        Insn::Mov {
            dst: Reg(4),
            src: Reg(1),
        },
        Insn::Exit,
    ];
    assert_eq!(run_once(&Specialize, input), expected);
}

#[test]
fn specialize_cse_golden() {
    // Redundant-load CSE: a second load of the same field becomes a
    // move from the register that already holds it.
    let input = vec![
        Insn::LdCtxt {
            dst: Reg(1),
            field: FieldId(0),
        },
        Insn::LdCtxt {
            dst: Reg(2),
            field: FieldId(0),
        },
        Insn::Exit,
    ];
    let expected = vec![
        Insn::LdCtxt {
            dst: Reg(1),
            field: FieldId(0),
        },
        Insn::Mov {
            dst: Reg(2),
            src: Reg(1),
        },
        Insn::Exit,
    ];
    assert_eq!(run_once(&Specialize, input), expected);
}

#[test]
fn guard_hoist_golden() {
    // A guard decided by a dominating check is rewritten 1:1 into an
    // unconditional Jmp: decided-taken jumps to the guard's target,
    // decided-not-taken jumps to the fall-through. Instruction 2 is
    // reached only on the taken edge of instruction 0, so `r1 < 10`
    // is a known-true fact there; instruction 4 tests the negated
    // predicate (`r1 >= 10`), decided false by the same fact.
    let input = vec![
        Insn::JmpIfImm {
            cmp: CmpOp::Lt,
            lhs: Reg(1),
            imm: 10,
            target: 2,
        },
        Insn::Exit,
        Insn::JmpIfImm {
            cmp: CmpOp::Lt,
            lhs: Reg(1),
            imm: 10,
            target: 4,
        },
        Insn::Exit,
        Insn::JmpIfImm {
            cmp: CmpOp::Ge,
            lhs: Reg(1),
            imm: 10,
            target: 6,
        },
        Insn::LdImm {
            dst: Reg(0),
            imm: 1,
        },
        Insn::Exit,
    ];
    let expected = vec![
        // The earliest check survives as the single guard.
        Insn::JmpIfImm {
            cmp: CmpOp::Lt,
            lhs: Reg(1),
            imm: 10,
            target: 2,
        },
        Insn::Exit,
        // Dominated duplicate, decided taken.
        Insn::Jmp { target: 4 },
        Insn::Exit,
        // Negated duplicate, decided not-taken: falls through.
        Insn::Jmp { target: 5 },
        Insn::LdImm {
            dst: Reg(0),
            imm: 1,
        },
        Insn::Exit,
    ];
    assert_eq!(run_once(&GuardHoist, input), expected);
}

#[test]
fn guard_hoist_loop_invariant_golden() {
    // The canonical win: a loop-invariant guard re-checked every
    // iteration. Loop-header widening only drops facts over registers
    // the loop redefines (r2, r3); the fact about r1 from the pre-loop
    // check survives the back edge and decides the per-iteration copy.
    let input = vec![
        Insn::JmpIfImm {
            cmp: CmpOp::Ge,
            lhs: Reg(1),
            imm: 0,
            target: 2,
        },
        Insn::Exit,
        // Loop header.
        Insn::AluImm {
            op: AluOp::Add,
            dst: Reg(2),
            imm: 1,
        },
        Insn::JmpIfImm {
            cmp: CmpOp::Ge,
            lhs: Reg(1),
            imm: 0,
            target: 5,
        },
        Insn::Exit,
        Insn::AluImm {
            op: AluOp::Sub,
            dst: Reg(3),
            imm: 1,
        },
        // Back edge.
        Insn::JmpIfImm {
            cmp: CmpOp::Gt,
            lhs: Reg(3),
            imm: 0,
            target: 2,
        },
        Insn::LdImm {
            dst: Reg(0),
            imm: 0,
        },
        Insn::Exit,
    ];
    let mut expected = input.clone();
    // Only the per-iteration guard copy folds; the pre-loop check and
    // the loop's own exit condition are untouched.
    expected[3] = Insn::Jmp { target: 5 };
    assert_eq!(run_once(&GuardHoist, input), expected);
}

#[test]
fn const_fold_loop_carried_constant_golden() {
    // Loop-aware folding: at the loop header, only registers the loop
    // redefines (r2, r3) widen to unknown — r1 keeps its pre-loop
    // constant across the back edge, so the loop-body uses of r1 fold.
    // The loop counter r2 must NOT fold: treating its pre-loop value
    // as loop-invariant would mis-decide the exit condition.
    let input = vec![
        Insn::LdImm {
            dst: Reg(1),
            imm: 5,
        },
        Insn::LdImm {
            dst: Reg(2),
            imm: 3,
        },
        // Loop header: r3 = r1 + 1 (r1 is loop-invariant).
        Insn::Mov {
            dst: Reg(3),
            src: Reg(1),
        },
        Insn::AluImm {
            op: AluOp::Add,
            dst: Reg(3),
            imm: 1,
        },
        Insn::AluImm {
            op: AluOp::Sub,
            dst: Reg(2),
            imm: 1,
        },
        Insn::JmpIfImm {
            cmp: CmpOp::Gt,
            lhs: Reg(2),
            imm: 0,
            target: 2,
        },
        Insn::Mov {
            dst: Reg(0),
            src: Reg(3),
        },
        Insn::Exit,
    ];
    let expected = vec![
        Insn::LdImm {
            dst: Reg(1),
            imm: 5,
        },
        Insn::LdImm {
            dst: Reg(2),
            imm: 3,
        },
        // r1 survived the back edge: both body instructions fold.
        Insn::LdImm {
            dst: Reg(3),
            imm: 5,
        },
        Insn::LdImm {
            dst: Reg(3),
            imm: 6,
        },
        // r2 widened at the header: the decrement and the exit test
        // stay symbolic.
        Insn::AluImm {
            op: AluOp::Sub,
            dst: Reg(2),
            imm: 1,
        },
        Insn::JmpIfImm {
            cmp: CmpOp::Gt,
            lhs: Reg(2),
            imm: 0,
            target: 2,
        },
        // After the loop r3 is known (it is recomputed from r1 every
        // iteration), so the verdict move folds too.
        Insn::LdImm {
            dst: Reg(0),
            imm: 6,
        },
        Insn::Exit,
    ];
    assert_eq!(run_once(&ConstFold, input), expected);
}

/// Chain fixture for the fusion goldens: a0 stores `k := 3` and
/// tail-calls t1 (keyed on `k`, one entry at 3 -> a1 with arg 5); a1
/// tail-calls t2 (empty, default a2); a2 is the leaf with verdict 42.
fn fuse_fixture() -> (Vec<Action>, Vec<Table>) {
    let k = FieldId(1);
    let table = |name: &str, key: &[FieldId], default: Option<ActionId>| {
        Table::new(TableDef {
            name: name.into(),
            hook: "h".into(),
            key_fields: key.to_vec(),
            kind: MatchKind::Exact,
            default_action: default,
            max_entries: 8,
        })
    };
    let a0 = Action::new(
        "root",
        vec![
            Insn::LdImm {
                dst: Reg(1),
                imm: 3,
            },
            Insn::StCtxt {
                field: k,
                src: Reg(1),
            },
            Insn::LdImm {
                dst: Reg(0),
                imm: 10,
            },
            Insn::TailCall { table: TableId(1) },
        ],
    );
    let a1 = Action::new(
        "mid",
        vec![
            Insn::LdImm {
                dst: Reg(0),
                imm: 20,
            },
            Insn::TailCall { table: TableId(2) },
        ],
    );
    let a2 = Action::new(
        "leaf",
        vec![
            Insn::LdImm {
                dst: Reg(0),
                imm: 42,
            },
            Insn::Exit,
        ],
    );
    let t0 = table("t0", &[FieldId(0)], Some(ActionId(0)));
    let mut t1 = table("t1", &[k], None);
    t1.insert(Entry {
        key: MatchKey::Exact(vec![3]),
        priority: 0,
        action: ActionId(1),
        arg: 5,
    })
    .unwrap();
    let t2 = table("t2", &[k], Some(ActionId(2)));
    (vec![a0, a1, a2], vec![t0, t1, t2])
}

#[test]
fn fuse_chain_golden() {
    // The whole statically resolvable chain collapses to its
    // observable effects: the context store and the leaf verdict. The
    // spliced prologues (argument loads, register zeroing) and the
    // intermediate verdicts are all provably dead and fold away.
    let (actions, tables) = fuse_fixture();
    let plan = fuse_chain(&actions[0], &actions, &tables, OptLevel::O2).expect("chain fuses");
    assert_eq!(
        plan.steps.len(),
        2,
        "two links resolved: t1 hit, t2 default"
    );
    let s0 = &plan.steps[0];
    assert_eq!(
        (s0.caller_verdict, s0.table, s0.entry, s0.action),
        (10, 1, Some(0), Some(1)),
    );
    let s1 = &plan.steps[1];
    assert_eq!(
        (s1.caller_verdict, s1.table, s1.entry, s1.action),
        (20, 2, None, Some(2)),
    );
    assert_eq!(
        plan.action.code,
        vec![
            Insn::LdImm {
                dst: Reg(1),
                imm: 3,
            },
            Insn::StCtxt {
                field: FieldId(1),
                src: Reg(1),
            },
            Insn::LdImm {
                dst: Reg(0),
                imm: 42,
            },
            Insn::Exit,
        ]
    );
}

#[test]
fn fuse_chain_churn_golden() {
    // Fusion-defeating churn: the plan bakes table contents into code,
    // so a control-plane insert that changes what key 3 resolves to
    // produces a different plan. Here a non-matching entry lands in t1:
    // the lookup now resolves to a miss with no default, and the chain
    // collapses to just t1's bookkeeping with the root verdict.
    let (actions, mut tables) = fuse_fixture();
    tables[1]
        .insert(Entry {
            key: MatchKey::Exact(vec![9]),
            priority: 0,
            action: ActionId(2),
            arg: 0,
        })
        .unwrap();
    assert!(tables[1].remove(&MatchKey::Exact(vec![3])));
    let plan = fuse_chain(&actions[0], &actions, &tables, OptLevel::O2).expect("still fuses");
    assert_eq!(
        plan.steps.len(),
        1,
        "the t1 link now resolves to a dead end"
    );
    let s0 = &plan.steps[0];
    assert_eq!(
        (s0.caller_verdict, s0.table, s0.entry, s0.action),
        (10, 1, None, None),
    );
    // The fused body carries the root's verdict and effects only.
    assert_eq!(
        plan.action.code,
        vec![
            Insn::LdImm {
                dst: Reg(1),
                imm: 3,
            },
            Insn::StCtxt {
                field: FieldId(1),
                src: Reg(1),
            },
            Insn::LdImm {
                dst: Reg(0),
                imm: 10,
            },
            Insn::Exit,
        ]
    );
    assert!(
        !plan
            .action
            .code
            .iter()
            .any(|i| matches!(i, Insn::TailCall { .. })),
        "no live TailCall in a fully resolved fused body"
    );
}

#[test]
fn full_pipeline_golden() {
    // A constant-heavy body collapses to its final verdict: constant
    // folding decides everything, dead code strips the scaffolding,
    // branch folding removes the decided jump and the dead tail.
    let input = vec![
        Insn::LdImm {
            dst: Reg(1),
            imm: 6,
        },
        Insn::LdImm {
            dst: Reg(2),
            imm: 7,
        },
        Insn::Alu {
            op: AluOp::Mul,
            dst: Reg(1),
            src: Reg(2),
        },
        Insn::Mov {
            dst: Reg(0),
            src: Reg(1),
        },
        Insn::JmpIfImm {
            cmp: CmpOp::Ge,
            lhs: Reg(0),
            imm: 0,
            target: 6,
        },
        Insn::AluImm {
            op: AluOp::Add,
            dst: Reg(0),
            imm: 1,
        },
        Insn::Exit,
    ];
    let opt = optimize(&Action::new("g", input), OptLevel::O2);
    assert_eq!(
        opt.action.code,
        vec![
            Insn::LdImm {
                dst: Reg(0),
                imm: 42,
            },
            Insn::Exit,
        ]
    );
}

/// The verify-after-optimize invariant, pinned end to end through the
/// install-time compile path: a deliberately broken pass whose output drops the
/// terminator must surface as a hard `VmError::Verify` from
/// `compile_optimized_with`, exactly what `install` would propagate.
#[test]
fn broken_pass_is_a_hard_compile_error() {
    struct StripExit;
    impl Pass for StripExit {
        fn name(&self) -> &'static str {
            "strip-exit"
        }
        fn run(&self, code: &mut Vec<Insn>) -> bool {
            let before = code.len();
            code.retain(|i| !matches!(i, Insn::Exit));
            code.len() != before
        }
    }

    let action = Action::new(
        "victim",
        vec![
            Insn::LdImm {
                dst: Reg(0),
                imm: 1,
            },
            Insn::Exit,
        ],
    );
    let mut b = ProgramBuilder::new("broken");
    let pid = b.field_readonly("pid");
    let act = b.action(action.clone());
    b.table("t", "hook", &[pid], MatchKind::Exact, Some(act), 4);
    let prog = b.build();

    let err = CompiledAction::compile_optimized_with(0, &action, &prog, &[&StripExit], 100)
        .expect_err("terminator-stripping pass must fail re-verification");
    assert!(
        matches!(err, VmError::Verify(_)),
        "expected VmError::Verify, got {err:?}"
    );

    // The honest pipeline compiles the same action fine.
    assert!(CompiledAction::compile_optimized(0, &action, &prog, OptLevel::O2, 100).is_ok());
}
