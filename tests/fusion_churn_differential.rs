//! Differential test for tail-call chain fusion under control-plane
//! churn: seeded random match chains replayed through an O0 machine
//! (no optimization, no fusion) and a machine at the default opt level
//! (O2, fusion on), with `InsertEntry` / `RemoveEntry` mutations
//! applied mid-replay to both — exactly the pattern that invalidates
//! baked fused chains.
//!
//! Every fire must produce identical verdict sequences and effects on
//! both machines, and the cumulative per-program and per-table counters
//! must agree at the end of each replay. Fused execution synthesizes
//! the bookkeeping (intermediate verdicts, tail-call counts, hit/miss
//! counts) that the collapsed chain no longer performs; this suite is
//! the reproducible net that the synthesis and the generation-stamped
//! invalidation protocol stay exact. Dynamic instruction counts are
//! deliberately NOT compared: collapsing work is the point of fusion.

use rkd::core::bytecode::{Action, AluOp, Insn, Reg};
use rkd::core::ctxt::Ctxt;
use rkd::core::machine::{ExecMode, RmtMachine};
use rkd::core::opt::OptLevel;
use rkd::core::prog::ProgramBuilder;
use rkd::core::table::{ActionId, Entry, MatchKey, MatchKind, TableId};
use rkd::core::verifier::verify;
use rkd::testkit::rng::{Rng, SeedableRng, StdRng};

const SEEDS: u64 = 200;
const BASE_SEED: u64 = 0xF05E_DCA1_2026_0807;
const FIRES_PER_SEED: usize = 30;

/// A random chain program: t0 (hook "h", keyed on pid, default a0)
/// then 2..=5 stage tables keyed on the scratch field `k`. Each
/// non-leaf action stores a key into `k` — usually a constant
/// (fusable), sometimes copied from the runtime pid (fusion-defeating)
/// — sets a stage verdict, and tail-calls the next table. Stage tables
/// randomly carry a default and/or an entry for the constant key, so
/// chains mix hit, default, and dead-end links.
struct ChainProg {
    prog: rkd::core::verifier::VerifiedProgram,
    /// Per stage-table: the constant key its caller stores (the churn
    /// target), or `None` when the caller stores a runtime key.
    stage_keys: Vec<Option<i64>>,
    stages: usize,
}

fn gen_chain(rng: &mut StdRng) -> ChainProg {
    let stages = rng.gen_range(2usize..=5);
    let mut b = ProgramBuilder::new("churn-chain");
    let pid = b.field_readonly("pid");
    let k = b.field_scratch("k");
    let mut stage_keys = Vec::with_capacity(stages);
    for i in 0..stages {
        let next = TableId((i + 1) as u16);
        let mut code = Vec::new();
        if rng.gen_range(0u8..5) == 0 {
            // Runtime-derived key: this link must never fuse.
            code.push(Insn::LdCtxt {
                dst: Reg(1),
                field: pid,
            });
            stage_keys.push(None);
        } else {
            let key = rng.gen_range(0i64..4);
            code.push(Insn::LdImm {
                dst: Reg(1),
                imm: key,
            });
            stage_keys.push(Some(key));
        }
        code.push(Insn::StCtxt {
            field: k,
            src: Reg(1),
        });
        code.push(Insn::LdImm {
            dst: Reg(0),
            imm: rng.gen_range(-100i64..100),
        });
        code.push(Insn::TailCall { table: next });
        b.action(Action::new(&format!("stage{i}"), code));
    }
    // Leaf: a little constant arithmetic over the entry argument.
    b.action(Action::new(
        "leaf",
        vec![
            Insn::Mov {
                dst: Reg(0),
                src: rkd::core::bytecode::ARG_REG,
            },
            Insn::AluImm {
                op: AluOp::Add,
                dst: Reg(0),
                imm: rng.gen_range(0i64..50),
            },
            Insn::Exit,
        ],
    ));
    b.table("t0", "h", &[pid], MatchKind::Exact, Some(ActionId(0)), 8);
    for i in 1..=stages {
        let default = if rng.gen_bool(0.5) {
            Some(ActionId(i.min(stages) as u16))
        } else {
            None
        };
        b.table(
            &format!("t{i}"),
            "stage",
            &[k],
            MatchKind::Exact,
            default,
            8,
        );
    }
    ChainProg {
        prog: verify(b.build()).expect("chain programs use the safe subset"),
        stage_keys,
        stages,
    }
}

/// Applies the same control-plane mutation to both machines and
/// asserts both accepted or both rejected it identically.
fn churn(
    rng: &mut StdRng,
    cp: &ChainProg,
    o0: (&mut RmtMachine, rkd::core::machine::ProgId),
    opt: (&mut RmtMachine, rkd::core::machine::ProgId),
) {
    let ti = TableId(rng.gen_range(1..=cp.stages as u16));
    // Aim at the key the chain actually resolves through when there is
    // one, so most mutations really do invalidate a fused link.
    let key_val = match cp.stage_keys[(ti.0 - 1) as usize] {
        Some(kv) if rng.gen_bool(0.8) => kv,
        _ => rng.gen_range(0i64..4),
    };
    let key = MatchKey::Exact(vec![key_val as u64]);
    if rng.gen_bool(0.6) {
        let entry = Entry {
            key,
            priority: 0,
            action: ActionId(rng.gen_range(1..=(cp.stages + 1) as u16 - 1)),
            arg: rng.gen_range(-50i64..50),
        };
        let a = o0.0.insert_entry(o0.1, ti, entry.clone());
        let b = opt.0.insert_entry(opt.1, ti, entry);
        assert_eq!(a.is_ok(), b.is_ok(), "insert_entry outcomes diverge");
    } else {
        let a = o0.0.remove_entry(o0.1, ti, &key);
        let b = opt.0.remove_entry(opt.1, ti, &key);
        assert_eq!(a.unwrap(), b.unwrap(), "remove_entry outcomes diverge");
    }
}

#[test]
fn fused_chains_stay_exact_under_mid_replay_entry_churn() {
    let mut fused_seen = 0u64;
    for s in 0..SEEDS {
        let mut rng = StdRng::seed_from_u64(BASE_SEED.wrapping_add(s));
        let cp = gen_chain(&mut rng);
        let mut o0 = RmtMachine::new();
        let mut opt = RmtMachine::new();
        let p0 = o0
            .install(cp.prog.clone(), ExecMode::Jit)
            .expect("install o0");
        o0.set_opt_level(p0, OptLevel::O0).expect("drop to O0");
        let po = opt
            .install(cp.prog.clone(), ExecMode::Jit)
            .expect("install opt");
        for f in 0..FIRES_PER_SEED {
            if f > 0 && rng.gen_bool(0.3) {
                churn(&mut rng, &cp, (&mut o0, p0), (&mut opt, po));
            }
            let pid_val = rng.gen_range(0i64..4);
            let mut c0 = Ctxt::from_values(vec![pid_val, 0]);
            let mut co = Ctxt::from_values(vec![pid_val, 0]);
            let r0 = o0.fire("h", &mut c0);
            let ro = opt.fire("h", &mut co);
            assert_eq!(
                r0.verdicts, ro.verdicts,
                "seed {s} fire {f}: verdict streams diverge"
            );
            assert_eq!(
                r0.effects, ro.effects,
                "seed {s} fire {f}: effect streams diverge"
            );
            assert_eq!(c0, co, "seed {s} fire {f}: contexts diverge");
        }
        let s0 = o0.stats(p0).unwrap();
        let so = opt.stats(po).unwrap();
        assert_eq!(s0.invocations, so.invocations, "seed {s}: invocations");
        assert_eq!(s0.actions_run, so.actions_run, "seed {s}: actions_run");
        assert_eq!(s0.tail_calls, so.tail_calls, "seed {s}: tail_calls");
        assert_eq!(s0.guard_trips, so.guard_trips, "seed {s}: guard_trips");
        assert_eq!(
            s0.actions_aborted, so.actions_aborted,
            "seed {s}: actions_aborted"
        );
        for t in 0..=cp.stages as u16 {
            assert_eq!(
                o0.table_stats(p0, TableId(t)).unwrap(),
                opt.table_stats(po, TableId(t)).unwrap(),
                "seed {s}: table {t} hit/miss counters diverge"
            );
        }
        fused_seen += opt.opt_stats(po).unwrap().fused_chains;
    }
    // Coverage guard: the generator must actually produce fused chains
    // (post-churn plans counted once per seed), or this suite silently
    // stops testing fusion.
    assert!(
        fused_seen >= SEEDS / 4,
        "only {fused_seen} fused chains across {SEEDS} seeds — generator drifted"
    );
}
