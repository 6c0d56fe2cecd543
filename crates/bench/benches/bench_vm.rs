//! Microbenchmark: fire cost on the Figure 1 datapath, raw
//! action-execution microbenchmarks, and the optimizer's O0-vs-opt
//! comparison on a constant-heavy pipeline (gated at ≥1.2× median
//! speedup; see `vm_opt_pipeline` below). Every row runs the one
//! execution engine, `interp::run_action`, over the program's
//! optimized, re-verified bodies.
//!
//! Set `RKD_BENCH_OPT_JSON=<path>` to emit the optimizer comparison as
//! a JSON document (consumed by `scripts/ci.sh`).

use rkd_bench::harness::{BatchSize, Harness};
use rkd_core::bytecode::{Action, AluOp, CmpOp, Insn, Reg};
use rkd_core::ctxt::Ctxt;
use rkd_core::machine::{ExecMode, RmtMachine};
use rkd_core::opt::OptLevel;
use rkd_core::verifier::verify;
use rkd_testkit::json::Json;

/// Acceptance gate: the optimized bodies must beat the O0 oracle by at
/// least this factor (median) on the constant-heavy pipeline.
const OPT_GATE_SPEEDUP: f64 = 1.2;

/// A compute-heavy action: bounded loop of ALU work.
fn hot_action() -> Action {
    Action::with_loop_bound(
        "hot",
        vec![
            Insn::LdImm {
                dst: Reg(0),
                imm: 0,
            },
            Insn::LdImm {
                dst: Reg(1),
                imm: 0,
            },
            Insn::AluImm {
                op: AluOp::Add,
                dst: Reg(0),
                imm: 3,
            },
            Insn::AluImm {
                op: AluOp::Xor,
                dst: Reg(0),
                imm: 0x5A5A,
            },
            Insn::AluImm {
                op: AluOp::Add,
                dst: Reg(1),
                imm: 1,
            },
            Insn::JmpIfImm {
                cmp: CmpOp::Lt,
                lhs: Reg(1),
                imm: 64,
                target: 2,
            },
            Insn::Exit,
        ],
        64,
    )
}

fn hot_machine() -> RmtMachine {
    let mut b = rkd_core::prog::ProgramBuilder::new("bench");
    let pid = b.field_readonly("pid");
    let act = b.action(hot_action());
    b.table(
        "t",
        "hook",
        &[pid],
        rkd_core::table::MatchKind::Exact,
        Some(act),
        8,
    );
    let verified = verify(b.build()).unwrap();
    let mut vm = RmtMachine::new();
    vm.install(verified, ExecMode::Jit).unwrap();
    vm
}

fn bench_dispatch(c: &mut Harness) {
    let mut group = c.benchmark_group("vm_dispatch");
    group.bench_function("o2", |b| {
        let mut vm = hot_machine();
        b.iter_batched(
            || Ctxt::from_values(vec![1]),
            |mut ctxt| vm.fire("hook", &mut ctxt),
            BatchSize::SmallInput,
        );
    });
    group.finish();
}

/// Deep pipeline: one hook with many tables, stressing the per-fire
/// queue. `fire` reuses a per-machine scratch buffer here — this bench
/// is the regression guard for the old per-invocation `Vec` allocation
/// (and the listener-list clone that rode along with it).
fn bench_pipeline(c: &mut Harness) {
    let mut group = c.benchmark_group("vm_pipeline_8_tables");
    group.bench_function("o2", |b| {
        let mut bld = rkd_core::prog::ProgramBuilder::new("bench");
        let pid = bld.field_readonly("pid");
        let act = bld.action(hot_action());
        for i in 0..8 {
            bld.table(
                &format!("t{i}"),
                "hook",
                &[pid],
                rkd_core::table::MatchKind::Exact,
                Some(act),
                8,
            );
        }
        let verified = verify(bld.build()).unwrap();
        let mut vm = RmtMachine::new();
        vm.install(verified, ExecMode::Jit).unwrap();
        b.iter_batched(
            || Ctxt::from_values(vec![1]),
            |mut ctxt| vm.fire("hook", &mut ctxt),
            BatchSize::SmallInput,
        );
    });
    group.finish();
}

fn bench_figure1(c: &mut Harness) {
    let mut group = c.benchmark_group("figure1_datapath");
    group.bench_function("o2", |b| {
        let compiled = rkd_lang::compile(rkd_lang::FIGURE1_PREFETCH).unwrap();
        let verified = verify(compiled.program).unwrap();
        let mut vm = RmtMachine::new();
        vm.install(verified, ExecMode::Jit).unwrap();
        let mut page = 0i64;
        b.iter(|| {
            page += 3;
            let mut ctxt = Ctxt::from_values(vec![1, page]);
            vm.fire("lookup_swap_cache", &mut ctxt);
            vm.fire("swap_cluster_readahead", &mut ctxt)
        });
    });
    group.finish();
}

/// A constant-heavy action: a long straight-line computation over
/// compile-time constants, a decided branch, and a dead tail. The
/// whole body folds to `LdImm r0, <result>; Exit` — the shape the
/// optimizer exists for (policy programs that bake thresholds and
/// per-deployment constants into the bytecode).
fn constant_heavy_action() -> Action {
    let mut code = vec![
        Insn::LdImm {
            dst: Reg(1),
            imm: 1,
        },
        Insn::LdImm {
            dst: Reg(2),
            imm: 3,
        },
    ];
    for i in 0..64i64 {
        code.push(Insn::AluImm {
            op: AluOp::Add,
            dst: Reg(1),
            imm: i,
        });
        code.push(Insn::Alu {
            op: AluOp::Xor,
            dst: Reg(1),
            src: Reg(2),
        });
        code.push(Insn::AluImm {
            op: AluOp::Mul,
            dst: Reg(2),
            imm: 3,
        });
    }
    let here = code.len();
    // Always-taken branch over a dead fixup tail.
    code.push(Insn::JmpIfImm {
        cmp: CmpOp::Ge,
        lhs: Reg(2),
        imm: i64::MIN,
        target: here + 3,
    });
    code.push(Insn::LdImm {
        dst: Reg(1),
        imm: 0,
    });
    code.push(Insn::LdImm {
        dst: Reg(2),
        imm: 0,
    });
    code.push(Insn::Mov {
        dst: Reg(0),
        src: Reg(1),
    });
    code.push(Insn::Exit);
    Action::new("const_heavy", code)
}

/// An 8-table pipeline over the constant-heavy action, compiled at
/// `level`.
fn opt_machine(level: OptLevel) -> RmtMachine {
    let mut b = rkd_core::prog::ProgramBuilder::new("bench_opt");
    let pid = b.field_readonly("pid");
    let act = b.action(constant_heavy_action());
    for i in 0..8 {
        b.table(
            &format!("t{i}"),
            "hook",
            &[pid],
            rkd_core::table::MatchKind::Exact,
            Some(act),
            8,
        );
    }
    b.opt_level(level);
    let verified = verify(b.build()).unwrap();
    let mut vm = RmtMachine::new();
    vm.install(verified, ExecMode::Jit).unwrap();
    vm
}

/// O0 oracle vs optimized bodies on the constant-heavy pipeline, with the
/// ≥1.2× median-speedup acceptance gate.
fn bench_opt(c: &mut Harness) -> Vec<(String, Json)> {
    let mut group = c.benchmark_group("vm_opt_pipeline");
    let mut medians = [None, None];
    for (slot, (name, level)) in [("o0", OptLevel::O0), ("opt", OptLevel::O2)]
        .into_iter()
        .enumerate()
    {
        medians[slot] = group.bench_function(name, |b| {
            let mut vm = opt_machine(level);
            b.iter_batched(
                || Ctxt::from_values(vec![1]),
                |mut ctxt| vm.fire("hook", &mut ctxt),
                BatchSize::SmallInput,
            );
        });
    }
    group.finish();
    let mut doc = Vec::new();
    if let [Some(o0), Some(opt)] = medians {
        let speedup = o0 / opt.max(1e-9);
        let verdict = if speedup >= OPT_GATE_SPEEDUP {
            "PASS"
        } else {
            "FAIL"
        };
        println!(
            "speedup_gate opt_const_pipeline {speedup:6.1}x (budget {OPT_GATE_SPEEDUP}x) {verdict}"
        );
        doc.push((
            "opt_const_pipeline".to_string(),
            Json::Obj(vec![
                ("o0_ns".to_string(), Json::Float(o0)),
                ("opt_ns".to_string(), Json::Float(opt)),
                ("speedup".to_string(), Json::Float(speedup)),
                ("verdict".to_string(), Json::Str(verdict.to_string())),
            ]),
        ));
    }
    doc
}

/// Per-link body for the fusable match chain: constant ALU work, a
/// constant verdict, and a tail call to the next stage (the leaf
/// exits). Every link resolves statically — empty stage tables
/// dispatch their defaults — so at O2 the whole chain fuses into one
/// body while O0 pays eight dispatches and eight unfolded bodies.
fn chain_link_action(i: usize, stages: usize) -> Action {
    let mut code = vec![
        Insn::LdImm {
            dst: Reg(1),
            imm: (i + 1) as i64,
        },
        Insn::LdImm {
            dst: Reg(2),
            imm: 3,
        },
    ];
    for j in 0..7i64 {
        code.push(Insn::AluImm {
            op: AluOp::Add,
            dst: Reg(1),
            imm: j,
        });
        code.push(Insn::Alu {
            op: AluOp::Xor,
            dst: Reg(1),
            src: Reg(2),
        });
    }
    code.push(Insn::LdImm {
        dst: Reg(0),
        imm: 10 + i as i64,
    });
    if i + 1 == stages {
        code.push(Insn::Exit);
    } else {
        code.push(Insn::TailCall {
            table: rkd_core::table::TableId((i + 1) as u16),
        });
    }
    Action::new(&format!("link{i}"), code)
}

/// An 8-stage tail-call match chain: t0 at the fired hook dispatches
/// link 0; t1..t7 are empty default-only stage tables each dispatching
/// the next link.
fn chain_machine(level: OptLevel) -> (RmtMachine, rkd_core::machine::ProgId) {
    const STAGES: usize = 8;
    let mut b = rkd_core::prog::ProgramBuilder::new("bench_chain");
    let pid = b.field_readonly("pid");
    for i in 0..STAGES {
        b.action(chain_link_action(i, STAGES));
    }
    for i in 0..STAGES {
        b.table(
            &format!("t{i}"),
            if i == 0 { "hook" } else { "stage" },
            &[pid],
            rkd_core::table::MatchKind::Exact,
            Some(rkd_core::table::ActionId(i as u16)),
            8,
        );
    }
    b.opt_level(level);
    let verified = verify(b.build()).unwrap();
    let mut vm = RmtMachine::new();
    let prog = vm.install(verified, ExecMode::Jit).unwrap();
    (vm, prog)
}

/// The chain's expected verdict stream (any opt level must match it).
fn chain_verdict(vm: &mut RmtMachine) -> Vec<(rkd_core::table::TableId, i64)> {
    let mut ctxt = Ctxt::from_values(vec![1]);
    vm.fire("hook", &mut ctxt).verdicts.clone()
}

fn chain_verdict_at(level: OptLevel) -> Vec<(rkd_core::table::TableId, i64)> {
    chain_verdict(&mut chain_machine(level).0)
}

/// O0 vs O2 (fusion on) over the statically resolvable 8-table chain,
/// gated at ≥2× — the tentpole number: chain fusion must at least
/// halve the cost of a fully resolvable match chain.
fn bench_chain_fuse(c: &mut Harness) -> Vec<(String, Json)> {
    const GATE: f64 = 2.0;
    // The two engines must agree on the verdict stream before any
    // timing is trusted.
    assert_eq!(
        chain_verdict_at(OptLevel::O0),
        chain_verdict_at(OptLevel::O2),
        "fused chain diverges from O0 oracle"
    );
    let mut group = c.benchmark_group("vm_chain_fuse");
    let mut medians = [None, None];
    for (slot, (name, level)) in [("o0", OptLevel::O0), ("fused", OptLevel::O2)]
        .into_iter()
        .enumerate()
    {
        medians[slot] = group.bench_function(name, |b| {
            let (mut vm, _) = chain_machine(level);
            b.iter_batched(
                || Ctxt::from_values(vec![1]),
                |mut ctxt| vm.fire("hook", &mut ctxt),
                BatchSize::SmallInput,
            );
        });
    }
    group.finish();
    let mut doc = Vec::new();
    if let [Some(o0), Some(fused)] = medians {
        let speedup = o0 / fused.max(1e-9);
        let verdict = if speedup >= GATE { "PASS" } else { "FAIL" };
        println!("speedup_gate chain_fuse_pipeline {speedup:6.1}x (budget {GATE}x) {verdict}");
        doc.push((
            "chain_fuse_pipeline".to_string(),
            Json::Obj(vec![
                ("o0_ns".to_string(), Json::Float(o0)),
                ("fused_ns".to_string(), Json::Float(fused)),
                ("speedup".to_string(), Json::Float(speedup)),
                ("verdict".to_string(), Json::Str(verdict.to_string())),
            ]),
        ));
    }
    doc
}

/// An 8-stage chain resolved through *keyed* lookups: each link stores
/// a constant key into the scratch field `k` and tail-calls the next
/// stage table, which carries an entry for exactly that key. At O2 the
/// whole chain fuses with the resolved key recorded per link — the
/// shape the machine's cheap revalidation path (dispatch-identity
/// re-resolution after entry churn) is built for.
fn keyed_chain_machine(level: OptLevel) -> (RmtMachine, rkd_core::machine::ProgId) {
    const STAGES: usize = 8;
    const KEY: i64 = 7;
    let mut b = rkd_core::prog::ProgramBuilder::new("bench_chain_keyed");
    let pid = b.field_readonly("pid");
    let k = b.field_scratch("k");
    for i in 0..STAGES {
        let mut code = vec![
            Insn::LdImm {
                dst: Reg(1),
                imm: KEY,
            },
            Insn::StCtxt {
                field: k,
                src: Reg(1),
            },
            Insn::LdImm {
                dst: Reg(2),
                imm: 3,
            },
        ];
        for j in 0..7i64 {
            code.push(Insn::AluImm {
                op: AluOp::Add,
                dst: Reg(1),
                imm: j,
            });
            code.push(Insn::Alu {
                op: AluOp::Xor,
                dst: Reg(1),
                src: Reg(2),
            });
        }
        code.push(Insn::LdImm {
            dst: Reg(0),
            imm: 10 + i as i64,
        });
        if i + 1 == STAGES {
            code.push(Insn::Exit);
        } else {
            code.push(Insn::TailCall {
                table: rkd_core::table::TableId((i + 1) as u16),
            });
        }
        b.action(Action::new(&format!("klink{i}"), code));
    }
    b.table(
        "t0",
        "hook",
        &[pid],
        rkd_core::table::MatchKind::Exact,
        Some(rkd_core::table::ActionId(0)),
        8,
    );
    for i in 1..STAGES {
        b.table(
            &format!("t{i}"),
            "stage",
            &[k],
            rkd_core::table::MatchKind::Exact,
            None,
            8,
        );
    }
    b.opt_level(level);
    let verified = verify(b.build()).unwrap();
    let mut vm = RmtMachine::new();
    let prog = vm.install(verified, ExecMode::Jit).unwrap();
    for i in 1..STAGES {
        vm.insert_entry(
            prog,
            rkd_core::table::TableId(i as u16),
            rkd_core::table::Entry {
                key: rkd_core::table::MatchKey::Exact(vec![KEY as u64]),
                priority: 0,
                action: rkd_core::table::ActionId(i as u16),
                arg: 0,
            },
        )
        .unwrap();
    }
    (vm, prog)
}

/// Shared runner for the churn benches: per iteration apply a
/// control-plane mutation pair, then replay a burst of fires with the
/// verdict stream asserted in-loop — a stale fused body shows up as a
/// correctness failure here, not a timing blip. Reports amortized
/// O0-relative throughput against `floor`.
fn churn_bench_case(
    c: &mut Harness,
    group_name: &str,
    json_key: &str,
    floor: f64,
    fields: usize,
    mk: fn(OptLevel) -> (RmtMachine, rkd_core::machine::ProgId),
    churn: fn(&mut RmtMachine, rkd_core::machine::ProgId),
) -> Vec<(String, Json)> {
    const BURST: usize = 16;
    let mk_ctxt = move || {
        let mut v = vec![0i64; fields];
        v[0] = 1;
        Ctxt::from_values(v)
    };
    let expected = {
        let mut ctxt = mk_ctxt();
        mk(OptLevel::O0).0.fire("hook", &mut ctxt).verdicts.clone()
    };
    let mut group = c.benchmark_group(group_name);
    let mut medians = [None, None];
    for (slot, (name, level)) in [("o0", OptLevel::O0), ("fused", OptLevel::O2)]
        .into_iter()
        .enumerate()
    {
        medians[slot] = group.bench_function(name, |b| {
            let (mut vm, prog) = mk(level);
            b.iter(|| {
                churn(&mut vm, prog);
                for _ in 0..BURST {
                    let mut ctxt = mk_ctxt();
                    let r = vm.fire("hook", &mut ctxt);
                    assert_eq!(r.verdicts, expected, "churned {name} chain diverged");
                }
            });
        });
    }
    group.finish();
    let mut doc = Vec::new();
    if let [Some(o0), Some(fused)] = medians {
        let speedup = o0 / fused.max(1e-9);
        let verdict = if speedup >= floor { "PASS" } else { "FAIL" };
        println!("speedup_gate {json_key} {speedup:6.1}x (floor {floor}x) {verdict}");
        doc.push((
            json_key.to_string(),
            Json::Obj(vec![
                ("o0_ns".to_string(), Json::Float(o0)),
                ("fused_ns".to_string(), Json::Float(fused)),
                ("speedup".to_string(), Json::Float(speedup)),
                ("verdict".to_string(), Json::Str(verdict.to_string())),
            ]),
        ));
    }
    doc
}

/// Fully adversarial churn: every mutation pair toggles t1 between
/// empty and non-empty, flipping the root chain's fusability itself —
/// each insert kills the whole-chain plan (its link resolved by table
/// emptiness, so there is no key to revalidate with) and each remove
/// rebuilds it from scratch. This measures the invalidation protocol's
/// *cost*, not a win: the floor only bounds how much worse than O0 the
/// worst-case re-specialize-per-burst duty cycle may get.
fn bench_chain_churn(c: &mut Harness) -> Vec<(String, Json)> {
    fn toggle(vm: &mut RmtMachine, prog: rkd_core::machine::ProgId) {
        let t1 = rkd_core::table::TableId(1);
        vm.insert_entry(
            prog,
            t1,
            rkd_core::table::Entry {
                key: rkd_core::table::MatchKey::Exact(vec![1]),
                priority: 0,
                action: rkd_core::table::ActionId(1),
                arg: 0,
            },
        )
        .unwrap();
        vm.remove_entry(prog, t1, &rkd_core::table::MatchKey::Exact(vec![1]))
            .unwrap();
    }
    churn_bench_case(
        c,
        "vm_chain_churn",
        "chain_fuse_churn",
        0.1,
        1,
        chain_machine,
        toggle,
    )
}

/// Realistic churn: mutations land on a table the fused chain routes
/// through, but under a key the chain does not resolve with — the
/// dispatch identity of every baked link is unchanged, so the machine's
/// revalidation path re-resolves the stored keys and restamps instead
/// of re-fusing. Amortized over the burst, fusion must stay ahead of
/// O0 (floor 1×): this is the gate that keeps control-plane churn from
/// silently re-paying full re-specialization per mutation.
fn bench_chain_reval(c: &mut Harness) -> Vec<(String, Json)> {
    fn same_dispatch(vm: &mut RmtMachine, prog: rkd_core::machine::ProgId) {
        let t1 = rkd_core::table::TableId(1);
        vm.insert_entry(
            prog,
            t1,
            rkd_core::table::Entry {
                key: rkd_core::table::MatchKey::Exact(vec![99]),
                priority: 0,
                action: rkd_core::table::ActionId(1),
                arg: 5,
            },
        )
        .unwrap();
        vm.remove_entry(prog, t1, &rkd_core::table::MatchKey::Exact(vec![99]))
            .unwrap();
    }
    churn_bench_case(
        c,
        "vm_chain_reval",
        "chain_fuse_reval",
        1.0,
        2,
        keyed_chain_machine,
        same_dispatch,
    )
}

/// A loop whose body is dominated by loop-invariant constant work:
/// r1/r2 are set before the loop and never redefined inside, so
/// loop-aware folding collapses the four-instruction recomputation to
/// one `LdImm` per iteration while the counter and accumulator stay
/// symbolic.
fn loop_invariant_action() -> Action {
    Action::with_loop_bound(
        "loop_inv",
        vec![
            Insn::LdImm {
                dst: Reg(1),
                imm: 5,
            },
            Insn::LdImm {
                dst: Reg(2),
                imm: 9,
            },
            Insn::LdImm {
                dst: Reg(4),
                imm: 0,
            },
            Insn::LdImm {
                dst: Reg(5),
                imm: 0,
            },
            // Loop header.
            Insn::Mov {
                dst: Reg(3),
                src: Reg(1),
            },
            Insn::AluImm {
                op: AluOp::Mul,
                dst: Reg(3),
                imm: 3,
            },
            Insn::AluImm {
                op: AluOp::Add,
                dst: Reg(3),
                imm: 7,
            },
            Insn::Alu {
                op: AluOp::Xor,
                dst: Reg(3),
                src: Reg(2),
            },
            Insn::Alu {
                op: AluOp::Add,
                dst: Reg(5),
                src: Reg(3),
            },
            Insn::AluImm {
                op: AluOp::Add,
                dst: Reg(4),
                imm: 1,
            },
            Insn::JmpIfImm {
                cmp: CmpOp::Lt,
                lhs: Reg(4),
                imm: 64,
                target: 4,
            },
            Insn::Mov {
                dst: Reg(0),
                src: Reg(5),
            },
            Insn::Exit,
        ],
        64,
    )
}

/// O0 vs O2 on the loop-invariant body, gated at ≥1.2×: the win that
/// only exists because constant state survives the back edge instead
/// of resetting at the loop header.
fn bench_loop_fold(c: &mut Harness) -> Vec<(String, Json)> {
    const GATE: f64 = 1.2;
    let machine = |level: OptLevel| {
        let mut b = rkd_core::prog::ProgramBuilder::new("bench_loop");
        let pid = b.field_readonly("pid");
        let act = b.action(loop_invariant_action());
        b.table(
            "t",
            "hook",
            &[pid],
            rkd_core::table::MatchKind::Exact,
            Some(act),
            8,
        );
        b.opt_level(level);
        let verified = verify(b.build()).unwrap();
        let mut vm = RmtMachine::new();
        vm.install(verified, ExecMode::Jit).unwrap();
        vm
    };
    let mut group = c.benchmark_group("vm_loop_fold");
    let mut medians = [None, None];
    for (slot, (name, level)) in [("o0", OptLevel::O0), ("opt", OptLevel::O2)]
        .into_iter()
        .enumerate()
    {
        medians[slot] = group.bench_function(name, |b| {
            let mut vm = machine(level);
            b.iter_batched(
                || Ctxt::from_values(vec![1]),
                |mut ctxt| vm.fire("hook", &mut ctxt),
                BatchSize::SmallInput,
            );
        });
    }
    group.finish();
    let mut doc = Vec::new();
    if let [Some(o0), Some(opt)] = medians {
        let speedup = o0 / opt.max(1e-9);
        let verdict = if speedup >= GATE { "PASS" } else { "FAIL" };
        println!("speedup_gate loop_fold {speedup:6.1}x (budget {GATE}x) {verdict}");
        doc.push((
            "loop_fold".to_string(),
            Json::Obj(vec![
                ("o0_ns".to_string(), Json::Float(o0)),
                ("opt_ns".to_string(), Json::Float(opt)),
                ("speedup".to_string(), Json::Float(speedup)),
                ("verdict".to_string(), Json::Str(verdict.to_string())),
            ]),
        ));
    }
    doc
}

fn main() {
    let mut harness = Harness::from_env();
    bench_dispatch(&mut harness);
    bench_pipeline(&mut harness);
    bench_figure1(&mut harness);
    let mut doc = bench_opt(&mut harness);
    doc.extend(bench_chain_fuse(&mut harness));
    doc.extend(bench_chain_churn(&mut harness));
    doc.extend(bench_chain_reval(&mut harness));
    doc.extend(bench_loop_fold(&mut harness));
    harness.finish();
    if let Ok(path) = std::env::var("RKD_BENCH_OPT_JSON") {
        if !path.trim().is_empty() {
            let json = Json::Obj(doc).to_string_compact();
            if let Err(e) = std::fs::write(&path, json) {
                eprintln!("bench_vm: failed to write {path}: {e}");
                std::process::exit(1);
            }
            println!("wrote {path}");
        }
    }
}
