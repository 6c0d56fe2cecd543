//! Quickstart: build, verify, install, and fire an RMT program.
//!
//! The five-minute tour of the architecture: declare a table at a
//! kernel hook, attach a bytecode action, push it through the verifier
//! (`rmt_verify()`), install it into the VM (`syscall_rmt()` +
//! `rmt_jit()`), and watch hook firings flow through match/action
//! processing.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use rkd::core::bytecode::{Action, AluOp, Insn, Reg};
use rkd::core::ctxt::Ctxt;
use rkd::core::machine::{ExecMode, RmtMachine};
use rkd::core::prog::ProgramBuilder;
use rkd::core::table::{ActionId, Entry, MatchKey, MatchKind};
use rkd::core::verifier::verify;

fn main() {
    // 1. Build a program: one exact-match table on the pid field.
    let mut b = ProgramBuilder::new("quickstart");
    let pid = b.field_readonly("pid");
    let boost = b.action(Action::new(
        "boost",
        vec![
            // verdict = arg * 2 (the entry's argument arrives in r9).
            Insn::Mov {
                dst: Reg(0),
                src: rkd::core::bytecode::ARG_REG,
            },
            Insn::AluImm {
                op: AluOp::Mul,
                dst: Reg(0),
                imm: 2,
            },
            Insn::Exit,
        ],
    ));
    let deny = b.action(Action::new(
        "deny",
        vec![
            Insn::LdImm {
                dst: Reg(0),
                imm: -1,
            },
            Insn::Exit,
        ],
    ));
    let table = b.table(
        "policy",
        "sched_hook",
        &[pid],
        MatchKind::Exact,
        Some(deny),
        64,
    );

    // 2. Verify: only admitted programs can be installed.
    let verified = verify(b.build()).expect("program passes the verifier");
    println!(
        "verified: worst-case insns per action = {:?}",
        verified.worst_case_insns()
    );

    // 3. Install: actions are optimized and re-verified (`rmt_jit()`).
    let mut vm = RmtMachine::new();
    let prog = vm.install(verified, ExecMode::Jit).expect("install");

    // 4. The control plane adds a per-process entry at runtime.
    vm.insert_entry(
        prog,
        table,
        Entry {
            key: MatchKey::Exact(vec![1234]),
            priority: 0,
            action: ActionId(0),
            arg: 21,
        },
    )
    .expect("insert entry");

    // 5. Kernel hooks fire with execution context.
    let mut hit = Ctxt::from_values(vec![1234]);
    let mut miss = Ctxt::from_values(vec![9999]);
    println!(
        "pid 1234 -> verdict {:?}",
        vm.fire("sched_hook", &mut hit).verdict()
    );
    println!(
        "pid 9999 -> verdict {:?}",
        vm.fire("sched_hook", &mut miss).verdict()
    );
    let _ = boost;

    // 6. Observability.
    let stats = vm.stats(prog).unwrap();
    println!(
        "stats: {} invocations, {} actions, {} insns executed",
        stats.invocations, stats.actions_run, stats.insns_executed
    );
    let ts = vm.table_stats(prog, table).unwrap();
    println!("table: {} hits / {} misses", ts.hits, ts.misses);
    let os = vm.opt_stats(prog).unwrap();
    println!(
        "optimizer: {} -> {} insns in {} rounds, fused chains {} ({} links)",
        os.insns_before, os.insns_after, os.rounds, os.fused_chains, os.fused_links
    );
}
