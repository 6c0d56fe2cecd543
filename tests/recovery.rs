//! Integration: crash-consistent live operations (snapshot + journal).
//!
//! Acceptance arc for the durability PR:
//!
//! - **Kill-and-replay differential**: a journaled machine killed
//!   mid-workload and recovered (checkpoint + journal-suffix replay)
//!   produces per-flow verdicts, `table_generation`, and a full
//!   machine snapshot bit-identical to an uncrashed oracle fed the
//!   same history.
//! - **Torn tail**: a crash mid-append leaves a partial final record;
//!   recovery drops it, lands on the last valid record, and appends
//!   resume on a record boundary.
//! - **Interior corruption**: an unparsable record *followed by more
//!   records* (or a non-increasing sequence number) is a hard
//!   [`JournalError::Corrupt`] — replaying around it would
//!   reconstruct a different history than the one applied.
//! - **Guard/drift state**: snapshot/restore preserves a tripped
//!   model guard and a latched `drift_suspected` flag.
//! - **Untrusted snapshots**: restore re-runs the verifier and
//!   rejects a snapshot whose program no longer passes.
//! - **Sharded recovery**: a sharded machine recovered from its
//!   control journal converges every shard to the pre-crash
//!   configuration (shard-0 semantics: per-shard datapath state
//!   reaccumulates rather than being persisted).
//! - **Mode compatibility**: journal and snapshot records naming
//!   either `ExecMode` spelling restore and replay, and the two
//!   spellings behave identically at the same `OptLevel`.

use std::collections::BTreeMap;
use std::io::Write;

use rkd::core::bytecode::{Action, AluOp, Helper, Insn, Reg, VReg};
use rkd::core::ctrl::{syscall_rmt_with, CtrlRequest, CtrlResponse};
use rkd::core::ctxt::Ctxt;
use rkd::core::error::VmError;
use rkd::core::guard::ModelGuard;
use rkd::core::journal::{read_journal, JournalError, JournaledMachine, JOURNAL_FILE};
use rkd::core::machine::{ExecMode, HookResult, MachineSnapshot, ProgId, ProgStats, RmtMachine};
use rkd::core::maps::{MapId, MapKind, MapState};
use rkd::core::obs::ObsConfig;
use rkd::core::opt::OptLevel;
use rkd::core::prog::{ModelSpec, ProgramBuilder, RmtProgram};
use rkd::core::shard::ShardedMachine;
use rkd::core::snapshot::{from_json_str, to_json_string};
use rkd::core::table::{ActionId, Entry, MatchKey, MatchKind, TableId};
use rkd::core::verifier::{verify, VerifierConfig};
use rkd::ml::cost::LatencyClass;
use rkd::ml::dataset::{Dataset, Sample};
use rkd::ml::tree::{DecisionTree, TreeConfig};
use rkd::testkit::rng::{Rng, SeedableRng, StdRng};
use rkd::testkit::tmp::TempDir;

const BASE_SEED: u64 = 0xD1FF_5EED;

/// Deterministic observability: latency sampling off (wall-clock ns
/// would differ between the oracle and the recovered machine), flight
/// recorder off, fire tracing on so the trace ring is part of what
/// the differential pins.
fn det_obs() -> ObsConfig {
    ObsConfig {
        timing: false,
        flight_interval: 0,
        trace_fires: true,
        ..ObsConfig::default()
    }
}

/// The flow-keyed accumulator from `tests/sharded.rs`: hook `"pkt"`
/// folds `ctxt.x` into a per-CPU hash map keyed by `ctxt.flow` and
/// answers the running per-flow sum.
fn flow_prog() -> (RmtProgram, MapId) {
    let mut b = ProgramBuilder::new("flowacc");
    let flow = b.field_readonly("flow");
    let x = b.field_readonly("x");
    let counts = b.per_cpu_map("counts", MapKind::Hash, 64);
    let act = b.action(Action::new(
        "acc",
        vec![
            Insn::LdCtxt {
                dst: Reg(1),
                field: flow,
            },
            Insn::LdCtxt {
                dst: Reg(2),
                field: x,
            },
            Insn::MapLookup {
                dst: Reg(3),
                map: counts,
                key: Reg(1),
                default: 0,
            },
            Insn::Alu {
                op: AluOp::Add,
                dst: Reg(3),
                src: Reg(2),
            },
            Insn::MapUpdate {
                map: counts,
                key: Reg(1),
                value: Reg(3),
            },
            Insn::Mov {
                dst: Reg(0),
                src: Reg(3),
            },
            Insn::Exit,
        ],
    ));
    b.table("t", "pkt", &[flow], MatchKind::Exact, Some(act), 16);
    (b.build(), counts)
}

fn ctrl(m: &mut RmtMachine, req: CtrlRequest) -> CtrlResponse {
    syscall_rmt_with(m, req, &VerifierConfig::default()).unwrap()
}

fn install_on(m: &mut RmtMachine, prog: RmtProgram) -> ProgId {
    match ctrl(
        m,
        CtrlRequest::Install {
            prog: Box::new(prog),
            mode: ExecMode::Jit,
            seed: BASE_SEED,
        },
    ) {
        CtrlResponse::Installed(id) => id,
        other => panic!("unexpected response {other:?}"),
    }
}

/// A tree predicting class 7 above the threshold (see
/// `tests/guardrails.rs`) — a stand-in for a badly drifted model.
fn wild_tree() -> DecisionTree {
    let ds = Dataset::from_samples(vec![
        Sample::from_f64(&[0.0], 0),
        Sample::from_f64(&[1.0], 0),
        Sample::from_f64(&[99.0], 7),
        Sample::from_f64(&[100.0], 7),
    ])
    .unwrap();
    DecisionTree::train(&ds, &TreeConfig::default()).unwrap()
}

/// Acceptance: kill-and-replay. Phase A runs traffic and mid-workload
/// mutations on an oracle and a journaled machine in lockstep, then
/// compacts (checkpoint). Phase B applies control-only mutations and
/// crashes the journaled machine (drop without further checkpoint) —
/// so recovery must restore the checkpoint *and* replay the journal
/// suffix. Phase C resumes traffic on both; verdicts, table
/// generation, and the complete snapshot JSON must be bit-identical.
#[test]
fn kill_and_replay_matches_uncrashed_machine() {
    let dir = TempDir::new("recovery-killreplay");
    let (prog, counts) = flow_prog();

    let mut oracle = RmtMachine::with_obs_config(det_obs());
    let mut jm = JournaledMachine::create(
        dir.path(),
        RmtMachine::with_obs_config(det_obs()),
        VerifierConfig::default(),
    )
    .unwrap();

    let pid = install_on(&mut oracle, prog.clone());
    let resp = jm
        .ctrl(CtrlRequest::Install {
            prog: Box::new(prog),
            mode: ExecMode::Jit,
            seed: BASE_SEED,
        })
        .unwrap();
    assert_eq!(resp, CtrlResponse::Installed(pid));

    let mut g = StdRng::seed_from_u64(0xC0FF_EE00);
    let events: Vec<(u64, i64)> = (0..300)
        .map(|_| (g.gen_range(0u64..16), g.gen_range(-50i64..50)))
        .collect();

    // Phase A: 150 events with two mid-workload mutations, applied to
    // both machines at the same point in the event stream.
    for (i, &(flow, x)) in events[..150].iter().enumerate() {
        if i == 50 {
            let entry = || Entry {
                key: MatchKey::Exact(vec![3]),
                priority: 0,
                action: ActionId(0),
                arg: 0,
            };
            ctrl(
                &mut oracle,
                CtrlRequest::InsertEntry {
                    prog: pid,
                    table: TableId(0),
                    entry: entry(),
                },
            );
            jm.ctrl(CtrlRequest::InsertEntry {
                prog: pid,
                table: TableId(0),
                entry: entry(),
            })
            .unwrap();
        }
        if i == 100 {
            let req = CtrlRequest::MapUpdate {
                prog: pid,
                map: counts,
                key: 500,
                value: 9,
            };
            ctrl(&mut oracle, req.clone());
            jm.ctrl(req).unwrap();
        }
        let mut ca = Ctxt::from_values(vec![flow as i64, x]);
        let mut cb = Ctxt::from_values(vec![flow as i64, x]);
        let va = oracle.fire("pkt", &mut ca).verdict();
        let vb = jm.machine_mut().fire("pkt", &mut cb).verdict();
        assert_eq!(va, vb, "phase A event {i} diverged");
        oracle.advance_tick(1);
        jm.machine_mut().advance_tick(1);
    }

    // Checkpoint: install + entry + map write are folded in and the
    // journal truncates (sequence numbers keep rising).
    jm.compact().unwrap();
    assert_eq!(jm.checkpoint_seq(), 3);

    // Phase B: control-only mutations. SetDecisionCacheCapacity also
    // clears the per-hook caches on both machines — caches are
    // memoization, not snapshotted state, so this aligns the warm
    // oracle with the cold recovered machine.
    for req in [
        CtrlRequest::InsertEntry {
            prog: pid,
            table: TableId(0),
            entry: Entry {
                key: MatchKey::Exact(vec![5]),
                priority: 0,
                action: ActionId(0),
                arg: 1,
            },
        },
        CtrlRequest::SetDecisionCacheCapacity { capacity: 8 },
        CtrlRequest::MapUpdate {
            prog: pid,
            map: counts,
            key: 600,
            value: -3,
        },
    ] {
        ctrl(&mut oracle, req.clone());
        jm.ctrl(req).unwrap();
    }

    // Crash: drop without compacting. Phase B lives only in the
    // journal suffix (seqs 4..=6, above the checkpoint's 3).
    drop(jm);

    let mut jm = JournaledMachine::open(dir.path(), VerifierConfig::default()).unwrap();
    assert_eq!(jm.checkpoint_seq(), 3);

    // Phase C: resume traffic on both machines.
    let mut oracle_flows: BTreeMap<u64, Vec<Option<i64>>> = BTreeMap::new();
    let mut recovered_flows: BTreeMap<u64, Vec<Option<i64>>> = BTreeMap::new();
    for &(flow, x) in &events[150..] {
        let mut ca = Ctxt::from_values(vec![flow as i64, x]);
        let mut cb = Ctxt::from_values(vec![flow as i64, x]);
        oracle_flows
            .entry(flow)
            .or_default()
            .push(oracle.fire("pkt", &mut ca).verdict());
        recovered_flows
            .entry(flow)
            .or_default()
            .push(jm.machine_mut().fire("pkt", &mut cb).verdict());
        oracle.advance_tick(1);
        jm.machine_mut().advance_tick(1);
    }
    assert_eq!(recovered_flows, oracle_flows, "per-flow verdicts diverged");
    assert_eq!(
        jm.machine().table_generation(),
        oracle.table_generation(),
        "table generation diverged"
    );
    assert_eq!(
        to_json_string(&jm.machine().snapshot()),
        to_json_string(&oracle.snapshot()),
        "recovered machine is not bit-identical to the uncrashed oracle"
    );

    // The journal stays live: the next mutation continues the
    // sequence stream right after the replayed suffix.
    jm.ctrl(CtrlRequest::MapUpdate {
        prog: pid,
        map: counts,
        key: 601,
        value: 1,
    })
    .unwrap();
    let contents = read_journal(&dir.path().join(JOURNAL_FILE)).unwrap();
    assert_eq!(contents.records.last().unwrap().seq, 7);
}

/// A crash mid-append leaves a partial final record. Recovery drops
/// it (recovering to the last valid record), truncates it away, and
/// appends resume on a clean record boundary with the next sequence
/// number.
#[test]
fn torn_journal_tail_recovers_to_last_valid_record() {
    let dir = TempDir::new("recovery-torn");
    let (prog, counts) = flow_prog();
    let mut jm = JournaledMachine::create(
        dir.path(),
        RmtMachine::with_obs_config(det_obs()),
        VerifierConfig::default(),
    )
    .unwrap();
    let resp = jm
        .ctrl(CtrlRequest::Install {
            prog: Box::new(prog),
            mode: ExecMode::Jit,
            seed: BASE_SEED,
        })
        .unwrap();
    let pid = match resp {
        CtrlResponse::Installed(id) => id,
        other => panic!("unexpected response {other:?}"),
    };
    for (key, value) in [(1, 5), (2, 6)] {
        jm.ctrl(CtrlRequest::MapUpdate {
            prog: pid,
            map: counts,
            key,
            value,
        })
        .unwrap();
    }
    let expect = to_json_string(&jm.machine().snapshot());
    drop(jm);

    // Crash mid-append: a half-written record with no newline.
    let jpath = dir.path().join(JOURNAL_FILE);
    let mut f = std::fs::OpenOptions::new()
        .append(true)
        .open(&jpath)
        .unwrap();
    f.write_all(b"{\"seq\":99,\"req\":{\"MapUpd").unwrap();
    drop(f);

    let contents = read_journal(&jpath).unwrap();
    assert!(contents.torn_tail, "partial final record must read as torn");
    assert_eq!(contents.records.len(), 3);

    let mut jm = JournaledMachine::open(dir.path(), VerifierConfig::default()).unwrap();
    assert_eq!(
        to_json_string(&jm.machine().snapshot()),
        expect,
        "recovery must land exactly on the last valid record"
    );
    jm.ctrl(CtrlRequest::MapUpdate {
        prog: pid,
        map: counts,
        key: 3,
        value: 7,
    })
    .unwrap();
    let contents = read_journal(&jpath).unwrap();
    assert!(!contents.torn_tail, "open must truncate the torn tail");
    assert_eq!(contents.records.last().unwrap().seq, 4);
}

/// An unparsable record with records after it — and a non-increasing
/// sequence number — are hard errors, not things to skip: replaying
/// around damage would reconstruct a different history than the one
/// the live machine applied.
#[test]
fn interior_journal_corruption_is_a_hard_error() {
    let dir = TempDir::new("recovery-corrupt");
    let (prog, counts) = flow_prog();
    let mut jm = JournaledMachine::create(
        dir.path(),
        RmtMachine::with_obs_config(det_obs()),
        VerifierConfig::default(),
    )
    .unwrap();
    let pid = match jm
        .ctrl(CtrlRequest::Install {
            prog: Box::new(prog),
            mode: ExecMode::Jit,
            seed: BASE_SEED,
        })
        .unwrap()
    {
        CtrlResponse::Installed(id) => id,
        other => panic!("unexpected response {other:?}"),
    };
    for key in [1, 2] {
        jm.ctrl(CtrlRequest::MapUpdate {
            prog: pid,
            map: counts,
            key,
            value: 1,
        })
        .unwrap();
    }
    drop(jm);

    let jpath = dir.path().join(JOURNAL_FILE);
    let pristine = std::fs::read_to_string(&jpath).unwrap();
    let lines: Vec<&str> = pristine.lines().collect();
    assert_eq!(lines.len(), 3);

    // Garbage in the middle.
    let damaged = format!("{}\nthis is not a journal record\n{}\n", lines[0], lines[2]);
    std::fs::write(&jpath, damaged).unwrap();
    match read_journal(&jpath) {
        Err(JournalError::Corrupt { line, .. }) => assert_eq!(line, 2),
        Err(other) => panic!("expected Corrupt, got {other}"),
        Ok(c) => panic!("expected Corrupt, parsed {} records", c.records.len()),
    }
    assert!(
        matches!(
            JournaledMachine::open(dir.path(), VerifierConfig::default()),
            Err(JournalError::Corrupt { .. })
        ),
        "recovery must refuse an interior-corrupt journal"
    );

    // A replayed (non-increasing) sequence number is equally fatal.
    let replayed = format!("{}\n{}\n{}\n", lines[0], lines[1], lines[1]);
    std::fs::write(&jpath, replayed).unwrap();
    match read_journal(&jpath) {
        Err(JournalError::Corrupt { line, .. }) => assert_eq!(line, 3),
        Err(other) => panic!("expected Corrupt, got {other}"),
        Ok(c) => panic!("expected Corrupt, parsed {} records", c.records.len()),
    }
}

/// Snapshot/restore carries safety state, not just configuration: a
/// tripped guard counter and a latched drift flag survive the round
/// trip, and the restored machine's snapshot is a byte-for-byte
/// fixpoint.
#[test]
fn restore_preserves_tripped_guard_and_latched_drift() {
    let cfg = ObsConfig {
        timing: false,
        accuracy_window: 4,
        accuracy_windows: 2,
        drift_threshold_permille: 600,
        ..ObsConfig::default()
    };
    let mut m = RmtMachine::with_obs_config(cfg);

    // Guarded wild-tree program (see tests/guardrails.rs): raw class 7
    // escapes [0, 1], so the guard forces the fallback and trips.
    let mut b = ProgramBuilder::new("guarded");
    let x = b.field_readonly("x");
    let slot = b.model_guarded(
        "m",
        ModelSpec::Tree(wild_tree()),
        LatencyClass::Background,
        ModelGuard::clamp(1, 0),
    );
    let act = b.action(Action::new(
        "ml",
        vec![
            Insn::VectorLdCtxt {
                dst: VReg(0),
                base: x,
                len: 1,
            },
            Insn::CallMl {
                model: slot,
                src: VReg(0),
            },
            Insn::Exit,
        ],
    ));
    b.table("t", "h", &[x], MatchKind::Exact, Some(act), 4);
    let pid = m
        .install(verify(b.build()).unwrap(), ExecMode::Jit)
        .unwrap();

    let mut ctxt = Ctxt::from_values(vec![100]);
    assert_eq!(m.fire("h", &mut ctxt).verdict(), Some(0));
    assert_eq!(m.stats(pid).unwrap().guard_trips, 1);

    // One full window of misses latches the drift flag.
    for _ in 0..4 {
        m.report_outcome(pid, slot, 1, 0).unwrap();
    }
    assert!(m.model_stats(pid, slot).unwrap().drift_suspected);

    let restored = RmtMachine::restore(m.snapshot(), &VerifierConfig::default()).unwrap();
    assert_eq!(restored.stats(pid).unwrap().guard_trips, 1);
    let ms = restored.model_stats(pid, slot).unwrap();
    assert!(
        ms.drift_suspected,
        "latched drift flag must survive restore"
    );
    assert_eq!(ms.outcomes, 4);
    assert_eq!(ms.acc_permille, 0);
    assert_eq!(
        to_json_string(&restored.snapshot()),
        to_json_string(&m.snapshot()),
        "snapshot -> restore -> snapshot must be a fixpoint"
    );
}

/// Snapshots are untrusted input: restore re-runs the verifier, so a
/// snapshot whose program violates a (tightened) policy is rejected
/// instead of silently reinstalled.
#[test]
fn restore_rejects_program_failing_reverification() {
    let (prog, _) = flow_prog();
    let mut m = RmtMachine::new();
    install_on(&mut m, prog);
    let snap = m.snapshot();
    let strict = VerifierConfig {
        max_insns_per_action: 2,
        ..VerifierConfig::default()
    };
    let err = match RmtMachine::restore(snap, &strict) {
        Ok(_) => panic!("restore must re-verify and reject"),
        Err(e) => e,
    };
    assert!(
        matches!(err, VmError::Verify(_)),
        "unexpected error {err:?}"
    );
}

/// Snapshot/restore fixpoint on a machine with live datapath state:
/// map contents, table entries, trace ring, tick — and the restored
/// machine behaves identically afterwards.
#[test]
fn snapshot_restore_snapshot_is_a_fixpoint_with_live_state() {
    let (prog, counts) = flow_prog();
    let mut m = RmtMachine::with_obs_config(det_obs());
    let pid = install_on(&mut m, prog);
    ctrl(
        &mut m,
        CtrlRequest::InsertEntry {
            prog: pid,
            table: TableId(0),
            entry: Entry {
                key: MatchKey::Exact(vec![2]),
                priority: 0,
                action: ActionId(0),
                arg: 0,
            },
        },
    );
    ctrl(
        &mut m,
        CtrlRequest::MapUpdate {
            prog: pid,
            map: counts,
            key: 40,
            value: 11,
        },
    );
    for i in 0..64i64 {
        let mut ctxt = Ctxt::from_values(vec![i % 8, i]);
        m.fire("pkt", &mut ctxt);
        m.advance_tick(1);
    }

    let before = to_json_string(&m.snapshot());
    let mut restored = RmtMachine::restore(m.snapshot(), &VerifierConfig::default()).unwrap();
    assert_eq!(to_json_string(&restored.snapshot()), before);

    for flow in 0..8i64 {
        let mut ca = Ctxt::from_values(vec![flow, 1]);
        let mut cb = Ctxt::from_values(vec![flow, 1]);
        assert_eq!(
            restored.fire("pkt", &mut cb).verdict(),
            m.fire("pkt", &mut ca).verdict(),
            "flow {flow} diverged after restore"
        );
    }
}

/// Sharded recovery: republishing the control journal converges every
/// shard to the pre-crash configuration (same generation, zero apply
/// errors), with shard-0 semantics — per-shard datapath accumulations
/// are not persisted and start over — and the journal stays attached
/// for new mutations.
#[test]
fn sharded_journal_recovery_converges_to_precrash_config() {
    let dir = TempDir::new("recovery-sharded");
    let jpath = dir.path().join("sharded.journal");
    let (prog, counts) = flow_prog();

    let sharded =
        ShardedMachine::with_journal(2, det_obs(), VerifierConfig::default(), &jpath).unwrap();
    let pid = match sharded
        .ctrl(CtrlRequest::Install {
            prog: Box::new(prog),
            mode: ExecMode::Jit,
            seed: BASE_SEED,
        })
        .unwrap()
    {
        CtrlResponse::Installed(id) => id,
        other => panic!("unexpected response {other:?}"),
    };
    sharded
        .ctrl(CtrlRequest::InsertEntry {
            prog: pid,
            table: TableId(0),
            entry: Entry {
                key: MatchKey::Exact(vec![1]),
                priority: 0,
                action: ActionId(0),
                arg: 0,
            },
        })
        .unwrap();
    sharded
        .ctrl(CtrlRequest::MapUpdate {
            prog: pid,
            map: counts,
            key: 7,
            value: 3,
        })
        .unwrap();
    // Traffic on both shards (flows 0..4 — away from broadcast key 7).
    for shard in 0..2 {
        let ctxts = (0..4).map(|i| Ctxt::from_values(vec![i, 2])).collect();
        sharded.fire_batch_on(shard, "pkt", ctxts).wait();
    }
    let expected_gen = sharded.expected_generation();
    assert_eq!(sharded.published(), 3, "install + entry + map write");
    drop(sharded); // crash: coordinator and workers die together

    let recovered =
        ShardedMachine::recover(2, det_obs(), VerifierConfig::default(), &jpath).unwrap();
    assert_eq!(recovered.published(), 3, "every record republished");
    assert_eq!(recovered.expected_generation(), expected_gen);
    for s in &recovered.sync() {
        assert_eq!(s.applied, 3, "shard {} lagging", s.shard);
        assert_eq!(s.ctrl_apply_errors, 0, "shard {} absorbed errors", s.shard);
        assert_eq!(
            s.table_generation, expected_gen,
            "shard {} diverged from pre-crash generation",
            s.shard
        );
    }

    // Config is back: the broadcast per-CPU write landed in every
    // replica again (2 shards x 3). The fire-time accumulations are
    // gone — shard-0 semantics — so key 0..4 sums restart from zero.
    assert_eq!(
        recovered.map_lookup(pid, counts, 7).unwrap(),
        CtrlResponse::Value(Some(2 * 3))
    );
    assert_eq!(
        recovered.map_lookup(pid, counts, 0).unwrap(),
        CtrlResponse::Value(None),
        "per-shard datapath accumulations are not persisted"
    );

    // The journal stays attached: a new mutation appends seq 4.
    recovered
        .ctrl(CtrlRequest::MapUpdate {
            prog: pid,
            map: counts,
            key: 8,
            value: 1,
        })
        .unwrap();
    let contents = read_journal(&jpath).unwrap();
    assert_eq!(contents.records.len(), 4);
    assert_eq!(contents.records.last().unwrap().seq, 4);
}

/// A per-flow accumulator at `level` that also writes a scratch ctxt
/// field and emits a hint effect, with constant arithmetic the
/// optimizer folds at O2.
fn compat_prog(level: OptLevel) -> (RmtProgram, MapId) {
    let mut b = ProgramBuilder::new("compat");
    b.opt_level(level);
    let flow = b.field_readonly("flow");
    let x = b.field_readonly("x");
    let out = b.field_scratch("out");
    let counts = b.map("counts", MapKind::Hash, 64);
    let act = b.action(Action::new(
        "acc",
        vec![
            Insn::LdCtxt {
                dst: Reg(1),
                field: flow,
            },
            Insn::LdCtxt {
                dst: Reg(2),
                field: x,
            },
            Insn::MapLookup {
                dst: Reg(3),
                map: counts,
                key: Reg(1),
                default: 0,
            },
            Insn::Alu {
                op: AluOp::Add,
                dst: Reg(3),
                src: Reg(2),
            },
            Insn::MapUpdate {
                map: counts,
                key: Reg(1),
                value: Reg(3),
            },
            Insn::LdImm {
                dst: Reg(4),
                imm: 6,
            },
            Insn::AluImm {
                op: AluOp::Mul,
                dst: Reg(4),
                imm: 7,
            },
            Insn::Alu {
                op: AluOp::Add,
                dst: Reg(4),
                src: Reg(3),
            },
            Insn::StCtxt {
                field: out,
                src: Reg(4),
            },
            Insn::LdImm {
                dst: Reg(2),
                imm: 9,
            },
            Insn::Call {
                helper: Helper::EmitHint,
            },
            Insn::Mov {
                dst: Reg(0),
                src: Reg(3),
            },
            Insn::Exit,
        ],
    ));
    b.table("t", "pkt", &[flow], MatchKind::Exact, Some(act), 16);
    (b.build(), counts)
}

/// Everything observable from one [`compat_run`]: each fire's result
/// and final ctxt, then the program's map state and `ProgStats`.
type CompatObs = (Vec<(HookResult, Ctxt)>, Vec<MapState>, ProgStats);

/// Installs `compat_prog(level)` under `mode` through a journal,
/// crashes, replays the journal, fires, then restores from a snapshot
/// record naming `mode` and fires again.
fn compat_run(mode: ExecMode, level: OptLevel) -> CompatObs {
    let name = format!("\"{mode:?}\"");
    let dir = TempDir::new("recovery-compat");
    let (prog, counts) = compat_prog(level);
    let mut jm = JournaledMachine::create(
        dir.path(),
        RmtMachine::with_obs_config(det_obs()),
        VerifierConfig::default(),
    )
    .unwrap();
    let pid = match jm
        .ctrl(CtrlRequest::Install {
            prog: Box::new(prog),
            mode,
            seed: BASE_SEED,
        })
        .unwrap()
    {
        CtrlResponse::Installed(id) => id,
        other => panic!("unexpected response {other:?}"),
    };
    jm.ctrl(CtrlRequest::MapUpdate {
        prog: pid,
        map: counts,
        key: 3,
        value: 100,
    })
    .unwrap();
    drop(jm);
    let journal = std::fs::read_to_string(dir.path().join(JOURNAL_FILE)).unwrap();
    assert!(journal.contains(&name), "journal must name {name}");

    let mut seen = Vec::new();
    let mut fire = |m: &mut RmtMachine| {
        for i in 0..16i64 {
            let mut ctxt = Ctxt::from_values(vec![i % 4, i, 0]);
            let r = m.fire("pkt", &mut ctxt);
            seen.push((r, ctxt));
            m.advance_tick(1);
        }
    };
    let mut jm = JournaledMachine::open(dir.path(), VerifierConfig::default()).unwrap();
    fire(jm.machine_mut());

    let json = to_json_string(&jm.machine().snapshot());
    let json = json.replace("\"mode\":\"Jit\"", &format!("\"mode\":{name}"));
    assert!(json.contains(&format!("\"mode\":{name}")));
    let snap: MachineSnapshot = from_json_str(&json).unwrap();
    let mut m = RmtMachine::restore(snap, &VerifierConfig::default()).unwrap();
    fire(&mut m);
    let maps = m.snapshot().programs[0].maps.clone();
    let stats = m.stats(pid).unwrap();
    (seen, maps, stats)
}

/// `ExecMode` no longer picks an engine, but older journal and
/// snapshot records name it as `"Interp"` or `"Jit"`. Both spellings
/// must restore and replay, and a program installed under either at
/// the same `OptLevel` must give identical verdicts, effects, ctxt,
/// map state and `ProgStats`.
#[test]
fn interp_and_jit_records_restore_replay_and_agree() {
    for level in [OptLevel::O0, OptLevel::O2] {
        let interp = compat_run(ExecMode::Interp, level);
        let jit = compat_run(ExecMode::Jit, level);
        assert!(
            interp.0.iter().all(|(r, _)| r.effects.len() == 1),
            "{level:?}: every fire emits its hint"
        );
        assert_eq!(
            interp.2.actions_run, 32,
            "{level:?}: 16 replayed + 16 restored fires"
        );
        assert_eq!(interp, jit, "{level:?}: Interp and Jit records diverge");
    }
}
