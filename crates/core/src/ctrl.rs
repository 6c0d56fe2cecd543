//! The control-plane API (`syscall_rmt()`).
//!
//! §3.1: "their policies are reconfigured via the control plane API.
//! This API supports adding, removing, modifying match/action entries
//! and ML models. For instance, the ML training component may
//! periodically update table entries to reflect the latest monitoring
//! data … Alternatively, the control plane relies on past prediction
//! accuracy to detect workload changes and adjust the table entries."
//!
//! [`CtrlRequest`] is the single serializable entry point userland uses
//! (the analogue of the `bpf(2)` multiplexer syscall); every request
//! maps onto one [`crate::machine::RmtMachine`] operation. The machine
//! methods remain directly callable for in-process embedding.

use crate::bytecode::ModelSlot;
use crate::error::VmError;
use crate::machine::{ExecMode, ProgId, ProgStats, RmtMachine};
use crate::maps::MapId;
use crate::obs;
use crate::prog::ModelSpec;
use crate::table::{Entry, MatchKey, TableId, TableStats};
use crate::verifier::{verify_with, VerifierConfig};

/// A control-plane request.
#[derive(Clone, Debug)]
pub enum CtrlRequest {
    /// Verify and install a program (`rmt_verify()` then
    /// `syscall_rmt()` in Figure 1).
    Install {
        /// The unverified program.
        prog: Box<crate::prog::RmtProgram>,
        /// Accepted for compatibility; both variants run the same
        /// optimized body (see [`ExecMode`]).
        mode: ExecMode,
        /// RNG seed for reproducibility.
        seed: u64,
    },
    /// Remove an installed program.
    Remove {
        /// Target program.
        prog: ProgId,
    },
    /// Insert or replace a match/action entry.
    InsertEntry {
        /// Target program.
        prog: ProgId,
        /// Target table.
        table: TableId,
        /// The new entry.
        entry: Entry,
    },
    /// Remove an entry by key.
    RemoveEntry {
        /// Target program.
        prog: ProgId,
        /// Target table.
        table: TableId,
        /// Key of the entry to remove.
        key: MatchKey,
    },
    /// Hot-swap an ML model (the "periodically quantized and pushed to
    /// the kernel" update path).
    UpdateModel {
        /// Target program.
        prog: ProgId,
        /// Model slot to replace.
        slot: ModelSlot,
        /// Replacement model.
        spec: Box<ModelSpec>,
    },
    /// Write a map value (seed monitoring state).
    MapUpdate {
        /// Target program.
        prog: ProgId,
        /// Target map.
        map: MapId,
        /// Key.
        key: u64,
        /// Value.
        value: i64,
    },
    /// Read a map value (DP-noised for shared maps).
    MapLookup {
        /// Target program.
        prog: ProgId,
        /// Target map.
        map: MapId,
        /// Key.
        key: u64,
    },
    /// Read program statistics.
    QueryStats {
        /// Target program.
        prog: ProgId,
    },
    /// Read a program's optimizer statistics: pass-pipeline fire
    /// counts and instruction deltas from the last full compile, plus
    /// the current tail-call chain-fusion footprint.
    QueryOptStats {
        /// Target program.
        prog: ProgId,
    },
    /// Read table hit/miss statistics.
    QueryTableStats {
        /// Target program.
        prog: ProgId,
        /// Target table.
        table: TableId,
    },
    /// Read the remaining privacy budget.
    QueryPrivacyBudget {
        /// Target program.
        prog: ProgId,
    },
    /// Read a hook's firing count and latency histogram.
    HookStats {
        /// Hook name.
        hook: String,
    },
    /// Drain up to `max` datapath trace events (oldest first).
    TraceRead {
        /// Maximum events to drain.
        max: u64,
    },
    /// Reset the observability layer (counters, histograms, trace
    /// ring). Program and table statistics are untouched.
    ObsReset,
    /// Change a program's optimization level (recompiles its
    /// actions through the optimize → re-verify path;
    /// [`crate::opt::OptLevel::O0`] restores the unoptimized oracle
    /// bodies).
    SetOptLevel {
        /// Target program.
        prog: ProgId,
        /// New optimization level.
        level: crate::opt::OptLevel,
    },
    /// Resize the per-hook decision caches (0 disables caching).
    SetDecisionCacheCapacity {
        /// New capacity in cached flow keys per hook.
        capacity: u64,
    },
    /// Rotate the sharded datapath's flow→shard partition seed — the
    /// skew balancer's re-hash. Routed through the same journaled
    /// command log as every other mutation so a recovered
    /// [`crate::shard::ShardedMachine`] restores its partition. On a
    /// single machine (and inside each shard replica) this is a
    /// deliberate no-op: partitioning is a coordinator concern.
    SetPartitionSeed {
        /// New seed folded into [`crate::shard::ShardedMachine::shard_for_flow`].
        seed: u64,
    },
    /// Configure the sharded ingress skew balancer (no-op on a single
    /// machine, journaled like [`CtrlRequest::SetPartitionSeed`]).
    SetBalancerPolicy {
        /// Rebalance triggers when the deepest shard ingress queue
        /// exceeds `ratio_pct` percent of the mean depth (e.g. 200 =
        /// 2× the mean).
        ratio_pct: u64,
        /// …and is at least this deep — an absolute floor so
        /// near-idle rings never trigger a pointless re-hash.
        min_depth: u64,
    },
    /// Read the machine-wide datapath counters (fires, table
    /// hits/misses, decision-cache hits/misses/invalidations, …).
    QueryMachineCounters,
    /// Report the ground-truth outcome of one earlier model
    /// prediction — the feedback half of §3.1's "past prediction
    /// accuracy" loop. Updates the slot's confusion matrix and
    /// prequential-accuracy window.
    ReportOutcome {
        /// Target program.
        prog: ProgId,
        /// Model slot the prediction came from.
        slot: ModelSlot,
        /// The class the datapath served.
        predicted: i64,
        /// The class that turned out to be correct.
        actual: i64,
    },
    /// Read one model slot's prediction telemetry (serving counters,
    /// confusion matrix, windowed accuracy, drift flag).
    QueryModelStats {
        /// Target program.
        prog: ProgId,
        /// Model slot to read.
        slot: ModelSlot,
    },
    /// Read the flight recorder's buffered time-series frames
    /// (non-draining).
    FlightRead,
    /// Reconfigure span tracing: sample 1-in-2^`sample_shift` ingress
    /// events (>= 64 disables) into a ring bounded at `capacity`.
    SpanConfig {
        /// Sampling shift; the default is 6 (1-in-64).
        sample_shift: u32,
        /// Span-ring capacity per machine.
        capacity: u64,
    },
    /// Drain up to `max` recorded spans (oldest first).
    SpanRead {
        /// Maximum spans to return.
        max: u64,
    },
    /// Clear recorded spans and the stage profile (sampling
    /// configuration survives).
    SpanReset,
}

/// A control-plane response.
#[derive(Clone, Debug, PartialEq)]
pub enum CtrlResponse {
    /// Program installed under this id.
    Installed(ProgId),
    /// Operation completed with no payload.
    Ok,
    /// Whether a removal found its target.
    Removed(bool),
    /// A map read result.
    Value(Option<i64>),
    /// Program statistics.
    Stats(ProgStats),
    /// Optimizer statistics.
    OptStats(crate::opt::OptStats),
    /// Table statistics.
    TableStats(TableStats),
    /// Remaining privacy budget in milli-epsilon.
    PrivacyBudget(u64),
    /// Hook statistics (boxed: the histogram makes this variant large).
    HookStats(Box<obs::HookStats>),
    /// Drained trace events plus the cumulative dropped count.
    Trace(obs::TraceSnapshot),
    /// Machine-wide datapath counters.
    Counters(obs::MachineCounters),
    /// Model prediction telemetry (boxed: histograms and the confusion
    /// matrix make this variant large).
    ModelStats(Box<obs::ModelStatsSnapshot>),
    /// Flight-recorder frames (boxed: frames carry full counter sets).
    Flight(Box<obs::FlightSnapshot>),
    /// Drained spans plus the evict count (boxed: span batches are
    /// large).
    Spans(Box<obs::span::SpanSnapshot>),
}

/// Dispatches one control-plane request against a machine, using the
/// default verifier configuration for installs.
pub fn syscall_rmt(machine: &mut RmtMachine, req: CtrlRequest) -> Result<CtrlResponse, VmError> {
    syscall_rmt_with(machine, req, &VerifierConfig::default())
}

/// Dispatches one request with an explicit verifier configuration.
pub fn syscall_rmt_with(
    machine: &mut RmtMachine,
    req: CtrlRequest,
    vcfg: &VerifierConfig,
) -> Result<CtrlResponse, VmError> {
    match req {
        CtrlRequest::Install { prog, mode, seed } => {
            let vp = verify_with(*prog, vcfg)?;
            let id = machine.install_seeded(vp, mode, seed)?;
            Ok(CtrlResponse::Installed(id))
        }
        CtrlRequest::Remove { prog } => {
            machine.remove(prog)?;
            Ok(CtrlResponse::Ok)
        }
        CtrlRequest::InsertEntry { prog, table, entry } => {
            machine.insert_entry(prog, table, entry)?;
            Ok(CtrlResponse::Ok)
        }
        CtrlRequest::RemoveEntry { prog, table, key } => {
            let removed = machine.remove_entry(prog, table, &key)?;
            Ok(CtrlResponse::Removed(removed))
        }
        CtrlRequest::UpdateModel { prog, slot, spec } => {
            machine.update_model(prog, slot, *spec)?;
            Ok(CtrlResponse::Ok)
        }
        CtrlRequest::MapUpdate {
            prog,
            map,
            key,
            value,
        } => {
            machine.map_update(prog, map, key, value)?;
            Ok(CtrlResponse::Ok)
        }
        CtrlRequest::MapLookup { prog, map, key } => {
            let v = machine.map_lookup(prog, map, key)?;
            Ok(CtrlResponse::Value(v))
        }
        CtrlRequest::QueryStats { prog } => Ok(CtrlResponse::Stats(machine.stats(prog)?)),
        CtrlRequest::QueryOptStats { prog } => Ok(CtrlResponse::OptStats(machine.opt_stats(prog)?)),
        CtrlRequest::QueryTableStats { prog, table } => {
            Ok(CtrlResponse::TableStats(machine.table_stats(prog, table)?))
        }
        CtrlRequest::QueryPrivacyBudget { prog } => Ok(CtrlResponse::PrivacyBudget(
            machine.privacy_remaining(prog)?,
        )),
        CtrlRequest::HookStats { hook } => Ok(CtrlResponse::HookStats(Box::new(
            machine.hook_stats(&hook)?,
        ))),
        CtrlRequest::TraceRead { max } => Ok(CtrlResponse::Trace(
            machine.trace_read(max.min(usize::MAX as u64) as usize),
        )),
        CtrlRequest::ObsReset => {
            machine.obs_reset();
            Ok(CtrlResponse::Ok)
        }
        CtrlRequest::SetOptLevel { prog, level } => {
            machine.set_opt_level(prog, level)?;
            Ok(CtrlResponse::Ok)
        }
        CtrlRequest::SetDecisionCacheCapacity { capacity } => {
            machine.set_decision_cache_capacity(capacity.min(usize::MAX as u64) as usize);
            Ok(CtrlResponse::Ok)
        }
        // Sharding directives: meaningless on one machine (and on a
        // shard's own replica), but accepted so they replay cleanly
        // from the control journal and drain cleanly from the
        // sharded command log.
        CtrlRequest::SetPartitionSeed { .. } | CtrlRequest::SetBalancerPolicy { .. } => {
            Ok(CtrlResponse::Ok)
        }
        CtrlRequest::QueryMachineCounters => Ok(CtrlResponse::Counters(machine.machine_counters())),
        CtrlRequest::ReportOutcome {
            prog,
            slot,
            predicted,
            actual,
        } => {
            machine.report_outcome(prog, slot, predicted, actual)?;
            Ok(CtrlResponse::Ok)
        }
        CtrlRequest::QueryModelStats { prog, slot } => Ok(CtrlResponse::ModelStats(Box::new(
            machine.model_stats(prog, slot)?,
        ))),
        CtrlRequest::FlightRead => Ok(CtrlResponse::Flight(Box::new(machine.flight_snapshot()))),
        CtrlRequest::SpanConfig {
            sample_shift,
            capacity,
        } => {
            machine.set_span_config(sample_shift, capacity.min(usize::MAX as u64) as usize);
            Ok(CtrlResponse::Ok)
        }
        CtrlRequest::SpanRead { max } => Ok(CtrlResponse::Spans(Box::new(
            machine.span_read(max.min(usize::MAX as u64) as usize),
        ))),
        CtrlRequest::SpanReset => {
            machine.span_reset();
            Ok(CtrlResponse::Ok)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bytecode::{Action, Insn, Reg};
    use crate::prog::ProgramBuilder;
    use crate::table::{ActionId, MatchKind};

    fn prog() -> crate::prog::RmtProgram {
        let mut b = ProgramBuilder::new("ctl");
        let pid = b.field_readonly("pid");
        let a = b.action(Action::new(
            "ret9",
            vec![
                Insn::LdImm {
                    dst: Reg(0),
                    imm: 9,
                },
                Insn::Exit,
            ],
        ));
        b.table("t", "h", &[pid], MatchKind::Exact, Some(a), 8);
        b.map("m", crate::maps::MapKind::Hash, 8);
        b.build()
    }

    #[test]
    fn full_lifecycle_via_syscall() {
        let mut m = RmtMachine::new();
        let id = match syscall_rmt(
            &mut m,
            CtrlRequest::Install {
                prog: Box::new(prog()),
                mode: ExecMode::Jit,
                seed: 1,
            },
        )
        .unwrap()
        {
            CtrlResponse::Installed(id) => id,
            other => panic!("unexpected {other:?}"),
        };
        // Entry management.
        syscall_rmt(
            &mut m,
            CtrlRequest::InsertEntry {
                prog: id,
                table: TableId(0),
                entry: Entry {
                    key: MatchKey::Exact(vec![1]),
                    priority: 0,
                    action: ActionId(0),
                    arg: 0,
                },
            },
        )
        .unwrap();
        let removed = syscall_rmt(
            &mut m,
            CtrlRequest::RemoveEntry {
                prog: id,
                table: TableId(0),
                key: MatchKey::Exact(vec![1]),
            },
        )
        .unwrap();
        assert_eq!(removed, CtrlResponse::Removed(true));
        // Maps.
        syscall_rmt(
            &mut m,
            CtrlRequest::MapUpdate {
                prog: id,
                map: MapId(0),
                key: 4,
                value: 44,
            },
        )
        .unwrap();
        assert_eq!(
            syscall_rmt(
                &mut m,
                CtrlRequest::MapLookup {
                    prog: id,
                    map: MapId(0),
                    key: 4
                }
            )
            .unwrap(),
            CtrlResponse::Value(Some(44))
        );
        // Stats.
        let mut ctxt = crate::ctxt::Ctxt::from_values(vec![5]);
        m.fire("h", &mut ctxt);
        match syscall_rmt(&mut m, CtrlRequest::QueryStats { prog: id }).unwrap() {
            CtrlResponse::Stats(s) => assert_eq!(s.invocations, 1),
            other => panic!("unexpected {other:?}"),
        }
        match syscall_rmt(
            &mut m,
            CtrlRequest::QueryTableStats {
                prog: id,
                table: TableId(0),
            },
        )
        .unwrap()
        {
            CtrlResponse::TableStats(ts) => assert_eq!(ts.misses, 1),
            other => panic!("unexpected {other:?}"),
        }
        match syscall_rmt(&mut m, CtrlRequest::QueryPrivacyBudget { prog: id }).unwrap() {
            CtrlResponse::PrivacyBudget(b) => assert!(b > 0),
            other => panic!("unexpected {other:?}"),
        }
        // Removal.
        assert_eq!(
            syscall_rmt(&mut m, CtrlRequest::Remove { prog: id }).unwrap(),
            CtrlResponse::Ok
        );
        assert!(syscall_rmt(&mut m, CtrlRequest::Remove { prog: id }).is_err());
    }

    #[test]
    fn query_opt_stats_reports_compile_telemetry() {
        let mut m = RmtMachine::new();
        let id = match syscall_rmt(
            &mut m,
            CtrlRequest::Install {
                prog: Box::new(prog()),
                mode: ExecMode::Jit,
                seed: 1,
            },
        )
        .unwrap()
        {
            CtrlResponse::Installed(id) => id,
            other => panic!("unexpected {other:?}"),
        };
        match syscall_rmt(&mut m, CtrlRequest::QueryOptStats { prog: id }).unwrap() {
            CtrlResponse::OptStats(os) => {
                assert!(os.insns_before > 0, "{os:?}");
                assert!(os.insns_after <= os.insns_before, "{os:?}");
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(syscall_rmt(&mut m, CtrlRequest::QueryOptStats { prog: ProgId(99) }).is_err());
    }

    #[test]
    fn set_opt_level_round_trips_through_the_ctrl_plane() {
        use crate::opt::OptLevel;
        let mut m = RmtMachine::new();
        let id = match syscall_rmt(
            &mut m,
            CtrlRequest::Install {
                prog: Box::new(prog()),
                mode: ExecMode::Jit,
                seed: 1,
            },
        )
        .unwrap()
        {
            CtrlResponse::Installed(id) => id,
            other => panic!("unexpected {other:?}"),
        };
        assert_eq!(m.opt_level(id).unwrap(), OptLevel::O2);
        assert_eq!(
            syscall_rmt(
                &mut m,
                CtrlRequest::SetOptLevel {
                    prog: id,
                    level: OptLevel::O0,
                },
            )
            .unwrap(),
            CtrlResponse::Ok
        );
        assert_eq!(m.opt_level(id).unwrap(), OptLevel::O0);
        assert!(syscall_rmt(
            &mut m,
            CtrlRequest::SetOptLevel {
                prog: crate::machine::ProgId(77),
                level: OptLevel::O2,
            },
        )
        .is_err());
    }

    #[test]
    fn install_runs_the_verifier() {
        let mut m = RmtMachine::new();
        let mut bad = prog();
        // Corrupt: action that falls off the end.
        bad.actions[0].code.pop();
        bad.actions[0].code.pop();
        bad.actions[0].code.push(Insn::LdImm {
            dst: Reg(0),
            imm: 1,
        });
        let err = syscall_rmt(
            &mut m,
            CtrlRequest::Install {
                prog: Box::new(bad),
                mode: ExecMode::Interp,
                seed: 0,
            },
        )
        .unwrap_err();
        assert!(matches!(err, VmError::Verify(_)));
        assert_eq!(m.program_count(), 0);
    }

    #[test]
    fn observability_requests() {
        let mut m = RmtMachine::new();
        m.set_obs_config(crate::obs::ObsConfig {
            trace_fires: true,
            trace_capacity: 2,
            sample_shift: 0, // Time every firing.
            ..crate::obs::ObsConfig::default()
        });
        syscall_rmt(
            &mut m,
            CtrlRequest::Install {
                prog: Box::new(prog()),
                mode: ExecMode::Interp,
                seed: 1,
            },
        )
        .unwrap();
        for _ in 0..4 {
            let mut ctxt = crate::ctxt::Ctxt::from_values(vec![5]);
            m.fire("h", &mut ctxt);
        }
        // HookStats: fires counted, latency histogram populated.
        match syscall_rmt(
            &mut m,
            CtrlRequest::HookStats {
                hook: "h".to_string(),
            },
        )
        .unwrap()
        {
            CtrlResponse::HookStats(hs) => {
                assert_eq!(hs.fires, 4);
                assert_eq!(hs.hist.count(), 4);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(syscall_rmt(
            &mut m,
            CtrlRequest::HookStats {
                hook: "nope".to_string(),
            },
        )
        .is_err());
        // TraceRead: 1 Install + 4 Fire events through a 2-slot ring.
        match syscall_rmt(&mut m, CtrlRequest::TraceRead { max: 10 }).unwrap() {
            CtrlResponse::Trace(t) => {
                assert_eq!(t.events.len(), 2);
                assert_eq!(t.dropped, 3);
            }
            other => panic!("unexpected {other:?}"),
        }
        // ObsReset: counters and hook stats zeroed.
        assert_eq!(
            syscall_rmt(&mut m, CtrlRequest::ObsReset).unwrap(),
            CtrlResponse::Ok
        );
        match syscall_rmt(
            &mut m,
            CtrlRequest::HookStats {
                hook: "h".to_string(),
            },
        )
        .unwrap()
        {
            CtrlResponse::HookStats(hs) => {
                assert_eq!(hs.fires, 0);
                assert_eq!(hs.hist.count(), 0);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(m.machine_counters().fires, 0);
    }

    #[test]
    fn decision_cache_requests() {
        let mut m = RmtMachine::new();
        assert_eq!(
            syscall_rmt(
                &mut m,
                CtrlRequest::SetDecisionCacheCapacity { capacity: 16 }
            )
            .unwrap(),
            CtrlResponse::Ok
        );
        assert_eq!(m.decision_cache_capacity(), 16);
        match syscall_rmt(&mut m, CtrlRequest::QueryMachineCounters).unwrap() {
            CtrlResponse::Counters(c) => {
                assert_eq!(c.fires, 0);
                assert_eq!(c.decision_cache_hits, 0);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn model_telemetry_requests() {
        use rkd_ml::cost::LatencyClass;
        use rkd_ml::fixed::Fix;
        use rkd_ml::svm::IntSvm;
        // One-model program; the SVM predicts 1 for positive x.
        let mut b = ProgramBuilder::new("mt");
        let f = b.field_readonly("x");
        let slot = b.model(
            "svm",
            ModelSpec::Svm(IntSvm {
                weights: vec![Fix::ONE],
                bias: Fix::ZERO,
            }),
            LatencyClass::Scheduler,
        );
        let a = b.action(Action::new(
            "ml",
            vec![
                Insn::VectorLdCtxt {
                    dst: crate::bytecode::VReg(0),
                    base: f,
                    len: 1,
                },
                Insn::CallMl {
                    model: slot,
                    src: crate::bytecode::VReg(0),
                },
                Insn::Exit,
            ],
        ));
        b.table("t", "h", &[f], MatchKind::Exact, Some(a), 4);
        let mut m = RmtMachine::new();
        let id = match syscall_rmt(
            &mut m,
            CtrlRequest::Install {
                prog: Box::new(b.build()),
                mode: ExecMode::Interp,
                seed: 1,
            },
        )
        .unwrap()
        {
            CtrlResponse::Installed(id) => id,
            other => panic!("unexpected {other:?}"),
        };
        let mut ctxt = crate::ctxt::Ctxt::from_values(vec![3]);
        m.fire("h", &mut ctxt);
        // Feed ground truth: one hit, one miss.
        for actual in [1, 0] {
            assert_eq!(
                syscall_rmt(
                    &mut m,
                    CtrlRequest::ReportOutcome {
                        prog: id,
                        slot,
                        predicted: 1,
                        actual,
                    },
                )
                .unwrap(),
                CtrlResponse::Ok
            );
        }
        match syscall_rmt(&mut m, CtrlRequest::QueryModelStats { prog: id, slot }).unwrap() {
            CtrlResponse::ModelStats(ms) => {
                assert_eq!(ms.served, 1);
                assert_eq!(ms.outcomes, 2);
                assert_eq!(ms.hits, 1);
                assert_eq!(ms.acc_permille, 500);
                assert_eq!(ms.name, "svm");
            }
            other => panic!("unexpected {other:?}"),
        }
        // Unknown slot errors.
        assert!(syscall_rmt(
            &mut m,
            CtrlRequest::QueryModelStats {
                prog: id,
                slot: ModelSlot(7),
            },
        )
        .is_err());
        // FlightRead returns the (empty-so-far) recorder contents.
        match syscall_rmt(&mut m, CtrlRequest::FlightRead).unwrap() {
            CtrlResponse::Flight(fs) => {
                assert_eq!(
                    fs.interval,
                    crate::obs::ObsConfig::default().flight_interval
                );
                assert!(fs.frames.is_empty(), "only 1 fire, interval not reached");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn requests_are_debuggable_and_cloneable() {
        let req = CtrlRequest::QueryStats { prog: ProgId(3) };
        let req2 = req.clone();
        assert!(format!("{req2:?}").contains("QueryStats"));
        let resp = CtrlResponse::PrivacyBudget(7);
        assert_eq!(resp, resp.clone());
    }
}

rkd_testkit::impl_json_enum!(CtrlRequest {
    Install { prog, mode, seed },
    Remove { prog },
    InsertEntry { prog, table, entry },
    RemoveEntry { prog, table, key },
    UpdateModel { prog, slot, spec },
    MapUpdate {
        prog,
        map,
        key,
        value
    },
    MapLookup { prog, map, key },
    QueryStats { prog },
    QueryOptStats { prog },
    QueryTableStats { prog, table },
    QueryPrivacyBudget { prog },
    HookStats { hook },
    TraceRead { max },
    ObsReset,
    SetOptLevel { prog, level },
    SetDecisionCacheCapacity { capacity },
    SetPartitionSeed { seed },
    SetBalancerPolicy { ratio_pct, min_depth },
    QueryMachineCounters,
    ReportOutcome {
        prog,
        slot,
        predicted,
        actual
    },
    QueryModelStats { prog, slot },
    FlightRead,
    SpanConfig {
        sample_shift,
        capacity
    },
    SpanRead { max },
    SpanReset,
});

rkd_testkit::impl_json_enum!(CtrlResponse {
    Installed(prog),
    Ok,
    Removed(found),
    Value(value),
    Stats(stats),
    OptStats(stats),
    TableStats(stats),
    PrivacyBudget(remaining),
    HookStats(stats),
    Trace(snapshot),
    Counters(counters),
    ModelStats(stats),
    Flight(snapshot),
    Spans(snapshot),
});
