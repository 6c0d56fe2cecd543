//! `flows`: a zipf flow stream through a three-table classifier on a
//! `ShardedMachine`, closed loop from this thread plus one shard worker.
//!
//! The classifier, defined here:
//!
//! - `acl`: a ternary table over (src, dport), larger than
//!   `LINEAR_CUTOFF_TERNARY`, whose action writes a permit bit;
//! - `route`: an LPM table over dst, larger than `LINEAR_CUTOFF_LPM`,
//!   whose verdict is the next hop (a miss drops the packet);
//! - `acc`: an exact per-flow table whose action adds the packet length
//!   of permitted, routed packets into a per-CPU map, like the
//!   repository's shard replay program.
//!
//! The flow population exceeds the 1024-entry decision cache while the
//! hot head of the zipf stream fits inside it. Batches are submitted with
//! `fire_batch_on` and waited in order, [`IN_FLIGHT`] at a time, in
//! waves. At each wave boundary, after every ticket of the wave has been
//! waited, one route and one ACL rule are inserted and the previous
//! boundary's pair removed through `ShardedMachine::ctrl`, so every
//! verdict is deterministic. The
//! oracle replays the same events and control requests through one
//! in-thread `RmtMachine` at `ExecMode::Interp` and `OptLevel::O0`.

use crate::report::{median, percentile, ratio, rss_peak_mb, Cycles, Report};
use crate::trace::{write_spans, SpanId, Tracer, SPAN_CAP};
use crate::Args;
use rkd_core::bytecode::{Action, AluOp, Insn, Reg};
use rkd_core::ctrl::{CtrlRequest, CtrlResponse};
use rkd_core::ctxt::{Ctxt, FieldId};
use rkd_core::dp::PrivacyLedger;
use rkd_core::interp::ExecEnv;
use rkd_core::jit::CompiledAction;
use rkd_core::machine::{ExecMode, HookResult, ProgId, RmtMachine};
use rkd_core::maps::{MapId, MapInstance, MapKind};
use rkd_core::obs::ObsConfig;
use rkd_core::opt::OptLevel;
use rkd_core::prog::{PrivacyPolicy, ProgramBuilder, RmtProgram};
use rkd_core::shard::{BatchTicket, ShardedMachine};
use rkd_core::spsc;
use rkd_core::table::{
    ActionId, Entry, MatchKey, MatchKind, Table, TableId, LINEAR_CUTOFF_LPM, LINEAR_CUTOFF_TERNARY,
};
use rkd_core::verifier::verify;
use rkd_testkit::rng::{splitmix64_mix, Rng, SeedableRng, StdRng};
use rkd_workloads::zipf::ZipfFlows;
use std::collections::{HashMap, VecDeque};
use std::time::{Duration, Instant};

/// Distinct flows: four times the decision cache.
const POPULATION: usize = 4096;
/// Zipf exponent of the flow stream.
const ZIPF_S: f64 = 1.1;
/// Events generated before the stream repeats.
const STREAM_LEN: usize = 1 << 18;
/// Contexts per submitted batch.
const BATCH: usize = 64;
/// Batches outstanding at once (closed loop).
const IN_FLIGHT: usize = 4;
/// Batches per wave; one control request follows each wave.
const WAVE_BATCHES: usize = 64;
/// Events per wave.
const WAVE_EVENTS: usize = WAVE_BATCHES * BATCH;
/// Waves per segment (about 0.1 s), the unit of the traced run's
/// untraced baseline; one extra set-up is timed after each.
const SEG_WAVES: u64 = 32;
/// Ternary ACL rules.
const ACL_RULES: usize = 64;
/// LPM routes.
const ROUTES: usize = 128;
/// Extra rules and routes the control plane cycles through.
const CHURN_POOL: usize = 64;
/// Setups timed before the timed phase; one more is timed at every
/// segment boundary, so `setup_s`, their median, spans the whole run.
const SETUP_REPS: usize = 7;
/// Batches the traced run pushes through each standalone layer.
const PROBE_BATCHES: usize = 64;
/// Hook the classifier is installed at.
const HOOK: &str = "flow_rx";
/// Destination ports rules and flows draw from.
const PORTS: [u64; 8] = [22, 53, 80, 123, 443, 3306, 8080, 9000];

const _: () = assert!(ACL_RULES > LINEAR_CUTOFF_TERNARY && ROUTES > LINEAR_CUTOFF_LPM);
const _: () = assert!(POPULATION > rkd_core::machine::DEFAULT_DECISION_CACHE_CAP);
const _: () = assert!(STREAM_LEN.is_multiple_of(WAVE_EVENTS));

const T_ACL: TableId = TableId(0);
const T_ROUTE: TableId = TableId(1);
const T_ACC: TableId = TableId(2);
const F_FLOW: FieldId = FieldId(0);
const F_SRC: FieldId = FieldId(1);
const F_DST: FieldId = FieldId(2);
const F_DPORT: FieldId = FieldId(3);
const F_LEN: FieldId = FieldId(4);
const F_PERMIT: FieldId = FieldId(5);
const A_ACL: ActionId = ActionId(0);
const A_ROUTE: ActionId = ActionId(2);
const A_ACC: ActionId = ActionId(4);
const M_BYTES: MapId = MapId(0);

/// Everything the seed decides.
struct Inputs {
    /// Per flow rank: (flow id, src, dst, dport).
    flows: Vec<[i64; 4]>,
    /// Flow rank of each event of the stream.
    stream: Vec<u16>,
    acl: Vec<Entry>,
    routes: Vec<Entry>,
    churn_acl: Vec<Entry>,
    churn_routes: Vec<Entry>,
    len_salt: u64,
}

/// A 32-bit address in the top half of the 64-bit LPM key.
fn addr_key(addr: u32) -> u64 {
    (addr as u64) << 32
}

/// Generates the tables and the stream. The seed draws every address,
/// port choice and the stream itself; the shape that sets the cost of a
/// lookup is fixed by index and flow rank, so different seeds load the
/// classifier alike: route `i` has prefix length `LPM_LENS[i % 5]`,
/// rule `i` sits in mask group `i % 6` with priority `i`, and the flow
/// of rank `r` falls under a rule when `r % 5 < 3` and under a route
/// unless `r % 10 == 0`.
fn gen_inputs(args: &Args) -> Inputs {
    const LPM_LENS: [u8; 5] = [8, 12, 16, 20, 24];
    const SRC_MASKS: [u64; 3] = [0xFF00_0000, 0xFFFF_0000, 0xFFFF_FF00];
    let mut rng = StdRng::seed_from_u64(args.seed_for(0x464c_4f57));
    let route = |rng: &mut StdRng, i: usize, prio: u32| {
        let len = LPM_LENS[i % LPM_LENS.len()];
        let value = addr_key(rng.gen::<u32>()) & (!0u64 << (64 - len as u32));
        Entry {
            key: MatchKey::Lpm {
                value,
                prefix_len: len,
            },
            priority: prio,
            action: A_ROUTE,
            arg: 1 + (i % 16) as i64,
        }
    };
    let routes: Vec<Entry> = (0..ROUTES).map(|i| route(&mut rng, i, 0)).collect();
    let churn_routes: Vec<Entry> = (0..CHURN_POOL).map(|i| route(&mut rng, i, 1)).collect();
    let rule = |rng: &mut StdRng, i: usize, prio: u32| {
        let mask = SRC_MASKS[i % 3];
        let port_mask = if i % 6 < 3 { 0xFFFF } else { 0 };
        Entry {
            key: MatchKey::Ternary(vec![
                (rng.gen::<u32>() as u64 & mask, mask),
                (PORTS[rng.gen_range(0..PORTS.len())] & port_mask, port_mask),
            ]),
            priority: prio,
            action: A_ACL,
            arg: (i % 10 < 7) as i64,
        }
    };
    let acl: Vec<Entry> = (0..ACL_RULES)
        .map(|i| rule(&mut rng, i, 1 + i as u32))
        .collect();
    let churn_acl: Vec<Entry> = (0..CHURN_POOL)
        .map(|i| rule(&mut rng, i, 1000 + i as u32))
        .collect();
    let zipf = ZipfFlows::new(POPULATION, ZIPF_S);
    let rank_of: HashMap<u64, u16> = (0..POPULATION)
        .map(|r| (zipf.flow_at_rank(r), r as u16))
        .collect();
    let flows = (0..POPULATION)
        .map(|r| {
            let mut dport = PORTS[rng.gen_range(0..PORTS.len())];
            let src = match &acl[(r * 7) % ACL_RULES].key {
                MatchKey::Ternary(parts) if r % 5 < 3 => {
                    let ((v, m), (pv, pm)) = (parts[0], parts[1]);
                    if pm != 0 {
                        dport = pv;
                    }
                    v | (rng.gen::<u32>() as u64 & !m & 0xFFFF_FFFF)
                }
                _ => rng.gen::<u32>() as u64,
            };
            let dst = match routes[(r * 13) % ROUTES].key {
                MatchKey::Lpm { value, prefix_len } if r % 10 != 0 => {
                    value | (addr_key(rng.gen::<u32>()) & !(!0u64 << (64 - prefix_len as u32)))
                }
                _ => addr_key(rng.gen::<u32>()),
            };
            [
                zipf.flow_at_rank(r) as i64,
                src as i64,
                dst as i64,
                dport as i64,
            ]
        })
        .collect();
    let stream = (0..STREAM_LEN)
        .map(|_| rank_of[&zipf.sample(&mut rng)])
        .collect();
    Inputs {
        flows,
        stream,
        acl,
        routes,
        churn_acl,
        churn_routes,
        len_salt: rng.gen(),
    }
}

/// The classifier program with its base entries.
fn build_prog(inp: &Inputs, level: OptLevel) -> RmtProgram {
    let mut b = ProgramBuilder::new("flow_classifier");
    let flow = b.field_readonly("flow");
    let src = b.field_readonly("src");
    let dst = b.field_readonly("dst");
    let dport = b.field_readonly("dport");
    let len = b.field_readonly("len");
    let permit = b.field_scratch("permit");
    debug_assert_eq!(
        [flow, src, dst, dport, len, permit],
        [F_FLOW, F_SRC, F_DST, F_DPORT, F_LEN, F_PERMIT]
    );
    let bytes = b.per_cpu_map("bytes", MapKind::Hash, 2 * POPULATION);
    let set_permit = |name: &str, from: Insn| {
        Action::new(
            name,
            vec![
                from,
                Insn::StCtxt {
                    field: permit,
                    src: Reg(1),
                },
                Insn::Mov {
                    dst: Reg(0),
                    src: Reg(1),
                },
                Insn::Exit,
            ],
        )
    };
    let acl_hit = b.action(set_permit(
        "acl_rule",
        Insn::Mov {
            dst: Reg(1),
            src: Reg(9),
        },
    ));
    let acl_miss = b.action(set_permit(
        "acl_default_permit",
        Insn::LdImm {
            dst: Reg(1),
            imm: 1,
        },
    ));
    let route_hit = b.action(Action::new(
        "route_next_hop",
        vec![
            Insn::Mov {
                dst: Reg(0),
                src: Reg(9),
            },
            Insn::Exit,
        ],
    ));
    let route_miss = b.action(set_permit(
        "route_drop",
        Insn::LdImm {
            dst: Reg(1),
            imm: 0,
        },
    ));
    let acc = b.action(Action::new(
        "flow_bytes",
        vec![
            Insn::LdCtxt {
                dst: Reg(1),
                field: flow,
            },
            Insn::LdCtxt {
                dst: Reg(2),
                field: len,
            },
            Insn::LdCtxt {
                dst: Reg(3),
                field: permit,
            },
            Insn::Alu {
                op: AluOp::Mul,
                dst: Reg(2),
                src: Reg(3),
            },
            Insn::MapLookup {
                dst: Reg(4),
                map: bytes,
                key: Reg(1),
                default: 0,
            },
            Insn::Alu {
                op: AluOp::Add,
                dst: Reg(4),
                src: Reg(2),
            },
            Insn::MapUpdate {
                map: bytes,
                key: Reg(1),
                value: Reg(4),
            },
            Insn::Mov {
                dst: Reg(0),
                src: Reg(4),
            },
            Insn::Exit,
        ],
    ));
    debug_assert_eq!([acl_hit, route_hit, acc], [A_ACL, A_ROUTE, A_ACC]);
    debug_assert_eq!(bytes, M_BYTES);
    let cap = ACL_RULES + CHURN_POOL;
    let t_acl = b.table(
        "acl",
        HOOK,
        &[src, dport],
        MatchKind::Ternary,
        Some(acl_miss),
        cap,
    );
    let cap = ROUTES + CHURN_POOL;
    let t_route = b.table("route", HOOK, &[dst], MatchKind::Lpm, Some(route_miss), cap);
    let t_acc = b.table(
        "acc",
        HOOK,
        &[flow],
        MatchKind::Exact,
        Some(acc),
        POPULATION,
    );
    debug_assert_eq!([t_acl, t_route, t_acc], [T_ACL, T_ROUTE, T_ACC]);
    for e in &inp.acl {
        b.entry(t_acl, e.clone());
    }
    for e in &inp.routes {
        b.entry(t_route, e.clone());
    }
    // Half the flow space has its own accumulator entry, so the exact
    // table exercises both its hit and its miss path.
    for f in inp.flows.iter().step_by(2) {
        b.entry(
            t_acc,
            Entry {
                key: MatchKey::Exact(vec![f[0] as u64]),
                priority: 0,
                action: acc,
                arg: 0,
            },
        );
    }
    b.opt_level(level);
    b.build()
}

/// The control requests at the boundary after wave `wave`: the next
/// churn route and ACL rule go in, and the previous boundary's come out.
fn ctrl_ops(inp: &Inputs, prog: ProgId, wave: u64) -> Vec<CtrlRequest> {
    let i = wave as usize % CHURN_POOL;
    let mut ops = vec![
        CtrlRequest::InsertEntry {
            prog,
            table: T_ROUTE,
            entry: inp.churn_routes[i].clone(),
        },
        CtrlRequest::InsertEntry {
            prog,
            table: T_ACL,
            entry: inp.churn_acl[i].clone(),
        },
    ];
    if wave > 0 {
        let p = (i + CHURN_POOL - 1) % CHURN_POOL;
        ops.push(CtrlRequest::RemoveEntry {
            prog,
            table: T_ROUTE,
            key: inp.churn_routes[p].key.clone(),
        });
        ops.push(CtrlRequest::RemoveEntry {
            prog,
            table: T_ACL,
            key: inp.churn_acl[p].key.clone(),
        });
    }
    ops
}

/// Fills `batch` with events `first..first + BATCH`, reusing its
/// contexts.
fn fill(inp: &Inputs, batch: &mut Vec<Ctxt>, first: u64) {
    batch.resize_with(BATCH, || Ctxt::from_values(vec![0; 6]));
    for (i, c) in batch.iter_mut().enumerate() {
        let e = first + i as u64;
        let f = &inp.flows[inp.stream[e as usize % STREAM_LEN] as usize];
        let len = 64 + (splitmix64_mix(e ^ inp.len_salt) % 1437) as i64;
        for (field, v) in [
            (F_FLOW, f[0]),
            (F_SRC, f[1]),
            (F_DST, f[2]),
            (F_DPORT, f[3]),
            (F_LEN, len),
            (F_PERMIT, 0),
        ] {
            c.set(field, v);
        }
    }
}

/// Order-sensitive fold of every verdict of a batch.
fn fold(mut h: u64, results: &[HookResult]) -> u64 {
    for r in results {
        h = splitmix64_mix(h ^ r.verdicts.len() as u64);
        for &(t, v) in &r.verdicts {
            h = splitmix64_mix(h ^ ((t.0 as u64) << 48) ^ v as u64);
        }
    }
    h
}

/// Builds, verifies and installs the classifier on a fresh one-shard
/// machine. Returns it with the install time.
fn spawn(inp: &Inputs, seed: u64) -> (ShardedMachine, ProgId, u64) {
    let sharded = ShardedMachine::new(1);
    let t0 = Instant::now();
    let resp = sharded.ctrl(CtrlRequest::Install {
        prog: Box::new(build_prog(inp, OptLevel::default())),
        mode: ExecMode::Jit,
        seed,
    });
    let install_ns = t0.elapsed().as_nanos() as u64;
    match resp {
        Ok(CtrlResponse::Installed(id)) => (sharded, id, install_ns),
        other => panic!("classifier install failed: {other:?}"),
    }
}

/// Runs the workload.
pub fn run(args: &Args) -> Report {
    let inp = gen_inputs(args);
    let mut r = Report {
        correct: true,
        ..Report::default()
    };

    // Setup: program build, install (verify, optimize, JIT lowering,
    // replication) and shard spawn. The standalone `verify` is timed on
    // its own and is not part of the setup.
    let (mut setup_ns, mut verify_ns, mut install_ns) = (Vec::new(), Vec::new(), Vec::new());
    let mut live = None;
    for _ in 0..SETUP_REPS {
        drop(live.take());
        let t0 = Instant::now();
        let (sharded, prog, inst) = spawn(&inp, args.seed);
        setup_ns.push(t0.elapsed().as_nanos() as u64);
        install_ns.push(inst);
        let p = build_prog(&inp, OptLevel::default());
        let t1 = Instant::now();
        let vp = verify(p).expect("classifier verifies");
        verify_ns.push(t1.elapsed().as_nanos() as u64);
        drop(vp);
        live = Some((sharded, prog));
    }
    let (sharded, prog) = live.expect("at least one setup");

    let budget = Duration::from_secs_f64(args.seconds);
    let mut tracer = Tracer::new(SPAN_CAP);
    let mut traced_lat_ns: Vec<u64> = Vec::new();
    // A batch is one timed event and a wave, control requests included,
    // one step; their positions in the stream are the slots.
    let mut cycles = Cycles::new(
        STREAM_LEN / BATCH,
        STREAM_LEN / WAVE_EVENTS,
        WAVE_EVENTS as u64,
    );
    let mut sums: Vec<u64> = Vec::new();
    let mut spare: Vec<Vec<Ctxt>> = Vec::new();
    let mut inflight: VecDeque<(BatchTicket, u64, u64)> = VecDeque::new();
    let mut event = 0u64;
    let mut wave = 0u64;
    let mut requests = 0u64;
    let start = Instant::now();
    while wave < 1 + args.trace as u64 || start.elapsed() < budget {
        let traced = args.trace && wave % 2 == 1 && !tracer.full();
        let (wave_start, wave_first) = (Instant::now(), event);
        let parent: SpanId = if traced {
            tracer.open("flows.wave", 0, wave)
        } else {
            0
        };
        let (mut submitted, mut h) = (0, 0u64);
        while submitted < WAVE_BATCHES || !inflight.is_empty() {
            while submitted < WAVE_BATCHES && inflight.len() < IN_FLIGHT {
                let mut batch = spare.pop().unwrap_or_default();
                fill(&inp, &mut batch, event);
                let t0 = tracer.now_ns();
                inflight.push_back((sharded.fire_batch_on(0, HOOK, batch), t0, event));
                event += BATCH as u64;
                submitted += 1;
            }
            let (ticket, t0, first) = inflight.pop_front().expect("a batch in flight");
            let (ctxts, results) = ticket.wait();
            let t1 = tracer.now_ns();
            if traced {
                tracer.push("shard.batch", parent, first, t0, t1);
                traced_lat_ns.push(t1 - t0);
            } else {
                cycles.event(first as usize / BATCH, t1 - t0);
            }
            h = fold(h, &results);
            spare.push(ctxts);
        }
        if traced {
            tracer.close(parent);
        }
        sums.push(h);
        // The boundary's whole stall is one control-plane sample; each
        // request is a child span in a traced wave.
        let ops = ctrl_ops(&inp, prog, wave);
        let b0 = tracer.now_ns();
        let boundary = if traced {
            tracer.open("ctrl.boundary", 0, wave)
        } else {
            0
        };
        for req in ops {
            let t0 = tracer.now_ns();
            let resp = sharded.ctrl(req);
            if traced {
                let t1 = tracer.now_ns();
                tracer.push("ctrl.request", boundary, wave, t0, t1);
            }
            requests += 1;
            if !matches!(resp, Ok(CtrlResponse::Ok | CtrlResponse::Removed(true))) {
                r.failed += 1;
                r.note(format!(
                    "flows: wave {wave} control request rejected: {resp:?}"
                ));
            }
        }
        if traced {
            tracer.close(boundary);
        } else {
            cycles.ctrl(tracer.now_ns() - b0);
            cycles.step(
                wave_first as usize / WAVE_EVENTS,
                wave_start.elapsed().as_nanos() as u64,
            );
        }
        wave += 1;
        if wave.is_multiple_of(SEG_WAVES) {
            cycles.close();
            let t0 = Instant::now();
            let (extra, _, _) = spawn(&inp, args.seed);
            setup_ns.push(t0.elapsed().as_nanos() as u64);
            drop(extra);
        }
    }
    cycles.close();
    r.attempted = event;

    // Per-flow sums as the control plane reads them (summed across
    // shards), before the oracle replay.
    let bytes: Vec<Option<i64>> = inp
        .flows
        .iter()
        .map(|f| match sharded.map_lookup(prog, M_BYTES, f[0] as u64) {
            Ok(CtrlResponse::Value(v)) => v,
            other => panic!("per-flow read failed: {other:?}"),
        })
        .collect();
    let stats = sharded.stats(prog).expect("classifier installed");
    let counters = sharded.machine_counters();
    let ingress = sharded.ingress_stats();
    r.failed += stats.actions_aborted;
    drop(sharded);

    let agree = oracle(&inp, args, wave, &sums, &bytes, &mut r);
    r.note(format!(
        "flows: {event} events in {wave} waves of {}, {requests} control requests",
        WAVE_BATCHES * BATCH,
    ));

    if !args.trace {
        r.set("setup_s", median(&setup_ns) / 1e9);
        cycles.report(&mut r);
        r.set("quality_pct", 100.0 * ratio(agree as f64, event as f64));
        r.set("rss_peak_mb", rss_peak_mb());
        return r;
    }

    let events = event as f64;
    r.set(
        "machine.cache_hit_frac",
        ratio(counters.decision_cache_hits as f64, counters.fires as f64),
    );
    r.set(
        "machine.cache_inval_per_ctrl",
        ratio(
            counters.decision_cache_invalidations as f64,
            requests as f64,
        ),
    );
    r.set(
        "machine.tail_calls_per_event",
        counters.tail_calls as f64 / events,
    );
    r.set("machine.aborts_per_event", counters.aborts as f64 / events);
    r.set(
        "machine.rate_limited_frac",
        ratio(
            stats.effects_rate_limited as f64,
            (stats.effects_emitted + stats.effects_rate_limited) as f64,
        ),
    );
    r.set(
        "jit.insns_per_fire",
        ratio(stats.insns_executed as f64, stats.actions_run as f64),
    );
    let stalls: u64 = ingress.iter().map(|s| s.full_stalls).sum();
    let parks: u64 = ingress.iter().map(|s| s.parks).sum();
    r.set("spsc.full_stalls_per_kevent", 1e3 * stalls as f64 / events);
    r.set("spsc.parks_per_kevent", 1e3 * parks as f64 / events);
    r.set(
        "ctrl.update_us",
        median(&tracer.durations("ctrl.request")) / 1e3,
    );
    r.set("verifier.verify_us", median(&verify_ns) / 1e3);
    r.set("machine.install_us", median(&install_ns) / 1e3);
    let traced_p50 = percentile(&mut traced_lat_ns, 50.0);
    let plain_p50 = cycles.typical_p50();
    r.set(
        "trace.overhead_pct",
        100.0 * ratio(traced_p50 - plain_p50, plain_p50),
    );
    probe_layers(&inp, args, &mut tracer, &mut r);
    write_spans(&mut r, &tracer, "flows");
    r
}

/// Replays the run in-thread through one `RmtMachine` at
/// `ExecMode::Interp`/`OptLevel::O0` and compares every wave's verdict
/// checksum and every flow's byte sum. Returns the events of the waves
/// that agree.
fn oracle(
    inp: &Inputs,
    args: &Args,
    waves: u64,
    sums: &[u64],
    bytes: &[Option<i64>],
    r: &mut Report,
) -> u64 {
    let vp = verify(build_prog(inp, OptLevel::O0)).expect("classifier verifies");
    let mut m = RmtMachine::new();
    let prog = m
        .install_seeded(vp, ExecMode::Interp, args.seed)
        .expect("oracle install");
    let mut batch = Vec::new();
    let (mut event, mut agree) = (0u64, 0u64);
    for wave in 0..waves {
        let mut h = 0u64;
        for _ in 0..WAVE_BATCHES {
            fill(inp, &mut batch, event);
            h = fold(h, &m.fire_batch(HOOK, &mut batch));
            event += BATCH as u64;
        }
        let wave_events = (WAVE_BATCHES * BATCH) as u64;
        if h == sums[wave as usize] {
            agree += wave_events;
        } else {
            r.mismatch(
                format!("wave {wave}: verdict checksum differs from the O0 interpreter"),
                wave_events,
            );
        }
        for req in ctrl_ops(inp, prog, wave) {
            let applied = match req {
                CtrlRequest::InsertEntry { table, entry, .. } => {
                    m.insert_entry(prog, table, entry).is_ok()
                }
                CtrlRequest::RemoveEntry { table, key, .. } => {
                    matches!(m.remove_entry(prog, table, &key), Ok(true))
                }
                _ => unreachable!("ctrl_ops only inserts and removes entries"),
            };
            if !applied {
                r.mismatch(format!("wave {wave}: oracle rejected a control request"), 0);
            }
        }
    }
    let mut wrong = 0;
    for (f, got) in inp.flows.iter().zip(bytes) {
        let want = m.map_peek(prog, M_BYTES, f[0] as u64).expect("map exists");
        wrong += (want != *got) as u64;
    }
    if wrong > 0 {
        r.mismatch(
            format!("{wrong} per-flow byte sums differ from the oracle"),
            wrong,
        );
    }
    agree
}

/// The traced run's standalone layers, each fed the same first
/// [`PROBE_BATCHES`] batches of the stream on fresh state, one batch
/// at a time so no batch queues behind another.
fn probe_layers(inp: &Inputs, args: &Args, tracer: &mut Tracer, r: &mut Report) {
    let batches: Vec<Vec<Ctxt>> = (0..PROBE_BATCHES)
        .map(|i| {
            let mut b = Vec::new();
            fill(inp, &mut b, (i * BATCH) as u64);
            b
        })
        .collect();
    let per_event = |tracer: &Tracer, name: &str| median(&tracer.durations(name)) / BATCH as f64;

    // Shard round trip: `fire_batch_on` to `wait`.
    let (sharded, _, _) = spawn(inp, args.seed);
    for pass in 0..2 {
        for (i, b) in batches.iter().enumerate() {
            let t0 = tracer.now_ns();
            let (ctxts, _) = sharded.fire_batch_on(0, HOOK, b.clone()).wait();
            let t1 = tracer.now_ns();
            if pass == 1 {
                tracer.push("shard.rtt", 0, i as u64, t0, t1);
            }
            drop(ctxts);
        }
    }
    drop(sharded);

    // The same batches in this thread, with default telemetry and with
    // timing off, alternating batch by batch.
    let vp = verify(build_prog(inp, OptLevel::default())).expect("classifier verifies");
    let mut on = RmtMachine::new();
    let mut off = RmtMachine::with_obs_config(ObsConfig {
        timing: false,
        ..ObsConfig::default()
    });
    on.install_seeded(vp.clone(), ExecMode::Jit, args.seed)
        .expect("install");
    off.install_seeded(vp.clone(), ExecMode::Jit, args.seed)
        .expect("install");
    for pass in 0..2 {
        for (i, b) in batches.iter().enumerate() {
            for (m, name) in [
                (&mut on, "machine.fire_batch"),
                (&mut off, "machine.fire_batch.timing_off"),
            ] {
                let mut ctxts = b.clone();
                let t0 = tracer.now_ns();
                std::hint::black_box(m.fire_batch(HOOK, &mut ctxts));
                let t1 = tracer.now_ns();
                if pass == 1 {
                    tracer.push(name, 0, i as u64, t0, t1);
                }
            }
        }
    }

    // Table lookups on the projected keys against standalone tables
    // with the base entries, and the actions each event runs.
    let prog = vp.prog();
    let tables: Vec<Table> = prog
        .tables
        .iter()
        .enumerate()
        .map(|(i, def)| {
            let mut t = Table::new(def.clone());
            for (_, e) in prog
                .initial_entries
                .iter()
                .filter(|(id, _)| id.0 as usize == i)
            {
                t.insert(e.clone()).expect("base entry fits");
            }
            t
        })
        .collect();
    let mut actions: Vec<Vec<Vec<(ActionId, i64)>>> = Vec::new();
    for (name, ti) in [
        ("table.lookup.ternary", 0usize),
        ("table.lookup.lpm", 1),
        ("table.lookup.exact", 2),
    ] {
        let t = &tables[ti];
        for (i, b) in batches.iter().enumerate() {
            let keys: Vec<Vec<u64>> = b.iter().map(|c| c.key(&t.def().key_fields)).collect();
            let id = tracer.open(name, 0, i as u64);
            for k in &keys {
                std::hint::black_box(t.lookup(std::hint::black_box(k)));
            }
            tracer.close(id);
            if actions.len() <= i {
                actions.push(vec![Vec::new(); b.len()]);
            }
            for (j, k) in keys.iter().enumerate() {
                let step = match t.lookup(k) {
                    Some(e) => (e.action, e.arg),
                    None => (t.def().default_action.expect("default action"), 0),
                };
                actions[i][j].push(step);
            }
        }
    }
    let compiled: Vec<(CompiledAction, u64)> = prog
        .actions
        .iter()
        .enumerate()
        .map(|(i, a)| {
            CompiledAction::compile_optimized(
                i as u16,
                a,
                prog,
                prog.opt_level,
                vp.worst_case_insns()[i],
            )
            .expect("action compiles")
        })
        .collect();
    let mut maps: Vec<MapInstance> = prog
        .maps
        .iter()
        .map(|d| MapInstance::new(d).expect("map"))
        .collect();
    let mut rng = StdRng::seed_from_u64(args.seed);
    let mut ledger = PrivacyLedger::new(PrivacyPolicy::default().budget_milli_eps);
    for (i, b) in batches.iter().enumerate() {
        let mut ctxts = b.clone();
        let id = tracer.open("jit.run", 0, i as u64);
        for (c, steps) in ctxts.iter_mut().zip(&actions[i]) {
            for &(a, arg) in steps {
                let (code, fuel) = &compiled[a.0 as usize];
                let mut env = ExecEnv {
                    ctxt: c,
                    maps: &mut maps,
                    tensors: &[],
                    models: &[],
                    tick: 0,
                    rng: &mut rng,
                    ledger: &mut ledger,
                    privacy: PrivacyPolicy::default(),
                    ml_stats: &mut [],
                    time_ml: false,
                };
                std::hint::black_box(code.run(*fuel, arg, &mut env).ok());
            }
        }
        tracer.close(id);
    }

    // One ring hop per batch: the producer stamps each batch, the
    // consumer thread notes when it popped it, one batch in flight.
    let hops = ring_hops(&batches);
    for (i, (t0, t1)) in hops.into_iter().enumerate() {
        tracer.push("spsc.hop", 0, i as u64, tracer.ns_of(t0), tracer.ns_of(t1));
    }

    let rtt = per_event(tracer, "shard.rtt");
    let fire = per_event(tracer, "machine.fire_batch");
    let fire_off = per_event(tracer, "machine.fire_batch.timing_off");
    let ternary = per_event(tracer, "table.lookup.ternary");
    let lpm = per_event(tracer, "table.lookup.lpm");
    let exact = per_event(tracer, "table.lookup.exact");
    let jit = per_event(tracer, "jit.run");
    let hop = per_event(tracer, "spsc.hop");
    let residual = fire - ternary - lpm - exact - jit;
    let parts = hop + ternary + lpm + exact + jit + residual;
    r.set("spsc.hop_ns", hop);
    r.set("shard.rtt_ns", rtt);
    r.set("machine.fire_batch_ns", fire);
    r.set("shard.overhead_ns", rtt - fire);
    r.set("table.lookup_ns.ternary", ternary);
    r.set("table.lookup_ns.lpm", lpm);
    r.set("table.lookup_ns.exact", exact);
    r.set("jit.run_ns", jit);
    r.set("machine.residual_ns", residual);
    r.set("obs.overhead_ns", fire - fire_off);
    r.set("reconcile.parts_ns", parts);
    r.set("reconcile.gap_pct", 100.0 * ratio(rtt - parts, rtt));
    r.note(format!(
        "reconcile (ns/event): shard.rtt {rtt:.1} vs parts {parts:.1} = spsc.hop {hop:.1} \
         + ternary {ternary:.1} + lpm {lpm:.1} + exact {exact:.1} + jit.run {jit:.1} \
         + residual {residual:.1}; gap {:.1} ({:.1}%)",
        rtt - parts,
        100.0 * ratio(rtt - parts, rtt)
    ));
}

/// Pushes each batch through a standalone SPSC ring to a consumer
/// thread, one at a time, returning (pushed, popped) instants.
fn ring_hops(batches: &[Vec<Ctxt>]) -> Vec<(Instant, Instant)> {
    let (mut tx, mut rx) = spsc::ring::<Vec<Ctxt>>(1024);
    let (ack_tx, ack_rx) = std::sync::mpsc::channel::<Instant>();
    std::thread::scope(|s| {
        s.spawn(move || {
            let mut out = Vec::new();
            while rx.pop_run_wait(1, &mut out) > 0 {
                let popped = Instant::now();
                for b in out.drain(..) {
                    drop(b);
                    if ack_tx.send(popped).is_err() {
                        return;
                    }
                }
            }
        });
        let mut hops = Vec::with_capacity(batches.len());
        for b in batches {
            let pushed = Instant::now();
            if tx.push_wait(b.clone()).is_err() {
                break;
            }
            match ack_rx.recv() {
                Ok(popped) => hops.push((pushed, popped)),
                Err(_) => break,
            }
        }
        drop(tx);
        hops
    })
}
