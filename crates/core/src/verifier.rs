//! The RMT program verifier.
//!
//! §3.1: "A program verifier checks well-formedness and bounded
//! execution, and it prevents arbitrary kernel calls or data
//! modification." §3.2–3.3 extend it beyond eBPF's checks: ML model
//! efficiency admission, performance-interference rate limits, and
//! privacy-budget accounting.
//!
//! Verification runs six passes (see `DESIGN.md` §5):
//!
//! 1. **Structural** — names, id references, entry/table compatibility.
//! 2. **CFG** — jump-target validity, loop bounds, worst-case
//!    instruction count, no fall-through off the end.
//! 3. **Abstract interpretation** — register initialization, writable
//!    fields, vector shapes where statically known, helper whitelist.
//! 4. **Model admission** — per-latency-class cost budgets.
//! 5. **Interference** — resource-emitting actions get a rate limit
//!    (inserted if absent).
//! 6. **Privacy** — shared maps readable only via `DpAggregate`;
//!    worst-case per-invocation charge within budget.
//!
//! Success yields a [`VerifiedProgram`], the only type
//! [`crate::machine::RmtMachine::install`] accepts.

use crate::bytecode::{Action, Helper, Insn, MAX_VECTOR_LEN, NUM_REGS, NUM_VREGS};
use crate::error::VerifyError;
use crate::prog::{RateLimitCfg, RmtProgram};
use rkd_ml::cost::CostBudget;
use std::collections::{HashMap, HashSet};

/// Limits and policies the verifier enforces.
#[derive(Clone, Debug)]
pub struct VerifierConfig {
    /// Maximum instructions per action body.
    pub max_insns_per_action: usize,
    /// Maximum worst-case dynamic instructions per action invocation.
    pub exec_budget: u64,
    /// Maximum number of tables.
    pub max_tables: usize,
    /// Maximum number of actions.
    pub max_actions: usize,
    /// Maximum number of maps.
    pub max_maps: usize,
    /// Maximum number of models.
    pub max_models: usize,
    /// Maximum tail-call chain depth.
    pub max_tail_depth: usize,
    /// Helpers that this deployment forbids outright.
    pub forbidden_helpers: Vec<Helper>,
    /// Whether resource-emitting actions require a rate limit; when the
    /// program declares none, the verifier inserts
    /// [`VerifierConfig::default_rate_limit`].
    pub require_rate_limit: bool,
    /// The guard inserted when a program omits one.
    pub default_rate_limit: RateLimitCfg,
}

impl Default for VerifierConfig {
    fn default() -> VerifierConfig {
        VerifierConfig {
            max_insns_per_action: 4096,
            exec_budget: 100_000,
            max_tables: 64,
            max_actions: 256,
            max_maps: 64,
            max_models: 32,
            max_tail_depth: 8,
            forbidden_helpers: Vec::new(),
            require_rate_limit: true,
            default_rate_limit: RateLimitCfg {
                capacity: 64,
                refill_per_tick: 8,
            },
        }
    }
}

/// A program that has passed verification.
///
/// This is a sealed wrapper: the only way to construct one is
/// [`verify`], so holding a `VerifiedProgram` is proof of admission.
#[derive(Clone, Debug)]
pub struct VerifiedProgram {
    prog: RmtProgram,
    worst_case_insns: Vec<u64>,
}

impl VerifiedProgram {
    /// The verified program (read-only).
    pub fn prog(&self) -> &RmtProgram {
        &self.prog
    }

    /// Worst-case dynamic instruction count per action, as computed by
    /// the CFG pass; the interpreter uses this as its fuel.
    pub fn worst_case_insns(&self) -> &[u64] {
        &self.worst_case_insns
    }

    /// Consumes the wrapper (used by the machine at install time).
    pub(crate) fn into_parts(self) -> (RmtProgram, Vec<u64>) {
        (self.prog, self.worst_case_insns)
    }
}

/// Verifies a program against the default configuration.
pub fn verify(prog: RmtProgram) -> Result<VerifiedProgram, VerifyError> {
    verify_with(prog, &VerifierConfig::default())
}

/// Verifies a program against an explicit configuration.
pub fn verify_with(
    mut prog: RmtProgram,
    cfg: &VerifierConfig,
) -> Result<VerifiedProgram, VerifyError> {
    check_structure(&prog, cfg)?;
    let mut worst = Vec::with_capacity(prog.actions.len());
    for (i, action) in prog.actions.iter().enumerate() {
        let wc = check_cfg(i as u16, action, cfg)?;
        worst.push(wc);
        check_dataflow(i as u16, action, &prog, cfg)?;
    }
    check_models(&prog)?;
    check_tail_calls(&prog, cfg)?;
    check_interference(&mut prog, cfg)?;
    check_privacy(&prog, &worst)?;
    Ok(VerifiedProgram {
        prog,
        worst_case_insns: worst,
    })
}

/// Re-verifies a single (possibly rewritten) action body against the
/// program it belongs to, returning its worst-case dynamic instruction
/// count. This is the verify-after-optimize gate: the optimizer's
/// output must re-pass the CFG and dataflow passes before the machine
/// will install it, so a buggy pass is a hard compile-time error rather than
/// an installed miscompilation.
///
/// Structural, model, tail-call, interference, and privacy checks are
/// not repeated — optimization rewrites one body in place and cannot
/// change table wiring or map topology. The pass pipeline never grows
/// an action, so for it the worst-case bound cannot move upward
/// either. Fused tail-call chain bodies ([`crate::opt::fuse_chain`])
/// *are* larger than the action they replace — they also pass through
/// this gate, and the machine separately enforces the fuel argument:
/// a fused body is rejected unless its re-verified worst case fits
/// within the summed per-link budgets of the unfused chain, so fusion
/// can never burn more fuel than the chain it replaced. Resource
/// limits are lifted to their maxima here because the original
/// program may have been admitted under a custom [`VerifierConfig`];
/// soundness (termination, initialized registers, valid field and map
/// references) is what this gate re-establishes, and those checks do
/// not relax.
pub fn reverify_action(id: u16, action: &Action, prog: &RmtProgram) -> Result<u64, VerifyError> {
    let cfg = VerifierConfig {
        max_insns_per_action: usize::MAX,
        exec_budget: u64::MAX,
        forbidden_helpers: Vec::new(),
        ..VerifierConfig::default()
    };
    let wc = check_cfg(id, action, &cfg)?;
    check_dataflow(id, action, prog, &cfg)?;
    Ok(wc)
}

/// Pass 1: structural well-formedness.
fn check_structure(prog: &RmtProgram, cfg: &VerifierConfig) -> Result<(), VerifyError> {
    if prog.tables.len() > cfg.max_tables {
        return Err(VerifyError::TooLarge {
            what: "tables",
            got: prog.tables.len(),
            max: cfg.max_tables,
        });
    }
    if prog.actions.len() > cfg.max_actions {
        return Err(VerifyError::TooLarge {
            what: "actions",
            got: prog.actions.len(),
            max: cfg.max_actions,
        });
    }
    if prog.maps.len() > cfg.max_maps {
        return Err(VerifyError::TooLarge {
            what: "maps",
            got: prog.maps.len(),
            max: cfg.max_maps,
        });
    }
    if prog.models.len() > cfg.max_models {
        return Err(VerifyError::TooLarge {
            what: "models",
            got: prog.models.len(),
            max: cfg.max_models,
        });
    }
    // Duplicate names (tables, maps, models, context fields).
    let mut seen = HashSet::new();
    for t in &prog.tables {
        if !seen.insert(("table", t.name.clone())) {
            return Err(VerifyError::Duplicate {
                what: "table",
                name: t.name.clone(),
            });
        }
    }
    for m in &prog.maps {
        if !seen.insert(("map", m.name.clone())) {
            return Err(VerifyError::Duplicate {
                what: "map",
                name: m.name.clone(),
            });
        }
    }
    for m in &prog.models {
        if !seen.insert(("model", m.name.clone())) {
            return Err(VerifyError::Duplicate {
                what: "model",
                name: m.name.clone(),
            });
        }
    }
    for (_, d) in prog.schema.iter() {
        if !seen.insert(("field", d.name.clone())) {
            return Err(VerifyError::Duplicate {
                what: "field",
                name: d.name.clone(),
            });
        }
    }
    // Per-CPU maps: cross-shard aggregation is a per-key sum, which is
    // only well-defined for hash and array maps (LRU eviction order,
    // ring FIFO order, and histogram bucketing do not merge); DP-noised
    // shared reads compose per replica, so the combination is rejected
    // rather than given surprising epsilon semantics.
    for (mi, m) in prog.maps.iter().enumerate() {
        if !m.per_cpu {
            continue;
        }
        if !matches!(
            m.kind,
            crate::maps::MapKind::Hash | crate::maps::MapKind::Array
        ) {
            return Err(VerifyError::BadMapDef {
                map: mi as u16,
                reason: "per_cpu is only supported for Hash and Array maps",
            });
        }
        if m.shared {
            return Err(VerifyError::BadMapDef {
                map: mi as u16,
                reason: "per_cpu maps cannot be shared (DP reads are per-replica)",
            });
        }
    }
    // Tables reference valid fields and actions.
    for (ti, t) in prog.tables.iter().enumerate() {
        for f in &t.key_fields {
            if prog.schema.get(*f).is_none() {
                return Err(VerifyError::UnknownField {
                    site: format!("table {}", t.name),
                    field: f.0,
                });
            }
        }
        if let Some(a) = t.default_action {
            if a.0 as usize >= prog.actions.len() {
                return Err(VerifyError::UnknownAction(a.0));
            }
        }
        let _ = ti;
    }
    // Initial entries reference valid tables/actions and fit schemas.
    for (tid, e) in &prog.initial_entries {
        let t = prog
            .tables
            .get(tid.0 as usize)
            .ok_or(VerifyError::UnknownTable(tid.0))?;
        if e.action.0 as usize >= prog.actions.len() {
            return Err(VerifyError::UnknownAction(e.action.0));
        }
        if !e.key.kind_matches(t.kind) {
            return Err(VerifyError::KeyKindMismatch { table: tid.0 });
        }
        if e.key.arity() != t.key_fields.len() {
            return Err(VerifyError::KeyArityMismatch {
                table: tid.0,
                expected: t.key_fields.len(),
                got: e.key.arity(),
            });
        }
    }
    Ok(())
}

/// Pass 2: control-flow-graph checks for one action. Returns the
/// worst-case dynamic instruction count.
fn check_cfg(id: u16, action: &Action, cfg: &VerifierConfig) -> Result<u64, VerifyError> {
    let code = &action.code;
    if code.is_empty() {
        return Err(VerifyError::MissingExit(id));
    }
    if code.len() > cfg.max_insns_per_action {
        return Err(VerifyError::TooLarge {
            what: "instructions",
            got: code.len(),
            max: cfg.max_insns_per_action,
        });
    }
    let mut has_back_edge = false;
    for (i, insn) in code.iter().enumerate() {
        if let Some(t) = insn.jump_target() {
            if t >= code.len() {
                return Err(VerifyError::BadJumpTarget {
                    action: id,
                    at: i,
                    target: t,
                });
            }
            if t <= i {
                has_back_edge = true;
                if action.loop_bound.is_none() {
                    return Err(VerifyError::UnboundedLoop { action: id, at: i });
                }
            }
        }
    }
    // Reachability: ensure control cannot fall off the end. Walk all
    // CFG edges from instruction 0.
    let mut reachable = vec![false; code.len()];
    let mut stack = vec![0usize];
    while let Some(pc) = stack.pop() {
        if reachable[pc] {
            continue;
        }
        reachable[pc] = true;
        let insn = &code[pc];
        if insn.is_terminator() {
            continue;
        }
        match insn {
            Insn::Jmp { target } => stack.push(*target),
            _ => {
                if let Some(t) = insn.jump_target() {
                    stack.push(t);
                }
                if pc + 1 >= code.len() {
                    return Err(VerifyError::MissingExit(id));
                }
                stack.push(pc + 1);
            }
        }
    }
    // Worst case: straight-line count, multiplied by the loop bound if
    // any back edge exists (the declared bound limits *total* loop
    // iterations across the invocation).
    let base = code.len() as u64;
    let worst = if has_back_edge {
        base.saturating_mul(u64::from(action.loop_bound.unwrap_or(1)).max(1))
    } else {
        base
    };
    if worst > cfg.exec_budget {
        return Err(VerifyError::ExecutionBudgetExceeded {
            action: id,
            worst_case: worst,
            budget: cfg.exec_budget,
        });
    }
    Ok(worst)
}

/// Abstract state for the dataflow pass: which registers are known
/// initialized, and statically known vector lengths.
#[derive(Clone, PartialEq, Eq)]
struct AbsState {
    regs: u16,                                 // Bitmask of initialized scalars.
    vregs: u8,                                 // Bitmask of initialized vectors.
    vlen: [Option<usize>; NUM_VREGS as usize], // Known lengths.
}

impl AbsState {
    fn entry() -> AbsState {
        AbsState {
            regs: 1 << crate::bytecode::ARG_REG.0, // r9 = entry arg.
            vregs: 0,
            vlen: [None; NUM_VREGS as usize],
        }
    }

    fn meet(&self, other: &AbsState) -> AbsState {
        let mut vlen = [None; NUM_VREGS as usize];
        for (i, slot) in vlen.iter_mut().enumerate() {
            *slot = match (self.vlen[i], other.vlen[i]) {
                (Some(a), Some(b)) if a == b => Some(a),
                _ => None,
            };
        }
        AbsState {
            regs: self.regs & other.regs,
            vregs: self.vregs & other.vregs,
            vlen,
        }
    }

    fn reg_init(&self, r: u8) -> bool {
        self.regs & (1 << r) != 0
    }

    fn set_reg(&mut self, r: u8) {
        self.regs |= 1 << r;
    }

    fn vreg_init(&self, v: u8) -> bool {
        self.vregs & (1 << v) != 0
    }

    fn set_vreg(&mut self, v: u8, len: Option<usize>) {
        self.vregs |= 1 << v;
        self.vlen[v as usize] = len;
    }
}

/// Pass 3: abstract interpretation over one action.
fn check_dataflow(
    id: u16,
    action: &Action,
    prog: &RmtProgram,
    cfg: &VerifierConfig,
) -> Result<(), VerifyError> {
    let code = &action.code;
    let reg_ok = |r: crate::bytecode::Reg| -> Result<(), VerifyError> {
        if r.0 >= NUM_REGS {
            Err(VerifyError::BadRegister(r.0))
        } else {
            Ok(())
        }
    };
    let vreg_ok = |v: crate::bytecode::VReg| -> Result<(), VerifyError> {
        if v.0 >= NUM_VREGS {
            Err(VerifyError::BadVectorRegister(v.0))
        } else {
            Ok(())
        }
    };
    let field_ok = |f: crate::ctxt::FieldId, site: &str| -> Result<(), VerifyError> {
        if prog.schema.get(f).is_none() {
            Err(VerifyError::UnknownField {
                site: site.to_string(),
                field: f.0,
            })
        } else {
            Ok(())
        }
    };
    let map_ok = |m: crate::maps::MapId| -> Result<(), VerifyError> {
        if m.0 as usize >= prog.maps.len() {
            Err(VerifyError::UnknownMap(m.0))
        } else {
            Ok(())
        }
    };

    // Worklist dataflow over the CFG.
    let mut states: Vec<Option<AbsState>> = vec![None; code.len()];
    states[0] = Some(AbsState::entry());
    let mut work = vec![0usize];
    // Bound iterations: each state can only lose bits, so convergence
    // is fast; the explicit cap is defense in depth.
    let mut budget = code.len() * 64 + 64;
    while let Some(pc) = work.pop() {
        if budget == 0 {
            break;
        }
        budget -= 1;
        let mut st = states[pc].clone().expect("state exists when queued");
        let insn = &code[pc];
        let read = |st: &AbsState, r: crate::bytecode::Reg| -> Result<(), VerifyError> {
            reg_ok(r)?;
            if !st.reg_init(r.0) {
                return Err(VerifyError::UninitializedRegister {
                    action: id,
                    at: pc,
                    reg: r.0,
                });
            }
            Ok(())
        };
        let readv = |st: &AbsState, v: crate::bytecode::VReg| -> Result<(), VerifyError> {
            vreg_ok(v)?;
            if !st.vreg_init(v.0) {
                return Err(VerifyError::UninitializedRegister {
                    action: id,
                    at: pc,
                    reg: 100 + v.0, // Vector registers reported as 100+.
                });
            }
            Ok(())
        };
        // Effect of the instruction on the abstract state.
        match insn {
            Insn::LdImm { dst, .. } => {
                reg_ok(*dst)?;
                st.set_reg(dst.0);
            }
            Insn::Mov { dst, src } => {
                read(&st, *src)?;
                reg_ok(*dst)?;
                st.set_reg(dst.0);
            }
            Insn::LdCtxt { dst, field } => {
                field_ok(*field, &format!("action {id} insn {pc}"))?;
                reg_ok(*dst)?;
                st.set_reg(dst.0);
            }
            Insn::StCtxt { field, src } => {
                field_ok(*field, &format!("action {id} insn {pc}"))?;
                let def = prog.schema.get(*field).expect("checked");
                if !def.writable {
                    return Err(VerifyError::UnknownField {
                        site: format!("action {id} insn {pc}: field not writable"),
                        field: field.0,
                    });
                }
                read(&st, *src)?;
            }
            Insn::Alu { dst, src, .. } => {
                read(&st, *dst)?;
                read(&st, *src)?;
            }
            Insn::AluImm { dst, .. } => {
                read(&st, *dst)?;
            }
            Insn::Jmp { .. } => {}
            Insn::JmpIf { lhs, rhs, .. } => {
                read(&st, *lhs)?;
                read(&st, *rhs)?;
            }
            Insn::JmpIfImm { lhs, .. } => {
                read(&st, *lhs)?;
            }
            Insn::MapLookup { dst, map, key, .. } => {
                map_ok(*map)?;
                if prog.maps[map.0 as usize].shared {
                    return Err(VerifyError::PrivacyViolation {
                        action: id,
                        reason: "raw read of shared map (use DpAggregate)",
                    });
                }
                read(&st, *key)?;
                reg_ok(*dst)?;
                st.set_reg(dst.0);
            }
            Insn::MapUpdate { map, key, value } => {
                map_ok(*map)?;
                read(&st, *key)?;
                read(&st, *value)?;
                st.set_reg(0); // r0 = status.
            }
            Insn::MapDelete { map, key } => {
                map_ok(*map)?;
                read(&st, *key)?;
                st.set_reg(0);
            }
            Insn::VectorLdMap { dst, map } => {
                map_ok(*map)?;
                if prog.maps[map.0 as usize].shared {
                    return Err(VerifyError::PrivacyViolation {
                        action: id,
                        reason: "raw vector read of shared map (use DpAggregate)",
                    });
                }
                vreg_ok(*dst)?;
                st.set_vreg(dst.0, Some(prog.maps[map.0 as usize].capacity));
            }
            Insn::VectorLdCtxt { dst, base, len } => {
                vreg_ok(*dst)?;
                let end = base.0 as usize + *len as usize;
                if *len as usize > MAX_VECTOR_LEN || end > prog.schema.len() {
                    return Err(VerifyError::UnknownField {
                        site: format!("action {id} insn {pc}: vector window out of schema"),
                        field: base.0,
                    });
                }
                st.set_vreg(dst.0, Some(*len as usize));
            }
            Insn::VectorPush { dst, src } => {
                read(&st, *src)?;
                vreg_ok(*dst)?;
                let new_len = if st.vreg_init(dst.0) {
                    st.vlen[dst.0 as usize].map(|l| l + 1)
                } else {
                    Some(1)
                };
                if let Some(l) = new_len {
                    if l > MAX_VECTOR_LEN {
                        return Err(VerifyError::TooLarge {
                            what: "vector elements",
                            got: l,
                            max: MAX_VECTOR_LEN,
                        });
                    }
                }
                st.set_vreg(dst.0, new_len);
            }
            Insn::VectorClear { dst } => {
                vreg_ok(*dst)?;
                st.set_vreg(dst.0, Some(0));
            }
            Insn::MatMul { dst, tensor, src } => {
                readv(&st, *src)?;
                vreg_ok(*dst)?;
                let t = prog
                    .tensors
                    .get(tensor.0 as usize)
                    .ok_or(VerifyError::UnknownModel(tensor.0))?;
                if let Some(l) = st.vlen[src.0 as usize] {
                    if l != t.cols() {
                        return Err(VerifyError::ModelArityMismatch {
                            model: tensor.0,
                            expected: t.cols(),
                            got: l,
                        });
                    }
                }
                st.set_vreg(dst.0, Some(t.rows()));
            }
            Insn::VecMap { dst, .. } => {
                readv(&st, *dst)?;
            }
            Insn::ScalarVal { dst, src, .. } => {
                readv(&st, *src)?;
                reg_ok(*dst)?;
                st.set_reg(dst.0);
            }
            Insn::CallMl { model, src } => {
                readv(&st, *src)?;
                let m = prog
                    .models
                    .get(model.0 as usize)
                    .ok_or(VerifyError::UnknownModel(model.0))?;
                if let Some(l) = st.vlen[src.0 as usize] {
                    if l != m.spec.n_features() {
                        return Err(VerifyError::ModelArityMismatch {
                            model: model.0,
                            expected: m.spec.n_features(),
                            got: l,
                        });
                    }
                }
                st.set_reg(0);
                st.set_reg(1);
            }
            Insn::Call { helper } => {
                if cfg.forbidden_helpers.contains(helper) {
                    return Err(VerifyError::HelperNotAllowed {
                        action: id,
                        helper: helper.name(),
                    });
                }
                match helper {
                    Helper::GetTick | Helper::Rand => {}
                    Helper::EmitPrefetch => {
                        read(&st, crate::bytecode::Reg(2))?;
                        read(&st, crate::bytecode::Reg(3))?;
                    }
                    Helper::EmitMigrate => {
                        read(&st, crate::bytecode::Reg(2))?;
                    }
                    Helper::EmitHint => {
                        read(&st, crate::bytecode::Reg(2))?;
                        read(&st, crate::bytecode::Reg(3))?;
                        read(&st, crate::bytecode::Reg(4))?;
                    }
                }
                st.set_reg(0);
            }
            Insn::DpAggregate { dst, map } => {
                map_ok(*map)?;
                reg_ok(*dst)?;
                st.set_reg(dst.0);
            }
            Insn::Exit => {
                // Verdict convention: r0 should be set. We require it.
                read(&st, crate::bytecode::Reg(0))?;
            }
            Insn::TailCall { table } => {
                if table.0 as usize >= prog.tables.len() {
                    return Err(VerifyError::UnknownTable(table.0));
                }
            }
        }
        // Propagate to successors.
        let mut succs = Vec::new();
        if !insn.is_terminator() {
            match insn {
                Insn::Jmp { target } => succs.push(*target),
                _ => {
                    if let Some(t) = insn.jump_target() {
                        succs.push(t);
                    }
                    if pc + 1 < code.len() {
                        succs.push(pc + 1);
                    }
                }
            }
        }
        for s in succs {
            let merged = match &states[s] {
                Some(existing) => existing.meet(&st),
                None => st.clone(),
            };
            if states[s].as_ref() != Some(&merged) {
                states[s] = Some(merged);
                work.push(s);
            }
        }
    }
    Ok(())
}

/// Pass 4: ML model admission against per-latency-class budgets, plus
/// guard well-formedness (§3.3 model safety).
fn check_models(prog: &RmtProgram) -> Result<(), VerifyError> {
    for (i, m) in prog.models.iter().enumerate() {
        let budget = CostBudget::for_class(m.latency_class);
        budget
            .admit(&m.spec.cost())
            .map_err(|source| VerifyError::ModelOverBudget {
                model: i as u16,
                source,
            })?;
        if let Some(guard) = &m.guard {
            if !guard.well_formed() {
                return Err(VerifyError::BadGuard { model: i as u16 });
            }
        }
    }
    Ok(())
}

/// Pass 4b: tail-call chain depth (cascade of models across tables).
fn check_tail_calls(prog: &RmtProgram, cfg: &VerifierConfig) -> Result<(), VerifyError> {
    // Edges: table -> tables reachable via the TailCall instructions of
    // any action invocable from that table.
    let mut table_actions: HashMap<u16, HashSet<u16>> = HashMap::new();
    for (ti, t) in prog.tables.iter().enumerate() {
        let set = table_actions.entry(ti as u16).or_default();
        if let Some(a) = t.default_action {
            set.insert(a.0);
        }
    }
    for (tid, e) in &prog.initial_entries {
        table_actions.entry(tid.0).or_default().insert(e.action.0);
    }
    // Note: runtime-inserted entries can add edges; the machine bounds
    // chains dynamically too. Here we bound the static graph.
    let mut action_targets: Vec<Vec<u16>> = Vec::with_capacity(prog.actions.len());
    for a in &prog.actions {
        let mut targets = Vec::new();
        for insn in &a.code {
            if let Insn::TailCall { table } = insn {
                targets.push(table.0);
            }
        }
        action_targets.push(targets);
    }
    // DFS with depth tracking from every table.
    fn depth_of(
        table: u16,
        table_actions: &HashMap<u16, HashSet<u16>>,
        action_targets: &[Vec<u16>],
        visiting: &mut Vec<u16>,
        memo: &mut HashMap<u16, usize>,
        max: usize,
    ) -> Result<usize, VerifyError> {
        if let Some(&d) = memo.get(&table) {
            return Ok(d);
        }
        if visiting.contains(&table) {
            // Cycle: unbounded chain.
            return Err(VerifyError::TailCallTooDeep { max });
        }
        visiting.push(table);
        let mut depth = 1usize;
        if let Some(actions) = table_actions.get(&table) {
            for &a in actions {
                for &t in &action_targets[a as usize] {
                    let d = depth_of(t, table_actions, action_targets, visiting, memo, max)?;
                    depth = depth.max(1 + d);
                }
            }
        }
        visiting.pop();
        if depth > max {
            return Err(VerifyError::TailCallTooDeep { max });
        }
        memo.insert(table, depth);
        Ok(depth)
    }
    let mut memo = HashMap::new();
    for ti in 0..prog.tables.len() {
        depth_of(
            ti as u16,
            &table_actions,
            &action_targets,
            &mut Vec::new(),
            &mut memo,
            cfg.max_tail_depth,
        )?;
    }
    Ok(())
}

/// Pass 5: performance interference. If any action emits resource
/// effects and no rate limit is declared, insert the default guard
/// (the paper: "the verifier may insert additional logic to enforce
/// rate limits").
fn check_interference(prog: &mut RmtProgram, cfg: &VerifierConfig) -> Result<(), VerifyError> {
    let emits = prog.actions.iter().any(|a| {
        a.code.iter().any(|i| match i {
            Insn::Call { helper } => helper.emits_resource(),
            _ => false,
        })
    });
    if emits && prog.rate_limit.is_none() && cfg.require_rate_limit {
        prog.rate_limit = Some(cfg.default_rate_limit);
    }
    // When rate limiting is disabled by config, emission is allowed
    // unguarded (operator's choice, mirrored in the ablation bench).
    Ok(())
}

/// Pass 6: privacy. Worst-case per-invocation DP charge must fit the
/// budget (runtime enforces the cumulative ledger).
fn check_privacy(prog: &RmtProgram, worst: &[u64]) -> Result<(), VerifyError> {
    for (i, a) in prog.actions.iter().enumerate() {
        let static_queries = a
            .code
            .iter()
            .filter(|insn| matches!(insn, Insn::DpAggregate { .. }))
            .count() as u64;
        if static_queries == 0 {
            continue;
        }
        // With loops, a query site can execute up to loop_bound times;
        // bound by worst-case instruction count conservatively.
        let multiplier = if a.loop_bound.is_some() {
            worst.get(i).copied().unwrap_or(1).max(1) / a.code.len().max(1) as u64
        } else {
            1
        };
        let charge = static_queries
            .saturating_mul(multiplier.max(1))
            .saturating_mul(prog.privacy.per_query_milli_eps);
        if charge > prog.privacy.budget_milli_eps {
            return Err(VerifyError::PrivacyBudgetExceeded {
                worst_case_milli_eps: charge,
                budget_milli_eps: prog.privacy.budget_milli_eps,
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bytecode::{AluOp, CmpOp, Reg, VReg};
    use crate::maps::MapKind;
    use crate::prog::{ModelSpec, ProgramBuilder};
    use crate::table::TableId;
    use crate::table::{Entry, MatchKey, MatchKind};
    use rkd_ml::cost::LatencyClass;
    use rkd_ml::dataset::{Dataset, Sample};
    use rkd_ml::fixed::Fix;
    use rkd_ml::svm::IntSvm;
    use rkd_ml::tree::{DecisionTree, TreeConfig};

    /// A minimal valid action: set r0 and exit.
    fn ok_action() -> Action {
        Action::new(
            "ok",
            vec![
                Insn::LdImm {
                    dst: Reg(0),
                    imm: 1,
                },
                Insn::Exit,
            ],
        )
    }

    fn base_prog() -> ProgramBuilder {
        let mut b = ProgramBuilder::new("test");
        let f = b.field_readonly("pid");
        let a = b.action(ok_action());
        b.table("t0", "hook", &[f], MatchKind::Exact, Some(a), 16);
        b
    }

    #[test]
    fn minimal_program_verifies() {
        let prog = base_prog().build();
        let v = verify(prog).unwrap();
        assert_eq!(v.worst_case_insns(), &[2]);
    }

    #[test]
    fn missing_exit_rejected() {
        let mut b = ProgramBuilder::new("p");
        b.action(Action::new(
            "fallsoff",
            vec![Insn::LdImm {
                dst: Reg(0),
                imm: 1,
            }],
        ));
        assert!(matches!(
            verify(b.build()),
            Err(VerifyError::MissingExit(0))
        ));
        let mut b2 = ProgramBuilder::new("p2");
        b2.action(Action::new("empty", vec![]));
        assert!(matches!(
            verify(b2.build()),
            Err(VerifyError::MissingExit(0))
        ));
    }

    #[test]
    fn bad_jump_target_rejected() {
        let mut b = ProgramBuilder::new("p");
        b.action(Action::new("j", vec![Insn::Jmp { target: 9 }]));
        assert!(matches!(
            verify(b.build()),
            Err(VerifyError::BadJumpTarget { target: 9, .. })
        ));
    }

    #[test]
    fn unbounded_loop_rejected_bounded_accepted() {
        let body = vec![
            Insn::LdImm {
                dst: Reg(0),
                imm: 0,
            },
            Insn::AluImm {
                op: AluOp::Add,
                dst: Reg(0),
                imm: 1,
            },
            Insn::JmpIfImm {
                cmp: CmpOp::Lt,
                lhs: Reg(0),
                imm: 10,
                target: 1,
            },
            Insn::Exit,
        ];
        let mut b = ProgramBuilder::new("p");
        b.action(Action::new("loop", body.clone()));
        assert!(matches!(
            verify(b.build()),
            Err(VerifyError::UnboundedLoop { .. })
        ));
        let mut b2 = ProgramBuilder::new("p2");
        b2.action(Action::with_loop_bound("loop", body, 10));
        let v = verify(b2.build()).unwrap();
        assert_eq!(v.worst_case_insns(), &[40]);
    }

    #[test]
    fn exec_budget_enforced() {
        let body = vec![
            Insn::LdImm {
                dst: Reg(0),
                imm: 0,
            },
            Insn::JmpIfImm {
                cmp: CmpOp::Lt,
                lhs: Reg(0),
                imm: 10,
                target: 0,
            },
            Insn::Exit,
        ];
        let mut b = ProgramBuilder::new("p");
        b.action(Action::with_loop_bound("hot", body, 1_000_000));
        assert!(matches!(
            verify(b.build()),
            Err(VerifyError::ExecutionBudgetExceeded { .. })
        ));
    }

    #[test]
    fn uninitialized_register_read_rejected() {
        let mut b = ProgramBuilder::new("p");
        b.action(Action::new(
            "uninit",
            vec![
                Insn::Mov {
                    dst: Reg(0),
                    src: Reg(3),
                },
                Insn::Exit,
            ],
        ));
        assert!(matches!(
            verify(b.build()),
            Err(VerifyError::UninitializedRegister { reg: 3, .. })
        ));
    }

    #[test]
    fn arg_register_is_preinitialized() {
        let mut b = ProgramBuilder::new("p");
        b.action(Action::new(
            "arg",
            vec![
                Insn::Mov {
                    dst: Reg(0),
                    src: crate::bytecode::ARG_REG,
                },
                Insn::Exit,
            ],
        ));
        assert!(verify(b.build()).is_ok());
    }

    #[test]
    fn meet_over_paths_catches_one_sided_init() {
        // r1 initialized on only one branch; read after join must fail.
        let mut b = ProgramBuilder::new("p");
        b.action(Action::new(
            "join",
            vec![
                Insn::LdImm {
                    dst: Reg(0),
                    imm: 0,
                }, // 0
                Insn::JmpIfImm {
                    cmp: CmpOp::Eq,
                    lhs: Reg(0),
                    imm: 0,
                    target: 3,
                }, // 1
                Insn::LdImm {
                    dst: Reg(1),
                    imm: 5,
                }, // 2 (skipped path)
                Insn::Mov {
                    dst: Reg(2),
                    src: Reg(1),
                }, // 3: join; r1 maybe uninit
                Insn::Exit, // 4
            ],
        ));
        assert!(matches!(
            verify(b.build()),
            Err(VerifyError::UninitializedRegister { reg: 1, .. })
        ));
    }

    #[test]
    fn exit_requires_verdict_in_r0() {
        let mut b = ProgramBuilder::new("p");
        b.action(Action::new("noverdict", vec![Insn::Exit]));
        assert!(matches!(
            verify(b.build()),
            Err(VerifyError::UninitializedRegister { reg: 0, .. })
        ));
    }

    #[test]
    fn write_to_readonly_field_rejected() {
        let mut b = ProgramBuilder::new("p");
        let f = b.field_readonly("pid");
        b.action(Action::new(
            "w",
            vec![
                Insn::LdImm {
                    dst: Reg(0),
                    imm: 1,
                },
                Insn::StCtxt {
                    field: f,
                    src: Reg(0),
                },
                Insn::Exit,
            ],
        ));
        assert!(matches!(
            verify(b.build()),
            Err(VerifyError::UnknownField { .. })
        ));
    }

    #[test]
    fn unknown_references_rejected() {
        // Unknown map.
        let mut b = ProgramBuilder::new("p");
        b.action(Action::new(
            "m",
            vec![
                Insn::LdImm {
                    dst: Reg(2),
                    imm: 1,
                },
                Insn::MapLookup {
                    dst: Reg(0),
                    map: crate::maps::MapId(0),
                    key: Reg(2),
                    default: 0,
                },
                Insn::Exit,
            ],
        ));
        assert!(matches!(verify(b.build()), Err(VerifyError::UnknownMap(0))));
        // Unknown model.
        let mut b2 = ProgramBuilder::new("p2");
        let f = b2.field_readonly("x");
        b2.action(Action::new(
            "ml",
            vec![
                Insn::VectorLdCtxt {
                    dst: VReg(0),
                    base: f,
                    len: 1,
                },
                Insn::CallMl {
                    model: crate::bytecode::ModelSlot(3),
                    src: VReg(0),
                },
                Insn::Exit,
            ],
        ));
        assert!(matches!(
            verify(b2.build()),
            Err(VerifyError::UnknownModel(3))
        ));
        // Unknown tail-call table.
        let mut b3 = ProgramBuilder::new("p3");
        b3.action(Action::new(
            "tc",
            vec![Insn::TailCall { table: TableId(7) }],
        ));
        assert!(matches!(
            verify(b3.build()),
            Err(VerifyError::UnknownTable(7))
        ));
    }

    #[test]
    fn model_arity_mismatch_detected_statically() {
        let ds = Dataset::from_samples(vec![
            Sample::from_f64(&[0.0, 0.0], 0),
            Sample::from_f64(&[1.0, 1.0], 1),
        ])
        .unwrap();
        let tree = DecisionTree::train(&ds, &TreeConfig::default()).unwrap();
        let mut b = ProgramBuilder::new("p");
        let f = b.field_readonly("x");
        let m = b.model("m", ModelSpec::Tree(tree), LatencyClass::Background);
        b.action(Action::new(
            "ml",
            vec![
                Insn::VectorLdCtxt {
                    dst: VReg(0),
                    base: f,
                    len: 1, // Model wants 2.
                },
                Insn::CallMl {
                    model: m,
                    src: VReg(0),
                },
                Insn::Exit,
            ],
        ));
        assert!(matches!(
            verify(b.build()),
            Err(VerifyError::ModelArityMismatch {
                expected: 2,
                got: 1,
                ..
            })
        ));
    }

    #[test]
    fn model_over_budget_rejected() {
        // A 4096-feature SVM exceeds the scheduler class ops budget.
        let svm = IntSvm {
            weights: vec![Fix::ONE; 4096],
            bias: Fix::ZERO,
        };
        let mut b = ProgramBuilder::new("p");
        b.model("big", ModelSpec::Svm(svm), LatencyClass::Scheduler);
        b.action(ok_action());
        assert!(matches!(
            verify(b.build()),
            Err(VerifyError::ModelOverBudget { model: 0, .. })
        ));
    }

    #[test]
    fn shared_map_raw_read_rejected_dp_read_allowed() {
        let mut b = ProgramBuilder::new("p");
        let m = b.shared_map("agg", MapKind::Histogram, 8);
        b.action(Action::new(
            "raw",
            vec![
                Insn::LdImm {
                    dst: Reg(2),
                    imm: 0,
                },
                Insn::MapLookup {
                    dst: Reg(0),
                    map: m,
                    key: Reg(2),
                    default: 0,
                },
                Insn::Exit,
            ],
        ));
        assert!(matches!(
            verify(b.build()),
            Err(VerifyError::PrivacyViolation { .. })
        ));
        let mut b2 = ProgramBuilder::new("p2");
        let m2 = b2.shared_map("agg", MapKind::Histogram, 8);
        b2.action(Action::new(
            "dp",
            vec![
                Insn::DpAggregate {
                    dst: Reg(0),
                    map: m2,
                },
                Insn::Exit,
            ],
        ));
        assert!(verify(b2.build()).is_ok());
    }

    #[test]
    fn privacy_budget_checked_per_invocation() {
        let mut b = ProgramBuilder::new("p");
        let m = b.shared_map("agg", MapKind::Histogram, 8);
        b.privacy(crate::prog::PrivacyPolicy {
            budget_milli_eps: 100,
            per_query_milli_eps: 60,
            sensitivity: 1,
        });
        b.action(Action::new(
            "two_queries",
            vec![
                Insn::DpAggregate {
                    dst: Reg(0),
                    map: m,
                },
                Insn::DpAggregate {
                    dst: Reg(1),
                    map: m,
                },
                Insn::Exit,
            ],
        ));
        assert!(matches!(
            verify(b.build()),
            Err(VerifyError::PrivacyBudgetExceeded {
                worst_case_milli_eps: 120,
                budget_milli_eps: 100
            })
        ));
    }

    #[test]
    fn rate_limit_inserted_for_emitting_actions() {
        let mut b = ProgramBuilder::new("p");
        b.action(Action::new(
            "emit",
            vec![
                Insn::LdImm {
                    dst: Reg(2),
                    imm: 100,
                },
                Insn::LdImm {
                    dst: Reg(3),
                    imm: 8,
                },
                Insn::Call {
                    helper: Helper::EmitPrefetch,
                },
                Insn::Exit,
            ],
        ));
        let prog = b.build();
        assert!(prog.rate_limit.is_none());
        let v = verify(prog).unwrap();
        assert!(v.prog().rate_limit.is_some(), "guard must be inserted");
    }

    #[test]
    fn forbidden_helper_rejected() {
        let mut b = ProgramBuilder::new("p");
        b.action(Action::new(
            "h",
            vec![
                Insn::Call {
                    helper: Helper::Rand,
                },
                Insn::Exit,
            ],
        ));
        let mut cfg = VerifierConfig::default();
        cfg.forbidden_helpers.push(Helper::Rand);
        assert!(matches!(
            verify_with(b.build(), &cfg),
            Err(VerifyError::HelperNotAllowed { helper: "rand", .. })
        ));
    }

    #[test]
    fn tail_call_cycle_rejected() {
        let mut b = ProgramBuilder::new("p");
        let f = b.field_readonly("k");
        // Action 0 tail-calls table 1; action 1 tail-calls table 0.
        let a0 = b.action(Action::new(
            "t0a",
            vec![Insn::TailCall { table: TableId(1) }],
        ));
        let a1 = b.action(Action::new(
            "t1a",
            vec![Insn::TailCall { table: TableId(0) }],
        ));
        b.table("t0", "h", &[f], MatchKind::Exact, Some(a0), 4);
        b.table("t1", "h", &[f], MatchKind::Exact, Some(a1), 4);
        assert!(matches!(
            verify(b.build()),
            Err(VerifyError::TailCallTooDeep { .. })
        ));
    }

    #[test]
    fn entry_validation_against_table_schema() {
        let mut b = base_prog();
        b.entry(
            TableId(0),
            Entry {
                key: MatchKey::Exact(vec![1, 2]), // Table has 1 key field.
                priority: 0,
                action: crate::table::ActionId(0),
                arg: 0,
            },
        );
        assert!(matches!(
            verify(b.build()),
            Err(VerifyError::KeyArityMismatch { .. })
        ));
        let mut b2 = base_prog();
        b2.entry(
            TableId(0),
            Entry {
                key: MatchKey::Range(vec![(0, 9)]),
                priority: 0,
                action: crate::table::ActionId(0),
                arg: 0,
            },
        );
        assert!(matches!(
            verify(b2.build()),
            Err(VerifyError::KeyKindMismatch { .. })
        ));
    }

    #[test]
    fn duplicate_names_rejected() {
        let mut b = ProgramBuilder::new("p");
        let f = b.field_readonly("x");
        b.action(ok_action());
        b.table("same", "h", &[f], MatchKind::Exact, None, 4);
        b.table("same", "h", &[f], MatchKind::Exact, None, 4);
        assert!(matches!(
            verify(b.build()),
            Err(VerifyError::Duplicate { what: "table", .. })
        ));
    }

    #[test]
    fn vector_window_bounds_checked() {
        let mut b = ProgramBuilder::new("p");
        let f = b.field_readonly("x");
        b.action(Action::new(
            "v",
            vec![
                Insn::VectorLdCtxt {
                    dst: VReg(0),
                    base: f,
                    len: 5, // Schema has 1 field.
                },
                Insn::LdImm {
                    dst: Reg(0),
                    imm: 0,
                },
                Insn::Exit,
            ],
        ));
        assert!(matches!(
            verify(b.build()),
            Err(VerifyError::UnknownField { .. })
        ));
    }

    #[test]
    fn uninitialized_vector_read_rejected() {
        let mut b = ProgramBuilder::new("p");
        b.action(Action::new(
            "v",
            vec![
                Insn::ScalarVal {
                    dst: Reg(0),
                    src: VReg(2),
                    idx: 0,
                },
                Insn::Exit,
            ],
        ));
        assert!(matches!(
            verify(b.build()),
            Err(VerifyError::UninitializedRegister { reg: 102, .. })
        ));
    }

    #[test]
    fn size_limits_enforced() {
        let cfg = VerifierConfig {
            max_actions: 1,
            ..VerifierConfig::default()
        };
        let mut b = ProgramBuilder::new("p");
        b.action(ok_action());
        b.action(ok_action());
        assert!(matches!(
            verify_with(b.build(), &cfg),
            Err(VerifyError::TooLarge {
                what: "actions",
                ..
            })
        ));
    }
}
