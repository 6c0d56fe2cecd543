//! Bytecode optimizing-pass pipeline.
//!
//! §3.1 compiles table matches and actions into RMT bytecode; this
//! module is the optimizer that sits between the verifier and
//! the installed body ([`crate::jit::CompiledAction`]). It is a classic fixpoint
//! driver over small [`Pass`] structs: each pass rewrites an action
//! body in place (or removes instructions), the driver re-runs the
//! whole pipeline until no pass fires, and a hard iteration bound
//! ([`MAX_FIXPOINT_ROUNDS`]) caps the loop so a buggy pass can never
//! spin the control plane.
//!
//! The passes:
//!
//! - [`ConstFold`] — per-block constant propagation reusing
//!   [`crate::bytecode::AluOp::eval`] / [`CmpOp::eval`] as the single
//!   source of truth
//!   for arithmetic and comparison semantics (wrapping, div/mod-by-zero
//!   = 0, masked shifts). Folds `Alu` → `AluImm` → `LdImm`, `Mov`-of-
//!   constant → `LdImm`, and decides constant conditional jumps.
//! - [`Specialize`] — per-block context-access specialization:
//!   store-to-load forwarding (`StCtxt f, r` … `LdCtxt d, f` becomes
//!   `Mov d, r`) and redundant-load CSE (a second `LdCtxt` of a field
//!   whose value is still held in a register becomes a `Mov`). The
//!   schema's writability split makes this sound: nothing but `StCtxt`
//!   mutates the context inside an action. The per-hook half of
//!   specialization — baking the installed tables' kinds and the
//!   consumed-field projection (the decision-cache key) into the fire
//!   path — lives in [`crate::machine`]: each hook precomputes whether
//!   any installed action can write a consumed field, and cached
//!   decisions on write-free hooks replay without re-extracting keys.
//! - [`DeadCode`] — global backward liveness over scalar and vector
//!   registers; removes pure dead writes (`LdImm`, `Mov`, `Alu`,
//!   `AluImm`, `LdCtxt`, `ScalarVal`, `VectorClear`, `VectorLdCtxt`)
//!   and dead context stores overwritten before any read in the same
//!   block. `StCtxt` is observable at action exit, so a store is dead
//!   only when another store to the same field lands before the block
//!   ends. Side-effecting instructions are never removed — including
//!   `MapLookup`, whose LRU-recency touch is visible in eviction
//!   order, and `Call`/`DpAggregate`, which consume the program's RNG
//!   stream.
//! - [`GuardHoist`] — dominator-based guard redundancy elimination:
//!   a conditional whose predicate is already decided by a dominating
//!   guard (same or negated comparison, operands unredefined on every
//!   path in between) is rewritten into an unconditional jump, so a
//!   chain or loop of repeated bodies pays each invariant check once,
//!   at the earliest dominating point.
//! - [`BranchFold`] — jump threading (a jump whose target is a `Jmp`
//!   retargets to the end of the chain; a jump landing on a terminator
//!   becomes that terminator), removal of jumps to the immediately
//!   following instruction, and unreachable-code elimination with
//!   jump-target rewriting.
//!
//! [`ConstFold`] and [`GuardHoist`] are whole-body forward analyses
//! over a small CFG ([`Cfg`]): basic blocks from the shared leader
//! scan, reverse postorder, immediate dominators (Cooper–Harvey–
//! Kennedy), and natural-loop bodies from dominated back edges. Loop
//! headers widen instead of resetting: only registers defined (and
//! fields stored) somewhere inside the loop are dropped at the
//! header, so loop-invariant constants and guard facts survive the
//! back edge while loop-carried state is conservatively unknown.
//!
//! On top of the per-action pipeline sits [`fuse_chain`] — tail-call
//! match-chain fusion. It is not a [`Pass`] (it needs the program's
//! action list and the live tables, not just one body): when an
//! optimized body's sole reachable `TailCall` targets a table whose
//! lookup is statically resolvable — constant match key after
//! folding, or an empty/default-only table — the callee body is
//! inlined at the call site and the combined body re-optimized, to a
//! depth/size budget. The machine owns when fusion is valid (tables
//! mutate at runtime): see the generation-stamped install and
//! invalidation protocol in [`crate::machine`].
//!
//! Two invariants hold for every pass and are property-tested:
//! semantics of verified bodies are preserved bit-for-bit (verdict,
//! effects, context, map state), and the instruction count never
//! grows. The optimizer runs behind an [`OptLevel`] knob on
//! [`crate::prog::ProgramBuilder`] (default on; `O0` is the retained
//! oracle path), and every optimized action is re-verified before
//! install — a failure is a hard [`crate::error::VmError::Verify`]
//! at compile time, never a silently-installed body.

use crate::bytecode::{Action, CmpOp, Insn, Reg, VReg, ARG_REG, NUM_REGS, NUM_VREGS};
use crate::ctxt::FieldId;
use crate::table::Table;

/// Hard bound on fixpoint rounds: the driver re-runs the pass list at
/// most this many times. Each round either fires a pass (strictly
/// descending a finite measure) or terminates the loop, so real
/// pipelines converge in a handful of rounds; the bound exists so a
/// buggy pass cannot spin.
pub const MAX_FIXPOINT_ROUNDS: usize = 16;

/// Optimization level for action compilation.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum OptLevel {
    /// No optimization: the machine runs exactly what the verifier
    /// admitted. Retained as the oracle path for differential testing.
    O0,
    /// Generic passes: constant folding, dead-code elimination, branch
    /// folding + unreachable-code elimination.
    O1,
    /// `O1` plus context-access specialization. The default.
    #[default]
    O2,
}

/// One optimization pass over an action body.
///
/// Implementations must preserve the semantics of verifier-admitted
/// bodies and must never grow the instruction count; the driver
/// asserts the latter after every run.
pub trait Pass {
    /// Short stable name (diagnostics, golden tests).
    fn name(&self) -> &'static str;
    /// Rewrites `code` in place; returns `true` iff anything changed.
    fn run(&self, code: &mut Vec<Insn>) -> bool;
}

/// The result of running the pipeline over one action.
#[derive(Clone, Debug)]
pub struct Optimized {
    /// The optimized action (same name and loop bound, new body).
    pub action: Action,
    /// Fixpoint rounds taken (including the final no-change round).
    pub rounds: usize,
    /// Names of the passes that fired, in firing order.
    pub fired: Vec<&'static str>,
    /// `true` when the driver hit the round bound while passes were
    /// still firing — the pipeline converged silently-partially
    /// instead of reaching a fixpoint. Exported as the
    /// `opt_fixpoint_cap_hits` machine counter.
    pub capped: bool,
}

/// Returns the pass list for a level (`O0` is empty).
pub fn passes_for(level: OptLevel) -> Vec<Box<dyn Pass>> {
    match level {
        OptLevel::O0 => Vec::new(),
        OptLevel::O1 => vec![
            Box::new(ConstFold),
            Box::new(GuardHoist),
            Box::new(DeadCode),
            Box::new(BranchFold),
        ],
        OptLevel::O2 => vec![
            Box::new(ConstFold),
            Box::new(GuardHoist),
            Box::new(Specialize),
            Box::new(DeadCode),
            Box::new(BranchFold),
        ],
    }
}

/// Runs the standard pipeline for `level` to fixpoint.
pub fn optimize(action: &Action, level: OptLevel) -> Optimized {
    let passes = passes_for(level);
    let refs: Vec<&dyn Pass> = passes.iter().map(|p| p.as_ref()).collect();
    optimize_with(action, &refs, MAX_FIXPOINT_ROUNDS)
}

/// Runs an explicit pass list to fixpoint with an explicit round
/// bound. This is the seam the broken-pass meta-safety tests drive;
/// production callers use [`optimize`].
///
/// # Panics
///
/// Panics if a pass grows the instruction count — that is a pass bug,
/// not an input condition.
pub fn optimize_with(action: &Action, passes: &[&dyn Pass], max_rounds: usize) -> Optimized {
    let mut code = action.code.clone();
    let mut fired = Vec::new();
    let mut rounds = 0;
    let mut capped = false;
    while rounds < max_rounds {
        rounds += 1;
        let mut any = false;
        for p in passes {
            let before = code.len();
            if p.run(&mut code) {
                any = true;
                fired.push(p.name());
            }
            assert!(
                code.len() <= before,
                "pass {} grew the instruction count ({} -> {})",
                p.name(),
                before,
                code.len()
            );
        }
        if !any {
            break;
        }
        // A pass fired in the final permitted round: no clean
        // no-change round was observed, so convergence is unproven.
        capped = rounds == max_rounds;
    }
    Optimized {
        action: Action {
            name: action.name.clone(),
            code,
            loop_bound: action.loop_bound,
        },
        rounds,
        fired,
        capped,
    }
}

/// The set of fields an action body can write (its `StCtxt` targets).
/// The machine unions this across a program's actions to decide, per
/// hook, whether cached decisions can replay without re-extracting
/// match keys (see the decision-cache notes in [`crate::machine`]).
pub fn ctxt_writes(action: &Action) -> Vec<FieldId> {
    let mut out: Vec<FieldId> = Vec::new();
    for insn in &action.code {
        if let Insn::StCtxt { field, .. } = insn {
            if !out.contains(field) {
                out.push(*field);
            }
        }
    }
    out
}

// ---------------------------------------------------------------------
// Shared CFG helpers
// ---------------------------------------------------------------------

/// Marks basic-block leaders: instruction 0, every jump target, and
/// every instruction following a jump or terminator.
fn leaders(code: &[Insn]) -> Vec<bool> {
    let mut lead = vec![false; code.len()];
    if !code.is_empty() {
        lead[0] = true;
    }
    for (i, insn) in code.iter().enumerate() {
        if let Some(t) = insn.jump_target() {
            if t < code.len() {
                lead[t] = true;
            }
            if i + 1 < code.len() {
                lead[i + 1] = true;
            }
        } else if insn.is_terminator() && i + 1 < code.len() {
            lead[i + 1] = true;
        }
    }
    lead
}

/// Removes instructions where `keep[i]` is false, rewriting every jump
/// target through the position map. A target pointing at a removed
/// instruction lands on the next kept one — exactly the fall-through
/// semantics of the (pure, dead, or unreachable) instruction removed.
/// Returns `true` if anything was removed.
fn compact(code: &mut Vec<Insn>, keep: &[bool]) -> bool {
    debug_assert_eq!(code.len(), keep.len());
    if keep.iter().all(|&k| k) {
        return false;
    }
    let mut newpos = vec![0usize; code.len() + 1];
    let mut n = 0usize;
    for i in 0..code.len() {
        newpos[i] = n;
        if keep[i] {
            n += 1;
        }
    }
    newpos[code.len()] = n;
    let mut out = Vec::with_capacity(n);
    for (i, insn) in code.iter().enumerate() {
        if !keep[i] {
            continue;
        }
        let mut insn = insn.clone();
        match &mut insn {
            Insn::Jmp { target } | Insn::JmpIf { target, .. } | Insn::JmpIfImm { target, .. } => {
                *target = newpos[*target]
            }
            _ => {}
        }
        out.push(insn);
    }
    *code = out;
    true
}

/// Scalar registers an instruction may define, as a bitmask —
/// including the fixed `r0`/`r1` clobbers of map mutations, helper
/// calls, and ML calls. Shared by the forward analyses' kill rules.
fn def_mask(insn: &Insn) -> u16 {
    match insn {
        Insn::LdImm { dst, .. }
        | Insn::Mov { dst, .. }
        | Insn::Alu { dst, .. }
        | Insn::AluImm { dst, .. }
        | Insn::LdCtxt { dst, .. }
        | Insn::MapLookup { dst, .. }
        | Insn::ScalarVal { dst, .. }
        | Insn::DpAggregate { dst, .. } => 1u16 << dst.0.min(15),
        Insn::MapUpdate { .. } | Insn::MapDelete { .. } | Insn::Call { .. } => 1,
        Insn::CallMl { .. } => 0b11,
        _ => 0,
    }
}

/// Basic-block view of an action body: block boundaries from the
/// shared leader scan, successor/predecessor edges, reverse postorder
/// from the entry, and immediate dominators (the iterative
/// Cooper–Harvey–Kennedy scheme — fine at action-body sizes).
///
/// This is the infrastructure the loop-aware forward analyses
/// ([`ConstFold`], [`GuardHoist`]) and [`fuse_chain`] share. A back
/// edge is an edge whose target dominates its source; the natural
/// loop of a header is the header plus everything that reaches one of
/// its back-edge sources without passing through the header.
/// Irreducible edges (a forward edge from a block not yet processed
/// in reverse postorder) are handled by the analyses themselves by
/// widening to "unknown", which is always sound.
struct Cfg {
    /// Start instruction of each block, ascending.
    starts: Vec<usize>,
    /// Block index of every instruction.
    block_of: Vec<usize>,
    /// Predecessor blocks (deduplicated).
    preds: Vec<Vec<usize>>,
    /// Blocks reachable from block 0, in reverse postorder.
    rpo: Vec<usize>,
    /// `rpo_pos[b]` = position of `b` in `rpo`; `usize::MAX` when
    /// unreachable.
    rpo_pos: Vec<usize>,
    /// Immediate dominator of each reachable block (`idom[0] == 0`);
    /// `usize::MAX` for unreachable blocks.
    idom: Vec<usize>,
    /// `loop_header[b]` = some back edge targets `b`.
    loop_header: Vec<bool>,
}

impl Cfg {
    fn build(code: &[Insn]) -> Cfg {
        let lead = leaders(code);
        let mut starts = Vec::new();
        let mut block_of = vec![0usize; code.len()];
        for (i, b) in block_of.iter_mut().enumerate() {
            if lead[i] {
                starts.push(i);
            }
            *b = starts.len() - 1;
        }
        let nb = starts.len();
        let block_end = |b: usize| {
            if b + 1 < nb {
                starts[b + 1]
            } else {
                code.len()
            }
        };
        let mut succs = vec![Vec::new(); nb];
        let mut preds: Vec<Vec<usize>> = vec![Vec::new(); nb];
        for (b, su) in succs.iter_mut().enumerate() {
            let last = block_end(b) - 1;
            let insn = &code[last];
            let mut targets: Vec<usize> = Vec::new();
            if let Some(t) = insn.jump_target() {
                if t < code.len() {
                    targets.push(block_of[t]);
                }
                if !matches!(insn, Insn::Jmp { .. }) && last + 1 < code.len() {
                    targets.push(block_of[last + 1]);
                }
            } else if !insn.is_terminator() && last + 1 < code.len() {
                targets.push(block_of[last + 1]);
            }
            for t in targets {
                if !su.contains(&t) {
                    su.push(t);
                    preds[t].push(b);
                }
            }
        }
        // Reverse postorder via an iterative DFS from the entry.
        let mut rpo = Vec::with_capacity(nb);
        let mut state = vec![0u8; nb]; // 0 unseen, 1 on stack, 2 done
        if nb > 0 {
            let mut stack: Vec<(usize, usize)> = vec![(0, 0)];
            state[0] = 1;
            while let Some(top) = stack.last_mut() {
                let b = top.0;
                if top.1 < succs[b].len() {
                    let s = succs[b][top.1];
                    top.1 += 1;
                    if state[s] == 0 {
                        state[s] = 1;
                        stack.push((s, 0));
                    }
                } else {
                    state[b] = 2;
                    rpo.push(b);
                    stack.pop();
                }
            }
            rpo.reverse();
        }
        let mut rpo_pos = vec![usize::MAX; nb];
        for (i, &b) in rpo.iter().enumerate() {
            rpo_pos[b] = i;
        }
        // Immediate dominators, iterated to fixpoint over RPO.
        let mut idom = vec![usize::MAX; nb];
        if nb > 0 {
            idom[0] = 0;
            let mut changed = true;
            while changed {
                changed = false;
                for &b in rpo.iter().skip(1) {
                    let mut new_idom = usize::MAX;
                    for &p in &preds[b] {
                        if idom[p] == usize::MAX {
                            continue;
                        }
                        new_idom = if new_idom == usize::MAX {
                            p
                        } else {
                            Self::intersect(&idom, &rpo_pos, p, new_idom)
                        };
                    }
                    if new_idom != usize::MAX && idom[b] != new_idom {
                        idom[b] = new_idom;
                        changed = true;
                    }
                }
            }
        }
        let mut loop_header = vec![false; nb];
        for (b, hdr) in loop_header.iter_mut().enumerate() {
            *hdr = preds[b]
                .iter()
                .any(|&p| Self::dominates_in(&idom, &rpo_pos, b, p));
        }
        Cfg {
            starts,
            block_of,
            preds,
            rpo,
            rpo_pos,
            idom,
            loop_header,
        }
    }

    /// Nearest common dominator of `a` and `b` (CHK walk).
    fn intersect(idom: &[usize], rpo_pos: &[usize], mut a: usize, mut b: usize) -> usize {
        while a != b {
            while rpo_pos[a] > rpo_pos[b] {
                a = idom[a];
            }
            while rpo_pos[b] > rpo_pos[a] {
                b = idom[b];
            }
        }
        a
    }

    fn dominates_in(idom: &[usize], rpo_pos: &[usize], a: usize, b: usize) -> bool {
        if rpo_pos[b] == usize::MAX || rpo_pos[a] == usize::MAX {
            return false;
        }
        let mut x = b;
        loop {
            if x == a {
                return true;
            }
            if x == 0 || idom[x] == usize::MAX {
                return false;
            }
            x = idom[x];
        }
    }

    /// Whether block `a` dominates block `b`.
    fn dominates(&self, a: usize, b: usize) -> bool {
        Self::dominates_in(&self.idom, &self.rpo_pos, a, b)
    }

    /// One-past-the-end instruction index of block `b`.
    fn block_end(&self, b: usize, code_len: usize) -> usize {
        if b + 1 < self.starts.len() {
            self.starts[b + 1]
        } else {
            code_len
        }
    }

    /// The natural loop of header `h`: `h` plus every block reaching a
    /// back-edge source of `h` without passing through `h`.
    fn loop_blocks(&self, h: usize) -> Vec<usize> {
        let mut inl = vec![false; self.starts.len()];
        inl[h] = true;
        let mut out = vec![h];
        let mut stack: Vec<usize> = self.preds[h]
            .iter()
            .copied()
            .filter(|&p| self.dominates(h, p))
            .collect();
        while let Some(b) = stack.pop() {
            if inl[b] {
                continue;
            }
            inl[b] = true;
            out.push(b);
            for &p in &self.preds[b] {
                if !inl[p] {
                    stack.push(p);
                }
            }
        }
        out
    }

    /// (register def mask, stored fields) across header `h`'s natural
    /// loop — what a loop-aware forward analysis must widen at `h`.
    fn loop_defs(&self, code: &[Insn], h: usize) -> (u16, Vec<FieldId>) {
        let mut mask = 0u16;
        let mut fields: Vec<FieldId> = Vec::new();
        for b in self.loop_blocks(h) {
            for insn in &code[self.starts[b]..self.block_end(b, code.len())] {
                mask |= def_mask(insn);
                if let Insn::StCtxt { field, .. } = insn {
                    if !fields.contains(field) {
                        fields.push(*field);
                    }
                }
            }
        }
        (mask, fields)
    }
}

// ---------------------------------------------------------------------
// Constant folding
// ---------------------------------------------------------------------

/// Forward constant state: per-register known constants plus context
/// fields proven to hold a constant (kept sorted by field id). The
/// field half is what lets folding see through `StCtxt`/`LdCtxt`
/// round-trips — and what [`fuse_chain`] uses to resolve a tail-call
/// target's match key at compile time.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
struct CpState {
    regs: [Option<i64>; 16],
    fields: Vec<(FieldId, i64)>,
}

impl CpState {
    fn field_const(&self, f: FieldId) -> Option<i64> {
        self.fields
            .binary_search_by_key(&f, |&(ff, _)| ff)
            .ok()
            .map(|i| self.fields[i].1)
    }

    fn set_field(&mut self, f: FieldId, v: Option<i64>) {
        match (v, self.fields.binary_search_by_key(&f, |&(ff, _)| ff)) {
            (Some(v), Ok(i)) => self.fields[i].1 = v,
            (Some(v), Err(i)) => self.fields.insert(i, (f, v)),
            (None, Ok(i)) => {
                self.fields.remove(i);
            }
            (None, Err(_)) => {}
        }
    }

    /// Lattice meet: keep only facts both states agree on.
    fn meet(&mut self, other: &CpState) {
        for r in 0..16 {
            if self.regs[r] != other.regs[r] {
                self.regs[r] = None;
            }
        }
        self.fields
            .retain(|&(f, v)| other.field_const(f) == Some(v));
    }

    /// Forward transfer over one instruction. Mirrors the rewrite
    /// rules in [`ConstFold`]; the two must agree or folding is
    /// unsound.
    fn step(&mut self, insn: &Insn) {
        match *insn {
            Insn::LdImm { dst, imm } => self.regs[dst.0 as usize] = Some(imm),
            Insn::Mov { dst, src } => self.regs[dst.0 as usize] = self.regs[src.0 as usize],
            Insn::Alu { op, dst, src } => {
                self.regs[dst.0 as usize] =
                    match (self.regs[dst.0 as usize], self.regs[src.0 as usize]) {
                        (Some(l), Some(r)) => Some(op.eval(l, r)),
                        _ => None,
                    }
            }
            Insn::AluImm { op, dst, imm } => {
                self.regs[dst.0 as usize] = self.regs[dst.0 as usize].map(|l| op.eval(l, imm))
            }
            // A load from a field proven constant is itself constant.
            Insn::LdCtxt { dst, field } => self.regs[dst.0 as usize] = self.field_const(field),
            Insn::StCtxt { field, src } => {
                let v = self.regs[src.0 as usize];
                self.set_field(field, v);
            }
            Insn::MapLookup { dst, .. }
            | Insn::ScalarVal { dst, .. }
            | Insn::DpAggregate { dst, .. } => self.regs[dst.0 as usize] = None,
            // Map mutations and helper calls report through r0.
            Insn::MapUpdate { .. } | Insn::MapDelete { .. } | Insn::Call { .. } => {
                self.regs[0] = None;
            }
            // Class to r0, confidence to r1.
            Insn::CallMl { .. } => {
                self.regs[0] = None;
                self.regs[1] = None;
            }
            Insn::Jmp { .. }
            | Insn::JmpIf { .. }
            | Insn::JmpIfImm { .. }
            | Insn::VectorLdMap { .. }
            | Insn::VectorLdCtxt { .. }
            | Insn::VectorPush { .. }
            | Insn::VectorClear { .. }
            | Insn::MatMul { .. }
            | Insn::VecMap { .. }
            | Insn::Exit
            | Insn::TailCall { .. } => {}
        }
    }
}

/// Per-block constant in-states via a reverse-postorder forward sweep
/// with loop widening: a loop header's in-state is the meet of its
/// forward predecessors, with every register defined (and field
/// stored) anywhere in the header's natural loop widened to unknown.
/// Loop-invariant constants survive the back edge; loop-carried
/// values are dropped. Unreachable blocks get `None`; a reachable but
/// not-yet-processed forward predecessor (irreducible entry) widens
/// the whole state to unknown, which is sound.
fn cp_in_states(code: &[Insn], cfg: &Cfg) -> Vec<Option<CpState>> {
    let nb = cfg.starts.len();
    let mut ins: Vec<Option<CpState>> = vec![None; nb];
    let mut outs: Vec<Option<CpState>> = vec![None; nb];
    for (pos, &b) in cfg.rpo.iter().enumerate() {
        let mut st = if pos == 0 {
            CpState::default()
        } else {
            let mut acc: Option<CpState> = None;
            let mut widen_all = false;
            for &p in &cfg.preds[b] {
                if cfg.rpo_pos[p] == usize::MAX || cfg.dominates(b, p) {
                    // Unreachable pred contributes nothing; a back
                    // edge is accounted for by header widening below.
                    continue;
                }
                match &outs[p] {
                    Some(o) => match &mut acc {
                        Some(a) => a.meet(o),
                        None => acc = Some(o.clone()),
                    },
                    None => widen_all = true,
                }
            }
            if widen_all {
                CpState::default()
            } else {
                acc.unwrap_or_default()
            }
        };
        if cfg.loop_header[b] {
            let (defs, stored) = cfg.loop_defs(code, b);
            for r in 0..16 {
                if defs & (1 << r) != 0 {
                    st.regs[r] = None;
                }
            }
            st.fields.retain(|&(f, _)| !stored.contains(&f));
        }
        ins[b] = Some(st.clone());
        for insn in &code[cfg.starts[b]..cfg.block_end(b, code.len())] {
            st.step(insn);
        }
        outs[b] = Some(st);
    }
    ins
}

/// Loop-aware constant propagation and folding over the block-level
/// constant analysis above. All rewrites are in-place (1:1), so this
/// pass never changes the instruction count; the dead definitions it
/// strands are collected by [`DeadCode`] and the decided branches by
/// [`BranchFold`].
pub struct ConstFold;

impl ConstFold {
    /// Constant-evaluates a conditional against the tracked state:
    /// `Some(taken)` when decidable.
    fn decide(cmp: CmpOp, lhs: Option<i64>, rhs: Option<i64>) -> Option<bool> {
        match (lhs, rhs) {
            (Some(l), Some(r)) => Some(cmp.eval(l, r)),
            _ => None,
        }
    }
}

impl Pass for ConstFold {
    fn name(&self) -> &'static str {
        "const-fold"
    }

    fn run(&self, code: &mut Vec<Insn>) -> bool {
        if code.is_empty() {
            return false;
        }
        let cfg = Cfg::build(code);
        let ins = cp_in_states(code, &cfg);
        let mut changed = false;
        // Indices are block offsets into `code`, rewritten in place.
        #[allow(clippy::needless_range_loop)]
        for b in 0..cfg.starts.len() {
            // Unreachable blocks are BranchFold's job.
            let Some(block_in) = &ins[b] else { continue };
            let mut st = block_in.clone();
            let end = cfg.block_end(b, code.len());
            for i in cfg.starts[b]..end {
                let next = i + 1;
                match code[i] {
                    Insn::Mov { dst, src } => {
                        if let Some(v) = st.regs[src.0 as usize] {
                            code[i] = Insn::LdImm { dst, imm: v };
                            changed = true;
                        }
                    }
                    // A load from a field the analysis proved constant
                    // folds to the constant itself — this is what
                    // makes a caller-written match key visible to the
                    // inlined callee after chain fusion.
                    Insn::LdCtxt { dst, field } => {
                        if let Some(v) = st.field_const(field) {
                            code[i] = Insn::LdImm { dst, imm: v };
                            changed = true;
                        }
                    }
                    Insn::Alu { op, dst, src } => {
                        if let Some(r) = st.regs[src.0 as usize] {
                            if let Some(l) = st.regs[dst.0 as usize] {
                                code[i] = Insn::LdImm {
                                    dst,
                                    imm: op.eval(l, r),
                                };
                            } else {
                                code[i] = Insn::AluImm { op, dst, imm: r };
                            }
                            changed = true;
                        }
                    }
                    Insn::AluImm { op, dst, imm } => {
                        if let Some(l) = st.regs[dst.0 as usize] {
                            code[i] = Insn::LdImm {
                                dst,
                                imm: op.eval(l, imm),
                            };
                            changed = true;
                        }
                    }
                    Insn::JmpIf {
                        cmp,
                        lhs,
                        rhs,
                        target,
                    } => {
                        let decided = if lhs == rhs {
                            // Same register on both sides: reflexive.
                            Some(cmp.eval(0, 0))
                        } else {
                            Self::decide(cmp, st.regs[lhs.0 as usize], st.regs[rhs.0 as usize])
                        };
                        match decided {
                            Some(true) => {
                                code[i] = Insn::Jmp { target };
                                changed = true;
                            }
                            Some(false) => {
                                code[i] = Insn::Jmp { target: next };
                                changed = true;
                            }
                            None => {
                                if let Some(r) = st.regs[rhs.0 as usize] {
                                    code[i] = Insn::JmpIfImm {
                                        cmp,
                                        lhs,
                                        imm: r,
                                        target,
                                    };
                                    changed = true;
                                }
                            }
                        }
                    }
                    Insn::JmpIfImm {
                        cmp,
                        lhs,
                        imm,
                        target,
                    } => match Self::decide(cmp, st.regs[lhs.0 as usize], Some(imm)) {
                        Some(true) => {
                            code[i] = Insn::Jmp { target };
                            changed = true;
                        }
                        Some(false) => {
                            code[i] = Insn::Jmp { target: next };
                            changed = true;
                        }
                        None => {}
                    },
                    _ => {}
                }
                // Advance over the (possibly rewritten) instruction;
                // rewrites are value-preserving so the block in-states
                // computed on the original code stay sound.
                st.step(&code[i]);
            }
        }
        changed
    }
}

// ---------------------------------------------------------------------
// Guard hoisting (dominated-guard redundancy elimination)
// ---------------------------------------------------------------------

/// A branch-derived predicate known to hold at a program point:
/// `cmp.eval(lhs, rhs) == truth`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct GuardFact {
    lhs: Reg,
    cmp: CmpOp,
    rhs: GuardRhs,
    truth: bool,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum GuardRhs {
    Imm(i64),
    Reg(Reg),
}

impl GuardFact {
    /// Whether the fact reads any register in `defs` (and is thus
    /// killed by a definition of one).
    fn mentions(&self, defs: u16) -> bool {
        defs & (1 << self.lhs.0.min(15)) != 0
            || matches!(self.rhs, GuardRhs::Reg(r) if defs & (1 << r.0.min(15)) != 0)
    }
}

/// `!cmp`: the comparison computing the logical negation.
fn negate_cmp(cmp: CmpOp) -> CmpOp {
    match cmp {
        CmpOp::Eq => CmpOp::Ne,
        CmpOp::Ne => CmpOp::Eq,
        CmpOp::Lt => CmpOp::Ge,
        CmpOp::Ge => CmpOp::Lt,
        CmpOp::Le => CmpOp::Gt,
        CmpOp::Gt => CmpOp::Le,
    }
}

/// Cap on tracked facts per program point; oldest facts are dropped
/// first. Real guard chains are short — the cap only bounds
/// pathological generated bodies.
const MAX_GUARD_FACTS: usize = 24;

fn push_fact(facts: &mut Vec<GuardFact>, f: GuardFact) {
    if facts.contains(&f) {
        return;
    }
    if facts.len() >= MAX_GUARD_FACTS {
        facts.remove(0);
    }
    facts.push(f);
}

/// Decides a conditional from the fact set: an exact match yields its
/// recorded truth, a negated-comparison match the opposite.
fn decide_from_facts(facts: &[GuardFact], lhs: Reg, cmp: CmpOp, rhs: GuardRhs) -> Option<bool> {
    for f in facts {
        if f.lhs == lhs && f.rhs == rhs {
            if f.cmp == cmp {
                return Some(f.truth);
            }
            if f.cmp == negate_cmp(cmp) {
                return Some(!f.truth);
            }
        }
    }
    None
}

/// Per-block guard-fact in-states: an edge-sensitive forward sweep in
/// reverse postorder. A conditional's taken edge carries its
/// predicate as a true fact and the fall-through edge as a false
/// fact; definitions kill facts over their registers; the meet is set
/// intersection. Loop headers widen like [`cp_in_states`]: facts over
/// registers defined inside the natural loop are dropped, so
/// loop-invariant guards survive the back edge.
fn guard_in_states(code: &[Insn], cfg: &Cfg) -> Vec<Option<Vec<GuardFact>>> {
    let nb = cfg.starts.len();
    let mut ins: Vec<Option<Vec<GuardFact>>> = vec![None; nb];
    // Per-block (taken-edge, fall-through-edge) out states.
    let mut outs: Vec<Option<(Vec<GuardFact>, Vec<GuardFact>)>> = vec![None; nb];
    // Block the last instruction jumps to / falls through to.
    let edge_blocks = |b: usize| -> (Option<usize>, Option<usize>) {
        let last = cfg.block_end(b, code.len()) - 1;
        let insn = &code[last];
        let jt = insn
            .jump_target()
            .filter(|&t| t < code.len())
            .map(|t| cfg.block_of[t]);
        let ft =
            if insn.is_terminator() || matches!(insn, Insn::Jmp { .. }) || last + 1 >= code.len() {
                None
            } else {
                Some(cfg.block_of[last + 1])
            };
        (jt, ft)
    };
    for (pos, &b) in cfg.rpo.iter().enumerate() {
        let mut facts: Vec<GuardFact> = if pos == 0 {
            Vec::new()
        } else {
            let mut acc: Option<Vec<GuardFact>> = None;
            let mut widen_all = false;
            for &p in &cfg.preds[b] {
                if cfg.rpo_pos[p] == usize::MAX || cfg.dominates(b, p) {
                    continue;
                }
                let contrib: Vec<GuardFact> = match &outs[p] {
                    Some((taken, fall)) => {
                        let (jt, ft) = edge_blocks(p);
                        match (jt == Some(b), ft == Some(b)) {
                            // Both edges land here (target == next):
                            // only facts common to both hold.
                            (true, true) => {
                                taken.iter().filter(|f| fall.contains(f)).copied().collect()
                            }
                            (true, false) => taken.clone(),
                            (false, true) => fall.clone(),
                            (false, false) => Vec::new(),
                        }
                    }
                    None => {
                        widen_all = true;
                        Vec::new()
                    }
                };
                if widen_all {
                    break;
                }
                match &mut acc {
                    Some(a) => a.retain(|f| contrib.contains(f)),
                    None => acc = Some(contrib),
                }
            }
            if widen_all {
                Vec::new()
            } else {
                acc.unwrap_or_default()
            }
        };
        if cfg.loop_header[b] {
            let (defs, _) = cfg.loop_defs(code, b);
            facts.retain(|f| !f.mentions(defs));
        }
        ins[b] = Some(facts.clone());
        let end = cfg.block_end(b, code.len());
        for insn in &code[cfg.starts[b]..end] {
            let defs = def_mask(insn);
            if defs != 0 {
                facts.retain(|f| !f.mentions(defs));
            }
        }
        let out = match code[end - 1] {
            Insn::JmpIf { cmp, lhs, rhs, .. } if lhs != rhs => {
                let mut taken = facts.clone();
                let mut fall = facts;
                push_fact(
                    &mut taken,
                    GuardFact {
                        lhs,
                        cmp,
                        rhs: GuardRhs::Reg(rhs),
                        truth: true,
                    },
                );
                push_fact(
                    &mut fall,
                    GuardFact {
                        lhs,
                        cmp,
                        rhs: GuardRhs::Reg(rhs),
                        truth: false,
                    },
                );
                (taken, fall)
            }
            Insn::JmpIfImm { cmp, lhs, imm, .. } => {
                let mut taken = facts.clone();
                let mut fall = facts;
                push_fact(
                    &mut taken,
                    GuardFact {
                        lhs,
                        cmp,
                        rhs: GuardRhs::Imm(imm),
                        truth: true,
                    },
                );
                push_fact(
                    &mut fall,
                    GuardFact {
                        lhs,
                        cmp,
                        rhs: GuardRhs::Imm(imm),
                        truth: false,
                    },
                );
                (taken, fall)
            }
            _ => (facts.clone(), facts),
        };
        outs[b] = Some(out);
    }
    ins
}

/// Dominator-based guard redundancy elimination. A conditional whose
/// predicate is implied by guards on every path from the entry — i.e.
/// decided by a dominating check whose operands are not redefined in
/// between — is rewritten into an unconditional `Jmp`, leaving the
/// earliest dominating check as the single guard for the region
/// ("hoisting" by deciding dominated duplicates). Loop-invariant
/// guards inside loop bodies are the canonical win: the pre-loop
/// check survives, the per-iteration copy folds away. All rewrites
/// are 1:1; [`BranchFold`] cleans up the decided jumps.
pub struct GuardHoist;

impl Pass for GuardHoist {
    fn name(&self) -> &'static str {
        "guard-hoist"
    }

    fn run(&self, code: &mut Vec<Insn>) -> bool {
        if code.is_empty() {
            return false;
        }
        let cfg = Cfg::build(code);
        let ins = guard_in_states(code, &cfg);
        let mut changed = false;
        // Indices are block offsets into `code`, rewritten in place.
        #[allow(clippy::needless_range_loop)]
        for b in 0..cfg.starts.len() {
            let Some(block_in) = &ins[b] else { continue };
            let mut facts = block_in.clone();
            let end = cfg.block_end(b, code.len());
            for i in cfg.starts[b]..end {
                let decided =
                    match code[i] {
                        Insn::JmpIf {
                            cmp,
                            lhs,
                            rhs,
                            target,
                        } if lhs != rhs => decide_from_facts(&facts, lhs, cmp, GuardRhs::Reg(rhs))
                            .map(|t| (t, target)),
                        Insn::JmpIfImm {
                            cmp,
                            lhs,
                            imm,
                            target,
                        } => decide_from_facts(&facts, lhs, cmp, GuardRhs::Imm(imm))
                            .map(|t| (t, target)),
                        _ => None,
                    };
                if let Some((truth, target)) = decided {
                    code[i] = Insn::Jmp {
                        target: if truth { target } else { i + 1 },
                    };
                    changed = true;
                }
                let defs = def_mask(&code[i]);
                if defs != 0 {
                    facts.retain(|f| !f.mentions(defs));
                }
            }
        }
        changed
    }
}

// ---------------------------------------------------------------------
// Context-access specialization
// ---------------------------------------------------------------------

/// Per-block context-access specialization: store-to-load forwarding
/// and redundant-load CSE. Sound because within an action body only
/// `StCtxt` mutates the context — helpers, map ops, and ML calls never
/// touch it — so a register holding a field's value stays valid until
/// that register is redefined or the field is stored again.
pub struct Specialize;

impl Pass for Specialize {
    fn name(&self) -> &'static str {
        "specialize"
    }

    fn run(&self, code: &mut Vec<Insn>) -> bool {
        let lead = leaders(code);
        let mut changed = false;
        // avail[k] = (field, reg): `reg` currently holds `ctxt[field]`.
        let mut avail: Vec<(FieldId, Reg)> = Vec::new();
        let kill_reg = |avail: &mut Vec<(FieldId, Reg)>, r: Reg| {
            avail.retain(|&(_, held)| held != r);
        };
        let kill_field = |avail: &mut Vec<(FieldId, Reg)>, f: FieldId| {
            avail.retain(|&(field, _)| field != f);
        };
        for i in 0..code.len() {
            if lead[i] {
                avail.clear();
            }
            match code[i] {
                Insn::LdCtxt { dst, field } => {
                    if let Some(&(_, held)) = avail.iter().find(|&&(f, _)| f == field) {
                        // The value is already in a register: forward
                        // it. A reload into the holding register
                        // becomes a self-move, which DeadCode removes.
                        code[i] = Insn::Mov { dst, src: held };
                        changed = true;
                        kill_reg(&mut avail, dst);
                        if held != dst {
                            avail.push((field, dst));
                        } else {
                            avail.push((field, held));
                        }
                    } else {
                        kill_reg(&mut avail, dst);
                        avail.push((field, dst));
                    }
                }
                Insn::StCtxt { field, src } => {
                    kill_field(&mut avail, field);
                    avail.push((field, src));
                }
                // Register definitions invalidate what they held.
                Insn::LdImm { dst, .. }
                | Insn::Mov { dst, .. }
                | Insn::Alu { dst, .. }
                | Insn::AluImm { dst, .. }
                | Insn::MapLookup { dst, .. }
                | Insn::ScalarVal { dst, .. }
                | Insn::DpAggregate { dst, .. } => kill_reg(&mut avail, dst),
                Insn::MapUpdate { .. } | Insn::MapDelete { .. } | Insn::Call { .. } => {
                    kill_reg(&mut avail, Reg(0));
                }
                Insn::CallMl { .. } => {
                    kill_reg(&mut avail, Reg(0));
                    kill_reg(&mut avail, Reg(1));
                }
                Insn::Jmp { .. }
                | Insn::JmpIf { .. }
                | Insn::JmpIfImm { .. }
                | Insn::VectorLdMap { .. }
                | Insn::VectorLdCtxt { .. }
                | Insn::VectorPush { .. }
                | Insn::VectorClear { .. }
                | Insn::MatMul { .. }
                | Insn::VecMap { .. }
                | Insn::Exit
                | Insn::TailCall { .. } => {}
            }
        }
        changed
    }
}

// ---------------------------------------------------------------------
// Dead-code elimination
// ---------------------------------------------------------------------

/// Global backward liveness over scalar and vector registers plus
/// per-block dead-store elimination for `StCtxt`.
pub struct DeadCode;

/// Liveness state: bit r of `regs` = scalar register r live, bit v of
/// `vregs` = vector register v live.
#[derive(Clone, Copy, PartialEq, Eq, Default)]
struct Live {
    regs: u16,
    vregs: u8,
}

impl Live {
    fn union(self, other: Live) -> Live {
        Live {
            regs: self.regs | other.regs,
            vregs: self.vregs | other.vregs,
        }
    }
    fn reg(&self, r: Reg) -> bool {
        self.regs & (1 << r.0.min(15)) != 0
    }
    fn vreg(&self, v: VReg) -> bool {
        self.vregs & (1 << v.0.min(7)) != 0
    }
    fn set_reg(&mut self, r: Reg) {
        self.regs |= 1 << r.0.min(15);
    }
    fn clear_reg(&mut self, r: Reg) {
        self.regs &= !(1 << r.0.min(15));
    }
    fn set_vreg(&mut self, v: VReg) {
        self.vregs |= 1 << v.0.min(7);
    }
    fn clear_vreg(&mut self, v: VReg) {
        self.vregs &= !(1 << v.0.min(7));
    }
}

impl DeadCode {
    /// Backward transfer: `live` is live-out, returns live-in.
    fn transfer(insn: &Insn, live: Live) -> Live {
        let mut l = live;
        match insn {
            Insn::LdImm { dst, .. } => l.clear_reg(*dst),
            Insn::Mov { dst, src } => {
                l.clear_reg(*dst);
                l.set_reg(*src);
            }
            Insn::LdCtxt { dst, .. } => l.clear_reg(*dst),
            Insn::StCtxt { src, .. } => l.set_reg(*src),
            Insn::Alu { dst, src, .. } => {
                // dst is both operand and destination.
                l.set_reg(*dst);
                l.set_reg(*src);
            }
            Insn::AluImm { dst, .. } => l.set_reg(*dst),
            Insn::Jmp { .. } => {}
            Insn::JmpIf { lhs, rhs, .. } => {
                l.set_reg(*lhs);
                l.set_reg(*rhs);
            }
            Insn::JmpIfImm { lhs, .. } => l.set_reg(*lhs),
            Insn::MapLookup { dst, key, .. } => {
                l.clear_reg(*dst);
                l.set_reg(*key);
            }
            Insn::MapUpdate { key, value, .. } => {
                l.clear_reg(Reg(0));
                l.set_reg(*key);
                l.set_reg(*value);
            }
            Insn::MapDelete { key, .. } => {
                l.clear_reg(Reg(0));
                l.set_reg(*key);
            }
            Insn::VectorLdMap { dst, .. } | Insn::VectorLdCtxt { dst, .. } => l.clear_vreg(*dst),
            Insn::VectorPush { dst, src } => {
                l.set_vreg(*dst);
                l.set_reg(*src);
            }
            Insn::VectorClear { dst } => l.clear_vreg(*dst),
            Insn::MatMul { dst, src, .. } => {
                l.clear_vreg(*dst);
                l.set_vreg(*src);
            }
            Insn::VecMap { dst, .. } => l.set_vreg(*dst),
            Insn::ScalarVal { dst, src, .. } => {
                l.clear_reg(*dst);
                l.set_vreg(*src);
            }
            Insn::CallMl { src, .. } => {
                l.clear_reg(Reg(0));
                l.clear_reg(Reg(1));
                l.set_vreg(*src);
            }
            Insn::Call { .. } => {
                // Helpers return in r0 and may read r2..r4.
                l.clear_reg(Reg(0));
                l.set_reg(Reg(2));
                l.set_reg(Reg(3));
                l.set_reg(Reg(4));
            }
            Insn::DpAggregate { dst, .. } => l.clear_reg(*dst),
            // The verdict is read from r0 at both exits.
            Insn::Exit | Insn::TailCall { .. } => {
                l = Live::default();
                l.set_reg(Reg(0));
            }
        }
        l
    }

    /// Whether removing this instruction is observable beyond its
    /// register definition. Side-effecting or possibly-faulting
    /// instructions stay: map ops (LRU lookups touch recency), vector
    /// pushes (capacity fault), `MatMul`/`VecMap`/`CallMl` (shape
    /// faults, guard counters), helpers and `DpAggregate` (RNG stream,
    /// effects, privacy ledger).
    fn pure_def(insn: &Insn) -> Option<PureDef> {
        match insn {
            Insn::LdImm { dst, .. }
            | Insn::Mov { dst, .. }
            | Insn::LdCtxt { dst, .. }
            | Insn::Alu { dst, .. }
            | Insn::AluImm { dst, .. }
            | Insn::ScalarVal { dst, .. } => Some(PureDef::Scalar(*dst)),
            Insn::VectorClear { dst } | Insn::VectorLdCtxt { dst, .. } => {
                Some(PureDef::Vector(*dst))
            }
            _ => None,
        }
    }
}

/// What a pure instruction defines (for dead-write removal).
enum PureDef {
    Scalar(Reg),
    Vector(VReg),
}

impl Pass for DeadCode {
    fn name(&self) -> &'static str {
        "dead-code"
    }

    fn run(&self, code: &mut Vec<Insn>) -> bool {
        if code.is_empty() {
            return false;
        }
        let n = code.len();
        // Backward liveness to fixpoint (handles back edges).
        let mut live_in = vec![Live::default(); n];
        loop {
            let mut stable = true;
            for i in (0..n).rev() {
                let insn = &code[i];
                let mut out = Live::default();
                if !insn.is_terminator() {
                    match insn {
                        Insn::Jmp { target } => {
                            if *target < n {
                                out = out.union(live_in[*target]);
                            }
                        }
                        Insn::JmpIf { target, .. } | Insn::JmpIfImm { target, .. } => {
                            if *target < n {
                                out = out.union(live_in[*target]);
                            }
                            if i + 1 < n {
                                out = out.union(live_in[i + 1]);
                            }
                        }
                        _ => {
                            if i + 1 < n {
                                out = out.union(live_in[i + 1]);
                            }
                        }
                    }
                }
                let inn = Self::transfer(insn, out);
                if inn != live_in[i] {
                    live_in[i] = inn;
                    stable = false;
                }
            }
            if stable {
                break;
            }
        }
        // live_out[i] recomputed from successors for the removal scan.
        let live_out = |i: usize| -> Live {
            let insn = &code[i];
            let mut out = Live::default();
            if !insn.is_terminator() {
                match insn {
                    Insn::Jmp { target } => {
                        if *target < n {
                            out = out.union(live_in[*target]);
                        }
                    }
                    Insn::JmpIf { target, .. } | Insn::JmpIfImm { target, .. } => {
                        if *target < n {
                            out = out.union(live_in[*target]);
                        }
                        if i + 1 < n {
                            out = out.union(live_in[i + 1]);
                        }
                    }
                    _ => {
                        if i + 1 < n {
                            out = out.union(live_in[i + 1]);
                        }
                    }
                }
            }
            out
        };
        let mut keep = vec![true; n];
        for i in 0..n {
            // A self-move is a no-op regardless of liveness.
            if let Insn::Mov { dst, src } = &code[i] {
                if dst == src {
                    keep[i] = false;
                    continue;
                }
            }
            if let Some(def) = DeadCode::pure_def(&code[i]) {
                let out = live_out(i);
                let dead = match def {
                    PureDef::Scalar(r) => !out.reg(r),
                    PureDef::Vector(v) => !out.vreg(v),
                };
                if dead {
                    keep[i] = false;
                }
            }
        }
        // Dead context stores: a StCtxt overwritten by another StCtxt
        // to the same field later in the same block, with no read of
        // that field (LdCtxt or a VectorLdCtxt window covering it) in
        // between. Stores that survive to the block end are observable
        // (at action exit, or by later blocks) and stay.
        let lead = leaders(code);
        for i in 0..n {
            let Insn::StCtxt { field, .. } = code[i] else {
                continue;
            };
            let mut j = i + 1;
            while j < n && !lead[j] {
                match code[j] {
                    Insn::StCtxt { field: f2, .. } if f2 == field => {
                        keep[i] = false;
                        break;
                    }
                    Insn::LdCtxt { field: f2, .. } if f2 == field => break,
                    Insn::VectorLdCtxt { base, len, .. }
                        if field.0 >= base.0 && (field.0 as u32) < base.0 as u32 + len as u32 =>
                    {
                        break;
                    }
                    ref insn if insn.is_terminator() || insn.jump_target().is_some() => break,
                    _ => {}
                }
                j += 1;
            }
        }
        compact(code, &keep)
    }
}

// ---------------------------------------------------------------------
// Branch folding and unreachable-code elimination
// ---------------------------------------------------------------------

/// Jump threading, jump-to-next removal, and unreachable-code
/// elimination with jump-target rewriting.
pub struct BranchFold;

impl BranchFold {
    /// Follows a chain of unconditional jumps from `start`, returning
    /// the final target. Cycle-guarded (a `Jmp` cycle is a verified
    /// back edge; threading stops rather than spinning).
    fn thread(code: &[Insn], start: usize) -> usize {
        let mut t = start;
        let mut hops = 0usize;
        while hops <= code.len() {
            match code.get(t) {
                Some(Insn::Jmp { target }) if *target != t => {
                    t = *target;
                    hops += 1;
                }
                _ => break,
            }
        }
        t
    }
}

impl Pass for BranchFold {
    fn name(&self) -> &'static str {
        "branch-fold"
    }

    fn run(&self, code: &mut Vec<Insn>) -> bool {
        let n = code.len();
        let mut changed = false;
        // 1. Jump threading against a snapshot of the original code,
        //    so rewrite order cannot matter. A jump that lands on a
        //    terminator becomes that terminator (Exit / TailCall are
        //    pure control, safe to duplicate).
        let snapshot = code.clone();
        for i in 0..n {
            let Some(t0) = snapshot[i].jump_target() else {
                continue;
            };
            let t = Self::thread(&snapshot, t0);
            match code[i] {
                Insn::Jmp { .. } => {
                    if let Some(term @ (Insn::Exit | Insn::TailCall { .. })) = snapshot.get(t) {
                        code[i] = term.clone();
                        changed = true;
                    } else if t != t0 {
                        code[i] = Insn::Jmp { target: t };
                        changed = true;
                    }
                }
                Insn::JmpIf { .. } | Insn::JmpIfImm { .. } if t != t0 => {
                    match &mut code[i] {
                        Insn::JmpIf { target, .. } | Insn::JmpIfImm { target, .. } => {
                            *target = t;
                        }
                        _ => unreachable!(),
                    }
                    changed = true;
                }
                _ => {}
            }
        }
        // 2. Jumps to the immediately following instruction are no-ops
        //    (comparisons are side-effect free).
        let mut keep = vec![true; n];
        for (i, insn) in code.iter().enumerate() {
            if let Some(t) = insn.jump_target() {
                if t == i + 1 {
                    keep[i] = false;
                }
            }
        }
        // 3. Unreachable-code elimination: forward reachability from
        //    instruction 0 over the post-threading CFG, treating
        //    removed jump-to-next instructions as fall-through.
        let mut reach = vec![false; n];
        let mut stack = vec![0usize];
        while let Some(i) = stack.pop() {
            if i >= n || reach[i] {
                continue;
            }
            reach[i] = true;
            let insn = &code[i];
            if !keep[i] {
                stack.push(i + 1);
                continue;
            }
            if insn.is_terminator() {
                continue;
            }
            match insn {
                Insn::Jmp { target } => stack.push(*target),
                Insn::JmpIf { target, .. } | Insn::JmpIfImm { target, .. } => {
                    stack.push(*target);
                    stack.push(i + 1);
                }
                _ => stack.push(i + 1),
            }
        }
        for i in 0..n {
            if !reach[i] {
                keep[i] = false;
            }
        }
        compact(code, &keep) || changed
    }
}

// ---------------------------------------------------------------------
// Tail-call match-chain fusion
// ---------------------------------------------------------------------

/// Hard cap on the number of chain links fused into one body. Mirrors
/// the verifier's static tail-chain bound (`MAX_TAIL_CHAIN`): a
/// verified chain can never be longer, so the cap is never the reason
/// a verified chain only partially fuses.
pub const MAX_FUSE_DEPTH: usize = 8;

/// Size budget for a fused body, measured before the post-splice
/// cleanup passes run. Fusion stops (keeping the chain fused so far)
/// rather than splice past this.
pub const MAX_FUSED_INSNS: usize = 384;

/// One statically resolved link of a fused chain: everything the
/// machine needs to synthesize the per-table bookkeeping (hit/miss
/// counters, tail-call counters, intermediate verdicts) the collapsed
/// chain no longer performs at run time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FusedStepPlan {
    /// The calling body's verdict (`r0`) at its tail-call site —
    /// provably constant, so the machine can emit the intermediate
    /// verdict the unfused chain would have pushed.
    pub caller_verdict: i64,
    /// The table the tail call cascaded into.
    pub table: u16,
    /// Resolved entry index at fusion time (`None` = miss/default
    /// path). Diagnostics only; validity is generation-stamped by the
    /// machine, not re-checked per fire.
    pub entry: Option<u32>,
    /// The action the resolved lookup dispatched (`None` = miss with
    /// no default: the chain ends after this table's bookkeeping).
    pub action: Option<u16>,
    /// The argument the resolved dispatch carried (an entry's `arg`,
    /// or 0 on the miss/default path). Together with `action` this is
    /// the dispatch identity baked into the fused body — the machine's
    /// cheap revalidation path compares it against a re-resolution
    /// after entry churn.
    pub arg: i64,
}

/// The result of fusing a tail-call chain rooted at one action.
#[derive(Clone, Debug)]
pub struct FusePlan {
    /// The fused, re-optimized body (caller + inlined callees).
    pub action: Action,
    /// The statically resolved links, in chain order.
    pub steps: Vec<FusedStepPlan>,
    /// Per step, the constant key the link's lookup resolved with —
    /// `None` when the table was empty at fusion time (resolved by
    /// emptiness, key irrelevant). Kept so the machine can re-resolve
    /// a mutated link against live entries and keep the compiled body
    /// when the dispatch it baked in is unchanged.
    pub step_keys: Vec<Option<Vec<u64>>>,
}

/// Whether a callee body may be inlined into a fused chain without
/// changing abort semantics. In the unfused chain a callee fault
/// aborts only the callee — the caller's verdict and effects already
/// landed. A fused body aborts as a whole, so callees containing
/// possibly-faulting instructions (vector capacity, tensor shape,
/// model arity, privacy-budget exhaustion) are not inlined. Fuel
/// exhaustion is excluded by construction: the machine only installs
/// a fused body whose re-verified worst case fits the chain's
/// combined budget.
fn fusable_callee(callee: &Action) -> bool {
    !callee.code.iter().any(|i| {
        matches!(
            i,
            Insn::VectorPush { .. }
                | Insn::MatMul { .. }
                | Insn::VecMap { .. }
                | Insn::CallMl { .. }
                | Insn::DpAggregate { .. }
        )
    })
}

/// The constant state just before instruction `site`.
fn cp_state_at(code: &[Insn], site: usize) -> Option<CpState> {
    let cfg = Cfg::build(code);
    let ins = cp_in_states(code, &cfg);
    let b = *cfg.block_of.get(site)?;
    let mut st = ins[b].clone()?;
    for insn in &code[cfg.starts[b]..site] {
        st.step(insn);
    }
    Some(st)
}

/// Splices `callee` into `cur` at the tail-call site: the `TailCall`
/// becomes a `Jmp` to an appended prologue that re-establishes the
/// callee's entry state (all scalar registers zeroed, the resolved
/// entry's `arg` in `r9`, all vector registers cleared — dead ones are
/// collected by the cleanup passes) followed by the callee body with
/// jump targets shifted. Loop bounds combine as the max: the verifier
/// re-derives the true worst case from the fused CFG.
fn splice(cur: &Action, site: usize, callee: &Action, arg: i64) -> Action {
    let mut code = cur.code.clone();
    code[site] = Insn::Jmp { target: code.len() };
    for r in 0..NUM_REGS {
        code.push(Insn::LdImm {
            dst: Reg(r),
            imm: if Reg(r) == ARG_REG { arg } else { 0 },
        });
    }
    for v in 0..NUM_VREGS {
        code.push(Insn::VectorClear { dst: VReg(v) });
    }
    let body_off = code.len();
    for insn in &callee.code {
        let mut insn = insn.clone();
        if let Insn::Jmp { target } | Insn::JmpIf { target, .. } | Insn::JmpIfImm { target, .. } =
            &mut insn
        {
            *target += body_off;
        }
        code.push(insn);
    }
    let loop_bound = match (cur.loop_bound, callee.loop_bound) {
        (None, None) => None,
        (a, b) => Some(a.unwrap_or(0).max(b.unwrap_or(0))),
    };
    Action {
        name: cur.name.clone(),
        code,
        loop_bound,
    }
}

/// Tail-call match-chain fusion: collapses a statically resolvable
/// match chain rooted at `action` into one body.
///
/// Per link, three conditions must hold on the optimized body so far:
/// the body has exactly one `TailCall` (post-optimization all code is
/// reachable), the caller's verdict `r0` at that site is provably
/// constant (so the machine can synthesize the intermediate verdict
/// the unfused chain would push), and the target table's lookup is
/// statically resolvable — the table is empty (miss/default path
/// regardless of key), or every key field was stored a provable
/// constant on the way to the call. A resolved hit inlines the
/// entry's action with the entry's `arg`; a resolved miss inlines the
/// default action (or terminates the chain with an `Exit` when there
/// is none). The fused body is re-optimized after every splice, which
/// is what folds the next link's key stores into resolvable
/// constants. Fusion stops at the first unresolvable link (the
/// trailing `TailCall` stays and the machine redirects at run time),
/// at a callee [`fusable_callee`] rejects, or at the depth/size
/// budget.
///
/// Resolution bakes the *current* table contents into code: the
/// caller owns invalidation. The machine stamps every plan with its
/// table generation and re-specializes on any ctrl mutation
/// (`InsertEntry` / `RemoveEntry` / `UpdateModel` / `SetOptLevel`);
/// a stale stamp falls back to the unfused body.
///
/// Returns `None` when nothing fused (no resolvable link).
pub fn fuse_chain(
    action: &Action,
    actions: &[Action],
    tables: &[Table],
    level: OptLevel,
) -> Option<FusePlan> {
    if level == OptLevel::O0 {
        return None;
    }
    // Optimization never introduces a `TailCall`, so a body without
    // one can never fuse — skip the pipeline run entirely. This keeps
    // re-specialization after ctrl churn from re-optimizing every
    // leaf action just to rediscover there is no chain to collapse.
    if !action
        .code
        .iter()
        .any(|i| matches!(i, Insn::TailCall { .. }))
    {
        return None;
    }
    let mut cur = optimize(action, level).action;
    let mut steps: Vec<FusedStepPlan> = Vec::new();
    let mut step_keys: Vec<Option<Vec<u64>>> = Vec::new();
    while steps.len() < MAX_FUSE_DEPTH {
        // Post-optimization all remaining code is reachable, so a
        // plain scan finds the live tail-call sites.
        let mut sites = cur
            .code
            .iter()
            .enumerate()
            .filter_map(|(i, insn)| match insn {
                Insn::TailCall { table } => Some((i, table.0 as usize)),
                _ => None,
            });
        let Some((site, ti)) = sites.next() else {
            break;
        };
        if sites.next().is_some() {
            break; // More than one live chain continuation.
        }
        let Some(st) = cp_state_at(&cur.code, site) else {
            break;
        };
        let Some(caller_verdict) = st.regs[0] else {
            break;
        };
        let Some(t) = tables.get(ti) else { break };
        // Resolve the lookup this tail call would perform.
        let (entry, dispatch, key) = if t.is_empty() {
            (None, t.def().default_action.map(|a| (a, 0i64)), None)
        } else {
            let mut key = Vec::with_capacity(t.def().key_fields.len());
            for f in &t.def().key_fields {
                match st.field_const(*f) {
                    Some(v) => key.push(v as u64),
                    None => break,
                }
            }
            if key.len() != t.def().key_fields.len() {
                break; // Key not statically known.
            }
            match t.resolve_indexed(&key) {
                Some((ei, e)) => (Some(ei as u32), Some((e.action, e.arg)), Some(key)),
                None => (None, t.def().default_action.map(|a| (a, 0i64)), Some(key)),
            }
        };
        match dispatch {
            None => {
                // Miss with no default: the chain ends. The tail call
                // still performed its table bookkeeping, then the
                // pipeline finished with the caller's verdict.
                let mut code = cur.code.clone();
                code[site] = Insn::Exit;
                steps.push(FusedStepPlan {
                    caller_verdict,
                    table: ti as u16,
                    entry,
                    action: None,
                    arg: 0,
                });
                step_keys.push(key);
                cur = optimize(
                    &Action {
                        name: cur.name.clone(),
                        code,
                        loop_bound: cur.loop_bound,
                    },
                    level,
                )
                .action;
                break;
            }
            Some((aid, arg)) => {
                let Some(callee) = actions.get(aid.0 as usize) else {
                    break;
                };
                if !fusable_callee(callee) {
                    break;
                }
                let spliced = splice(&cur, site, callee, arg);
                if spliced.code.len() > MAX_FUSED_INSNS {
                    break;
                }
                steps.push(FusedStepPlan {
                    caller_verdict,
                    table: ti as u16,
                    entry,
                    action: Some(aid.0),
                    arg,
                });
                step_keys.push(key);
                cur = optimize(&spliced, level).action;
            }
        }
    }
    if steps.is_empty() {
        None
    } else {
        Some(FusePlan {
            action: cur,
            steps,
            step_keys,
        })
    }
}

// ---------------------------------------------------------------------
// Optimizer statistics
// ---------------------------------------------------------------------

/// Cumulative per-program optimizer statistics, summed over a
/// program's action compiles and its chain-fusion outcome. Recomputed
/// from scratch when `SetOptLevel` recompiles; the fusion half is
/// refreshed on every re-specialization.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OptStats {
    /// Instructions across all action bodies before optimization.
    pub insns_before: u64,
    /// Instructions across all compiled bodies after optimization.
    pub insns_after: u64,
    /// Fixpoint rounds summed over all action compiles.
    pub rounds: u64,
    /// Compiles whose pass pipeline hit `MAX_FIXPOINT_ROUNDS` while
    /// still firing (converged silently-partially).
    pub fixpoint_cap_hits: u64,
    /// [`ConstFold`] firings.
    pub const_fold_fires: u64,
    /// [`GuardHoist`] firings.
    pub guard_hoist_fires: u64,
    /// [`Specialize`] firings.
    pub specialize_fires: u64,
    /// [`DeadCode`] firings.
    pub dead_code_fires: u64,
    /// [`BranchFold`] firings.
    pub branch_fold_fires: u64,
    /// Actions currently installed with a fused chain body.
    pub fused_chains: u64,
    /// Chain links collapsed across those fused bodies.
    pub fused_links: u64,
}

impl OptStats {
    /// Folds one action's pipeline report into the totals.
    pub fn record(&mut self, insns_before: usize, opt: &Optimized) {
        self.insns_before += insns_before as u64;
        self.insns_after += opt.action.code.len() as u64;
        self.rounds += opt.rounds as u64;
        if opt.capped {
            self.fixpoint_cap_hits += 1;
        }
        for name in &opt.fired {
            match *name {
                "const-fold" => self.const_fold_fires += 1,
                "guard-hoist" => self.guard_hoist_fires += 1,
                "specialize" => self.specialize_fires += 1,
                "dead-code" => self.dead_code_fires += 1,
                "branch-fold" => self.branch_fold_fires += 1,
                _ => {}
            }
        }
    }

    /// Saturating element-wise merge (cross-shard aggregation).
    pub fn merge(&mut self, other: &OptStats) {
        self.insns_before = self.insns_before.saturating_add(other.insns_before);
        self.insns_after = self.insns_after.saturating_add(other.insns_after);
        self.rounds = self.rounds.saturating_add(other.rounds);
        self.fixpoint_cap_hits = self
            .fixpoint_cap_hits
            .saturating_add(other.fixpoint_cap_hits);
        self.const_fold_fires = self.const_fold_fires.saturating_add(other.const_fold_fires);
        self.guard_hoist_fires = self
            .guard_hoist_fires
            .saturating_add(other.guard_hoist_fires);
        self.specialize_fires = self.specialize_fires.saturating_add(other.specialize_fires);
        self.dead_code_fires = self.dead_code_fires.saturating_add(other.dead_code_fires);
        self.branch_fold_fires = self
            .branch_fold_fires
            .saturating_add(other.branch_fold_fires);
        self.fused_chains = self.fused_chains.saturating_add(other.fused_chains);
        self.fused_links = self.fused_links.saturating_add(other.fused_links);
    }
}

rkd_testkit::impl_json_struct!(OptStats {
    insns_before,
    insns_after,
    rounds,
    fixpoint_cap_hits,
    const_fold_fires,
    guard_hoist_fires,
    specialize_fires,
    dead_code_fires,
    branch_fold_fires,
    fused_chains,
    fused_links
});

rkd_testkit::impl_json_unit_enum!(OptLevel { O0, O1, O2 });

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bytecode::AluOp;
    use crate::ctxt::Ctxt;
    use crate::dp::PrivacyLedger;
    use crate::interp::{run_action, ActionOutcome, ExecEnv};
    use crate::maps::{MapDef, MapInstance, MapKind};
    use crate::prog::{PrivacyPolicy, ProgramBuilder};
    use crate::table::MatchKind;
    use crate::verifier::{reverify_action, verify};
    use rkd_testkit::prop::Gen;
    use rkd_testkit::rng::{Rng, SeedableRng, SliceRandom, StdRng};

    const ALU_OPS: [AluOp; 12] = [
        AluOp::Add,
        AluOp::Sub,
        AluOp::Mul,
        AluOp::Div,
        AluOp::Mod,
        AluOp::And,
        AluOp::Or,
        AluOp::Xor,
        AluOp::Shl,
        AluOp::Shr,
        AluOp::Min,
        AluOp::Max,
    ];
    const CMP_OPS: [CmpOp; 6] = [
        CmpOp::Eq,
        CmpOp::Ne,
        CmpOp::Lt,
        CmpOp::Le,
        CmpOp::Gt,
        CmpOp::Ge,
    ];

    /// Random instruction from the safe subset the differential suites
    /// use, extended with context loads/stores so the specialization
    /// pass sees real traffic. Field 0 is readonly, field 1 scratch.
    fn gen_insn(g: &mut impl Rng) -> Insn {
        match g.gen_range(0u8..11) {
            0 => Insn::LdImm {
                dst: Reg(g.gen_range(0u8..8)),
                imm: g.gen_range(-1000i64..1000),
            },
            1 => Insn::Mov {
                dst: Reg(g.gen_range(0u8..8)),
                src: Reg(g.gen_range(0u8..8)),
            },
            2 => Insn::Alu {
                op: *ALU_OPS.choose(g).expect("nonempty"),
                dst: Reg(g.gen_range(0u8..8)),
                src: Reg(g.gen_range(0u8..8)),
            },
            3 => Insn::AluImm {
                op: *ALU_OPS.choose(g).expect("nonempty"),
                dst: Reg(g.gen_range(0u8..8)),
                imm: g.gen_range(-100i64..100),
            },
            4 => Insn::JmpIfImm {
                cmp: *CMP_OPS.choose(g).expect("nonempty"),
                lhs: Reg(g.gen_range(0u8..8)),
                imm: g.gen_range(-50i64..50),
                target: g.gen_range(0usize..64),
            },
            5 => Insn::MapUpdate {
                map: crate::maps::MapId(g.gen_range(0u16..2)),
                key: Reg(g.gen_range(0u8..8)),
                value: Reg(g.gen_range(0u8..8)),
            },
            6 => Insn::MapLookup {
                dst: Reg(g.gen_range(0u8..8)),
                map: crate::maps::MapId(g.gen_range(0u16..2)),
                key: Reg(g.gen_range(0u8..8)),
                default: g.gen_range(-5i64..5),
            },
            7 => Insn::VectorPush {
                dst: VReg(0),
                src: Reg(g.gen_range(0u8..8)),
            },
            8 => Insn::LdCtxt {
                dst: Reg(g.gen_range(0u8..8)),
                field: FieldId(g.gen_range(0u16..2)),
            },
            9 => Insn::StCtxt {
                field: FieldId(1),
                src: Reg(g.gen_range(0u8..8)),
            },
            _ => Insn::ScalarVal {
                dst: Reg(g.gen_range(0u8..8)),
                src: VReg(0),
                idx: g.gen_range(0u16..4),
            },
        }
    }

    /// Prologue-initialized, forward-jump-patched action (mirrors the
    /// integration harness in `tests/common`).
    fn make_action(raw: Vec<Insn>) -> Action {
        let mut code: Vec<Insn> = (0..8u8)
            .map(|r| Insn::LdImm {
                dst: Reg(r),
                imm: r as i64,
            })
            .collect();
        code.push(Insn::VectorClear { dst: VReg(0) });
        let body_start = code.len();
        let body_len = raw.len();
        for (i, mut insn) in raw.into_iter().enumerate() {
            if let Insn::JmpIfImm { target, .. } = &mut insn {
                let lo = i + 1;
                let span = (body_len - lo).max(1);
                *target = body_start + lo + (*target % span);
            }
            code.push(insn);
        }
        code.push(Insn::LdImm {
            dst: Reg(0),
            imm: 0,
        });
        code.push(Insn::Exit);
        Action::new("generated", code)
    }

    /// Routes a generated action through the real verifier; `None`
    /// when rejected (the properties only cover admitted programs).
    fn admit(action: &Action) -> Option<u64> {
        let mut b = ProgramBuilder::new("opt-prop");
        let ro = b.field_readonly("ro");
        b.field_scratch("scratch");
        b.map("h", MapKind::Hash, 32);
        b.map("r", MapKind::RingBuf, 8);
        let act = b.action(action.clone());
        b.table("t", "hook", &[ro], MatchKind::Exact, Some(act), 4);
        verify(b.build()).ok().map(|v| v.worst_case_insns()[0])
    }

    struct Fx {
        ctxt: Ctxt,
        maps: Vec<MapInstance>,
        rng: StdRng,
        ledger: PrivacyLedger,
    }

    impl Fx {
        fn new() -> Fx {
            let hash = MapInstance::new(&MapDef {
                name: "h".into(),
                kind: MapKind::Hash,
                capacity: 32,
                shared: false,
                per_cpu: false,
            })
            .unwrap();
            let ring = MapInstance::new(&MapDef {
                name: "r".into(),
                kind: MapKind::RingBuf,
                capacity: 8,
                shared: false,
                per_cpu: false,
            })
            .unwrap();
            Fx {
                ctxt: Ctxt::from_values(vec![7, 3]),
                maps: vec![hash, ring],
                rng: StdRng::seed_from_u64(99),
                ledger: PrivacyLedger::new(10_000),
            }
        }

        fn run(&mut self, action: &Action, fuel: u64, arg: i64) -> ActionOutcome {
            let tensors = Vec::new();
            let models = Vec::new();
            let mut env = ExecEnv {
                ctxt: &mut self.ctxt,
                maps: &mut self.maps,
                tensors: &tensors,
                models: &models,
                tick: 5,
                rng: &mut self.rng,
                ledger: &mut self.ledger,
                privacy: PrivacyPolicy::default(),
                ml_stats: &mut [],
                time_ml: false,
            };
            run_action(action, fuel, arg, &mut env).expect("admitted action terminates")
        }
    }

    /// Interprets `original` and `rewritten` on identical fixtures and
    /// asserts identical observable behaviour (the rewritten body may
    /// execute fewer instructions, never more).
    fn assert_same_semantics(original: &Action, rewritten: &Action, fuel: u64, arg: i64) {
        let mut fa = Fx::new();
        let a = fa.run(original, fuel, arg);
        let mut fb = Fx::new();
        let b = fb.run(rewritten, fuel, arg);
        assert_eq!(a.verdict, b.verdict, "verdict diverged");
        assert_eq!(a.effects, b.effects, "effects diverged");
        assert_eq!(a.tail_call, b.tail_call, "tail call diverged");
        assert_eq!(a.guard_trips, b.guard_trips, "guard trips diverged");
        assert!(
            b.insns_executed <= a.insns_executed,
            "optimization increased executed instructions ({} -> {})",
            a.insns_executed,
            b.insns_executed
        );
        assert_eq!(fa.ctxt, fb.ctxt, "context diverged");
        for (x, y) in fa.maps.iter_mut().zip(fb.maps.iter_mut()) {
            assert_eq!(
                x.aggregate_sum(),
                y.aggregate_sum(),
                "map contents diverged"
            );
            assert_eq!(x.len(), y.len(), "map size diverged");
        }
    }

    fn gen_admitted(g: &mut Gen) -> Option<(Action, u64, i64)> {
        let len = g.scaled_len(0, 48);
        let raw: Vec<_> = (0..len).map(|_| gen_insn(g)).collect();
        let arg = g.gen_range(-1000i64..1000);
        let action = make_action(raw);
        admit(&action).map(|fuel| (action, fuel, arg))
    }

    fn single_pass_preserves(g: &mut Gen, pass: &dyn Pass) {
        let Some((action, fuel, arg)) = gen_admitted(g) else {
            return;
        };
        let mut code = action.code.clone();
        pass.run(&mut code);
        assert!(code.len() <= action.code.len(), "pass grew the body");
        let rewritten = Action {
            name: action.name.clone(),
            code,
            loop_bound: action.loop_bound,
        };
        assert_same_semantics(&action, &rewritten, fuel, arg);
    }

    rkd_testkit::prop_check!(const_fold_preserves_semantics, cases = 256, |g| {
        single_pass_preserves(g, &ConstFold);
    });

    rkd_testkit::prop_check!(specialize_preserves_semantics, cases = 256, |g| {
        single_pass_preserves(g, &Specialize);
    });

    rkd_testkit::prop_check!(dead_code_preserves_semantics, cases = 256, |g| {
        single_pass_preserves(g, &DeadCode);
    });

    rkd_testkit::prop_check!(branch_fold_preserves_semantics, cases = 256, |g| {
        single_pass_preserves(g, &BranchFold);
    });

    rkd_testkit::prop_check!(pipeline_preserves_and_reverifies, cases = 256, |g| {
        let Some((action, fuel, arg)) = gen_admitted(g) else {
            return;
        };
        let opt = optimize(&action, OptLevel::O2);
        assert_same_semantics(&action, &opt.action, fuel, arg);
        // Meta-safety: pipeline output must re-pass the verifier.
        assert!(
            admit(&opt.action).is_some(),
            "optimized body failed re-verification"
        );
    });

    rkd_testkit::prop_check!(pipeline_is_idempotent, cases = 256, |g| {
        let Some((action, _, _)) = gen_admitted(g) else {
            return;
        };
        let once = optimize(&action, OptLevel::O2);
        let twice = optimize(&once.action, OptLevel::O2);
        assert!(
            twice.fired.is_empty(),
            "second pipeline run fired {:?}",
            twice.fired
        );
        assert_eq!(once.action.code, twice.action.code);
    });

    rkd_testkit::prop_check!(pipeline_reaches_fixpoint_within_bound, cases = 256, |g| {
        let Some((action, _, _)) = gen_admitted(g) else {
            return;
        };
        let opt = optimize(&action, OptLevel::O2);
        // The last round must be a clean no-change round strictly
        // inside the bound — hitting the bound means no fixpoint.
        assert!(
            opt.rounds < MAX_FIXPOINT_ROUNDS,
            "pipeline did not reach fixpoint in {} rounds",
            MAX_FIXPOINT_ROUNDS
        );
    });

    rkd_testkit::prop_check!(pipeline_never_grows_instruction_count, cases = 256, |g| {
        let Some((action, _, _)) = gen_admitted(g) else {
            return;
        };
        let opt = optimize(&action, OptLevel::O2);
        assert!(opt.action.code.len() <= action.code.len());
    });

    #[test]
    fn opt_levels_order_and_default() {
        assert_eq!(OptLevel::default(), OptLevel::O2);
        assert!(passes_for(OptLevel::O0).is_empty());
        assert_eq!(passes_for(OptLevel::O1).len(), 4);
        assert_eq!(passes_for(OptLevel::O2).len(), 5);
    }

    #[test]
    fn ctxt_writes_unions_store_targets() {
        let a = Action::new(
            "w",
            vec![
                Insn::LdImm {
                    dst: Reg(0),
                    imm: 1,
                },
                Insn::StCtxt {
                    field: FieldId(3),
                    src: Reg(0),
                },
                Insn::StCtxt {
                    field: FieldId(1),
                    src: Reg(0),
                },
                Insn::StCtxt {
                    field: FieldId(3),
                    src: Reg(0),
                },
                Insn::Exit,
            ],
        );
        assert_eq!(ctxt_writes(&a), vec![FieldId(3), FieldId(1)]);
    }

    #[test]
    fn loop_bound_and_back_edges_survive_optimization() {
        // A verified counting loop: the optimizer must preserve the
        // loop (r1 is live through the back edge) and its bound.
        let a = Action::with_loop_bound(
            "loop",
            vec![
                Insn::LdImm {
                    dst: Reg(0),
                    imm: 0,
                },
                Insn::LdImm {
                    dst: Reg(1),
                    imm: 10,
                },
                Insn::AluImm {
                    op: AluOp::Sub,
                    dst: Reg(1),
                    imm: 1,
                },
                Insn::AluImm {
                    op: AluOp::Add,
                    dst: Reg(0),
                    imm: 2,
                },
                Insn::JmpIfImm {
                    cmp: CmpOp::Gt,
                    lhs: Reg(1),
                    imm: 0,
                    target: 2,
                },
                Insn::Exit,
            ],
            16,
        );
        let fuel = admit(&a).expect("loop admits");
        let opt = optimize(&a, OptLevel::O2);
        assert_eq!(opt.action.loop_bound, Some(16));
        assert_same_semantics(&a, &opt.action, fuel, 0);
        let mut fx = Fx::new();
        assert_eq!(fx.run(&opt.action, fuel, 0).verdict, 20);
    }

    #[test]
    fn reverify_catches_broken_pass_output() {
        // A deliberately-broken pass that strips the terminator; the
        // re-verifier must reject its output (hard compile-time error
        // in the install path).
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
        let a = Action::new(
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
        let ro = b.field_readonly("ro");
        let act = b.action(a.clone());
        b.table("t", "hook", &[ro], MatchKind::Exact, Some(act), 4);
        let prog = b.build();
        let broken = optimize_with(&a, &[&StripExit], MAX_FIXPOINT_ROUNDS);
        assert!(reverify_action(0, &broken.action, &prog).is_err());
        // The honest pipeline's output re-verifies.
        let good = optimize(&a, OptLevel::O2);
        assert!(reverify_action(0, &good.action, &prog).is_ok());
    }

    rkd_testkit::prop_check!(guard_hoist_preserves_semantics, cases = 256, |g| {
        single_pass_preserves(g, &GuardHoist);
    });

    /// A deliberately non-convergent pass: forces `LdImm r7` to a fixed
    /// immediate. Two of these with different targets oscillate forever.
    struct FlipTo(i64);
    impl Pass for FlipTo {
        fn name(&self) -> &'static str {
            "flip"
        }
        fn run(&self, code: &mut Vec<Insn>) -> bool {
            let mut changed = false;
            for insn in code.iter_mut() {
                if let Insn::LdImm { dst: Reg(7), imm } = insn {
                    if *imm != self.0 {
                        *imm = self.0;
                        changed = true;
                    }
                }
            }
            changed
        }
    }

    /// Satellite: an oscillating pass pair burns the whole round budget
    /// without converging; the driver reports `capped` (surfaced as the
    /// `opt_fixpoint_cap_hits` counter) instead of looping forever. A
    /// convergent pipeline over the same body reports no cap.
    #[test]
    fn oscillating_passes_hit_the_round_cap_and_are_counted() {
        let a = Action::new(
            "osc",
            vec![
                Insn::LdImm {
                    dst: Reg(7),
                    imm: 0,
                },
                Insn::LdImm {
                    dst: Reg(0),
                    imm: 0,
                },
                Insn::Exit,
            ],
        );
        let opt = optimize_with(&a, &[&FlipTo(1), &FlipTo(0)], 6);
        assert_eq!(opt.rounds, 6, "every round must have fired a pass");
        assert!(opt.capped);
        let mut stats = OptStats::default();
        stats.record(a.code.len(), &opt);
        assert_eq!(stats.fixpoint_cap_hits, 1);
        let clean = optimize(&a, OptLevel::O2);
        assert!(!clean.capped, "convergent pipelines never report a cap");
        let mut cs = OptStats::default();
        cs.record(a.code.len(), &clean);
        assert_eq!(cs.fixpoint_cap_hits, 0);
    }

    fn fuse_table(name: &str, key: &[FieldId], default: Option<crate::table::ActionId>) -> Table {
        Table::new(crate::table::TableDef {
            name: name.into(),
            hook: "h".into(),
            key_fields: key.to_vec(),
            kind: MatchKind::Exact,
            default_action: default,
            max_entries: 8,
        })
    }

    /// Chain fixture for the planner tests: a0 stores `k := 3` and
    /// tail-calls t1 (keyed on `k`, one entry at 3 → a1); a1 tail-calls
    /// t2 (empty, default a2); a2 is the leaf.
    fn fuse_fixture() -> (Vec<Action>, Vec<Table>) {
        let k = FieldId(1);
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
                Insn::TailCall {
                    table: crate::table::TableId(1),
                },
            ],
        );
        let a1 = Action::new(
            "mid",
            vec![
                Insn::LdImm {
                    dst: Reg(0),
                    imm: 20,
                },
                Insn::TailCall {
                    table: crate::table::TableId(2),
                },
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
        let t0 = fuse_table("t0", &[FieldId(0)], Some(crate::table::ActionId(0)));
        let mut t1 = fuse_table("t1", &[k], None);
        t1.insert(crate::table::Entry {
            key: crate::table::MatchKey::Exact(vec![3]),
            priority: 0,
            action: crate::table::ActionId(1),
            arg: 5,
        })
        .unwrap();
        let t2 = fuse_table("t2", &[k], Some(crate::table::ActionId(2)));
        (vec![a0, a1, a2], vec![t0, t1, t2])
    }

    /// Tentpole planner contract: a statically resolvable chain fuses
    /// end to end — constant-folded key stores resolve keyed lookups,
    /// empty tables resolve to their default — and the fused body
    /// carries no live `TailCall`.
    #[test]
    fn fuse_chain_resolves_static_links() {
        let (actions, tables) = fuse_fixture();
        let plan = fuse_chain(&actions[0], &actions, &tables, OptLevel::O2)
            .expect("statically resolvable chain must fuse");
        assert_eq!(plan.steps.len(), 2);
        assert_eq!(plan.steps[0].caller_verdict, 10);
        assert_eq!(plan.steps[0].table, 1);
        assert_eq!(plan.steps[0].entry, Some(0), "keyed hit on entry 0");
        assert_eq!(plan.steps[0].action, Some(1));
        assert_eq!(plan.steps[1].caller_verdict, 20);
        assert_eq!(plan.steps[1].table, 2);
        assert_eq!(plan.steps[1].entry, None, "empty table resolves as miss");
        assert_eq!(plan.steps[1].action, Some(2));
        assert!(
            !plan
                .action
                .code
                .iter()
                .any(|i| matches!(i, Insn::TailCall { .. })),
            "fully fused body must not tail-call: {:?}",
            plan.action.code
        );
        assert!(fuse_chain(&actions[2], &actions, &tables, OptLevel::O2).is_none());
        assert!(
            fuse_chain(&actions[0], &actions, &tables, OptLevel::O0).is_none(),
            "O0 never fuses"
        );
    }

    /// A key that is not provably constant at the call site defeats
    /// fusion of that link (the planner must not guess), as does a
    /// model call in a callee (its guard bookkeeping cannot be
    /// synthesized).
    #[test]
    fn fuse_chain_rejects_runtime_keys() {
        let (mut actions, tables) = fuse_fixture();
        // Root now stores a runtime ctxt value into the key field.
        actions[0] = Action::new(
            "root",
            vec![
                Insn::LdCtxt {
                    dst: Reg(1),
                    field: FieldId(0),
                },
                Insn::StCtxt {
                    field: FieldId(1),
                    src: Reg(1),
                },
                Insn::LdImm {
                    dst: Reg(0),
                    imm: 10,
                },
                Insn::TailCall {
                    table: crate::table::TableId(1),
                },
            ],
        );
        assert!(
            fuse_chain(&actions[0], &actions, &tables, OptLevel::O2).is_none(),
            "runtime key into a populated table must defeat fusion"
        );
    }
}
