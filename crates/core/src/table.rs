//! Reconfigurable match/action tables.
//!
//! §3.1: "The key building block of an RMT program is a pipeline of
//! match/action tables. Each table represents a kernel hooking point …
//! Each table contains a set of match/action entries, which can be
//! statically encoded in the RMT program or dynamically inserted or
//! removed via an API at runtime."
//!
//! Tables support the match kinds RMT switch pipelines support: exact,
//! longest-prefix, range, and ternary (value/mask with priority).
//!
//! # Lookup engine
//!
//! Large tables never scan the entry vector. Each [`MatchKind`]
//! maintains an incremental index (updated on insert/remove, never
//! rebuilt):
//!
//! - **Exact** — one hash map from key values to the entry slot.
//! - **Lpm** — per-prefix-length strata, probed longest-first; each
//!   stratum is a hash map from the prefix bits to its entries
//!   (the classic software-router decomposition). The first stratum
//!   with a populated bucket wins, matching the linear scan's
//!   lexicographic (prefix_len, priority) preference.
//! - **Range** — non-overlapping single-component spans live in a
//!   `lo`-sorted vector answered by one binary search; overlapping or
//!   multi-component entries fall back to an overflow list kept in
//!   (priority desc, insertion asc) order so scans exit at the first
//!   match that cannot be beaten.
//! - **Ternary** — OVS-style tuple space: entries are grouped by mask,
//!   each group hashes `key & mask`, and groups are kept sorted by
//!   their best priority so the search exits once the current best
//!   match beats every remaining group.
//!
//! Small LPM and ternary tables skip their index: those probes pay a
//! hash per stratum / per mask group, and below
//! [`LINEAR_CUTOFF_LPM`] / [`LINEAR_CUTOFF_TERNARY`] entries a plain
//! scan over the entry vector is measurably cheaper (the crossover is
//! pinned by `bench_tables`). Exact and range indexes amortize to one
//! hash probe / one binary search and win at every size, so they
//! never fall back. The index is still maintained incrementally at
//! all sizes — dispatch is a per-lookup length check, so a table
//! crossing the cutoff in either direction just switches engines.
//!
//! The pre-index linear scan is retained as
//! [`Table::lookup_linear_ref`] — the differential-test oracle, the
//! benchmark baseline, and the small-table engine — and must stay
//! semantically identical:
//! LPM prefers the largest (prefix_len, priority) pair, range/ternary
//! the highest priority, and all ties break toward the earliest
//! inserted entry (tracked by a per-entry sequence number, since slots
//! are recycled with `swap_remove`).

use crate::ctxt::FieldId;
use crate::error::VmError;
use std::cell::Cell;
use std::collections::HashMap;

/// Largest LPM table (entry count, inclusive) served by the linear
/// scan instead of the per-prefix-length index. An indexed LPM probe
/// hashes once per populated stratum (~70 ns at any size); the scan
/// costs ~4 ns per entry, so the index only wins past ~18 entries —
/// `bench_tables` pins the crossover.
pub const LINEAR_CUTOFF_LPM: usize = 16;

/// Largest ternary table (entry count, inclusive) served by the
/// linear scan instead of the tuple-space index, which pays a hash
/// per mask group (~115 ns flat vs ~3.5 ns per scanned entry).
pub const LINEAR_CUTOFF_TERNARY: usize = 32;

/// Identifies a table within a program.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TableId(pub u16);

/// Identifies an action within a program.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ActionId(pub u16);

/// How a table matches its key fields.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum MatchKind {
    /// All key components must equal the entry's values.
    Exact,
    /// Single-component key matched by longest prefix (like routing
    /// tables; used for page-range and cgroup-subtree aggregates).
    Lpm,
    /// Each key component must fall within the entry's inclusive range.
    Range,
    /// Value/mask match with explicit priority (highest wins).
    Ternary,
}

/// An entry's match key, of the kind its table declares.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MatchKey {
    /// Exact values, one per key field.
    Exact(Vec<u64>),
    /// A prefix `value` of length `prefix_len` bits (MSB-first) over a
    /// single 64-bit key component.
    Lpm {
        /// Prefix value (only the top `prefix_len` bits are relevant).
        value: u64,
        /// Prefix length in bits, `0..=64`.
        prefix_len: u8,
    },
    /// Inclusive `(lo, hi)` per key component.
    Range(Vec<(u64, u64)>),
    /// Per-component `(value, mask)`; a component matches when
    /// `key & mask == value & mask`.
    Ternary(Vec<(u64, u64)>),
}

impl MatchKey {
    /// Number of key components this key covers.
    pub fn arity(&self) -> usize {
        match self {
            MatchKey::Exact(v) => v.len(),
            MatchKey::Lpm { .. } => 1,
            MatchKey::Range(v) => v.len(),
            MatchKey::Ternary(v) => v.len(),
        }
    }

    /// Whether this key's kind matches a table's [`MatchKind`].
    pub fn kind_matches(&self, kind: MatchKind) -> bool {
        matches!(
            (self, kind),
            (MatchKey::Exact(_), MatchKind::Exact)
                | (MatchKey::Lpm { .. }, MatchKind::Lpm)
                | (MatchKey::Range(_), MatchKind::Range)
                | (MatchKey::Ternary(_), MatchKind::Ternary)
        )
    }

    /// Tests the key against concrete key-field values.
    pub fn matches(&self, key: &[u64]) -> bool {
        match self {
            MatchKey::Exact(vals) => key == vals.as_slice(),
            MatchKey::Lpm { value, prefix_len } => {
                if key.len() != 1 {
                    return false;
                }
                if *prefix_len == 0 {
                    return true;
                }
                if *prefix_len > 64 {
                    return false;
                }
                let shift = 64 - *prefix_len as u32;
                (key[0] >> shift) == (*value >> shift)
            }
            MatchKey::Range(ranges) => {
                key.len() == ranges.len()
                    && key
                        .iter()
                        .zip(ranges.iter())
                        .all(|(k, (lo, hi))| k >= lo && k <= hi)
            }
            MatchKey::Ternary(parts) => {
                key.len() == parts.len()
                    && key
                        .iter()
                        .zip(parts.iter())
                        .all(|(k, (v, m))| k & m == v & m)
            }
        }
    }
}

/// One match/action entry.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Entry {
    /// The match key.
    pub key: MatchKey,
    /// Priority for ternary/range tables (higher wins; ignored for
    /// exact, where keys are unique; for LPM longer prefixes win first
    /// and priority breaks ties).
    pub priority: u32,
    /// Action invoked on match.
    pub action: ActionId,
    /// Opaque argument passed to the action in register `r9` (e.g. a
    /// per-entry model slot or aggressiveness level).
    pub arg: i64,
}

/// Static declaration of a table (shape only; entries are runtime
/// state owned by [`Table`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TableDef {
    /// Table name (e.g. `"page_prefetch_tab"`).
    pub name: String,
    /// The kernel hook point this table is installed at (e.g.
    /// `"swap_cluster_readahead"`). Matched by name against the hook
    /// registry of the embedding kernel.
    pub hook: String,
    /// Context fields forming the match key, in order.
    pub key_fields: Vec<FieldId>,
    /// The match kind.
    pub kind: MatchKind,
    /// Action to run when no entry matches (`None` = pipeline
    /// continues / no-op).
    pub default_action: Option<ActionId>,
    /// Capacity limit for runtime entries.
    pub max_entries: usize,
}

/// Hit/miss counters for one table.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TableStats {
    /// Lookups that matched an entry.
    pub hits: u64,
    /// Lookups that fell through to the default action.
    pub misses: u64,
}

/// Interior-mutable counters backing [`TableStats`]: lookups take
/// `&self`, so shared-read callers (the decision-cache replay path)
/// count without exclusive access.
#[derive(Clone, Debug, Default)]
struct StatCells {
    hits: Cell<u64>,
    misses: Cell<u64>,
}

/// The top `prefix_len` bits of `value`, right-aligned — the bucket
/// key within one LPM stratum (0 when `prefix_len` is 0, where the
/// single bucket matches everything).
#[inline]
fn lpm_bits(value: u64, prefix_len: u8) -> u64 {
    if prefix_len == 0 {
        0
    } else {
        value >> (64 - prefix_len as u32)
    }
}

/// Order-sensitive fingerprint of `key & mask`, the ternary bucket
/// key. Collisions are benign: bucket candidates are re-verified with
/// [`MatchKey::matches`].
#[inline]
fn masked_fingerprint(key: &[u64], mask: &[u64]) -> u64 {
    let mut h: u64 = 0x9E37_79B9_7F4A_7C15;
    for (k, m) in key.iter().zip(mask.iter()) {
        let mut x = (k & m).wrapping_add(h);
        x ^= x >> 30;
        x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x ^= x >> 27;
        x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^= x >> 31;
        h = h.rotate_left(5) ^ x;
    }
    h
}

/// One prefix-length stratum of the LPM index.
#[derive(Clone, Debug)]
struct LpmGroup {
    prefix_len: u8,
    /// Prefix bits -> entry slots holding that prefix, insertion order.
    buckets: HashMap<u64, Vec<usize>>,
}

/// Per-prefix-length LPM index, strata sorted by descending length so
/// the first populated bucket wins.
#[derive(Clone, Debug, Default)]
struct LpmIndex {
    groups: Vec<LpmGroup>,
}

/// A single-component span in the sorted range index.
#[derive(Clone, Copy, Debug)]
struct RangeSpan {
    lo: u64,
    hi: u64,
    idx: usize,
}

/// Range index: binary-searchable non-overlapping spans plus an
/// ordered overflow list for everything else.
#[derive(Clone, Debug, Default)]
struct RangeIndex {
    /// Non-overlapping arity-1 spans sorted by `lo` (which implies
    /// sorted by `hi` too); at most one span can contain a key.
    spans: Vec<RangeSpan>,
    /// Entries the span vector cannot hold (overlapping, empty
    /// `lo > hi`, or multi-component), in (priority desc, insertion
    /// asc) order for early exit. Entries are never promoted back into
    /// `spans` when an overlap disappears — a perf-only asymmetry.
    overflow: Vec<usize>,
}

/// One mask group of the ternary tuple space.
#[derive(Clone, Debug)]
struct TernaryGroup {
    mask: Vec<u64>,
    /// Highest priority present in the group, kept exact on removal so
    /// the early-exit bound is tight.
    max_priority: u32,
    /// Fingerprint of `value & mask` -> candidate entry slots.
    buckets: HashMap<u64, Vec<usize>>,
}

/// Ternary index, groups sorted by descending `max_priority`.
#[derive(Clone, Debug, Default)]
struct TernaryIndex {
    groups: Vec<TernaryGroup>,
}

/// The per-kind index structure backing [`Table`] lookups.
#[derive(Clone, Debug)]
enum KindIndex {
    Exact(HashMap<Vec<u64>, usize>),
    Lpm(LpmIndex),
    Range(RangeIndex),
    Ternary(TernaryIndex),
}

impl KindIndex {
    fn for_kind(kind: MatchKind) -> KindIndex {
        match kind {
            MatchKind::Exact => KindIndex::Exact(HashMap::new()),
            MatchKind::Lpm => KindIndex::Lpm(LpmIndex::default()),
            MatchKind::Range => KindIndex::Range(RangeIndex::default()),
            MatchKind::Ternary => KindIndex::Ternary(TernaryIndex::default()),
        }
    }
}

/// A table instance: definition plus runtime entries and their index.
#[derive(Clone, Debug)]
pub struct Table {
    def: TableDef,
    entries: Vec<Entry>,
    /// Insertion sequence per entry slot (parallel to `entries`):
    /// tie-breaks preserve the linear scan's first-inserted-wins
    /// semantics even though `swap_remove` recycles slots.
    seqs: Vec<u64>,
    next_seq: u64,
    index: KindIndex,
    stats: StatCells,
}

impl Table {
    /// Creates an empty table from a definition.
    pub fn new(def: TableDef) -> Table {
        let index = KindIndex::for_kind(def.kind);
        Table {
            def,
            entries: Vec::new(),
            seqs: Vec::new(),
            next_seq: 0,
            index,
            stats: StatCells::default(),
        }
    }

    /// The table definition.
    pub fn def(&self) -> &TableDef {
        &self.def
    }

    /// Current entry count.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` if the table has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Lookup statistics.
    pub fn stats(&self) -> TableStats {
        TableStats {
            hits: self.stats.hits.get(),
            misses: self.stats.misses.get(),
        }
    }

    /// Inserts an entry, validating kind, arity, and capacity.
    ///
    /// For exact tables an existing entry with the same key is
    /// replaced (the control plane's "modify" operation), keeping its
    /// slot and insertion order.
    pub fn insert(&mut self, entry: Entry) -> Result<(), VmError> {
        if !entry.key.kind_matches(self.def.kind) {
            return Err(VmError::BadEntry(format!(
                "table {}: key kind does not match {:?}",
                self.def.name, self.def.kind
            )));
        }
        if entry.key.arity() != self.def.key_fields.len() {
            return Err(VmError::BadEntry(format!(
                "table {}: key arity {} != {}",
                self.def.name,
                entry.key.arity(),
                self.def.key_fields.len()
            )));
        }
        if let MatchKey::Lpm { prefix_len, .. } = entry.key {
            if prefix_len > 64 {
                return Err(VmError::BadEntry(format!(
                    "table {}: prefix_len {prefix_len} > 64",
                    self.def.name
                )));
            }
        }
        if let (KindIndex::Exact(map), MatchKey::Exact(k)) = (&self.index, &entry.key) {
            if let Some(&i) = map.get(k) {
                self.entries[i] = entry;
                return Ok(());
            }
        }
        if self.entries.len() >= self.def.max_entries {
            return Err(VmError::TableFull(0));
        }
        let idx = self.entries.len();
        Self::index_insert(&mut self.index, &self.entries, idx, &entry);
        self.entries.push(entry);
        self.seqs.push(self.next_seq);
        self.next_seq += 1;
        Ok(())
    }

    /// Removes the first-inserted entry whose key equals `key`;
    /// returns whether anything was removed. The index locates the
    /// entry and is patched in place — no rebuild.
    pub fn remove(&mut self, key: &MatchKey) -> bool {
        match self.find_first(key) {
            Some(pos) => {
                self.remove_at(pos);
                true
            }
            None => false,
        }
    }

    /// Removes all entries.
    pub fn clear(&mut self) {
        self.entries.clear();
        self.seqs.clear();
        self.index = KindIndex::for_kind(self.def.kind);
    }

    /// Looks up the best-matching entry for concrete key values,
    /// updating hit/miss statistics.
    ///
    /// Selection: exact uses the hash index; LPM prefers the longest
    /// prefix; range/ternary prefer the highest priority (ties broken
    /// by insertion order).
    pub fn lookup(&self, key: &[u64]) -> Option<&Entry> {
        self.lookup_indexed(key).map(|(_, e)| e)
    }

    /// [`Table::lookup`] variant that also reports the matched entry's
    /// current slot (memoized by the machine's decision cache).
    pub fn lookup_indexed(&self, key: &[u64]) -> Option<(usize, &Entry)> {
        match self.lookup_index(key) {
            Some(i) => {
                self.note_hit();
                Some((i, &self.entries[i]))
            }
            None => {
                self.note_miss();
                None
            }
        }
    }

    /// Shared-read lookup; counts stats like [`Table::lookup`] now
    /// that the counters are interior-mutable (used by tests).
    pub fn peek(&self, key: &[u64]) -> Option<&Entry> {
        self.lookup(key)
    }

    /// [`Table::lookup_indexed`] without touching the hit/miss
    /// counters: the compile-time resolution path (tail-call chain
    /// fusion) uses this, so only real fires show up in
    /// [`TableStats`] — the machine synthesizes the per-fire counts
    /// for fused steps via [`Table::note_hit`] / [`Table::note_miss`].
    pub fn resolve_indexed(&self, key: &[u64]) -> Option<(usize, &Entry)> {
        self.lookup_index(key).map(|i| (i, &self.entries[i]))
    }

    /// Records a hit resolved outside [`Table::lookup`] (decision-cache
    /// replay), keeping [`TableStats`] faithful to the fired workload.
    pub(crate) fn note_hit(&self) {
        self.stats.hits.set(self.stats.hits.get() + 1);
    }

    /// Records a miss resolved outside [`Table::lookup`].
    pub(crate) fn note_miss(&self) {
        self.stats.misses.set(self.stats.misses.get() + 1);
    }

    /// Reference linear scan with semantics identical to the indexed
    /// engine: the differential-test oracle, the benchmark baseline,
    /// and (below the per-kind [`LINEAR_CUTOFF_LPM`] /
    /// [`LINEAR_CUTOFF_TERNARY`] thresholds) the live small-table
    /// engine. Does not update stats.
    pub fn lookup_linear_ref(&self, key: &[u64]) -> Option<&Entry> {
        self.lookup_linear_index(key).map(|i| &self.entries[i])
    }

    /// The linear scan, reporting the winning entry's slot (the
    /// decision cache memoizes slots, so the small-table path must
    /// agree with the index down to the index value).
    fn lookup_linear_index(&self, key: &[u64]) -> Option<usize> {
        match self.def.kind {
            MatchKind::Exact => self.entries.iter().position(|e| e.key.matches(key)),
            MatchKind::Lpm => {
                let mut best: Option<usize> = None;
                for (i, e) in self.entries.iter().enumerate() {
                    let MatchKey::Lpm { prefix_len, .. } = e.key else {
                        continue;
                    };
                    if !e.key.matches(key) {
                        continue;
                    }
                    best = Some(match best {
                        Some(b) => {
                            let rank = |j: usize, len: u8| (len, self.entries[j].priority);
                            let (bl, _) = match self.entries[b].key {
                                MatchKey::Lpm { prefix_len, .. } => (prefix_len, 0),
                                _ => (0, 0),
                            };
                            if rank(i, prefix_len) > rank(b, bl)
                                || (rank(i, prefix_len) == rank(b, bl)
                                    && self.seqs[i] < self.seqs[b])
                            {
                                i
                            } else {
                                b
                            }
                        }
                        None => i,
                    });
                }
                best
            }
            MatchKind::Range | MatchKind::Ternary => {
                let mut best: Option<usize> = None;
                for (i, e) in self.entries.iter().enumerate() {
                    if !e.key.matches(key) {
                        continue;
                    }
                    best = Some(match best {
                        Some(b)
                            if self.entries[b].priority > e.priority
                                || (self.entries[b].priority == e.priority
                                    && self.seqs[b] < self.seqs[i]) =>
                        {
                            b
                        }
                        _ => i,
                    });
                }
                best
            }
        }
    }

    /// All entries (read-only; for control-plane dumps). Order is not
    /// insertion order — removal recycles slots.
    pub fn entries(&self) -> &[Entry] {
        &self.entries
    }

    /// All entries cloned in **insertion order** (ascending seq) — the
    /// snapshot serialization order. Re-inserting these into a fresh
    /// table reproduces the original first-inserted-wins tie-break
    /// ranking exactly, even though slot indices were shuffled by
    /// `swap_remove`, because re-insertion assigns fresh ascending
    /// seqs in the same relative order.
    pub fn entries_in_insertion_order(&self) -> Vec<Entry> {
        let mut order: Vec<usize> = (0..self.entries.len()).collect();
        order.sort_by_key(|&i| self.seqs[i]);
        order.into_iter().map(|i| self.entries[i].clone()).collect()
    }

    /// Overwrites the hit/miss counters (machine restore: a recovered
    /// table continues counting where the snapshotted one stopped).
    pub fn restore_stats(&mut self, stats: TableStats) {
        self.stats.hits.set(stats.hits);
        self.stats.misses.set(stats.misses);
    }

    /// `(priority, seq)` candidate `b` beats candidate `a`?
    #[inline]
    fn beats(&self, a: usize, b: usize) -> bool {
        self.entries[b].priority > self.entries[a].priority
            || (self.entries[b].priority == self.entries[a].priority && self.seqs[b] < self.seqs[a])
    }

    /// Whether this lookup should bypass the index: small LPM and
    /// ternary tables scan faster than they hash (see the module docs
    /// and the per-kind cutoffs). The index stays maintained either
    /// way, so this is a pure per-lookup dispatch.
    #[inline]
    fn linear_preferred(&self) -> bool {
        match self.def.kind {
            MatchKind::Exact | MatchKind::Range => false,
            MatchKind::Lpm => self.entries.len() <= LINEAR_CUTOFF_LPM,
            MatchKind::Ternary => self.entries.len() <= LINEAR_CUTOFF_TERNARY,
        }
    }

    /// [`Table::lookup`] forced through the index even below the
    /// small-table cutoffs. Benchmarks and differential tests use
    /// this to pin the crossover and to keep exercising the index on
    /// small tables; it counts stats like [`Table::lookup`].
    pub fn lookup_via_index(&self, key: &[u64]) -> Option<&Entry> {
        match self.index_walk(key) {
            Some(i) => {
                self.note_hit();
                Some(&self.entries[i])
            }
            None => {
                self.note_miss();
                None
            }
        }
    }

    fn lookup_index(&self, key: &[u64]) -> Option<usize> {
        if self.linear_preferred() {
            return self.lookup_linear_index(key);
        }
        self.index_walk(key)
    }

    fn index_walk(&self, key: &[u64]) -> Option<usize> {
        match &self.index {
            KindIndex::Exact(map) => map.get(key).copied(),
            KindIndex::Lpm(ix) => {
                if key.len() != 1 {
                    return None;
                }
                for g in &ix.groups {
                    let Some(bucket) = g.buckets.get(&lpm_bits(key[0], g.prefix_len)) else {
                        continue;
                    };
                    // Longest stratum with a populated bucket wins;
                    // within it, highest priority then earliest insert.
                    let mut best: Option<usize> = None;
                    for &i in bucket {
                        match best {
                            Some(b) if !self.beats(b, i) => {}
                            _ => best = Some(i),
                        }
                    }
                    if best.is_some() {
                        return best;
                    }
                }
                None
            }
            KindIndex::Range(ix) => {
                let mut best: Option<usize> = None;
                if key.len() == 1 {
                    let p = ix.spans.partition_point(|s| s.lo <= key[0]);
                    if p > 0 && ix.spans[p - 1].hi >= key[0] {
                        best = Some(ix.spans[p - 1].idx);
                    }
                }
                // Overflow is (priority desc, seq asc): stop as soon
                // as the remaining entries cannot beat the best.
                for &i in &ix.overflow {
                    if let Some(b) = best {
                        if !self.beats(b, i) && self.entries[i].priority <= self.entries[b].priority
                        {
                            // i and everything after it loses to b.
                            if self.entries[i].priority < self.entries[b].priority
                                || self.seqs[i] > self.seqs[b]
                            {
                                break;
                            }
                        }
                    }
                    if self.entries[i].key.matches(key) {
                        match best {
                            Some(b) if !self.beats(b, i) => {}
                            _ => best = Some(i),
                        }
                        // First overflow match dominates the rest of
                        // the (sorted) overflow list.
                        break;
                    }
                }
                best
            }
            KindIndex::Ternary(ix) => {
                let mut best: Option<usize> = None;
                for g in &ix.groups {
                    if let Some(b) = best {
                        // Groups are sorted by max_priority desc; a
                        // strictly-better best ends the search. Equal
                        // priorities must continue for seq tie-breaks.
                        if self.entries[b].priority > g.max_priority {
                            break;
                        }
                    }
                    if g.mask.len() != key.len() {
                        continue;
                    }
                    let Some(bucket) = g.buckets.get(&masked_fingerprint(key, &g.mask)) else {
                        continue;
                    };
                    for &i in bucket {
                        if !self.entries[i].key.matches(key) {
                            continue; // Fingerprint collision.
                        }
                        match best {
                            Some(b) if !self.beats(b, i) => {}
                            _ => best = Some(i),
                        }
                    }
                }
                best
            }
        }
    }

    /// Locates the first-inserted entry with exactly this key.
    fn find_first(&self, key: &MatchKey) -> Option<usize> {
        match (&self.index, key) {
            (KindIndex::Exact(map), MatchKey::Exact(k)) => map.get(k).copied(),
            (KindIndex::Lpm(ix), MatchKey::Lpm { value, prefix_len }) => {
                let g = ix.groups.iter().find(|g| g.prefix_len == *prefix_len)?;
                let bucket = g.buckets.get(&lpm_bits(*value, *prefix_len))?;
                bucket
                    .iter()
                    .copied()
                    .filter(|&i| self.entries[i].key == *key)
                    .min_by_key(|&i| self.seqs[i])
            }
            (KindIndex::Range(ix), MatchKey::Range(ranges)) => {
                let mut cands: Vec<usize> = Vec::new();
                if let [(lo, _)] = ranges.as_slice() {
                    let p = ix.spans.partition_point(|s| s.lo < *lo);
                    if let Some(s) = ix.spans.get(p) {
                        if s.lo == *lo && self.entries[s.idx].key == *key {
                            cands.push(s.idx);
                        }
                    }
                }
                cands.extend(
                    ix.overflow
                        .iter()
                        .copied()
                        .filter(|&i| self.entries[i].key == *key),
                );
                cands.into_iter().min_by_key(|&i| self.seqs[i])
            }
            (KindIndex::Ternary(ix), MatchKey::Ternary(parts)) => {
                let mask: Vec<u64> = parts.iter().map(|&(_, m)| m).collect();
                let vals: Vec<u64> = parts.iter().map(|&(v, _)| v).collect();
                let g = ix.groups.iter().find(|g| g.mask == mask)?;
                let bucket = g.buckets.get(&masked_fingerprint(&vals, &mask))?;
                bucket
                    .iter()
                    .copied()
                    .filter(|&i| self.entries[i].key == *key)
                    .min_by_key(|&i| self.seqs[i])
            }
            // Key kind differs from the table kind: nothing to find.
            _ => None,
        }
    }

    /// Removes the entry in slot `pos`: unindex it, `swap_remove` it,
    /// and repoint the index at the entry that moved into its slot.
    fn remove_at(&mut self, pos: usize) {
        let last = self.entries.len() - 1;
        Self::index_remove(&mut self.index, &self.entries, pos);
        if pos != last {
            Self::index_relocate(&mut self.index, &self.entries, last, pos);
        }
        self.entries.swap_remove(pos);
        self.seqs.swap_remove(pos);
    }

    fn index_insert(index: &mut KindIndex, entries: &[Entry], idx: usize, entry: &Entry) {
        match (index, &entry.key) {
            (KindIndex::Exact(map), MatchKey::Exact(k)) => {
                map.insert(k.clone(), idx);
            }
            (KindIndex::Lpm(ix), MatchKey::Lpm { value, prefix_len }) => {
                let bits = lpm_bits(*value, *prefix_len);
                let pos = ix.groups.partition_point(|g| g.prefix_len > *prefix_len);
                match ix.groups.get_mut(pos) {
                    Some(g) if g.prefix_len == *prefix_len => {
                        g.buckets.entry(bits).or_default().push(idx);
                    }
                    _ => {
                        let mut buckets = HashMap::new();
                        buckets.insert(bits, vec![idx]);
                        ix.groups.insert(
                            pos,
                            LpmGroup {
                                prefix_len: *prefix_len,
                                buckets,
                            },
                        );
                    }
                }
            }
            (KindIndex::Range(ix), MatchKey::Range(ranges)) => {
                if let [(lo, hi)] = ranges.as_slice() {
                    if lo <= hi && !Self::span_overlaps(&ix.spans, *lo, *hi) {
                        let p = ix.spans.partition_point(|s| s.lo < *lo);
                        ix.spans.insert(
                            p,
                            RangeSpan {
                                lo: *lo,
                                hi: *hi,
                                idx,
                            },
                        );
                        return;
                    }
                }
                // New entries carry the largest seq, so among equal
                // priorities they slot in last.
                let p = ix
                    .overflow
                    .partition_point(|&i| entries[i].priority >= entry.priority);
                ix.overflow.insert(p, idx);
            }
            (KindIndex::Ternary(ix), MatchKey::Ternary(parts)) => {
                let mask: Vec<u64> = parts.iter().map(|&(_, m)| m).collect();
                let vals: Vec<u64> = parts.iter().map(|&(v, _)| v).collect();
                let fp = masked_fingerprint(&vals, &mask);
                if let Some(gp) = ix.groups.iter().position(|g| g.mask == mask) {
                    let g = &mut ix.groups[gp];
                    g.buckets.entry(fp).or_default().push(idx);
                    if entry.priority > g.max_priority {
                        g.max_priority = entry.priority;
                        ix.groups.sort_by_key(|g| std::cmp::Reverse(g.max_priority));
                    }
                } else {
                    let p = ix
                        .groups
                        .partition_point(|g| g.max_priority >= entry.priority);
                    let mut buckets = HashMap::new();
                    buckets.insert(fp, vec![idx]);
                    ix.groups.insert(
                        p,
                        TernaryGroup {
                            mask,
                            max_priority: entry.priority,
                            buckets,
                        },
                    );
                }
            }
            _ => unreachable!("entry kind validated against table kind"),
        }
    }

    /// Whether `[lo, hi]` intersects any indexed span. Spans are
    /// non-overlapping and sorted, so only the rightmost span starting
    /// at or before `hi` can intersect.
    fn span_overlaps(spans: &[RangeSpan], lo: u64, hi: u64) -> bool {
        let p = spans.partition_point(|s| s.lo <= hi);
        p > 0 && spans[p - 1].hi >= lo
    }

    /// Drops slot `pos` from the index (entry still present in
    /// `entries`).
    fn index_remove(index: &mut KindIndex, entries: &[Entry], pos: usize) {
        match (index, &entries[pos].key) {
            (KindIndex::Exact(map), MatchKey::Exact(k)) => {
                map.remove(k);
            }
            (KindIndex::Lpm(ix), MatchKey::Lpm { value, prefix_len }) => {
                let gp = ix
                    .groups
                    .iter()
                    .position(|g| g.prefix_len == *prefix_len)
                    .expect("indexed entry has a stratum");
                let bits = lpm_bits(*value, *prefix_len);
                let g = &mut ix.groups[gp];
                let bucket = g
                    .buckets
                    .get_mut(&bits)
                    .expect("indexed entry has a bucket");
                bucket.retain(|&i| i != pos);
                if bucket.is_empty() {
                    g.buckets.remove(&bits);
                }
                if g.buckets.is_empty() {
                    ix.groups.remove(gp);
                }
            }
            (KindIndex::Range(ix), MatchKey::Range(ranges)) => {
                let mut in_spans = false;
                if let [(lo, _)] = ranges.as_slice() {
                    let p = ix.spans.partition_point(|s| s.lo < *lo);
                    if ix.spans.get(p).is_some_and(|s| s.lo == *lo && s.idx == pos) {
                        ix.spans.remove(p);
                        in_spans = true;
                    }
                }
                if !in_spans {
                    ix.overflow.retain(|&i| i != pos);
                }
            }
            (KindIndex::Ternary(ix), MatchKey::Ternary(parts)) => {
                let mask: Vec<u64> = parts.iter().map(|&(_, m)| m).collect();
                let vals: Vec<u64> = parts.iter().map(|&(v, _)| v).collect();
                let fp = masked_fingerprint(&vals, &mask);
                let gp = ix
                    .groups
                    .iter()
                    .position(|g| g.mask == mask)
                    .expect("indexed entry has a group");
                {
                    let g = &mut ix.groups[gp];
                    let bucket = g.buckets.get_mut(&fp).expect("indexed entry has a bucket");
                    bucket.retain(|&i| i != pos);
                    if bucket.is_empty() {
                        g.buckets.remove(&fp);
                    }
                }
                if ix.groups[gp].buckets.is_empty() {
                    ix.groups.remove(gp);
                } else if entries[pos].priority == ix.groups[gp].max_priority {
                    // The group may have lost its best entry; keep the
                    // early-exit bound exact.
                    let m = ix.groups[gp]
                        .buckets
                        .values()
                        .flatten()
                        .map(|&i| entries[i].priority)
                        .max()
                        .unwrap_or(0);
                    if m != ix.groups[gp].max_priority {
                        ix.groups[gp].max_priority = m;
                        ix.groups.sort_by_key(|g| std::cmp::Reverse(g.max_priority));
                    }
                }
            }
            _ => unreachable!("entry kind validated against table kind"),
        }
    }

    /// Repoints the index reference for the entry currently in slot
    /// `from` (about to be swapped into slot `to`).
    fn index_relocate(index: &mut KindIndex, entries: &[Entry], from: usize, to: usize) {
        match (index, &entries[from].key) {
            (KindIndex::Exact(map), MatchKey::Exact(k)) => {
                if let Some(slot) = map.get_mut(k) {
                    *slot = to;
                }
            }
            (KindIndex::Lpm(ix), MatchKey::Lpm { value, prefix_len }) => {
                if let Some(g) = ix.groups.iter_mut().find(|g| g.prefix_len == *prefix_len) {
                    if let Some(bucket) = g.buckets.get_mut(&lpm_bits(*value, *prefix_len)) {
                        for i in bucket.iter_mut() {
                            if *i == from {
                                *i = to;
                            }
                        }
                    }
                }
            }
            (KindIndex::Range(ix), MatchKey::Range(ranges)) => {
                if let [(lo, _)] = ranges.as_slice() {
                    let p = ix.spans.partition_point(|s| s.lo < *lo);
                    if let Some(s) = ix.spans.get_mut(p) {
                        if s.lo == *lo && s.idx == from {
                            s.idx = to;
                            return;
                        }
                    }
                }
                for i in ix.overflow.iter_mut() {
                    if *i == from {
                        *i = to;
                    }
                }
            }
            (KindIndex::Ternary(ix), MatchKey::Ternary(parts)) => {
                let mask: Vec<u64> = parts.iter().map(|&(_, m)| m).collect();
                let vals: Vec<u64> = parts.iter().map(|&(v, _)| v).collect();
                let fp = masked_fingerprint(&vals, &mask);
                if let Some(g) = ix.groups.iter_mut().find(|g| g.mask == mask) {
                    if let Some(bucket) = g.buckets.get_mut(&fp) {
                        for i in bucket.iter_mut() {
                            if *i == from {
                                *i = to;
                            }
                        }
                    }
                }
            }
            _ => unreachable!("entry kind validated against table kind"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn def(kind: MatchKind, arity: usize) -> TableDef {
        TableDef {
            name: "t".into(),
            hook: "h".into(),
            key_fields: (0..arity as u16).map(FieldId).collect(),
            kind,
            default_action: None,
            max_entries: 8,
        }
    }

    fn def_cap(kind: MatchKind, arity: usize, cap: usize) -> TableDef {
        TableDef {
            max_entries: cap,
            ..def(kind, arity)
        }
    }

    fn entry(key: MatchKey, priority: u32, action: u16) -> Entry {
        Entry {
            key,
            priority,
            action: ActionId(action),
            arg: 0,
        }
    }

    #[test]
    fn exact_match_and_replace() {
        let mut t = Table::new(def(MatchKind::Exact, 2));
        t.insert(entry(MatchKey::Exact(vec![1, 2]), 0, 1)).unwrap();
        assert_eq!(t.lookup(&[1, 2]).unwrap().action, ActionId(1));
        assert!(t.lookup(&[1, 3]).is_none());
        // Same key replaces, not duplicates.
        t.insert(entry(MatchKey::Exact(vec![1, 2]), 0, 7)).unwrap();
        assert_eq!(t.len(), 1);
        assert_eq!(t.lookup(&[1, 2]).unwrap().action, ActionId(7));
        assert_eq!(t.stats().hits, 2);
        assert_eq!(t.stats().misses, 1);
    }

    #[test]
    fn kind_and_arity_validation() {
        let mut t = Table::new(def(MatchKind::Exact, 2));
        assert!(matches!(
            t.insert(entry(MatchKey::Exact(vec![1]), 0, 0)),
            Err(VmError::BadEntry(_))
        ));
        assert!(matches!(
            t.insert(entry(MatchKey::Range(vec![(0, 1), (0, 1)]), 0, 0)),
            Err(VmError::BadEntry(_))
        ));
        let mut l = Table::new(def(MatchKind::Lpm, 1));
        assert!(l
            .insert(entry(
                MatchKey::Lpm {
                    value: 0,
                    prefix_len: 65
                },
                0,
                0
            ))
            .is_err());
    }

    #[test]
    fn capacity_limit() {
        let mut t = Table::new(def(MatchKind::Exact, 1));
        for i in 0..8 {
            t.insert(entry(MatchKey::Exact(vec![i]), 0, 0)).unwrap();
        }
        assert!(matches!(
            t.insert(entry(MatchKey::Exact(vec![99]), 0, 0)),
            Err(VmError::TableFull(_))
        ));
        // Replacement still allowed at capacity.
        t.insert(entry(MatchKey::Exact(vec![3]), 0, 5)).unwrap();
    }

    #[test]
    fn lpm_longest_prefix_wins() {
        let mut t = Table::new(def(MatchKind::Lpm, 1));
        let key = 0xAB00_0000_0000_0000u64;
        t.insert(entry(
            MatchKey::Lpm {
                value: 0xA000_0000_0000_0000,
                prefix_len: 4,
            },
            0,
            1,
        ))
        .unwrap();
        t.insert(entry(
            MatchKey::Lpm {
                value: 0xAB00_0000_0000_0000,
                prefix_len: 8,
            },
            0,
            2,
        ))
        .unwrap();
        assert_eq!(t.lookup(&[key]).unwrap().action, ActionId(2));
        // Zero-length prefix matches everything.
        t.insert(entry(
            MatchKey::Lpm {
                value: 0,
                prefix_len: 0,
            },
            0,
            3,
        ))
        .unwrap();
        assert_eq!(t.lookup(&[0x1234]).unwrap().action, ActionId(3));
    }

    #[test]
    fn lpm_priority_and_insertion_tiebreaks() {
        let mut t = Table::new(def(MatchKind::Lpm, 1));
        let k = MatchKey::Lpm {
            value: 0xFF00_0000_0000_0000,
            prefix_len: 8,
        };
        t.insert(entry(k.clone(), 1, 1)).unwrap();
        t.insert(entry(k.clone(), 5, 2)).unwrap();
        t.insert(entry(k.clone(), 5, 3)).unwrap();
        // Highest priority wins; equal priorities resolve to the
        // earliest inserted.
        assert_eq!(
            t.lookup(&[0xFF12_0000_0000_0000]).unwrap().action,
            ActionId(2)
        );
        // A longer prefix beats any priority on a shorter one.
        t.insert(entry(
            MatchKey::Lpm {
                value: 0xFF10_0000_0000_0000,
                prefix_len: 16,
            },
            0,
            4,
        ))
        .unwrap();
        assert_eq!(
            t.lookup(&[0xFF10_0000_0000_0001]).unwrap().action,
            ActionId(4)
        );
    }

    #[test]
    fn range_match_priority() {
        let mut t = Table::new(def(MatchKind::Range, 1));
        t.insert(entry(MatchKey::Range(vec![(0, 100)]), 1, 1))
            .unwrap();
        t.insert(entry(MatchKey::Range(vec![(50, 60)]), 5, 2))
            .unwrap();
        assert_eq!(t.lookup(&[55]).unwrap().action, ActionId(2));
        assert_eq!(t.lookup(&[10]).unwrap().action, ActionId(1));
        assert!(t.lookup(&[101]).is_none());
    }

    #[test]
    fn range_disjoint_spans_and_multi_component() {
        let mut t = Table::new(def_cap(MatchKind::Range, 1, 64));
        // Disjoint spans land in the binary-searchable index.
        for i in 0..10u64 {
            t.insert(entry(
                MatchKey::Range(vec![(i * 10, i * 10 + 5)]),
                0,
                i as u16,
            ))
            .unwrap();
        }
        assert_eq!(t.lookup(&[42]).unwrap().action, ActionId(4));
        assert!(t.lookup(&[47]).is_none());
        // An empty (lo > hi) range matches nothing but must not poison
        // the span index.
        t.insert(entry(MatchKey::Range(vec![(9, 3)]), 9, 99))
            .unwrap();
        assert_eq!(t.lookup(&[4]).unwrap().action, ActionId(0));

        let mut m = Table::new(def_cap(MatchKind::Range, 2, 8));
        m.insert(entry(MatchKey::Range(vec![(0, 10), (5, 9)]), 1, 1))
            .unwrap();
        assert_eq!(m.lookup(&[3, 7]).unwrap().action, ActionId(1));
        assert!(m.lookup(&[3, 4]).is_none());
    }

    #[test]
    fn ternary_mask_match() {
        let mut t = Table::new(def(MatchKind::Ternary, 1));
        // Match any key whose low nibble is 0b0001.
        t.insert(entry(MatchKey::Ternary(vec![(0x1, 0xF)]), 1, 1))
            .unwrap();
        assert!(t.lookup(&[0x31]).is_some());
        assert!(t.lookup(&[0x32]).is_none());
        // Wildcard-all entry with lower priority.
        t.insert(entry(MatchKey::Ternary(vec![(0, 0)]), 0, 2))
            .unwrap();
        assert_eq!(t.lookup(&[0x32]).unwrap().action, ActionId(2));
        assert_eq!(t.lookup(&[0x31]).unwrap().action, ActionId(1));
    }

    #[test]
    fn remove_and_clear() {
        let mut t = Table::new(def(MatchKind::Exact, 1));
        t.insert(entry(MatchKey::Exact(vec![1]), 0, 1)).unwrap();
        t.insert(entry(MatchKey::Exact(vec![2]), 0, 2)).unwrap();
        assert!(t.remove(&MatchKey::Exact(vec![1])));
        assert!(!t.remove(&MatchKey::Exact(vec![1])));
        assert!(t.lookup(&[1]).is_none());
        assert_eq!(t.lookup(&[2]).unwrap().action, ActionId(2));
        t.clear();
        assert!(t.is_empty());
        assert!(t.lookup(&[2]).is_none());
    }

    #[test]
    fn remove_takes_first_inserted_duplicate() {
        let mut t = Table::new(def(MatchKind::Ternary, 1));
        let k = MatchKey::Ternary(vec![(0x1, 0xF)]);
        t.insert(entry(k.clone(), 3, 1)).unwrap();
        t.insert(entry(k.clone(), 7, 2)).unwrap();
        assert!(t.remove(&k));
        // The first-inserted duplicate (action 1) went; the second
        // remains and still matches.
        assert_eq!(t.len(), 1);
        assert_eq!(t.lookup(&[0x21]).unwrap().action, ActionId(2));
        assert!(t.remove(&k));
        assert!(t.is_empty());
    }

    /// Satellite: removal patches the index incrementally; a long
    /// insert/remove churn must keep every kind's index coherent (and
    /// stay fast — the old path rebuilt the exact index per removal).
    #[test]
    fn churn_10k_insert_remove_keeps_indexes_coherent() {
        let mut exact = Table::new(def_cap(MatchKind::Exact, 1, 64));
        let mut lpm = Table::new(def_cap(MatchKind::Lpm, 1, 64));
        let mut tern = Table::new(def_cap(MatchKind::Ternary, 1, 64));
        let mut rng_state = 0x1234_5678_9ABC_DEF0u64;
        let mut next = || {
            rng_state = rng_state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            rng_state >> 33
        };
        for cycle in 0..10_000u64 {
            let v = next() % 48;
            exact
                .insert(entry(MatchKey::Exact(vec![v]), 0, v as u16))
                .unwrap();
            let lk = MatchKey::Lpm {
                value: v << 56,
                prefix_len: 8,
            };
            if lpm.len() < 48 {
                lpm.insert(entry(lk.clone(), 0, v as u16)).unwrap();
            }
            let tk = MatchKey::Ternary(vec![(v, 0xFF)]);
            if tern.len() < 48 {
                tern.insert(entry(tk.clone(), (v % 7) as u32, v as u16))
                    .unwrap();
            }
            let w = next() % 48;
            exact.remove(&MatchKey::Exact(vec![w]));
            lpm.remove(&MatchKey::Lpm {
                value: w << 56,
                prefix_len: 8,
            });
            tern.remove(&MatchKey::Ternary(vec![(w, 0xFF)]));
            if cycle % 512 == 0 {
                // Indexed results must agree with the linear oracle.
                for probe in 0..48u64 {
                    assert_eq!(
                        exact.peek(&[probe]).map(|e| e.action),
                        exact.lookup_linear_ref(&[probe]).map(|e| e.action),
                    );
                    let pk = [probe << 56 | 0x1234];
                    assert_eq!(
                        lpm.peek(&pk).map(|e| e.action),
                        lpm.lookup_linear_ref(&pk).map(|e| e.action),
                    );
                    assert_eq!(
                        tern.peek(&[probe]).map(|e| e.action),
                        tern.lookup_linear_ref(&[probe]).map(|e| e.action),
                    );
                }
            }
        }
    }

    /// Satellite: stats count through shared references — `peek` and
    /// `lookup` both take `&self` and both count.
    #[test]
    fn stats_count_through_shared_refs() {
        let mut t = Table::new(def(MatchKind::Exact, 1));
        t.insert(entry(MatchKey::Exact(vec![1]), 0, 1)).unwrap();
        let shared: &Table = &t;
        assert!(shared.peek(&[1]).is_some());
        assert!(shared.peek(&[2]).is_none());
        assert!(shared.lookup(&[1]).is_some());
        assert_eq!(shared.stats(), TableStats { hits: 2, misses: 1 });
        // The oracle is stat-free by contract.
        assert!(shared.lookup_linear_ref(&[1]).is_some());
        assert_eq!(shared.stats(), TableStats { hits: 2, misses: 1 });
    }

    #[test]
    fn match_key_helpers() {
        assert_eq!(MatchKey::Exact(vec![1, 2]).arity(), 2);
        assert_eq!(
            MatchKey::Lpm {
                value: 0,
                prefix_len: 8
            }
            .arity(),
            1
        );
        assert!(MatchKey::Exact(vec![]).kind_matches(MatchKind::Exact));
        assert!(!MatchKey::Exact(vec![]).kind_matches(MatchKind::Range));
        // Mismatched arity never matches.
        assert!(!MatchKey::Range(vec![(0, 9)]).matches(&[1, 2]));
        assert!(!MatchKey::Lpm {
            value: 0,
            prefix_len: 1
        }
        .matches(&[1, 2]));
    }
}

rkd_testkit::impl_json_newtype!(TableId(u16));
rkd_testkit::impl_json_newtype!(ActionId(u16));

rkd_testkit::impl_json_unit_enum!(MatchKind {
    Exact,
    Lpm,
    Range,
    Ternary
});

rkd_testkit::impl_json_enum!(MatchKey {
    Exact(values),
    Lpm { value, prefix_len },
    Range(ranges),
    Ternary(parts),
});

rkd_testkit::impl_json_struct!(Entry {
    key,
    priority,
    action,
    arg
});

rkd_testkit::impl_json_struct!(TableDef {
    name,
    hook,
    key_fields,
    kind,
    default_action,
    max_entries
});

rkd_testkit::impl_json_struct!(TableStats { hits, misses });
