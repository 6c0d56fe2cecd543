//! What a run reports, plus the order statistics every workload uses.

use std::collections::BTreeMap;

/// End-to-end metrics, printed by an untraced run: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("events_per_s", "1/s"),
    ("event_p50_ns", "ns"),
    ("quality_pct", "%"),
    ("rss_peak_mb", "MB"),
];

/// Metrics an untraced run prints as ledger lines only: on a shared
/// 2-CPU host they move too far with the neighbours to carry a
/// regression bound, so the result line leaves them out. When the host
/// slows down for minutes at a time the prefetcher's event p99 moves by
/// about 30%, beyond the largest bound, while its p50 and throughput
/// move by about 15%; the control-plane stalls spread 0.13 to 0.9 of
/// their median over repeated runs.
pub const LEDGER: &[(&str, &str)] = &[
    ("event_p99_ns", "ns"),
    ("ctrl_p50_us", "us"),
    ("ctrl_p99_us", "us"),
];

/// Per-layer metrics, printed by a traced run: `(name, unit)`. A layer
/// that is not on a workload's path did no work there and reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("sim.retrain_us", "us"),
    ("sim.retrain_share", "fraction"),
    ("sim.access_ns", "ns"),
    ("machine.fire_ns.lookup_swap_cache", "ns"),
    ("machine.fire_ns.swap_cluster_readahead", "ns"),
    ("machine.cache_hit_frac", "fraction"),
    ("machine.cache_inval_per_ctrl", "count"),
    ("machine.tail_calls_per_event", "count"),
    ("machine.rate_limited_frac", "fraction"),
    ("machine.aborts_per_event", "count"),
    ("jit.insns_per_fire", "count"),
    ("ml.qmlp_predict_ns.full", "ns"),
    ("ml.qmlp_predict_ns.lean", "ns"),
    ("machine.overhead_ns.sched", "ns"),
    ("ml.mlp_train_s", "s"),
    ("sim.cfs_record_s", "s"),
    ("spsc.hop_ns", "ns"),
    ("shard.rtt_ns", "ns"),
    ("machine.fire_batch_ns", "ns"),
    ("shard.overhead_ns", "ns"),
    ("table.lookup_ns.ternary", "ns"),
    ("table.lookup_ns.lpm", "ns"),
    ("table.lookup_ns.exact", "ns"),
    ("jit.run_ns", "ns"),
    ("machine.residual_ns", "ns"),
    ("reconcile.parts_ns", "ns"),
    ("reconcile.gap_pct", "%"),
    ("ctrl.update_us", "us"),
    ("spsc.full_stalls_per_kevent", "count"),
    ("spsc.parks_per_kevent", "count"),
    ("obs.overhead_ns", "ns"),
    ("verifier.verify_us", "us"),
    ("machine.install_us", "us"),
    ("trace.overhead_pct", "%"),
];

/// The outcome of one workload run.
#[derive(Debug, Default)]
pub struct Report {
    /// Every oracle passed.
    pub correct: bool,
    /// Events attempted in the timed phase.
    pub attempted: u64,
    /// Aborted actions, fail-closed fallbacks, rejected control
    /// requests and oracle mismatches.
    pub failed: u64,
    /// Measured metrics by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Human-readable ledger lines printed before the result.
    pub notes: Vec<String>,
}

impl Report {
    /// Records a metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Adds a ledger line.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Counts a failed oracle check: the run is no longer correct.
    pub fn mismatch(&mut self, what: String, events: u64) {
        self.correct = false;
        self.failed += events;
        self.notes.push(format!("ORACLE MISMATCH: {what}"));
    }
}

/// Best-of-repeats timing of a workload's fixed event sequence.
///
/// Every workload replays a fixed sequence of events in cycles, so each
/// position of the sequence is timed many times in a run. Other tenants
/// of a small shared machine only ever slow the program down, for
/// moments or for seconds at a time, so a figure pooled over the run
/// moves with the neighbours as much as with the program. Each position
/// therefore keeps its best time:
///
/// - an event slot keeps its fastest latency; `event_p50_ns` and
///   `event_p99_ns` are percentiles over the slots, so they keep the
///   program's own slow events (a retrain, a cache miss, a control-plane
///   stall in flight) and drop the host's;
/// - a step slot keeps its fastest step, a step being the wall time of
///   a fixed stretch of the closed loop (one event, or one wave of
///   batches) with the driver's own work and the control requests in it;
///   `events_per_s` is a cycle's events over the sum of the best steps.
///
/// Control-plane stalls are pooled over the whole phase; they are
/// ledger lines only. The pooled median of each segment of the phase is
/// kept for the traced run's overhead estimate.
pub struct Cycles {
    best: Vec<u64>,
    best_step: Vec<u64>,
    events_per_step: u64,
    ctrl: Vec<u64>,
    lat: Vec<u64>,
    p50: Vec<f64>,
}

impl Cycles {
    /// A sequence of `events` event slots and `steps` step slots of
    /// `events_per_step` events each.
    pub fn new(events: usize, steps: usize, events_per_step: u64) -> Cycles {
        Cycles {
            best: vec![u64::MAX; events.max(1)],
            best_step: vec![u64::MAX; steps.max(1)],
            events_per_step,
            ctrl: Vec::new(),
            lat: Vec::new(),
            p50: Vec::new(),
        }
    }

    /// Records the latency of the event at `slot` of the sequence.
    pub fn event(&mut self, slot: usize, ns: u64) {
        self.lat.push(ns);
        keep_min(&mut self.best, slot, ns);
    }

    /// Records the wall time of the step at `slot` of the sequence.
    pub fn step(&mut self, slot: usize, ns: u64) {
        keep_min(&mut self.best_step, slot, ns);
    }

    /// Records a control-plane stall.
    pub fn ctrl(&mut self, ns: u64) {
        self.ctrl.push(ns);
    }

    /// Closes a segment of the phase.
    pub fn close(&mut self) {
        if !self.lat.is_empty() {
            self.p50.push(percentile(&mut self.lat, 50.0));
        }
        self.lat.clear();
    }

    /// Median over segments of their pooled median event latency: the
    /// figure a traced run, interleaved with these segments, compares
    /// against.
    pub fn typical_p50(&self) -> f64 {
        median_f(&self.p50)
    }

    /// Records the throughput and latency metrics.
    pub fn report(&mut self, r: &mut Report) {
        let mut best = timed(&self.best);
        let steps = timed(&self.best_step);
        let events = self.events_per_step as f64 * steps.len() as f64;
        r.set(
            "events_per_s",
            ratio(1e9 * events, steps.iter().sum::<u64>() as f64),
        );
        r.set("event_p50_ns", percentile(&mut best, 50.0));
        r.set("event_p99_ns", percentile(&mut best, 99.0));
        r.set("ctrl_p50_us", percentile(&mut self.ctrl, 50.0) / 1e3);
        r.set("ctrl_p99_us", percentile(&mut self.ctrl, 99.0) / 1e3);
        r.note(format!(
            "{} of {} event slots and {} of {} step slots timed, {} control-plane samples",
            best.len(),
            self.best.len(),
            steps.len(),
            self.best_step.len(),
            self.ctrl.len()
        ));
    }
}

fn keep_min(best: &mut [u64], slot: usize, ns: u64) {
    let b = &mut best[slot % best.len()];
    *b = (*b).min(ns);
}

/// The slots that were timed at least once.
fn timed(best: &[u64]) -> Vec<u64> {
    best.iter().copied().filter(|&v| v != u64::MAX).collect()
}

/// Nearest-rank percentile `p` (0..=100) of `v`, sorting it in place;
/// 0 when empty.
pub fn percentile<T: Copy + Ord + Into<u64>>(v: &mut [T], p: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_unstable();
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1].into() as f64
}

/// Median of `v` (sorting a copy); 0 when empty.
pub fn median(v: &[u64]) -> f64 {
    median_f(&v.iter().map(|&x| x as f64).collect::<Vec<_>>())
}

/// Median of floats, interpolating between the middle two; 0 when
/// empty.
fn median_f(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let mid = s.len() / 2;
    if s.len() % 2 == 1 {
        s[mid]
    } else {
        (s[mid - 1] + s[mid]) / 2.0
    }
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn rss_peak_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// Renders the result line: one JSON object with the metrics of `set`
/// in declaration order.
pub fn result_json(r: &Report, set: &[(&str, &str)]) -> String {
    let metrics: Vec<String> = set
        .iter()
        .map(|(name, unit)| {
            let v = r.metrics.get(name).copied().unwrap_or(0.0);
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                num(v)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.correct,
        r.attempted,
        r.failed,
        metrics.join(", ")
    )
}

/// A float as a JSON number with all its digits; a non-finite value,
/// which already marks the run incorrect, prints as 0.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank() {
        let mut v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&mut v, 50.0), 50.0);
        assert_eq!(percentile(&mut v, 99.0), 99.0);
        assert_eq!(median(&[3, 1, 2, 4]), 2.5);
        assert_eq!(percentile::<u64>(&mut [], 50.0), 0.0);
    }

    #[test]
    fn cycles_keep_each_slots_best_time() {
        let mut c = Cycles::new(4, 2, 2);
        // Two cycles; the second is faster at slots 0 and 3 only.
        for (slot, ns) in [
            (0, 100),
            (1, 10),
            (2, 10),
            (3, 10),
            (0, 50),
            (1, 20),
            (2, 30),
            (3, 5),
        ] {
            c.event(slot, ns);
        }
        c.step(0, 400);
        c.step(1, 100);
        c.step(2, 300);
        c.step(3, 200);
        let mut r = Report::default();
        c.report(&mut r);
        // Best steps 300 + 100 ns for 2 x 2 events.
        assert_eq!(r.metrics["events_per_s"], 1e7);
        // Best latencies 50, 10, 10, 5.
        assert_eq!(r.metrics["event_p50_ns"], 10.0);
        assert_eq!(r.metrics["event_p99_ns"], 50.0);
    }

    #[test]
    fn every_metric_name_is_unique() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(LEDGER)
            .chain(PER_LAYER)
            .map(|m| m.0)
            .collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n);
    }
}
