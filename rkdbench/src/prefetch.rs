//! `prefetch`: the Table 1 learned prefetcher, closed loop in this
//! thread.
//!
//! Each pass replays the `video_resize` trace and then the
//! `matrix_conv` trace at the `table1` scale through
//! `rkd_sim::mem::sim::run`, each with a fresh `MlPrefetcher` (default
//! configuration, JIT), exactly as the `table1` binary does. Every
//! `on_access` is timed by [`Timed`], a `Prefetcher` wrapper this
//! benchmark owns. This is the only workload where the learned loop
//! runs inline: window retrain, verified model hot swap, decision-cache
//! invalidation. An access during which `retrains()` advanced is a
//! control-plane stall; the rest are datapath accesses.

use crate::report::{median, percentile, ratio, rss_peak_mb, Cycles, Report};
use crate::trace::{write_spans, SpanId, Tracer, SPAN_CAP};
use crate::Args;
use rkd_bench::{f1, table1_matrix_params, table1_mem_config, table1_video_params};
use rkd_sim::mem::ml::{MlPrefetchConfig, MlPrefetcher};
use rkd_sim::mem::prefetcher::Prefetcher;
use rkd_sim::mem::sim::run as sim_run;
use rkd_workloads::mem::{matrix_conv, video_resize};
use rkd_workloads::PageTrace;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// The `table1` "Ours" columns (accuracy %, coverage %) per trace.
/// Page offsets are multiples of 2^20, which leaves every delta and
/// every page-position feature unchanged, so these hold at any seed.
const EXPECTED: [(&str, &str, &str); 2] = [
    ("video_resize", "81.6", "88.7"),
    ("matrix_conv", "89.8", "97.8"),
];

/// Where a timed access is recorded.
enum Sink<'a> {
    /// Untraced: the timings, the slot of the trace's first access
    /// within the pass, and when the previous step ended.
    Plain(&'a mut Cycles, usize, Instant),
    Traced(&'a mut Tracer, SpanId),
}

/// Times every access of the wrapped prefetcher; in a traced pass it
/// records one span per access instead.
struct Timed<'a> {
    inner: MlPrefetcher,
    sink: Sink<'a>,
    event: u64,
}

impl Prefetcher for Timed<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn on_access(&mut self, page: u64) -> Vec<u64> {
        let before = self.inner.retrains();
        self.event += 1;
        let out;
        match &mut self.sink {
            Sink::Traced(t, parent) => {
                let id = t.open("sim.access", *parent, self.event);
                out = self.inner.on_access(page);
                t.close(id);
                if self.inner.retrains() != before {
                    t.rename(id, "sim.retrain");
                }
            }
            Sink::Plain(cycles, base, last) => {
                let t0 = Instant::now();
                out = self.inner.on_access(page);
                let t1 = Instant::now();
                let dt = (t1 - t0).as_nanos() as u64;
                let slot = *base + self.event as usize - 1;
                cycles.event(slot, dt);
                cycles.step(slot, (t1 - *last).as_nanos() as u64);
                *last = t1;
                if self.inner.retrains() != before {
                    cycles.ctrl(dt);
                }
            }
        }
        out
    }

    fn decision_overhead_ns(&self) -> u64 {
        self.inner.decision_overhead_ns()
    }
}

/// Datapath counters summed over every prefetcher of the run.
#[derive(Default)]
struct Totals {
    accesses: u64,
    retrains: u64,
    fires: u64,
    cache_hits: u64,
    cache_invalidations: u64,
    tail_calls: u64,
    aborts: u64,
    actions_run: u64,
    insns: u64,
    effects: u64,
    rate_limited: u64,
    /// Hook name -> (latency histogram sum, sample count).
    hooks: BTreeMap<String, (u64, u64)>,
}

impl Totals {
    fn add(&mut self, p: &MlPrefetcher, accesses: u64) {
        let s = p.prog_stats();
        let snap = p.obs_snapshot();
        let c = &snap.counters;
        self.accesses += accesses;
        self.retrains += p.retrains();
        self.fires += c.fires;
        self.cache_hits += c.decision_cache_hits;
        self.cache_invalidations += c.decision_cache_invalidations;
        self.tail_calls += c.tail_calls;
        self.aborts += s.actions_aborted;
        self.actions_run += s.actions_run;
        self.insns += s.insns_executed;
        self.effects += s.effects_emitted;
        self.rate_limited += s.effects_rate_limited;
        for h in &snap.hooks {
            let e = self.hooks.entry(h.hook.clone()).or_default();
            e.0 += h.hist.sum();
            e.1 += h.hist.count();
        }
    }

    fn fire_ns(&self, hook: &str) -> f64 {
        self.hooks
            .get(hook)
            .map_or(0.0, |&(sum, n)| ratio(sum as f64, n as f64))
    }
}

/// Page-base offset for `seed`: a multiple of 2^20 pages.
fn page_base(args: &Args) -> u64 {
    (args.seed_for(0x5052_4546) % 4096) << 20
}

fn shifted(trace: PageTrace, base: u64) -> PageTrace {
    let pages = trace.accesses.iter().map(|&p| p + base).collect();
    PageTrace::new(&trace.name, pages)
}

/// Runs the workload.
pub fn run(args: &Args) -> Report {
    let base = page_base(args);
    let traces = [
        shifted(video_resize(&table1_video_params()), base),
        shifted(matrix_conv(&table1_matrix_params()), base),
    ];
    let cfg = table1_mem_config();
    let mut r = Report {
        correct: true,
        ..Report::default()
    };

    let budget = Duration::from_secs_f64(args.seconds);
    // A pass is one cycle and one segment; each access is an event slot
    // and a step slot.
    let pass_len: usize = traces.iter().map(|t| t.accesses.len()).sum();
    let mut cycles = Cycles::new(pass_len, pass_len, 1);
    let mut tracer = Tracer::new(SPAN_CAP);
    let mut totals = Totals::default();
    let mut build_ns: Vec<u64> = Vec::new();
    let (mut useful, mut wasted) = (0u64, 0u64);
    let mut pass = 0u64;
    let start = Instant::now();
    // A pass is both traces; a traced run alternates untraced and
    // traced passes so the two are measured under the same conditions.
    while pass < 1 + args.trace as u64 || start.elapsed() < budget {
        let traced = args.trace && pass % 2 == 1 && !tracer.full();
        let mut base = 0;
        for trace in &traces {
            // Set-up: program build, verify, optimize, install and JIT
            // lowering, timed on every replay and reported as the median.
            let t0 = Instant::now();
            let inner = MlPrefetcher::new(MlPrefetchConfig::default());
            build_ns.push(t0.elapsed().as_nanos() as u64);
            let parent = if traced {
                tracer.open("sim.run", 0, pass)
            } else {
                0
            };
            let sink = if traced {
                Sink::Traced(&mut tracer, parent)
            } else {
                Sink::Plain(&mut cycles, base, Instant::now())
            };
            base += trace.accesses.len();
            let mut timed = Timed {
                inner,
                sink,
                event: 0,
            };
            let res = sim_run(trace, &mut timed, &cfg);
            let p = timed.inner;
            if traced {
                tracer.close(parent);
            }
            totals.add(&p, res.accesses);
            r.attempted += res.accesses;
            let (acc, cov) = (f1(res.stats.accuracy_pct()), f1(res.stats.coverage_pct()));
            match EXPECTED.iter().find(|e| e.0 == trace.name) {
                Some(&(_, a, c)) if a == acc && c == cov => {}
                _ => r.mismatch(
                    format!("{} pass {pass}: accuracy {acc} coverage {cov}", trace.name),
                    res.accesses,
                ),
            }
            if pass == 0 {
                useful += res.stats.useful_prefetches;
                wasted += res.stats.wasted_prefetches;
            }
        }
        if !traced {
            cycles.close();
        }
        pass += 1;
    }
    r.note(format!(
        "prefetch: {pass} passes, {} accesses, {} retrains, page base {base:#x}",
        totals.accesses, totals.retrains
    ));

    let install_med = median(&build_ns);
    if !args.trace {
        r.set("setup_s", install_med / 1e9);
        cycles.report(&mut r);
        r.set(
            "quality_pct",
            100.0 * ratio(useful as f64, (useful + wasted) as f64),
        );
        r.set("rss_peak_mb", rss_peak_mb());
        return r;
    }

    let retrain = tracer.durations("sim.retrain");
    let mut access = tracer.durations("sim.access");
    let run_ns: u64 = tracer.durations("sim.run").iter().sum();
    r.set("sim.retrain_us", median(&retrain) / 1e3);
    r.set("ctrl.update_us", median(&retrain) / 1e3);
    r.set(
        "sim.retrain_share",
        ratio(retrain.iter().sum::<u64>() as f64, run_ns as f64),
    );
    r.set("sim.access_ns", median(&access));
    for (name, hook) in [
        ("machine.fire_ns.lookup_swap_cache", "lookup_swap_cache"),
        (
            "machine.fire_ns.swap_cluster_readahead",
            "swap_cluster_readahead",
        ),
    ] {
        r.set(name, totals.fire_ns(hook));
    }
    let events = totals.accesses as f64;
    r.set(
        "machine.cache_hit_frac",
        ratio(totals.cache_hits as f64, totals.fires as f64),
    );
    r.set(
        "machine.cache_inval_per_ctrl",
        ratio(totals.cache_invalidations as f64, totals.retrains as f64),
    );
    r.set(
        "machine.tail_calls_per_event",
        totals.tail_calls as f64 / events,
    );
    r.set(
        "machine.rate_limited_frac",
        ratio(
            totals.rate_limited as f64,
            (totals.effects + totals.rate_limited) as f64,
        ),
    );
    r.set("machine.aborts_per_event", totals.aborts as f64 / events);
    r.set(
        "jit.insns_per_fire",
        ratio(totals.insns as f64, totals.actions_run as f64),
    );
    // On this workload the prefetcher's constructor is the only public
    // entry to program build, verify, optimize and install.
    r.set("machine.install_us", install_med / 1e3);
    // Tracing overhead: every access (retrains included) of the traced
    // passes against the untraced passes.
    access.extend(&retrain);
    let traced_p50 = percentile(&mut access, 50.0);
    let plain_p50 = cycles.typical_p50();
    r.set(
        "trace.overhead_pct",
        100.0 * ratio(traced_p50 - plain_p50, plain_p50),
    );
    write_spans(&mut r, &tracer, "prefetch");
    r
}
