//! `sched`: the Table 2 CFS mimic, closed loop in this thread.
//!
//! Setup records every `can_migrate_task` decision of native CFS over a
//! seeded `table2_suite`, then trains the full model (15 features) and
//! the lean model (the top-2 features by tree importance) as quantized
//! MLPs and installs each as an `MlPolicy`, the way the `table2`
//! pipeline does. The timed phase replays the recorded feature stream
//! through `MlPolicy::can_migrate`, full and lean policy in turn. It is
//! inference-heavy and carries almost no control traffic: every
//! [`CTRL_EVERY`] events both policies get their own model hot-swapped
//! back in with `update_model`, which is the workload's control-plane
//! stall.

use crate::report::{median, percentile, ratio, rss_peak_mb, Cycles, Report};
use crate::trace::{write_spans, Tracer, SPAN_CAP};
use crate::Args;
use rkd_core::machine::ExecMode;
use rkd_ml::dataset::{Dataset, Sample};
use rkd_ml::feature::{select_top_k, FeatureImportance};
use rkd_ml::fixed::Fix;
use rkd_ml::mlp::Mlp;
use rkd_ml::quant::QuantMlp;
use rkd_ml::tree::{DecisionTree, TreeConfig};
use rkd_sim::sched::experiment::CaseStudyConfig;
use rkd_sim::sched::features::{MigrationFeatures, N_FEATURES};
use rkd_sim::sched::policy::{CfsPolicy, MigrationPolicy, MlPolicy, RecordingPolicy};
use rkd_sim::sched::sim::run as sim_run;
use rkd_testkit::rng::{SeedableRng, SliceRandom, StdRng};
use rkd_workloads::sched::table2_suite;
use std::time::{Duration, Instant};

/// Full setups timed for `setup_s`; the median is kept.
const SETUP_REPS: usize = 5;

/// CPUs of the simulated machine the suite is sized for (the `table2`
/// scale).
const CPUS: usize = 4;

/// Training seed, fixed like `table2`'s: model initialization is part
/// of the system under test, not an input.
const TRAIN_SEED: u64 = 17;

/// Events between model hot swaps.
const CTRL_EVERY: u64 = 2048;

/// Blocks of [`CTRL_EVERY`] events per segment (about 0.1 s), the unit
/// of the traced run's untraced baseline.
const SEG_BLOCKS: u64 = 32;

type Log = Vec<(MigrationFeatures, bool)>;

/// What setup produces.
struct Built {
    log: Log,
    models: [QuantMlp; 2],
    selected: [Vec<usize>; 2],
    policies: [MlPolicy; 2],
}

fn features_fix(f: &MigrationFeatures, selected: &[usize]) -> Vec<Fix> {
    f.project(selected).into_iter().map(Fix::from_int).collect()
}

/// The decision log projected onto `selected`, shuffled and capped at
/// the case study's training-set size.
fn dataset(log: &Log, selected: &[usize], cfg: &CaseStudyConfig, rng: &mut StdRng) -> Dataset {
    let mut idx: Vec<usize> = (0..log.len()).collect();
    idx.shuffle(rng);
    idx.truncate(cfg.max_train_samples);
    let mut ds = Dataset::new();
    for i in idx {
        let (f, d) = &log[i];
        ds.push(Sample {
            features: features_fix(f, selected),
            label: *d as usize,
        })
        .expect("uniform feature arity");
    }
    ds
}

/// Userspace float training, normalization folded into the first
/// layer, then integer quantization: the case study's model path.
fn train(ds: &Dataset, cfg: &CaseStudyConfig, rng: &mut StdRng) -> QuantMlp {
    let (norm, ranges) = ds.normalize().expect("non-empty decision log");
    let mlp = Mlp::train(&norm, &cfg.mlp, rng).expect("valid MLP config");
    let ranges: Vec<(f64, f64)> = ranges
        .iter()
        .map(|(lo, hi)| (lo.to_f64(), hi.to_f64()))
        .collect();
    let folded = mlp
        .fold_input_normalization(&ranges)
        .expect("ranges match arity");
    QuantMlp::quantize(&folded, cfg.bits).expect("quantizable model")
}

/// The lean feature set: top features by Gini importance of a tree
/// fitted to the full dataset, as the case study ranks them.
fn lean_features(ds: &Dataset, cfg: &CaseStudyConfig) -> Vec<usize> {
    let tree = DecisionTree::train(
        ds,
        &TreeConfig {
            max_depth: 8,
            min_samples_split: 8,
            max_thresholds: 32,
        },
    )
    .expect("trainable decision log");
    let mut ranked: Vec<FeatureImportance> = tree
        .gini_importance()
        .into_iter()
        .enumerate()
        .map(|(feature, importance)| FeatureImportance {
            feature,
            importance,
        })
        .collect();
    ranked.sort_by(|a, b| b.importance.total_cmp(&a.importance));
    select_top_k(&ranked, cfg.lean_k.min(N_FEATURES))
}

/// Runs the workload.
pub fn run(args: &Args) -> Report {
    let mut rng = StdRng::seed_from_u64(args.seed_for(0x5343_4844));
    let suite = table2_suite(CPUS, &mut rng);
    let cfg = CaseStudyConfig::default();
    let mut r = Report {
        correct: true,
        ..Report::default()
    };

    let (mut setup_ns, mut record_ns, mut train_ns, mut install_ns) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut built = None;
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        let mut log = Log::new();
        for w in &suite {
            let mut rec = RecordingPolicy::new(CfsPolicy::default());
            sim_run(w, &mut rec, &cfg.sim);
            log.extend(rec.log);
        }
        record_ns.push(t0.elapsed().as_nanos() as u64);
        let mut trng = StdRng::seed_from_u64(TRAIN_SEED);
        let all: Vec<usize> = (0..N_FEATURES).collect();
        let full_ds = dataset(&log, &all, &cfg, &mut trng);
        let t1 = Instant::now();
        let full = train(&full_ds, &cfg, &mut trng);
        let mut train_t = t1.elapsed().as_nanos() as u64;
        let keep = lean_features(&full_ds, &cfg);
        let lean_ds = dataset(&log, &keep, &cfg, &mut trng);
        let t2 = Instant::now();
        let lean = train(&lean_ds, &cfg, &mut trng);
        train_t += t2.elapsed().as_nanos() as u64;
        train_ns.push(train_t);
        let t3 = Instant::now();
        let p_full = MlPolicy::new(full.clone(), all.clone(), ExecMode::Jit);
        let t4 = Instant::now();
        let p_lean = MlPolicy::new(lean.clone(), keep.clone(), ExecMode::Jit);
        install_ns.push((t4 - t3).as_nanos() as u64);
        install_ns.push(t4.elapsed().as_nanos() as u64);
        setup_ns.push(t0.elapsed().as_nanos() as u64);
        built = Some(Built {
            log,
            models: [full, lean],
            selected: [all, keep],
            policies: [p_full, p_lean],
        });
    }
    let Built {
        log,
        models,
        selected,
        mut policies,
    } = built.expect("at least one setup");
    r.note(format!(
        "sched: {} recorded decisions, lean features {:?}",
        log.len(),
        selected[1]
    ));

    // Verdicts of the first cycle over the stream, indexed by event
    // (2 per decision); later cycles must repeat them exactly.
    let cycle = 2 * log.len() as u64;
    let mut first: Vec<Option<bool>> = vec![None; cycle as usize];
    let budget = Duration::from_secs_f64(args.seconds);
    // Each event of the cycle is an event slot and a step slot; a step
    // runs from the end of the previous query, so a block's model swaps
    // fall in the step after them.
    let mut cycles = Cycles::new(cycle as usize, cycle as usize, 1);
    let mut last = Instant::now();
    let mut tracer = Tracer::new(SPAN_CAP);
    let mut event = 0u64;
    let mut swaps = 0u64;
    let mut changed = 0u64;
    let start = Instant::now();
    while event < CTRL_EVERY * (1 + args.trace as u64) || start.elapsed() < budget {
        let block = event / CTRL_EVERY;
        // Half the span store is kept for the inference probe below.
        let traced = args.trace && block % 2 == 1 && tracer.len() < SPAN_CAP / 2;
        for _ in 0..CTRL_EVERY {
            let k = event % cycle;
            let (f, _) = &log[(k / 2) as usize];
            let m = (k % 2) as usize;
            let verdict = if traced {
                let name = ["policy.can_migrate.full", "policy.can_migrate.lean"][m];
                let id = tracer.open(name, 0, event);
                let v = policies[m].can_migrate(f);
                tracer.close(id);
                v
            } else {
                let t0 = Instant::now();
                let v = policies[m].can_migrate(f);
                let t1 = Instant::now();
                cycles.event(k as usize, (t1 - t0).as_nanos() as u64);
                cycles.step(k as usize, (t1 - last).as_nanos() as u64);
                last = t1;
                v
            };
            match first[k as usize] {
                None => first[k as usize] = Some(verdict),
                Some(v) => changed += (v != verdict) as u64,
            }
            event += 1;
        }
        // Both policies get their model swapped back in; the pair is one
        // control-plane sample, each swap a child span in a traced block.
        let fresh = models.clone();
        let b0 = tracer.now_ns();
        let boundary = if traced {
            tracer.open("ctrl.boundary", 0, event)
        } else {
            0
        };
        for (p, model) in policies.iter_mut().zip(fresh) {
            let t0 = tracer.now_ns();
            let res = p.update_model(model);
            if traced {
                let t1 = tracer.now_ns();
                tracer.push("ctrl.update_model", boundary, event, t0, t1);
            }
            swaps += 1;
            if let Err(e) = res {
                r.failed += 1;
                r.note(format!("sched: update_model rejected: {e}"));
            }
        }
        if traced {
            tracer.close(boundary);
            // The next untraced step starts here.
            last = Instant::now();
        } else {
            cycles.ctrl(tracer.now_ns() - b0);
        }
        if (block + 1).is_multiple_of(SEG_BLOCKS) {
            cycles.close();
        }
    }
    cycles.close();
    r.attempted = event;
    if changed > 0 {
        r.mismatch(
            format!("{changed} verdicts changed across stream cycles"),
            changed,
        );
    }
    r.failed += policies
        .iter()
        .map(MlPolicy::aborted_fallbacks)
        .sum::<u64>();

    // Oracles: each verdict equals `QuantMlp::predict` on the same
    // features; quality is agreement with the recorded CFS decision.
    let (mut agree, mut seen, mut wrong) = (0u64, 0u64, 0u64);
    for (k, v) in first.iter().enumerate() {
        let Some(v) = *v else { continue };
        let (f, cfs) = &log[k / 2];
        let m = k % 2;
        let want = models[m]
            .predict(&features_fix(f, &selected[m]))
            .expect("model arity matches")
            == 1;
        wrong += (v != want) as u64;
        agree += (v == *cfs) as u64;
        seen += 1;
    }
    if wrong > 0 {
        let per_cycle = ratio(event as f64, seen as f64);
        r.mismatch(
            format!("{wrong} of {seen} verdicts differ from QuantMlp::predict"),
            (wrong as f64 * per_cycle) as u64,
        );
    }
    r.note(format!(
        "sched: {event} events, {swaps} model swaps, {seen} distinct events checked"
    ));

    if !args.trace {
        r.set("setup_s", median(&setup_ns) / 1e9);
        cycles.report(&mut r);
        r.set("quality_pct", 100.0 * ratio(agree as f64, seen as f64));
        r.set("rss_peak_mb", rss_peak_mb());
        return r;
    }

    // Inference alone: `QuantMlp::predict` on the recorded features.
    let probe_end = Instant::now() + budget.mul_f64(0.25);
    for (i, (f, _)) in log.iter().enumerate() {
        if tracer.full() || Instant::now() > probe_end {
            break;
        }
        for m in 0..2 {
            let x = features_fix(f, &selected[m]);
            let name = ["ml.qmlp_predict.full", "ml.qmlp_predict.lean"][m];
            let id = tracer.open(name, 0, i as u64);
            std::hint::black_box(models[m].predict(std::hint::black_box(&x)).ok());
            tracer.close(id);
        }
    }
    let mut overhead = 0.0;
    for (m, tag) in ["full", "lean"].iter().enumerate() {
        let predict = median(&tracer.durations(&format!("ml.qmlp_predict.{tag}")));
        let call = median(&tracer.durations(&format!("policy.can_migrate.{tag}")));
        r.set(
            ["ml.qmlp_predict_ns.full", "ml.qmlp_predict_ns.lean"][m],
            predict,
        );
        overhead += (call - predict) / 2.0;
    }
    r.set("machine.overhead_ns.sched", overhead);
    r.set("ml.mlp_train_s", median(&train_ns) / 1e9);
    r.set("sim.cfs_record_s", median(&record_ns) / 1e9);
    r.set("machine.install_us", median(&install_ns) / 1e3);
    r.set(
        "ctrl.update_us",
        median(&tracer.durations("ctrl.update_model")) / 1e3,
    );
    let (mut fires, mut hits, mut inval, mut tails, mut aborts, mut drops) = (0, 0, 0, 0, 0, 0);
    for p in &policies {
        let c = p.obs_snapshot().counters;
        fires += c.fires;
        hits += c.decision_cache_hits;
        inval += c.decision_cache_invalidations;
        tails += c.tail_calls;
        aborts += c.aborts;
        drops += c.rate_limit_drops;
    }
    r.set("machine.cache_hit_frac", ratio(hits as f64, fires as f64));
    r.set(
        "machine.cache_inval_per_ctrl",
        ratio(inval as f64, swaps as f64),
    );
    r.set(
        "machine.tail_calls_per_event",
        ratio(tails as f64, event as f64),
    );
    r.set(
        "machine.aborts_per_event",
        ratio(aborts as f64, event as f64),
    );
    r.set(
        "machine.rate_limited_frac",
        ratio(drops as f64, fires as f64),
    );
    let mut traced: Vec<u64> = tracer.durations("policy.can_migrate.full");
    traced.extend(tracer.durations("policy.can_migrate.lean"));
    let traced_p50 = percentile(&mut traced, 50.0);
    let plain_p50 = cycles.typical_p50();
    r.set(
        "trace.overhead_pct",
        100.0 * ratio(traced_p50 - plain_p50, plain_p50),
    );
    write_spans(&mut r, &tracer, "sched");
    r
}
