//! Regenerates **Figure 1: the in-kernel RMT virtual machine** as a
//! measured lifecycle.
//!
//! Figure 1 is the paper's architecture diagram: a DSL program
//! (`prefetch.rmt`) flows through `rmt_verify()`, is installed with
//! `syscall_rmt()`, optionally `rmt_jit()`-compiled, and then executes
//! at kernel hook points consulting the kernel-ML model zoo. This
//! harness drives exactly that lifecycle and reports the cost of every
//! stage plus the steady-state firing cost — the architecture's
//! "lightweight" claim, quantified. Here `rmt_jit()` is install-time
//! optimization and re-verification; the bodies run through the
//! interpreter. Run with `--release`.

use rkd_bench::{f2, render_table};
use rkd_core::ctxt::Ctxt;
use rkd_core::machine::{ExecMode, RmtMachine};
use rkd_core::prog::ModelSpec;
use rkd_core::verifier::verify;
use rkd_lang::FIGURE1_PREFETCH;
use rkd_ml::dataset::{Dataset, Sample};
use rkd_ml::fixed::Fix;
use rkd_ml::tree::{DecisionTree, TreeConfig};
use std::time::Instant;

const FIRINGS: u64 = 200_000;

fn trained_tree(arity: usize) -> DecisionTree {
    let mut samples = Vec::new();
    for i in 0..256 {
        let features: Vec<Fix> = (0..arity)
            .map(|j| Fix::from_int(((i * (j + 1)) % 16) as i64))
            .collect();
        samples.push(Sample {
            features,
            label: (i % 4 == 0) as usize,
        });
    }
    let ds = Dataset::from_samples(samples).unwrap();
    DecisionTree::train(
        &ds,
        &TreeConfig {
            max_depth: 8,
            min_samples_split: 4,
            max_thresholds: 32,
        },
    )
    .unwrap()
}

fn drive() -> (f64, f64, f64, f64) {
    // Stage 1: compile the DSL (userspace).
    let t0 = Instant::now();
    let compiled = rkd_lang::compile(FIGURE1_PREFETCH).unwrap();
    let compile_us = t0.elapsed().as_secs_f64() * 1e6;
    // Stage 2: rmt_verify().
    let t0 = Instant::now();
    let verified = verify(compiled.program.clone()).unwrap();
    let verify_us = t0.elapsed().as_secs_f64() * 1e6;
    // Stage 3: syscall_rmt() + rmt_jit() (optimize and re-verify).
    let mut vm = RmtMachine::new();
    let t0 = Instant::now();
    let id = vm.install(verified, ExecMode::Jit).unwrap();
    let install_us = t0.elapsed().as_secs_f64() * 1e6;
    // Push a real model into the dt_1 slot (quantize-and-push flow).
    let slot = compiled.models["dt_1"];
    vm.update_model(id, slot, ModelSpec::Tree(trained_tree(12)))
        .unwrap();
    // Seed the class/offset maps so predictions take the full path.
    let classmap = compiled.maps["delta_class"];
    let offsets = compiled.maps["class_offset"];
    for d in 0..8u64 {
        vm.map_update(id, classmap, d + 1, (d + 1) as i64).unwrap();
        vm.map_update(id, offsets, d + 1, (d + 1) as i64).unwrap();
    }
    // Stage 4: steady-state hook firing, measured as the best of
    // several rounds — the minimum is robust to transient interference
    // (scheduling, frequency drift) on this short action.
    const ROUNDS: u64 = 5;
    let per_round = FIRINGS / ROUNDS;
    let mut page = 0i64;
    let mut best_ns = f64::INFINITY;
    for _ in 0..ROUNDS {
        let t0 = Instant::now();
        for i in 0..per_round {
            page += 1 + (i % 7) as i64;
            let mut ctxt = Ctxt::from_values(vec![1, page]);
            vm.fire("lookup_swap_cache", &mut ctxt);
            vm.fire("swap_cluster_readahead", &mut ctxt);
        }
        let ns = t0.elapsed().as_secs_f64() * 1e9 / per_round as f64;
        best_ns = best_ns.min(ns);
    }
    (compile_us, verify_us, install_us, best_ns)
}

fn main() {
    println!("== Figure 1: RMT program lifecycle (prefetch.rmt) ==\n");
    let (compile_us, verify_us, install_us, fire_ns) = drive();
    let rows = vec![
        vec![
            "DSL compile (us)".to_string(),
            f2(compile_us),
            "one-time, userspace".to_string(),
        ],
        vec![
            "rmt_verify() (us)".to_string(),
            f2(verify_us),
            "one-time, admission".to_string(),
        ],
        vec![
            "install + rmt_jit() (us)".to_string(),
            f2(install_us),
            "one-time, syscall".to_string(),
        ],
        vec![
            "hook firing (ns, both hooks)".to_string(),
            f2(fire_ns),
            "steady state, best round".to_string(),
        ],
    ];
    println!("{}", render_table(&["Stage", "Cost", "Note"], &rows));
    // The lifecycle shape claim: every one-time stage stays far below
    // a scheduling quantum.
    let one_time_ok = [compile_us, verify_us, install_us]
        .iter()
        .all(|&us| us < 10_000.0);
    println!(
        "shape check: {}",
        if one_time_ok {
            "PASS (one-time costs bounded)"
        } else {
            "FAIL"
        }
    );
}
