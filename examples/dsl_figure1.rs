//! The paper's Figure 1 program, end to end through the DSL.
//!
//! Compiles `prefetch.rmt` (the DSL rendition of the listing in the
//! paper's Figure 1), verifies and installs it, pushes a trained
//! decision tree into the `dt_1` model slot via the control plane, and
//! drives accesses through both hooks until prefetches flow.
//!
//! ```sh
//! cargo run --example dsl_figure1
//! ```

use rkd::core::ctxt::Ctxt;
use rkd::core::machine::{ExecMode, RmtMachine};
use rkd::core::prog::ModelSpec;
use rkd::core::verifier::verify;
use rkd::lang::FIGURE1_PREFETCH;
use rkd::ml::dataset::{Dataset, Sample};
use rkd::ml::fixed::Fix;
use rkd::ml::tree::{DecisionTree, TreeConfig};

fn main() {
    println!("--- prefetch.rmt (Figure 1) ---{FIGURE1_PREFETCH}-------------------------------\n");
    // Compile + verify + install.
    let compiled = rkd::lang::compile(FIGURE1_PREFETCH).expect("DSL compiles");
    println!(
        "compiled: {} tables, {} actions, {} maps, {} model slots",
        compiled.tables.len(),
        compiled.actions.len(),
        compiled.maps.len(),
        compiled.models.len()
    );
    let verified = verify(compiled.program.clone()).expect("verifier admits");
    let mut vm = RmtMachine::new();
    let prog = vm.install(verified, ExecMode::Jit).expect("install");
    println!("installed as program {prog:?} (optimized at O2)\n");

    // Control plane: publish a delta-class vocabulary and a trained
    // tree (offline "userspace training" stand-in). Class 1 = stride
    // +3; the model predicts class 1 whenever the recent history is
    // stride-3, and the offset table maps class 1 -> +3 pages.
    let classmap = compiled.maps["delta_class"];
    let offsets = compiled.maps["class_offset"];
    vm.map_update(prog, classmap, 3, 1).unwrap();
    vm.map_update(prog, offsets, 1, 3).unwrap();
    // Train "dt_1" on 12-wide (class, position) windows of a stride-3
    // stream: every window labels class 1.
    let mut samples = Vec::new();
    for start in 0..64u64 {
        let mut features = Vec::new();
        for k in 0..6u64 {
            features.push(Fix::from_int(1)); // class of delta +3
            features.push(Fix::from_int(((start + k) * 3) as i64 % 256));
        }
        samples.push(Sample { features, label: 1 });
    }
    let ds = Dataset::from_samples(samples).unwrap();
    let tree = DecisionTree::train(&ds, &TreeConfig::default()).unwrap();
    vm.update_model(prog, compiled.models["dt_1"], ModelSpec::Tree(tree))
        .expect("hot-swap dt_1");
    println!("pushed trained dt_1 into the running datapath\n");

    // Drive a stride-3 access stream through both hooks.
    let mut prefetched = Vec::new();
    for i in 0..20i64 {
        let page = 1000 + i * 3;
        let mut ctxt = Ctxt::from_values(vec![42, page]);
        vm.fire("lookup_swap_cache", &mut ctxt);
        let r = vm.fire("swap_cluster_readahead", &mut ctxt);
        for e in r.effects {
            if let rkd::core::interp::Effect::Prefetch { base, count } = e {
                prefetched.push((page, base, count));
            }
        }
    }
    println!("prefetches emitted (access page -> prefetch base x count):");
    for (page, base, count) in prefetched.iter().take(8) {
        println!("  {page} -> {base} x{count}");
    }
    assert!(
        prefetched.iter().all(|(p, b, _)| *b as i64 == p + 3),
        "model predicts the +3 stride"
    );
    println!(
        "\n{} prefetches, all at page+3 — the learned policy is live in the datapath.",
        prefetched.len()
    );
}
