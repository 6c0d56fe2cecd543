//! # rkd-lang — the RMT domain-specific language
//!
//! §3.1: "An RMT program can be written in constrained C or a
//! domain-specific language and compiled into machine-independent
//! bytecode, and installed via a system call." This crate is that
//! compiler: [`compile`] turns DSL source into an
//! [`rkd_core::prog::RmtProgram`] plus symbol tables, ready for
//! [`rkd_core::verifier::verify`] and installation. Installing
//! optimizes and re-verifies every action at the program's
//! [`rkd_core::opt::OptLevel`] (default O2) and runs it through the
//! core's one interpreter loop.
//!
//! The language mirrors the paper's Figure 1 listing: `table`
//! declarations bind hook points and match fields, `action` bodies are
//! a constrained C subset (integer expressions, bounded loops, map and
//! ML builtins), `model` declarations reserve ML slots that the control
//! plane later fills with trained models, and `entry` items statically
//! encode match/action entries.
//!
//! # Examples
//!
//! ```
//! use rkd_core::ctxt::Ctxt;
//! use rkd_core::machine::{ExecMode, RmtMachine};
//! use rkd_core::verifier::verify;
//!
//! let compiled = rkd_lang::compile(r#"
//!     program "double" {
//!         ctxt pid: ro;
//!         action double { return arg * 2; }
//!         action fallback { return -1; }
//!         table t { hook my_hook; match pid; default fallback; }
//!         entry t key (7) action double arg 21;
//!     }
//! "#).unwrap();
//! let verified = verify(compiled.program).unwrap();
//! let mut vm = RmtMachine::new();
//! vm.install(verified, ExecMode::Jit).unwrap();
//! let mut ctxt = Ctxt::from_values(vec![7]);
//! assert_eq!(vm.fire("my_hook", &mut ctxt).verdict(), Some(42));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod ast;
pub mod error;
pub mod lower;
pub mod parser;
pub mod token;

pub use error::LangError;
pub use lower::Compiled;

/// Compiles DSL source into a program plus symbol tables.
pub fn compile(src: &str) -> Result<Compiled, LangError> {
    let ast = parser::parse(src)?;
    lower::lower(&ast)
}

/// The paper's Figure 1 `prefetch.rmt` program, expressed in the DSL:
/// a data-collection table at `lookup_swap_cache` feeding a class-
/// history ring, and a prediction table at `swap_cluster_readahead`
/// consulting a decision tree (`dt_1`).
pub const FIGURE1_PREFETCH: &str = r#"
program "prefetch.rmt" {
    ctxt pid: ro;
    ctxt page: ro;

    map last_page: hash[64];
    map class_history: ring[12];
    map delta_class: hash[64];
    map class_offset: array[16];

    model dt_1: tree(12) @ mm;

    // page_access_tab action: collect per-process access deltas.
    action data_collection {
        let last = lookup(last_page, ctxt.pid, -1);
        update(last_page, ctxt.pid, ctxt.page);
        if (last != -1) {
            let delta = ctxt.page - last;
            let class = lookup(delta_class, delta, 0);
            push(class_history, class);
            push(class_history, ctxt.page % 256);
        }
        return 0;
    }

    // page_prefetch_tab action: consult the ML model and prefetch.
    action ml_prediction {
        let v = window(class_history);
        let class = predict(dt_1, v);
        let off = lookup(class_offset, class, 0);
        if (off != 0) {
            prefetch(ctxt.page + off, 1);
        }
        return 0;
    }

    table page_access_tab {
        hook lookup_swap_cache;
        match pid;
        default data_collection;
        size 64;
    }

    table page_prefetch_tab {
        hook swap_cluster_readahead;
        match pid;
        default ml_prediction;
        size 64;
    }

    rate_limit 1024 64;
}
"#;

#[cfg(test)]
mod tests {
    use super::*;
    use rkd_core::ctxt::Ctxt;
    use rkd_core::machine::{ExecMode, RmtMachine};
    use rkd_core::verifier::verify;

    #[test]
    fn figure1_program_compiles_and_verifies() {
        let compiled = compile(FIGURE1_PREFETCH).unwrap();
        assert_eq!(compiled.program.name, "prefetch.rmt");
        assert_eq!(compiled.tables.len(), 2);
        assert_eq!(compiled.models.len(), 1);
        assert_eq!(compiled.maps.len(), 4);
        let verified = verify(compiled.program).unwrap();
        assert!(verified.prog().rate_limit.is_some());
    }

    #[test]
    fn figure1_datapath_collects_and_predicts() {
        let compiled = compile(FIGURE1_PREFETCH).unwrap();
        let verified = verify(compiled.program).unwrap();
        let mut vm = RmtMachine::new();
        let id = vm.install(verified, ExecMode::Jit).unwrap();
        // Feed accesses: collection populates last_page and the ring.
        for page in [100i64, 101, 102, 103, 104, 105, 106] {
            let mut ctxt = Ctxt::from_values(vec![1, page]);
            vm.fire("lookup_swap_cache", &mut ctxt);
            vm.fire("swap_cluster_readahead", &mut ctxt);
        }
        let stats = vm.stats(id).unwrap();
        assert_eq!(stats.invocations, 14);
        // The placeholder tree predicts class 0 -> offset 0 -> no
        // prefetch; but the ring must have filled from collection.
        let ring = compiled.maps["class_history"];
        // 6 deltas recorded -> 12 ring entries (class + position).
        let mut found = 0;
        for k in 0..12 {
            if vm.map_lookup(id, ring, k).unwrap().is_some() {
                found += 1;
            }
        }
        assert_eq!(found, 12);
    }

    #[test]
    fn compile_error_positions_surface() {
        let err =
            compile("program \"x\" { action a { let y = nosuch + 1; return y; } }").unwrap_err();
        assert!(err.to_string().contains("unknown variable 'nosuch'"));
    }
}
