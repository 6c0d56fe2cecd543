//! Property tests: the verifier's bound is sound and the optimized
//! body is semantically identical to the O0 interpreter on arbitrary
//! programs.
//!
//! These are the two load-bearing correctness claims of the VM:
//! any program the verifier admits terminates within its computed
//! worst-case instruction count, and install-time optimization
//! (`rmt_jit()`) never changes behaviour relative to the verified
//! bytecode.

mod common;

use common::check_o0_opt_equivalence;
use rkd::testkit::prop_check;
use rkd::testkit::rng::Rng;

// Any admitted program terminates within the verified bound, and the
// optimized body produces identical outcomes and side effects.
prop_check!(
    verified_programs_terminate_and_optimized_body_matches,
    cases = 256,
    |g| {
        let raw = g.vec_of(0, 47, common::gen_insn);
        let arg = g.gen_range(-1000i64..1000);
        check_o0_opt_equivalence(raw, arg);
    }
);
