//! Integration: DSL programs compiled, verified, installed, and driven
//! through the VM — the full `lang -> core` pipeline.

use rkd::core::ctxt::Ctxt;
use rkd::core::machine::{ExecMode, RmtMachine};
use rkd::core::opt::OptLevel;
use rkd::core::verifier::verify;
use rkd::lang::compile;

/// Compiles at `level`, verifies, installs, and fires once; returns
/// the verdict.
fn run_program(src: &str, hook: &str, ctxt_values: Vec<i64>, level: OptLevel) -> Option<i64> {
    let mut compiled = compile(src).expect("compiles");
    compiled.program.opt_level = level;
    let verified = verify(compiled.program).expect("verifies");
    let mut vm = RmtMachine::new();
    vm.install(verified, ExecMode::Jit).expect("installs");
    let mut ctxt = Ctxt::from_values(ctxt_values);
    vm.fire(hook, &mut ctxt).verdict()
}

#[test]
fn arithmetic_and_precedence() {
    let src = r#"
        program "math" {
            action a {
                let x = 2 + 3 * 4;         // 14
                let y = (2 + 3) * 4;       // 20
                let z = x * 100 + y * 10 + (7 % 3);  // 1601
                return z - (1 << 4);       // 1585
            }
            table t { hook h; match f; default a; }
            ctxt f: ro;
        }
    "#;
    for level in [OptLevel::O0, OptLevel::O2] {
        assert_eq!(run_program(src, "h", vec![0], level), Some(1585));
    }
}

#[test]
fn control_flow_and_ctxt() {
    let src = r#"
        program "cf" {
            ctxt x: ro;
            ctxt scratch: rw;
            action classify {
                let v = ctxt.x;
                if (v < 0) { return -1; }
                if (v > 100) {
                    ctxt.scratch = v - 100;
                    return 2;
                } else {
                    ctxt.scratch = v;
                }
                return 1;
            }
            table t { hook h; match x; default classify; }
        }
    "#;
    assert_eq!(run_program(src, "h", vec![-5, 0], OptLevel::O2), Some(-1));
    assert_eq!(run_program(src, "h", vec![150, 0], OptLevel::O2), Some(2));
    assert_eq!(run_program(src, "h", vec![42, 0], OptLevel::O0), Some(1));
}

#[test]
fn bounded_loops() {
    let src = r#"
        program "loop" {
            ctxt n: ro;
            action sum {
                let acc = 0;
                let i = 0;
                repeat (10) {
                    acc = acc + i;
                    i = i + 1;
                }
                return acc;   // 0+1+..+9 = 45
            }
            table t { hook h; match n; default sum; }
        }
    "#;
    assert_eq!(run_program(src, "h", vec![0], OptLevel::O0), Some(45));
    assert_eq!(run_program(src, "h", vec![0], OptLevel::O2), Some(45));
}

#[test]
fn maps_and_state_across_firings() {
    let src = r#"
        program "counter" {
            ctxt pid: ro;
            map counts: hash[16];
            action bump {
                let c = lookup(counts, ctxt.pid, 0);
                c = c + 1;
                update(counts, ctxt.pid, c);
                return c;
            }
            table t { hook h; match pid; default bump; }
        }
    "#;
    let compiled = compile(src).unwrap();
    let verified = verify(compiled.program).unwrap();
    let mut vm = RmtMachine::new();
    vm.install(verified, ExecMode::Jit).unwrap();
    for expected in 1..=5i64 {
        let mut ctxt = Ctxt::from_values(vec![7]);
        assert_eq!(vm.fire("h", &mut ctxt).verdict(), Some(expected));
    }
    // A different pid counts independently.
    let mut ctxt = Ctxt::from_values(vec![8]);
    assert_eq!(vm.fire("h", &mut ctxt).verdict(), Some(1));
}

#[test]
fn entries_override_default() {
    let src = r#"
        program "entries" {
            ctxt pid: ro;
            action special { return arg; }
            action fallback { return 0; }
            table t { hook h; match pid; default fallback; size 8; }
            entry t key (10) action special arg 111;
            entry t key (20) action special arg 222;
        }
    "#;
    assert_eq!(run_program(src, "h", vec![10], OptLevel::O2), Some(111));
    assert_eq!(run_program(src, "h", vec![20], OptLevel::O0), Some(222));
    assert_eq!(run_program(src, "h", vec![30], OptLevel::O2), Some(0));
}

#[test]
fn tail_call_cascade() {
    let src = r#"
        program "cascade" {
            ctxt pid: ro;
            action first {
                let x = 1;
                tailcall second_tab;
            }
            action second { return 77; }
            table first_tab { hook h; match pid; default first; }
            table second_tab { hook never; match pid; default second; }
        }
    "#;
    assert_eq!(run_program(src, "h", vec![1], OptLevel::O0), Some(77));
    assert_eq!(run_program(src, "h", vec![1], OptLevel::O2), Some(77));
}

#[test]
fn helpers_emit_effects() {
    let src = r#"
        program "fx" {
            ctxt page: ro;
            action act {
                prefetch(ctxt.page + 8, 2);
                migrate(1);
                hint(5, 6, 7);
                return 0;
            }
            table t { hook h; match page; default act; }
            rate_limit 1000 100;
        }
    "#;
    let compiled = compile(src).unwrap();
    let verified = verify(compiled.program).unwrap();
    let mut vm = RmtMachine::new();
    vm.install(verified, ExecMode::Jit).unwrap();
    let mut ctxt = Ctxt::from_values(vec![100]);
    let r = vm.fire("h", &mut ctxt);
    use rkd::core::interp::Effect;
    assert_eq!(
        r.effects,
        vec![
            Effect::Prefetch {
                base: 108,
                count: 2
            },
            Effect::Migrate { migrate: true },
            Effect::Hint {
                kind: 5,
                a: 6,
                b: 7
            },
        ]
    );
}

#[test]
fn vget_tick_rand_builtins() {
    let src = r#"
        program "builtins" {
            ctxt pid: ro;
            map ring: ring[4];
            action act {
                push(ring, 10);
                push(ring, 20);
                push(ring, 30);
                let v = window(ring);
                let second = vget(v, 1);
                let t = tick();
                let r = rand();
                let parity = r & 1;
                return second * 1000 + t + parity * 0;
            }
            table t { hook h; match pid; default act; }
        }
    "#;
    let compiled = compile(src).unwrap();
    let verified = verify(compiled.program).unwrap();
    let mut vm = RmtMachine::new();
    vm.install(verified, ExecMode::Interp).unwrap();
    vm.advance_tick(3);
    let mut ctxt = Ctxt::from_values(vec![1]);
    assert_eq!(vm.fire("h", &mut ctxt).verdict(), Some(20_003));
}

#[test]
fn compile_error_corpus() {
    let cases: Vec<(&str, &str)> = vec![
        (
            "program \"x\" { action a { return y; } }",
            "unknown variable",
        ),
        (
            "program \"x\" { action a { let v = window(nomap); return 0; } }",
            "unknown map",
        ),
        (
            "program \"x\" { action a { tailcall ghost; } }",
            "unknown table",
        ),
        (
            "program \"x\" { table t { hook h; match ghost; } }",
            "unknown field",
        ),
        ("program \"x\" { map m: bogus[4]; }", "unknown map kind"),
        (
            "program \"x\" { model m: tree(12) @ warp; }",
            "unknown latency class",
        ),
        (
            "program \"x\" { action a { let x = 1; let x = 2; return x; } }",
            "already bound",
        ),
        (
            "program \"x\" { action a { repeat (0) { } return 0; } }",
            "repeat count",
        ),
    ];
    for (src, expect) in cases {
        let err = compile(src).expect_err(src);
        assert!(
            err.to_string().contains(expect),
            "source {src:?}: expected {expect:?} in {err}"
        );
    }
}

#[test]
fn verifier_catches_what_the_dsl_cannot() {
    // The DSL compiles a write to a read-only field is impossible (it
    // checks writability? no — lowering doesn't check; the verifier
    // does). Route the check through the pipeline.
    let src = r#"
        program "ro_store" {
            ctxt pid: ro;
            action a {
                ctxt.pid = 1;
                return 0;
            }
            table t { hook h; match pid; default a; }
        }
    "#;
    let compiled = compile(src).unwrap();
    assert!(verify(compiled.program).is_err());
}
