//! The serving workloads' program generator: every generated program
//! compiles and runs under the tracer, computes what a plain-Rust
//! evaluation of the same loops computes, and distinct seeds give
//! distinct source fingerprints.

use perfbench::gen::{Program, Rng, Shape};
use std::collections::HashSet;

const SHAPE: Shape = Shape {
    loops: 6,
    min_n: 8,
    max_n: 40,
    total: None,
};

fn check_runs_and_computes(p: &Program) {
    let program = minc::compile_files("inline", &[("inline", &p.source())])
        .unwrap_or_else(|e| panic!("does not compile: {e}\n{}", p.source()));
    let run = trace::run(&program, &p.run_config()).expect("runs under the tracer");
    assert!(
        run.ddg.as_ref().is_some_and(|g| !g.is_empty()),
        "traced a DDG"
    );
    for (name, want) in p.eval() {
        let got = run.f64s(&name);
        assert_eq!(got.len(), want.len(), "{name} length");
        for (i, (g, w)) in got.iter().zip(&want).enumerate() {
            assert!(
                (g - w).abs() <= 1e-9 * w.abs().max(1.0),
                "{name}[{i}]: {g} vs {w}"
            );
        }
    }
}

#[test]
fn generated_programs_compile_run_and_match_plain_rust() {
    for seed in 0..24 {
        check_runs_and_computes(&Program::random(&mut Rng::new(seed), SHAPE));
    }
}

#[test]
fn edited_programs_compile_run_and_match_plain_rust() {
    let base = Program::random(&mut Rng::new(99), SHAPE);
    for k in 0..8 {
        check_runs_and_computes(&base.const_edit(k * 7, 5000 + 611 * k as u32));
        check_runs_and_computes(&base.struct_edit(k * 131 % base.struct_variants()));
    }
    // The added-loop variants, past the per-loop ones.
    check_runs_and_computes(&base.struct_edit(base.struct_variants() - 1));
}

#[test]
fn distinct_seeds_give_distinct_source_fingerprints() {
    let mut seen = HashSet::new();
    for seed in 0..200 {
        let src = Program::random(&mut Rng::new(seed), SHAPE).source();
        let key = repro_query::fingerprint_source("inline", &[("inline", &src)]);
        assert!(seen.insert(key.0), "seed {seed} repeats a fingerprint");
    }
}

#[test]
fn a_constant_edit_keeps_the_execution_fingerprint_and_a_structural_edit_changes_it() {
    let base = Program::random(&mut Rng::new(5), SHAPE);
    let fp = |p: &Program| {
        let program = minc::compile_files("inline", &[("inline", &p.source())]).expect("compiles");
        let mut cfg = p.run_config().with_exec_fingerprint(true);
        cfg.trace = trace::TraceMode::Off;
        trace::run(&program, &cfg)
            .expect("runs")
            .exec_fp
            .expect("fingerprinted")
    };
    let f0 = fp(&base);
    assert_eq!(fp(&base.const_edit(3, 7777)), f0);
    assert_ne!(fp(&base.struct_edit(0)), f0);
    assert_ne!(fp(&base.struct_edit(base.struct_variants() - 1)), f0);
}
