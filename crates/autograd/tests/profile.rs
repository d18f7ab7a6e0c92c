//! Autograd profiler integration tests: op attribution, window coverage,
//! and DOT export.
//!
//! Tests in one binary run in parallel and the op table is process-wide, so
//! the attribution/coverage checks read a thread-scoped `profile::session`
//! rather than the global table: ops the DOT-export test records
//! concurrently on its own thread cannot land in it.

use ist_autograd::{fused, ops, profile, Param, Tape};
use ist_tensor::rng::{randn, SeedRng, SeedRngExt};
use ist_tensor::Tensor;

#[test]
fn attribution_and_coverage() {
    ist_obs::set_mode(ist_obs::Mode::Summary);
    ist_obs::reset();
    let session = profile::session();

    let n = 96;
    let mut rng = SeedRng::seed(7);
    for _ in 0..3 {
        let tape = Tape::new();
        let _window = profile::forward_window();
        let a = tape.leaf(randn(&[n, n], 1.0, &mut rng));
        let b = tape.leaf(randn(&[n, n], 1.0, &mut rng));
        let prod = ops::matmul(&a, &b);
        let act = ops::tanh(&prod);
        let gamma = tape.leaf(Tensor::full(&[n], 1.0));
        let beta = tape.leaf(Tensor::zeros(&[n]));
        let norm = fused::layer_norm_rows(&act, &gamma, &beta, 1e-5);
        let loss = ops::mean_all(&ops::mul(&norm, &norm));
        drop(_window);
        tape.backward(&loss);
    }

    let rows = session.op_table();
    let find = |op: &str| {
        rows.iter()
            .find(|(k, _)| *k == op)
            .map(|(_, s)| *s)
            .unwrap_or_else(|| panic!("op {op:?} missing from profile table"))
    };

    let mm = find("matmul");
    assert_eq!(mm.fwd_count, 3);
    assert!(mm.bwd_count >= 3, "matmul backward not attributed");
    assert_eq!(mm.out_bytes, 3 * (n * n * 4) as u64);

    let ln = find("layer_norm_rows");
    assert_eq!(ln.fwd_count, 3);
    assert!(ln.bwd_count >= 3);

    // mean_all delegates to sum_all + scale; the composite gets the forward
    // attribution (outermost guard), the inner nodes keep their own op tags
    // and therefore their own backward attribution.
    let mean = find("mean_all");
    assert_eq!(mean.fwd_count, 3);
    assert_eq!(mean.bwd_count, 0);
    assert!(find("sum_all").bwd_count >= 3);

    // Everything inside the forward window is an op call, and the backward
    // window is the sweep itself, so attribution should account for nearly
    // all of both (glue between ops is the only uncovered time).
    let t = session.totals();
    assert!(t.fwd_window_ns > 0 && t.bwd_window_ns > 0);
    assert!(
        t.coverage() >= 0.90,
        "op attribution should cover the forward+backward windows, got {:.3}",
        t.coverage()
    );

    // The summary render includes the top-K table and coverage line.
    let summary = ist_obs::render_summary();
    assert!(summary.contains("autograd op"), "summary:\n{summary}");
    assert!(summary.contains("matmul"));
    assert!(summary.contains("op-attributed time"));

    // json snapshot lines use the span schema the CI validator expects.
    let json = ist_obs::snapshot_json().join("\n");
    assert!(json.contains("\"span\":\"autograd.op.matmul\""));
    assert!(json.contains("\"span\":\"autograd.coverage\""));

    ist_obs::set_mode(ist_obs::Mode::Off);
}

#[test]
fn dot_export_names_ops_and_params() {
    let tape = Tape::new();
    let mut rng = SeedRng::seed(3);
    let w = Param::new("w.proj", randn(&[4, 4], 1.0, &mut rng));
    let wv = w.leaf(&tape);
    let x = tape.constant(randn(&[2, 4], 1.0, &mut rng));
    let h = ops::matmul(&x, &wv);
    let _loss = ops::sum_all(&ops::relu(&h));

    let dot = tape.to_dot();
    assert!(dot.starts_with("digraph tape {"));
    assert!(dot.contains("param: w.proj"), "dot:\n{dot}");
    assert!(dot.contains("matmul"));
    assert!(dot.contains("relu"));
    assert!(dot.contains("style=dashed"), "constants should be dashed");
    assert!(dot.contains("->"));
    assert!(dot.trim_end().ends_with('}'));

    // Every node referenced by an edge is declared.
    for cap in dot.lines().filter(|l| l.contains("->")) {
        let ids: Vec<&str> = cap
            .trim()
            .trim_end_matches(';')
            .split("->")
            .map(str::trim)
            .collect();
        for id in ids {
            assert!(dot.contains(&format!("{id} [label=")), "undeclared {id}");
        }
    }
}
