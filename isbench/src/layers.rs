//! Pinned configurations and the per-layer ledger.
//!
//! Every per-layer metric is reported on every workload. A layer that the
//! workload's timed window exercises is read from that window; a layer it
//! does not exercise (serving stages on `train`, say) is read from a short
//! probe of that layer run afterwards on the same world and model. The
//! probes use the same measuring code as the workload that owns the layer,
//! so a metric means the same thing wherever it is read; README.md lists
//! which source each (workload, metric) pair uses.

use std::time::{Duration, Instant};

use isrec_core::{AdjacencyMode, CheckpointConfig, Isrec, IsrecConfig, IsrecVariant, TrainConfig};
use ist_tensor::Tensor;

use crate::util::{self, median, obs_snapshot};
use crate::Outcome;

/// Autograd ops reported as `autograd.<op>.fwd_us` and, when the op has a
/// backward rule, `.bwd_us`: the ops whose forward + backward took more
/// than 1% of a `train` step when the benchmark was defined (2-core AVX-512
/// host, ~170 ms per step). The straight-through Gumbel top-λ passes its
/// gradient through without a backward node of its own.
pub const OPS: [(&str, bool); 12] = [
    ("matmul", true),
    ("sum_lastdim", true),
    ("mul", true),
    ("transpose_01", true),
    ("reshape", true),
    ("cross_entropy_rows", true),
    ("gumbel_topk_st", false),
    ("add", true),
    ("bmm", true),
    ("cosine_similarity_rows", true),
    ("softmax_lastdim", true),
    ("relu", true),
];

/// The ISRec architecture every workload uses, built field by field so no
/// default or environment variable can change it.
#[allow(clippy::needless_update)]
pub fn isrec_config(max_len: usize) -> IsrecConfig {
    IsrecConfig {
        d: 32,
        d_prime: 8,
        lambda: 10,
        max_len,
        layers: 2,
        heads: 2,
        gcn_layers: 2,
        dropout: 0.2,
        tau: 0.75,
        variant: IsrecVariant::Full,
        concept_hidden: None,
        residual_decoder: true,
        soft_intents: true,
        adjacency: AdjacencyMode::Fixed,
        tie_concept_output: true,
        ..IsrecConfig::default()
    }
}

/// Training settings: batch 64, Adam at 1e-3, no checkpoints, and an
/// explicitly empty fault plan (so `IST_FAULTS` is never consulted).
#[allow(clippy::needless_update)]
pub fn train_config(epochs: usize, seed: u64) -> TrainConfig {
    TrainConfig {
        epochs,
        batch_size: 64,
        lr: 1e-3,
        l2: 1e-5,
        grad_clip: 5.0,
        seed,
        verbose: false,
        checkpoint: CheckpointConfig {
            dir: None,
            ..CheckpointConfig::default()
        },
        max_recovery_retries: 4,
        faults: Some(String::new()),
        ..TrainConfig::default()
    }
}

/// Zeroes the program's counters, timers and the autograd op table, so
/// the next reading covers only what runs after this call.
pub fn reset_counters() {
    ist_obs::reset();
    ist_obs::reqctx::reset_exemplars();
}

/// The encoder layers' timers since the last [`reset_counters`], per
/// operation (`ops` operations ran).
pub fn encoder_timers(out: &mut Outcome, ops: f64) {
    let snap = obs_snapshot();
    let get = |name: &str| snap.get(name).copied().unwrap_or_default();
    let ops = ops.max(1.0);
    for (metric, timer) in [
        ("nn.attention_us", "nn.attention"),
        ("nn.ffn_us", "nn.ffn"),
        ("nn.intent_mlp_us", "nn.intent_mlp"),
        ("nn.gcn_us", "nn.gcn"),
    ] {
        out.metric(metric, get(timer).value / ops, "us");
    }
}

/// The tensor layer's counters since the last reset, per operation.
pub fn tensor_counters(out: &mut Outcome, ops: f64) {
    let snap = obs_snapshot();
    let get = |name: &str| snap.get(name).copied().unwrap_or_default();
    let ops = ops.max(1.0);
    out.metric(
        "tensor.alloc_bytes",
        get("tensor.alloc_bytes").value / ops,
        "B",
    );
    out.metric(
        "tensor.peak_mb",
        get("tensor.peak_bytes").value / 1048576.0,
        "MB",
    );
    let gemm = get("tensor.gemm");
    let gflops = if gemm.value > 0.0 {
        gemm.units / (gemm.value * 1e3)
    } else {
        0.0
    };
    out.metric("tensor.gemm_gflops", gflops, "GFLOP/s");
    out.metric("pool.tasks", get("pool.tasks").value / ops, "count");
}

/// The backward pass and optimizer timers plus the autograd op table since
/// the last reset, per training step.
pub fn training_counters(out: &mut Outcome, steps: f64) {
    let snap = obs_snapshot();
    let get = |name: &str| snap.get(name).copied().unwrap_or_default();
    let steps = steps.max(1.0);
    out.metric(
        "autograd.backward_us",
        get("autograd.backward").value / steps,
        "us",
    );
    out.metric("nn.adam_us", get("nn.adam_step").value / steps, "us");
    let table = ist_autograd::profile::op_table();
    for (op, has_backward) in OPS {
        let stat = table
            .iter()
            .find(|(name, _)| *name == op)
            .map(|(_, s)| *s)
            .unwrap_or_default();
        out.metric(op_metric(op, "fwd"), stat.fwd_ns as f64 / 1e3 / steps, "us");
        if has_backward {
            out.metric(op_metric(op, "bwd"), stat.bwd_ns as f64 / 1e3 / steps, "us");
        }
    }
}

/// `autograd.<op>.<dir>_us` as a `'static` name.
fn op_metric(op: &str, dir: &str) -> &'static str {
    Box::leak(format!("autograd.{op}.{dir}_us").into_boxed_str())
}

/// Times the serving path's three model-side layers directly, per
/// request: `Isrec::infer_last_repr` over `histories` in batches of
/// `batch`, the catalog GEMM of those representations against
/// `output_item_table_t`, and `top_k` (k = 10) over one full-catalog score
/// row. Repeats for at least `budget` and reports medians.
pub fn serving_layer_probes(
    out: &mut Outcome,
    model: &Isrec,
    histories: &[&[usize]],
    batch: usize,
    budget: Duration,
) {
    let batch = batch.clamp(1, histories.len().max(1));
    let table_t = model.output_item_table_t();
    let (mut infer, mut gemm, mut topk) = (Vec::new(), Vec::new(), Vec::new());
    let t_all = Instant::now();
    let mut i = 0usize;
    while infer.len() < 5 || t_all.elapsed() < budget {
        let chunk: Vec<&[usize]> = (0..batch)
            .map(|j| histories[(i + j) % histories.len()])
            .collect();
        i += batch;
        let t0 = Instant::now();
        let repr = std::hint::black_box(model.infer_last_repr(&chunk));
        infer.push(util::us_since(t0) / batch as f64);
        let t0 = Instant::now();
        let scores = std::hint::black_box(ist_tensor::matmul::matmul(&repr, &table_t));
        gemm.push(util::us_since(t0) / batch as f64);
        let row = first_row(&scores);
        let t0 = Instant::now();
        let _ = std::hint::black_box(ist_serve::top_k(row, 10));
        topk.push(util::us_since(t0));
    }
    out.metric("core.infer_last_repr_us", median(&infer), "us");
    out.metric("tensor.catalog_gemm_us", median(&gemm), "us");
    out.metric("serve.top_k_us", median(&topk), "us");
}

fn first_row(scores: &Tensor) -> &[f32] {
    let n = scores.shape()[1];
    &scores.data()[..n]
}
