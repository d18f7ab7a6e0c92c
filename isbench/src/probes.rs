//! Short probes that read, on one workload's world and model, the layers
//! its own timed window does not exercise. Each probe reuses the measuring
//! code of the workload that owns the layer.

use std::sync::atomic::AtomicUsize;
use std::time::Duration;

use isrec_core::Isrec;
use ist_data::{LeaveOneOut, SequentialDataset};

use crate::layers::{self, isrec_config, train_config};
use crate::serve::{self, Kind};
use crate::spans::Spans;
use crate::util::mean;
use crate::{eval, train, Args, Outcome};

/// Users in the training probe's slice (two batches of 64).
const TRAIN_PROBE_USERS: usize = 128;
/// Users in the eval probe's protocol.
const EVAL_PROBE_USERS: usize = 64;
/// Histories the serving probes draw from.
const SERVE_PROBE_USERS: usize = 256;

/// One epoch of training on a 128-user slice: the forward / backward and
/// optimizer split per step, the backward and Adam timers, and the
/// autograd op table.
pub fn train_probe(out: &mut Outcome, dataset: &SequentialDataset, max_len: usize, seed: u64) {
    let n = TRAIN_PROBE_USERS.min(dataset.num_users());
    let split = LeaveOneOut::split(&dataset.sequences[..n]);
    layers::reset_counters();
    let w = train::train_window(
        dataset,
        &split,
        &isrec_config(max_len),
        &train_config(1, seed),
        0.0,
        None,
    );
    let fwd_us = mean(&w.forward_ms) * 1e3;
    out.metric("core.forward_us", fwd_us, "us");
    out.metric(
        "core.backward_opt_us",
        mean(&w.period_ms) * 1e3 - fwd_us,
        "us",
    );
    layers::training_counters(out, w.steps as f64);
}

/// One pass of the protocol over 64 users: `score_batch` and ranking time
/// per user.
pub fn eval_probe(
    out: &mut Outcome,
    dataset: &SequentialDataset,
    model: &Isrec,
    seed: u64,
    spans: &Spans,
) {
    let split = LeaveOneOut::split(&dataset.sequences);
    let p = eval::protocol(dataset, &split, EVAL_PROBE_USERS, seed);
    let t = eval::split_passes(model, &p, 0.0, spans);
    out.metric("core.score_batch_us", t.score_us, "us");
    out.metric("eval.rank_us", t.rank_us, "us");
}

/// One pass of distinct histories through an engine serving `model`: the
/// per-request stage medians, cache and batch figures; then the direct
/// serving-layer probes at the batch size the engine formed.
pub fn serve_probe(
    out: &mut Outcome,
    args: &Args,
    dataset: &SequentialDataset,
    model: &Isrec,
    max_len: usize,
    spans: &Spans,
) -> Result<(), String> {
    let served = serve::start_engine(dataset, model, max_len, &args.work_dir, "probe")?;
    let users = serve::distinct_users(dataset, max_len, args.seed);
    let cursor = AtomicUsize::new(0);
    let w = serve::window(
        &served.engine,
        dataset,
        &users,
        Kind::Cold,
        1.0,
        &cursor,
        users.len(),
        args.seed,
        spans,
    );
    drop(served);
    serve::stage_metrics(out, &w);
    let hists: Vec<&[usize]> = users
        .iter()
        .take(SERVE_PROBE_USERS)
        .map(|&u| dataset.sequences[u].as_slice())
        .collect();
    let batch = w.batch_avg().round() as usize;
    layers::serving_layer_probes(out, model, &hists, batch, Duration::from_millis(300));
    Ok(())
}

/// The probes a `train` run needs: the eval path and the serving path.
pub fn eval_and_serve(
    out: &mut Outcome,
    args: &Args,
    dataset: &SequentialDataset,
    model: &Isrec,
    spans: &Spans,
) -> Result<(), String> {
    eval_probe(out, dataset, model, args.seed, spans);
    serve_probe(out, args, dataset, model, train::MAX_LEN, spans)
}

/// The probes an `eval` run needs: the training path and the serving path.
pub fn train_and_serve(
    out: &mut Outcome,
    args: &Args,
    dataset: &SequentialDataset,
    model: &Isrec,
    spans: &Spans,
) -> Result<(), String> {
    serve_probe(out, args, dataset, model, eval::MAX_LEN, spans)?;
    train_probe(out, dataset, eval::MAX_LEN, args.seed);
    Ok(())
}

/// The probes a serving run needs: the training path and the eval path.
pub fn train_and_eval(
    out: &mut Outcome,
    args: &Args,
    dataset: &SequentialDataset,
    model: &Isrec,
    spans: &Spans,
) {
    eval_probe(out, dataset, model, args.seed, spans);
    train_probe(out, dataset, serve::MAX_LEN, args.seed);
}
