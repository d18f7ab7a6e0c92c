//! `train`: ISRec training on `beauty-like` at scale 1.0 (1398 users, 892
//! items, K = 64 concepts), T = 20, batch 64, d = 32.
//!
//! The timed window runs whole *rounds*: a fresh model from the same seed
//! trained for one epoch (22 optimizer steps) through
//! `isrec_core::trainer::train_next_item`, repeated until `--seconds` have
//! passed. Every round does the same work, so the final loss is a pure
//! function of the seed (and must repeat bitwise from round to round)
//! while the timing gathers as many steps as the window allows.

use std::time::Instant;

use isrec_core::{trainer, Isrec, IsrecConfig, TrainConfig};
use ist_data::{IntentWorld, LeaveOneOut, SequentialDataset, WorldConfig};
use ist_nn::Module as _;

use crate::layers::{self, isrec_config, train_config};
use crate::spans::Spans;
use crate::util::{self, mean, repeated_setup};
use crate::{Args, Outcome};

pub const MAX_LEN: usize = 20;

struct Setup {
    dataset: SequentialDataset,
    split: LeaveOneOut,
}

fn setup(seed: u64) -> Setup {
    let dataset = IntentWorld::new(WorldConfig::beauty_like()).generate(seed);
    let split = LeaveOneOut::split(&dataset.sequences);
    // Warm-up: one optimizer step on a 64-user slice, so the timed window
    // starts with the worker pool and allocator already running.
    let warm = LeaveOneOut::split(&dataset.sequences[..64.min(dataset.num_users())]);
    train_window(
        &dataset,
        &warm,
        &isrec_config(MAX_LEN),
        &train_config(1, seed),
        0.0,
        None,
    );
    Setup { dataset, split }
}

/// What a sequence of training rounds measured.
pub struct TrainWindow {
    /// Optimizer steps run.
    pub steps: usize,
    /// Step periods: from one entry into the forward closure to the next
    /// (the last step of a round ends when `train_next_item` returns).
    pub period_ms: Vec<f64>,
    /// Forward time of each step (`Isrec::forward_logits`).
    pub forward_ms: Vec<f64>,
    /// Final-epoch mean loss of each round.
    pub losses: Vec<f32>,
    /// Non-finite-loss or -gradient recoveries the trainer performed.
    pub recoveries: usize,
    /// The last round's trained model.
    pub model: Isrec,
}

impl TrainWindow {
    /// Optimizer steps per second, as the median over chunks of the
    /// window's step periods (time between rounds, spent building the next
    /// model, is not counted).
    pub fn steps_per_s(&self) -> f64 {
        let secs: Vec<f64> = self.period_ms.iter().map(|ms| ms / 1e3).collect();
        util::median_chunk_rate(&util::cumulative(&secs), 1.0)
    }
}

/// Trains fresh models from `tcfg.seed` round after round until `seconds`
/// have passed (at least one round), timing every optimizer step.
pub fn train_window(
    dataset: &SequentialDataset,
    split: &LeaveOneOut,
    cfg: &IsrecConfig,
    tcfg: &TrainConfig,
    seconds: f64,
    spans: Option<&Spans>,
) -> TrainWindow {
    let t_window = Instant::now();
    let (mut steps, mut recoveries) = (0, 0);
    let (mut period_ms, mut forward_ms, mut losses) = (Vec::new(), Vec::new(), Vec::new());
    loop {
        let model = Isrec::new(dataset, cfg.clone(), tcfg.seed);
        let batcher = model.batcher(tcfg.batch_size);
        let mut forwards: Vec<(Instant, Instant)> = Vec::new();
        let t0 = Instant::now();
        let report =
            trainer::train_next_item(split, &batcher, tcfg, model.params(), |ctx, batch| {
                let start = Instant::now();
                let logits = model.forward_logits(ctx, batch, false).0;
                forwards.push((start, Instant::now()));
                logits
            });
        let t_end = Instant::now();
        let round = spans.and_then(|s| s.add("train.round", t0, t_end, None));
        for (i, &(start, fwd_end)) in forwards.iter().enumerate() {
            let next = forwards.get(i + 1).map_or(t_end, |f| f.0);
            period_ms.push(next.duration_since(start).as_secs_f64() * 1e3);
            forward_ms.push(fwd_end.duration_since(start).as_secs_f64() * 1e3);
            if let Some(s) = spans {
                let step = s.add("train.step", start, next, round);
                s.add("core.forward", start, fwd_end, step);
            }
        }
        steps += forwards.len();
        recoveries += report.recovery.len();
        losses.push(report.epoch_losses.last().copied().unwrap_or(f32::NAN));
        if t_window.elapsed().as_secs_f64() >= seconds {
            return TrainWindow {
                steps,
                period_ms,
                forward_ms,
                losses,
                recoveries,
                model,
            };
        }
    }
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let (s, setup_s) = repeated_setup(5, || setup(args.seed));
    let cfg = isrec_config(MAX_LEN);
    let tcfg = train_config(1, args.seed);
    let mut out = Outcome::default();

    // A traced run first measures an untraced window, so the tracing
    // overhead is the difference between two windows of one process.
    let untraced_steps_per_s = if args.trace {
        ist_obs::set_mode(ist_obs::Mode::Off);
        let w = train_window(&s.dataset, &s.split, &cfg, &tcfg, args.seconds / 2.0, None);
        ist_obs::set_mode(ist_obs::Mode::Collect);
        Some(w.steps_per_s())
    } else {
        None
    };

    let epoch = Instant::now();
    let spans = Spans::new(args.trace, epoch, 0);
    layers::reset_counters();
    let w = train_window(
        &s.dataset,
        &s.split,
        &cfg,
        &tcfg,
        args.seconds,
        Some(&spans),
    );
    let steps_per_s = w.steps_per_s();

    // Output checks: every round's loss finite and bitwise equal (same
    // seed, same work), no recovery needed.
    out.attempted = w.steps as u64;
    out.failed = w.recoveries as u64;
    if w.recoveries > 0 {
        out.problem(format!(
            "{} non-finite recoveries in {} steps",
            w.recoveries, w.steps
        ));
    }
    if let Some(bad) = w.losses.iter().find(|l| !l.is_finite()) {
        out.failed = out.attempted;
        out.problem(format!("non-finite training loss {bad}"));
    }
    if w.losses
        .iter()
        .any(|l| l.to_bits() != w.losses[0].to_bits())
    {
        out.failed = out.attempted;
        out.problem(format!(
            "rounds of identical work gave different losses: {:?}",
            w.losses
        ));
    }
    let loss = w.losses[0] as f64;

    if args.trace {
        let fwd_us = mean(&w.forward_ms) * 1e3;
        out.metric("core.forward_us", fwd_us, "us");
        out.metric(
            "core.backward_opt_us",
            mean(&w.period_ms) * 1e3 - fwd_us,
            "us",
        );
        layers::encoder_timers(&mut out, w.steps as f64);
        layers::tensor_counters(&mut out, w.steps as f64);
        layers::training_counters(&mut out, w.steps as f64);
        let untraced = untraced_steps_per_s.expect("measured above");
        out.metric(
            "trace.throughput_delta_pct",
            (steps_per_s - untraced) / untraced * 100.0,
            "%",
        );
        crate::probes::eval_and_serve(&mut out, args, &s.dataset, &w.model, &spans)?;
        spans.write(&args.spans_path())?;
    } else {
        let secs: Vec<f64> = w.period_ms.iter().map(|ms| ms / 1e3).collect();
        out.end_to_end(setup_s, &w.period_ms, &util::cumulative(&secs));
    }
    out.named("train.steps_per_s", steps_per_s, "1/s");
    out.named("train.step_ms_p50", util::median(&w.period_ms), "ms");
    out.named("train.step_ms_p90", util::quantile(&w.period_ms, 0.9), "ms");
    out.named("train.loss", loss, "nats");
    out.named("train.steps", w.steps as f64, "count");
    out.named_common(setup_s);
    Ok(out)
}
