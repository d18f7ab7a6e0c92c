//! `eval`: the Table-2 protocol (`EvalProtocol::build` + `evaluate`, one
//! positive and 100 sampled negatives per user) over all 700 users of
//! `ml1m-like`, T = 30, in repeated passes. Set-up trains the model for
//! two epochs with `Isrec::fit`.

use std::time::Instant;

use isrec_core::{Isrec, SequentialRecommender as _};
use ist_data::{IntentWorld, LeaveOneOut, SequentialDataset, WorldConfig};
use ist_eval::{EvalProtocol, MetricSet, ProtocolConfig, Ranking};

use crate::layers::{self, isrec_config, train_config};
use crate::spans::Spans;
use crate::util::{self, repeated_setup};
use crate::{Args, Outcome};

pub const MAX_LEN: usize = 30;

struct Setup {
    dataset: SequentialDataset,
    model: Isrec,
    protocol: EvalProtocol,
}

/// The protocol over `max_users` users (0 = all) of `dataset`.
pub fn protocol(
    dataset: &SequentialDataset,
    split: &LeaveOneOut,
    max_users: usize,
    seed: u64,
) -> EvalProtocol {
    let cfg = ProtocolConfig {
        num_negatives: 100,
        max_users,
        seed: seed ^ 0x5eed_0e7a,
        use_validation: false,
    };
    EvalProtocol::build(dataset, split, &cfg)
}

fn setup(seed: u64) -> Setup {
    let dataset = IntentWorld::new(WorldConfig::ml1m_like()).generate(seed);
    let split = LeaveOneOut::split(&dataset.sequences);
    let mut model = Isrec::new(&dataset, isrec_config(MAX_LEN), seed);
    model.fit(&dataset, &split, &train_config(2, seed));
    let protocol = protocol(&dataset, &split, 0, seed);
    Setup {
        dataset,
        model,
        protocol,
    }
}

/// Per-user times of the protocol's two halves, from [`split_passes`].
pub struct SplitTimes {
    pub score_us: f64,
    pub rank_us: f64,
    pub pass_ms: Vec<f64>,
}

/// Evaluates in passes for at least `seconds` (at least one pass), timing
/// the protocol's two halves separately: `score_batch` over every user,
/// then `Ranking::from_scores` + `MetricSet::from_rankings` — exactly what
/// `EvalProtocol::evaluate` does between its own span.
pub fn split_passes(model: &Isrec, p: &EvalProtocol, seconds: f64, spans: &Spans) -> SplitTimes {
    let hists: Vec<&[usize]> = p.histories.iter().map(Vec::as_slice).collect();
    let cands: Vec<&[usize]> = p.candidates.iter().map(Vec::as_slice).collect();
    let users = p.len().max(1) as f64;
    let (mut score_ns, mut rank_ns) = (0.0, 0.0);
    let mut pass_ms = Vec::new();
    let t_window = Instant::now();
    while pass_ms.is_empty() || t_window.elapsed().as_secs_f64() < seconds {
        let t0 = Instant::now();
        let scores = model.score_batch(&p.users, &hists, &cands);
        let t1 = Instant::now();
        let rankings: Vec<Ranking> = scores.iter().map(|s| Ranking::from_scores(s, 0)).collect();
        std::hint::black_box(MetricSet::from_rankings(&rankings));
        let t2 = Instant::now();
        let pass = spans.add("eval.pass", t0, t2, None);
        spans.add("core.score_batch", t0, t1, pass);
        spans.add("eval.rank", t1, t2, pass);
        score_ns += t1.duration_since(t0).as_nanos() as f64;
        rank_ns += t2.duration_since(t1).as_nanos() as f64;
        pass_ms.push(t2.duration_since(t0).as_secs_f64() * 1e3);
    }
    let n = pass_ms.len() as f64;
    SplitTimes {
        score_us: score_ns / 1e3 / n / users,
        rank_us: rank_ns / 1e3 / n / users,
        pass_ms,
    }
}

/// Runs `EvalProtocol::evaluate` in passes for at least `seconds`.
fn evaluate_passes(model: &Isrec, p: &EvalProtocol, seconds: f64) -> (Vec<f64>, Vec<MetricSet>) {
    let (mut pass_ms, mut results) = (Vec::new(), Vec::new());
    let t_window = Instant::now();
    while pass_ms.is_empty() || t_window.elapsed().as_secs_f64() < seconds {
        let t0 = Instant::now();
        results.push(p.evaluate(model));
        pass_ms.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    (pass_ms, results)
}

/// Evaluated users per second, as the median over chunks of the passes.
fn users_per_s(pass_ms: &[f64], users: usize) -> f64 {
    let secs: Vec<f64> = pass_ms.iter().map(|ms| ms / 1e3).collect();
    util::median_chunk_rate(&util::cumulative(&secs), users as f64)
}

fn same_metrics(a: &MetricSet, b: &MetricSet) -> bool {
    a.named()
        .iter()
        .zip(b.named())
        .all(|(x, y)| x.1.to_bits() == y.1.to_bits())
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let (s, setup_s) = repeated_setup(3, || setup(args.seed));
    let users = s.protocol.len();
    let mut out = Outcome::default();
    let spans = Spans::new(args.trace, Instant::now(), 0);

    let (pass_ms, results) = if args.trace {
        // Untraced window first: the tracing overhead is the difference
        // between two windows of this process.
        ist_obs::set_mode(ist_obs::Mode::Off);
        let (untraced_ms, results) = evaluate_passes(&s.model, &s.protocol, args.seconds / 2.0);
        ist_obs::set_mode(ist_obs::Mode::Collect);
        layers::reset_counters();
        let split = split_passes(&s.model, &s.protocol, args.seconds, &spans);
        let passes = split.pass_ms.len() as f64;
        out.metric("core.score_batch_us", split.score_us, "us");
        out.metric("eval.rank_us", split.rank_us, "us");
        layers::encoder_timers(&mut out, passes * users as f64);
        layers::tensor_counters(&mut out, passes * users as f64);
        let untraced = users_per_s(&untraced_ms, users);
        out.metric(
            "trace.throughput_delta_pct",
            (users_per_s(&split.pass_ms, users) - untraced) / untraced * 100.0,
            "%",
        );
        (split.pass_ms, results)
    } else {
        evaluate_passes(&s.model, &s.protocol, args.seconds)
    };
    let passes = pass_ms.len();
    let users_per_s = users_per_s(&pass_ms, users);
    let user_ms: Vec<f64> = pass_ms.iter().map(|ms| ms / users as f64).collect();

    // Output checks, on one more (untimed) pass: every user's scores are
    // finite, the rankings reproduce `evaluate` bitwise, and the metrics
    // are in [0, 1] with HR@10 above the 10/101 random rate.
    let hists: Vec<&[usize]> = s.protocol.histories.iter().map(Vec::as_slice).collect();
    let cands: Vec<&[usize]> = s.protocol.candidates.iter().map(Vec::as_slice).collect();
    let scores = s.model.score_batch(&s.protocol.users, &hists, &cands);
    let non_finite = scores
        .iter()
        .filter(|row| row.iter().any(|v| !v.is_finite()))
        .count();
    let rankings: Vec<Ranking> = scores.iter().map(|r| Ranking::from_scores(r, 0)).collect();
    let m = MetricSet::from_rankings(&rankings);
    out.attempted = (users * passes) as u64;
    out.failed = (non_finite * passes) as u64;
    if non_finite > 0 {
        out.problem(format!(
            "{non_finite} of {users} users have non-finite scores"
        ));
    }
    let mut wrong = Vec::new();
    if results.iter().any(|r| !same_metrics(r, &m)) {
        wrong.push("evaluate() passes disagree with the reference ranking".to_string());
    }
    if let Some((name, v)) = m
        .named()
        .iter()
        .find(|(_, v)| !(v.is_finite() && (0.0..=1.0).contains(v)))
    {
        wrong.push(format!("{name} = {v} is outside [0, 1]"));
    }
    if m.hr10.is_nan() || m.hr10 <= 10.0 / 101.0 {
        wrong.push(format!(
            "HR@10 = {} is not above the random rate 10/101",
            m.hr10
        ));
    }
    if !wrong.is_empty() {
        out.failed = out.attempted;
        for w in wrong {
            out.problem(w);
        }
    }

    if args.trace {
        crate::probes::train_and_serve(&mut out, args, &s.dataset, &s.model, &spans)?;
        spans.write(&args.spans_path())?;
    } else {
        let secs: Vec<f64> = pass_ms.iter().map(|ms| ms / 1e3).collect();
        out.end_to_end(setup_s, &user_ms, &util::cumulative(&secs));
    }
    out.named("eval.users_per_s", users_per_s, "1/s");
    out.named("eval.ndcg10", m.ndcg10, "ratio");
    out.named("eval.hr10", m.hr10, "ratio");
    out.named("eval.mrr", m.mrr, "ratio");
    out.named("eval.passes", passes as f64, "count");
    out.named("eval.user_ms_p50", util::median(&user_ms), "ms");
    out.named("eval.user_ms_p90", util::quantile(&user_ms, 0.9), "ms");
    out.named_common(setup_s);
    Ok(out)
}
