//! `serve-cold` and `serve-hot`: `ist_serve::ScoreEngine` on a
//! `beauty-like` world scaled to the paper's Beauty catalog (scale 13.6:
//! 18,982 users, 12,118 items), seeded-init weights loaded from a snapshot
//! file, driven in a closed loop by two client threads (each sends its next
//! request only after the previous answer arrives), k = 10.
//!
//! * `serve-cold`: the stream cycles through 4096 distinct users' full
//!   histories, four times the 1024-entry representation cache, so no
//!   request hits and the encoder does most of the work.
//! * `serve-hot`: requests are drawn from a 256-user pool that set-up has
//!   already sent once, so every timed request is a cache hit and the
//!   encoder is bypassed.
//!
//! Every answer is checked against a reference computed straight from the
//! model: `infer_last_repr` → `matmul` with `output_item_table_t` →
//! `top_k`. Serving is bitwise batch-invariant, so the CRC over the ranked
//! (item, score bits) pairs must match exactly.

use std::collections::{HashMap, HashSet};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use isrec_core::{snapshot, Isrec};
use ist_data::{IntentWorld, SequentialDataset, WorldConfig};
use ist_nn::Module as _;
use ist_serve::{ModelSource, ModelSpec, ScoreEngine, ServeConfig, ServeFaultPlan, SloConfig};

use crate::layers::{self, isrec_config};
use crate::spans::Spans;
use crate::util::{self, answer_crc, median, quantile, repeated_setup, Gen};
use crate::{Args, Outcome};

pub const MAX_LEN: usize = 20;
const SCALE: f64 = 13.6;
const HOT_POOL: usize = 256;
/// Distinct histories the cold stream cycles through: four times the
/// cache, so a history always comes back after its entry was evicted.
const COLD_POOL: usize = 4096;
const CLIENTS: usize = 2;
const K: usize = 10;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    /// Distinct histories, cycled in a seeded order.
    Cold,
    /// Uniform draws from a pre-warmed pool.
    Hot,
}

/// Serving settings: batches of up to one request per client after at most
/// a 200 µs wait, a 1024-entry representation cache, no deadline, and
/// explicitly empty fault and SLO settings (so no `IST_SERVE_*` variable is
/// consulted). Fields not named here keep the engine's defaults.
///
/// The batch cap is the client count, not the engine's default of 32: in a
/// closed loop of two clients a batch can never fill to 32, so every batch
/// would idle out the whole 200 µs window. That wait was over half of a
/// `serve-hot` request, and as a timer wake-up on a shared host it moved
/// with the host's load. With the cap at two, a batch leaves as soon as
/// both clients' requests are in.
fn serve_config() -> ServeConfig {
    ServeConfig {
        max_batch: CLIENTS,
        batch_timeout: Duration::from_micros(200),
        cache_entries: 1024,
        deadline: None,
        queue_cap: 1024,
        max_respawns: 3,
        faults: Some(ServeFaultPlan::default()),
        slo: Some(SloConfig::default()),
        ..ServeConfig::default()
    }
}

/// A running engine plus the model it was started from.
pub struct Served {
    pub engine: ScoreEngine,
    snapshot: PathBuf,
}

impl Drop for Served {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.snapshot);
    }
}

/// Writes `model`'s weights to a snapshot file under `work_dir` and starts
/// an engine serving them.
pub fn start_engine(
    dataset: &SequentialDataset,
    model: &Isrec,
    max_len: usize,
    work_dir: &Path,
    tag: &str,
) -> Result<Served, String> {
    std::fs::create_dir_all(work_dir).map_err(|e| format!("create {work_dir:?}: {e}"))?;
    let path = work_dir.join(format!("{tag}-{}.snapshot", std::process::id()));
    let bytes = snapshot::save(&model.params())?;
    std::fs::write(&path, bytes.as_ref()).map_err(|e| format!("write {path:?}: {e}"))?;
    let served = Served {
        engine: ScoreEngine::start(
            ModelSpec {
                dataset: dataset.clone(),
                config: isrec_config(max_len),
                seed: 0,
                source: ModelSource::Snapshot(path.clone()),
            },
            serve_config(),
        )?,
        snapshot: path,
    };
    Ok(served)
}

/// Users whose effective histories (the last `max_len` items, the cache
/// key) are pairwise distinct, in a seeded order.
pub fn distinct_users(dataset: &SequentialDataset, max_len: usize, seed: u64) -> Vec<usize> {
    let mut seen = HashSet::new();
    let mut users: Vec<usize> = (0..dataset.num_users())
        .filter(|&u| {
            let s = &dataset.sequences[u];
            seen.insert(s[s.len().saturating_sub(max_len)..].to_vec())
        })
        .collect();
    Gen::new(seed, 0x57).shuffle(&mut users);
    users
}

/// Reference answers' CRCs, computed from `model` outside the engine.
pub fn reference_crcs(
    model: &Isrec,
    dataset: &SequentialDataset,
    users: &[usize],
) -> HashMap<usize, u32> {
    let table_t = model.output_item_table_t();
    let mut out = HashMap::with_capacity(users.len());
    for chunk in users.chunks(64) {
        let hists: Vec<&[usize]> = chunk
            .iter()
            .map(|&u| dataset.sequences[u].as_slice())
            .collect();
        let scores = ist_tensor::matmul::matmul(&model.infer_last_repr(&hists), &table_t);
        let n = scores.shape()[1];
        for (i, &u) in chunk.iter().enumerate() {
            let row = &scores.data()[i * n..(i + 1) * n];
            let crc = ist_serve::top_k(row, K).map_or(0, |items| answer_crc(&items));
            out.insert(u, crc);
        }
    }
    out
}

/// One answered (or failed) request of a timed window.
struct Answer {
    user: usize,
    latency_ms: f64,
    /// Completion time, seconds from the window's start.
    end_s: f64,
    /// `Some(crc)` for a non-degraded answer, `None` for an error or a
    /// degraded answer.
    crc: Option<u32>,
}

/// What a closed-loop window measured.
pub struct ServeWindow {
    answers: Vec<Answer>,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub requests: u64,
    pub batches: u64,
    /// Access-log lines of the window (traced windows only).
    access_log: Vec<String>,
}

impl ServeWindow {
    /// Answers per second, as the median over chunks of the window.
    pub fn req_per_s(&self) -> f64 {
        let mut ends: Vec<f64> = self.answers.iter().map(|a| a.end_s).collect();
        ends.sort_by(f64::total_cmp);
        util::median_chunk_rate(&ends, 1.0)
    }

    pub fn latencies_ms(&self) -> Vec<f64> {
        self.answers.iter().map(|a| a.latency_ms).collect()
    }

    pub fn ends_s(&self) -> Vec<f64> {
        self.answers.iter().map(|a| a.end_s).collect()
    }

    pub fn hit_ratio(&self) -> f64 {
        self.cache_hits as f64 / (self.cache_hits + self.cache_misses).max(1) as f64
    }

    pub fn batch_avg(&self) -> f64 {
        self.requests as f64 / self.batches.max(1) as f64
    }

    /// Users whose answers need a reference.
    fn users(&self) -> Vec<usize> {
        let set: HashSet<usize> = self.answers.iter().map(|a| a.user).collect();
        let mut v: Vec<usize> = set.into_iter().collect();
        v.sort_unstable();
        v
    }

    /// Failed requests: errors, degraded answers, and answers whose CRC
    /// differs from the reference.
    fn failures(&self, reference: &HashMap<usize, u32>) -> (u64, u64) {
        let mut errors = 0;
        let mut mismatches = 0;
        for a in &self.answers {
            match a.crc {
                None => errors += 1,
                Some(crc) if reference.get(&a.user) != Some(&crc) => mismatches += 1,
                Some(_) => {}
            }
        }
        (errors, mismatches)
    }
}

/// A `Write` sink that keeps the engine's access log in memory.
#[derive(Clone, Default)]
struct MemLog(Arc<Mutex<Vec<u8>>>);

impl Write for MemLog {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0
            .lock()
            .expect("access-log buffer")
            .extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Drives `engine` with two closed-loop clients for `seconds`. Cold
/// streams walk `users` in order from `cursor`, which carries the position
/// over to the next window on the same engine (each request a distinct
/// history until the list wraps), and stop early once the cursor reaches
/// `limit`; hot streams draw uniformly from `users`. A traced window also
/// captures the engine's per-request access log.
#[allow(clippy::too_many_arguments)]
pub fn window(
    engine: &ScoreEngine,
    dataset: &SequentialDataset,
    users: &[usize],
    kind: Kind,
    seconds: f64,
    cursor: &AtomicUsize,
    limit: usize,
    seed: u64,
    spans: &Spans,
) -> ServeWindow {
    let log = MemLog::default();
    let traced = spans.on();
    if traced {
        ist_obs::reqctx::set_access_log_writer(Box::new(log.clone()));
    }
    let before = engine.stats();
    let t0 = Instant::now();
    let deadline = t0 + Duration::from_secs_f64(seconds);
    let mut answers = Vec::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                scope.spawn(move || {
                    let mut gen = Gen::new(seed, 0x100 + c as u64);
                    let my_spans = Spans::new(traced, t0, c as u64 + 1);
                    let mut out = Vec::new();
                    while Instant::now() < deadline {
                        let user = match kind {
                            Kind::Cold => {
                                let i = cursor.fetch_add(1, Ordering::Relaxed);
                                if i >= limit {
                                    break;
                                }
                                users[i % users.len()]
                            }
                            Kind::Hot => users[gen.below(users.len())],
                        };
                        let start = Instant::now();
                        let result = engine.recommend(&dataset.sequences[user], K);
                        let end = Instant::now();
                        my_spans.add("serve.request", start, end, None);
                        let crc = match &result {
                            Ok(r) if !r.degraded => Some(answer_crc(&r.items)),
                            _ => None,
                        };
                        out.push(Answer {
                            user,
                            latency_ms: end.duration_since(start).as_secs_f64() * 1e3,
                            end_s: end.duration_since(t0).as_secs_f64(),
                            crc,
                        });
                    }
                    (out, my_spans)
                })
            })
            .collect();
        for h in handles {
            let (a, s) = h.join().expect("client thread panicked");
            answers.extend(a);
            spans.absorb(s);
        }
    });
    let after = engine.stats();
    ist_obs::reqctx::disable_access_log();
    let text = String::from_utf8_lossy(&log.0.lock().expect("access-log buffer")).into_owned();
    ServeWindow {
        answers,
        cache_hits: after.cache_hits - before.cache_hits,
        cache_misses: after.cache_misses - before.cache_misses,
        requests: after.requests - before.requests,
        batches: after.batches - before.batches,
        access_log: text.lines().map(str::to_string).collect(),
    }
}

/// Per-request stage medians (grouped, since the log holds whole
/// microseconds) from a traced window's access log, and the
/// share of requests whose stage sum exceeds their total (the access log
/// promises it never does; the first offending line is printed).
pub fn stage_metrics(out: &mut Outcome, w: &ServeWindow) {
    let mut stages: Vec<Vec<f64>> = vec![Vec::new(); STAGES.len()];
    let mut over = 0;
    for line in &w.access_log {
        let total = util::json_num(line, "total_us").unwrap_or(0.0);
        let mut sum = 0.0;
        for (i, (_, key)) in STAGES.iter().enumerate() {
            let v = util::json_num(line, key).unwrap_or(0.0);
            stages[i].push(v);
            sum += v;
        }
        if sum > total {
            if over == 0 {
                out.note(format!(
                    "access-log stage sum {sum} us exceeds total {total} us: {line}"
                ));
            }
            over += 1;
        }
    }
    for (i, (metric, _)) in STAGES.iter().enumerate() {
        out.metric(metric, util::grouped_median(&stages[i]), "us");
    }
    out.metric("serve.cache_hit_ratio", w.hit_ratio(), "ratio");
    out.metric("serve.batch_size_avg", w.batch_avg(), "req");
    let lines = w.access_log.len().max(1) as f64;
    out.metric("serve.stage_overrun_ratio", over as f64 / lines, "ratio");
}

const STAGES: [(&str, &str); 7] = [
    ("serve.queue_us", "queue_us"),
    ("serve.batch_us", "batch_us"),
    ("serve.cache_us", "cache_us"),
    ("serve.encode_us", "encode_us"),
    ("serve.score_us", "score_us"),
    ("serve.merge_us", "merge_us"),
    ("serve.reply_us", "reply_us"),
];

/// Checks every answer of `w` against `reference`; records failures.
fn check(out: &mut Outcome, w: &ServeWindow, reference: &HashMap<usize, u32>) {
    let (errors, mismatches) = w.failures(reference);
    out.attempted = w.answers.len() as u64;
    out.failed = errors + mismatches;
    if errors > 0 {
        out.problem(format!(
            "{errors} requests failed or were answered degraded"
        ));
    }
    if mismatches > 0 {
        out.problem(format!(
            "{mismatches} answers differ from the reference ranking"
        ));
    }
}

struct Setup {
    dataset: SequentialDataset,
    model: Isrec,
    served: Served,
    /// Cold: the 4096 distinct users in stream order. Hot: the pool.
    users: Vec<usize>,
}

/// Sends one request for each of `users`, split between as many threads as
/// the timed windows have clients. From a single thread every batch would
/// wait out the whole batching window for a second request that never
/// comes, and that timer wake-up, not the work, would set the set-up time.
fn warm(engine: &ScoreEngine, dataset: &SequentialDataset, users: &[usize]) -> Result<(), String> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = users
            .chunks(users.len().div_ceil(CLIENTS))
            .map(|part| {
                scope.spawn(move || {
                    for &u in part {
                        engine
                            .recommend(&dataset.sequences[u], K)
                            .map_err(|e| format!("warm-up request: {e}"))?;
                    }
                    Ok(())
                })
            })
            .collect();
        handles
            .into_iter()
            .try_for_each(|h| h.join().expect("warm-up thread panicked"))
    })
}

fn setup(args: &Args, kind: Kind) -> Result<Setup, String> {
    let dataset = IntentWorld::new(WorldConfig::beauty_like().scaled(SCALE)).generate(args.seed);
    let model = Isrec::new(&dataset, isrec_config(MAX_LEN), args.seed);
    let served = start_engine(&dataset, &model, MAX_LEN, &args.work_dir, "serve")?;
    let mut users = distinct_users(&dataset, MAX_LEN, args.seed);
    match kind {
        Kind::Hot => {
            users.truncate(HOT_POOL);
            warm(&served.engine, &dataset, &users)?;
        }
        Kind::Cold => {
            users.truncate(COLD_POOL);
            // Warm-up on the stream's tail: the window reaches those users
            // again only after more than a cache-full of other requests.
            warm(&served.engine, &dataset, &users[users.len() - 64..])?;
        }
    }
    Ok(Setup {
        dataset,
        model,
        served,
        users,
    })
}

pub fn run(args: &Args, kind: Kind) -> Result<Outcome, String> {
    let (s, setup_s) = repeated_setup(5, || setup(args, kind));
    let s = s?;
    let mut out = Outcome::default();
    let spans = Spans::new(args.trace, Instant::now(), 0);
    let off = Spans::new(false, Instant::now(), 0);

    // One stream position across both windows, so the cold stream never
    // returns to a history within a cache-full of requests.
    let cursor = AtomicUsize::new(0);
    let untraced = if args.trace {
        ist_obs::set_mode(ist_obs::Mode::Off);
        let w = window(
            &s.served.engine,
            &s.dataset,
            &s.users,
            kind,
            args.seconds / 2.0,
            &cursor,
            usize::MAX,
            args.seed ^ 1,
            &off,
        );
        ist_obs::set_mode(ist_obs::Mode::Collect);
        Some(w.req_per_s())
    } else {
        None
    };
    layers::reset_counters();
    let w = window(
        &s.served.engine,
        &s.dataset,
        &s.users,
        kind,
        args.seconds,
        &cursor,
        usize::MAX,
        args.seed,
        &spans,
    );
    // References for every user the window reached (at most the 4096-user
    // cycle or the 256-user pool), computed outside set-up and window.
    check(
        &mut out,
        &w,
        &reference_crcs(&s.model, &s.dataset, &w.users()),
    );
    let hit_ratio = w.hit_ratio();
    match kind {
        Kind::Hot if hit_ratio < 0.99 => {
            out.failed += w.cache_misses;
            out.problem(format!(
                "cache hit ratio {hit_ratio} < 0.99 on the pre-warmed pool"
            ));
        }
        Kind::Cold if w.cache_hits > 0 => {
            out.failed += w.cache_hits;
            out.problem(format!("{} cache hits on distinct histories", w.cache_hits));
        }
        _ => {}
    }
    let lat = w.latencies_ms();
    let req_per_s = w.req_per_s();

    if let Some(untraced) = untraced {
        let requests = w.answers.len() as f64;
        stage_metrics(&mut out, &w);
        layers::tensor_counters(&mut out, requests);
        let probe_users: Vec<&[usize]> = s
            .users
            .iter()
            .take(HOT_POOL)
            .map(|&u| s.dataset.sequences[u].as_slice())
            .collect();
        let batch = w.batch_avg().round() as usize;
        match kind {
            Kind::Cold => layers::encoder_timers(&mut out, requests),
            Kind::Hot => {
                // The window never reaches the encoder: its stage and layers
                // are read from a pass of distinct histories from outside the
                // pool through the same engine.
                layers::reset_counters();
                let mut others = distinct_users(&s.dataset, MAX_LEN, args.seed);
                others.retain(|u| !s.users.contains(u));
                let cursor = AtomicUsize::new(0);
                let cold = window(
                    &s.served.engine,
                    &s.dataset,
                    &others,
                    Kind::Cold,
                    1.0,
                    &cursor,
                    HOT_POOL,
                    args.seed,
                    &spans,
                );
                let mut probe = Outcome::default();
                stage_metrics(&mut probe, &cold);
                out.metric(
                    "serve.encode_us",
                    probe.metrics["serve.encode_us"].value,
                    "us",
                );
                layers::encoder_timers(&mut out, cold.answers.len() as f64);
            }
        }
        out.metric(
            "trace.throughput_delta_pct",
            (req_per_s - untraced) / untraced * 100.0,
            "%",
        );
        layers::serving_layer_probes(
            &mut out,
            &s.model,
            &probe_users,
            batch,
            Duration::from_millis(500),
        );
        crate::probes::train_and_eval(&mut out, args, &s.dataset, &s.model, &spans);
        spans.write(&args.spans_path())?;
    } else {
        out.end_to_end(setup_s, &lat, &w.ends_s());
    }
    out.named("serve.req_per_s", req_per_s, "1/s");
    out.named("serve.p50_ms", median(&lat), "ms");
    out.named("serve.p95_ms", quantile(&lat, 0.95), "ms");
    out.named("serve.p99_ms", quantile(&lat, 0.99), "ms");
    out.named("serve.requests", lat.len() as f64, "count");
    out.named("serve.cache_hit_ratio", hit_ratio, "ratio");
    out.named("serve.batch_size_avg", w.batch_avg(), "req");
    out.named_common(setup_s);
    Ok(out)
}
