//! Small helpers shared by the workloads: a seeded input generator,
//! order statistics, process memory, and readers for the counters and
//! timers the program exports through `ist-obs`.

use std::time::Instant;

/// SplitMix64: the benchmark's own input generator, so the inputs depend
/// only on `--seed`, never on the program's RNG.
pub struct Gen(u64);

impl Gen {
    pub fn new(seed: u64, stream: u64) -> Gen {
        Gen(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (n > 0).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// Nearest-rank quantile of unsorted samples (0 for an empty set).
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let idx = (q * (s.len() - 1) as f64).round() as usize;
    s[idx.min(s.len() - 1)]
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Median of whole-number samples that were truncated from finer values,
/// such as the access log's microseconds (`ns / 1000`): each value `v`
/// stands for the interval `[v, v + 1)`, and the median is interpolated
/// inside the interval that holds it. Keeps the sub-unit resolution that
/// the plain median of integers would lose.
pub fn grouped_median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let half = s.len() as f64 / 2.0;
    let m = s[s.len() / 2];
    let below = s.partition_point(|&v| v < m) as f64;
    let equal = s.partition_point(|&v| v <= m) as f64 - below;
    m + (half - below) / equal
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// Throughput as the median over ten consecutive chunks of a window: each
/// chunk's operations divided by the time from the previous chunk's last
/// completion to its own (the first chunk starts at the window's start).
/// `ends_s` are the sorted completion times, in seconds from the start, of
/// units of `ops_each` operations each. A stall confined to a few chunks
/// moves this less than it moves the window's overall rate.
pub fn median_chunk_rate(ends_s: &[f64], ops_each: f64) -> f64 {
    const CHUNKS: usize = 10;
    let n = ends_s.len();
    let k = CHUNKS.min(n);
    let mut rates = Vec::with_capacity(k);
    let mut prev_end = 0.0;
    for j in 0..k {
        let (lo, hi) = (j * n / k, (j + 1) * n / k);
        let end = ends_s[hi - 1];
        rates.push((hi - lo) as f64 * ops_each / (end - prev_end));
        prev_end = end;
    }
    median(&rates)
}

/// Per-operation latency with the host's slow spells left out: operations
/// are grouped by the one-second interval of the window in which they
/// completed (`ends_s`, seconds from the window's start, one per value),
/// each interval's median is taken, and the lower quartile of those
/// medians is returned.
///
/// On the shared host the benchmark was tuned on, the same program runs in
/// two states that switch every few seconds: a fast one and one about 1.4×
/// slower, in which the program's own CPU time per operation rises by the
/// same factor (a neighbour's load, not waiting on the scheduler). The
/// median over a whole run then reads whichever state held more than half
/// of it and jumps between them from run to run. Interference only adds
/// time, so the lower quartile of the per-second medians reads the fast
/// state as long as at least a quarter of the run had it.
pub fn quiet_p50(values: &[f64], ends_s: &[f64]) -> f64 {
    let mut seconds: Vec<Vec<f64>> = Vec::new();
    for (&v, &end) in values.iter().zip(ends_s) {
        let i = end.max(0.0) as usize;
        if seconds.len() <= i {
            seconds.resize_with(i + 1, Vec::new);
        }
        seconds[i].push(v);
    }
    let medians: Vec<f64> = seconds
        .iter()
        .filter(|s| !s.is_empty())
        .map(|s| median(s))
        .collect();
    quantile(&medians, 0.25)
}

/// Completion times of back-to-back operations with the given durations.
pub fn cumulative(durations: &[f64]) -> Vec<f64> {
    durations
        .iter()
        .scan(0.0, |t, d| {
            *t += d;
            Some(*t)
        })
        .collect()
}

/// Microseconds since `t0`.
pub fn us_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e6
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Runs `setup` `reps` times and returns the last result with the median
/// wall time in seconds. Earlier results are dropped before the next
/// repetition starts, so only one set-up is alive at a time.
pub fn repeated_setup<T>(reps: usize, mut setup: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        drop(last.take());
        let t0 = Instant::now();
        last = Some(setup());
        times.push(t0.elapsed().as_secs_f64());
    }
    (last.expect("at least one set-up"), median(&times))
}

/// The value of `"key":<number>` in a flat JSON object line.
pub fn json_num(line: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\":");
    let rest = &line[line.find(&pat)? + pat.len()..];
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || matches!(c, '.' | '-' | '+' | 'e' | 'E')))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// The value of `"key":"<string>"` in a flat JSON object line.
pub fn json_str<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":\"");
    let rest = &line[line.find(&pat)? + pat.len()..];
    Some(&rest[..rest.find('"')?])
}

/// One aggregate read from the `ist-obs` registry snapshot.
#[derive(Clone, Copy, Debug, Default)]
pub struct ObsValue {
    /// Timer total in microseconds, or a counter/gauge value.
    pub value: f64,
    /// Timer work units (FLOPs for `tensor.gemm`).
    pub units: f64,
}

/// The registry's timers, counters and gauges by name, as the program
/// exports them (`ist_obs::snapshot_json`).
pub fn obs_snapshot() -> std::collections::BTreeMap<String, ObsValue> {
    let mut out = std::collections::BTreeMap::new();
    for line in ist_obs::snapshot_json() {
        if let Some(name) = json_str(&line, "span") {
            out.insert(
                name.to_string(),
                ObsValue {
                    value: json_num(&line, "elapsed_us").unwrap_or(0.0),
                    units: json_num(&line, "units").unwrap_or(0.0),
                },
            );
        } else if let Some(name) = json_str(&line, "counter") {
            out.insert(
                name.to_string(),
                ObsValue {
                    value: json_num(&line, "value").unwrap_or(0.0),
                    ..Default::default()
                },
            );
        }
    }
    out
}

/// CRC-32 over the ranked `(item id, score bits)` pairs of one answer —
/// the same fingerprint the serving CLI reports as `scores_crc`.
pub fn answer_crc(items: &[ist_serve::Recommendation]) -> u32 {
    let mut bytes = Vec::with_capacity(items.len() * 8);
    for r in items {
        bytes.extend_from_slice(&(r.item as u32).to_le_bytes());
        bytes.extend_from_slice(&r.score.to_bits().to_le_bytes());
    }
    isrec_core::snapshot::crc32(&bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_readers_pick_the_named_field() {
        let line = r#"{"span":"nn.gcn","elapsed_us":1234,"count":5,"units":10,"unit":"node","rate_per_s":1.5e3}"#;
        assert_eq!(json_str(line, "span"), Some("nn.gcn"));
        assert_eq!(json_num(line, "elapsed_us"), Some(1234.0));
        assert_eq!(json_num(line, "rate_per_s"), Some(1.5e3));
        assert_eq!(json_num(line, "missing"), None);
    }

    #[test]
    fn quantiles_are_nearest_rank() {
        let v: Vec<f64> = (1..=11).map(f64::from).collect();
        assert_eq!(median(&v), 6.0);
        assert_eq!(quantile(&v, 0.9), 10.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn grouped_median_interpolates_inside_the_unit() {
        assert_eq!(grouped_median(&[1.0, 1.0, 1.0, 1.0]), 1.5);
        assert_eq!(grouped_median(&[1.0, 2.0, 2.0, 2.0]), 2.0 + 1.0 / 3.0);
        assert_eq!(grouped_median(&[0.0, 0.0]), 0.5);
    }

    #[test]
    fn chunk_rate_ignores_a_stall_in_one_chunk() {
        let mut durations = vec![0.1; 100];
        durations[5] = 10.0;
        let rate = median_chunk_rate(&cumulative(&durations), 2.0);
        assert!((rate - 20.0).abs() < 1e-9, "{rate}");
        assert_eq!(median_chunk_rate(&[], 1.0), 0.0);
    }

    #[test]
    fn generator_is_seeded() {
        let a: Vec<u64> = (0..4).map(|_| Gen::new(7, 1).next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        assert_ne!(Gen::new(7, 1).next_u64(), Gen::new(8, 1).next_u64());
    }
}
