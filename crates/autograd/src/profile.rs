//! Autograd op profiler: attributes forward/backward wall time and
//! output-tensor bytes to each op kind.
//!
//! Every op in [`crate::ops`] / [`crate::fused`] opens an [`OpGuard`] on
//! entry; [`crate::Tape::backward`] opens one per node around its backward
//! rule. Guards record into a per-op table that surfaces through the
//! `ist-obs` flush hook: a top-K table in `IST_METRICS=summary` output,
//! `"span":"autograd.op.<kind>"` lines in json mode, and an
//! `autograd.coverage` line relating attributed time to the enclosing
//! forward/backward windows (the trainer opens the forward window, the
//! tape sweep the backward one).
//!
//! ## Attribution rules
//!
//! * Only the *outermost* forward guard on a thread records: composite ops
//!   (`mean_all` delegating to `sum_all` + `scale`) attribute their whole
//!   cost to the composite, never double-counting.
//! * A thread-local op-name stack is maintained even when profiling is off
//!   (a few ns per op, no atomics) so every tape node always knows its op
//!   kind — [`crate::Tape::to_dot`] labels nodes from it.
//! * Timing/byte recording is gated like every other probe: inert but for
//!   two relaxed atomic loads unless `IST_METRICS` or `IST_TRACE` is set.
//! * Guards record on the thread that runs the op (pool workers only run
//!   kernels inside an op, never ops). Besides the process-wide ledger, a
//!   thread may open a [`Session`]: everything that thread records while
//!   the session lives is also accumulated into the session's own ledger,
//!   untouched by ops running concurrently on other threads.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use ist_obs::FlushHook;

/// Aggregate stats for one op kind.
#[derive(Default, Clone, Copy)]
pub struct OpStat {
    /// Forward wall time (outermost guards only).
    pub fwd_ns: u64,
    /// Forward calls recorded.
    pub fwd_count: u64,
    /// Backward wall time (per-node rule + gradient accumulation).
    pub bwd_ns: u64,
    /// Backward invocations recorded.
    pub bwd_count: u64,
    /// Bytes of output tensors produced by this op kind.
    pub out_bytes: u64,
}

/// Per-op stats plus the forward/backward window totals they are measured
/// against. The process-wide ledger and every [`Session`] are one each.
#[derive(Default)]
struct Ledger {
    ops: BTreeMap<&'static str, OpStat>,
    fwd_window_ns: u64,
    bwd_window_ns: u64,
}

impl Ledger {
    fn op_table(&self) -> Vec<(&'static str, OpStat)> {
        let mut rows: Vec<(&'static str, OpStat)> =
            self.ops.iter().map(|(k, v)| (*k, *v)).collect();
        rows.sort_by_key(|(_, s)| std::cmp::Reverse(s.fwd_ns + s.bwd_ns));
        rows
    }

    fn totals(&self) -> Totals {
        let mut t = Totals {
            fwd_window_ns: self.fwd_window_ns,
            bwd_window_ns: self.bwd_window_ns,
            ..Totals::default()
        };
        for s in self.ops.values() {
            t.attributed_fwd_ns += s.fwd_ns;
            t.attributed_bwd_ns += s.bwd_ns;
        }
        t
    }
}

static HOOKED: AtomicBool = AtomicBool::new(false);

fn global() -> std::sync::MutexGuard<'static, Ledger> {
    static GLOBAL: OnceLock<Mutex<Ledger>> = OnceLock::new();
    GLOBAL
        .get_or_init(|| Mutex::new(Ledger::default()))
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Applies one recording to the process-wide ledger and, when this thread
/// has a [`Session`] open, to the session's ledger too.
fn record(f: impl Fn(&mut Ledger)) {
    ensure_hooked();
    f(&mut global());
    SESSION.with(|s| {
        if let Some(ledger) = &*s.borrow() {
            f(&mut ledger.borrow_mut());
        }
    });
}

std::thread_local! {
    /// Innermost-first stack of active forward ops (always maintained).
    static OP_STACK: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
    /// The innermost [`Session`] open on this thread, if any.
    static SESSION: RefCell<Option<Rc<RefCell<Ledger>>>> = const { RefCell::new(None) };
}

/// True when any profiling sink (metrics or trace) is active.
#[inline]
pub(crate) fn on() -> bool {
    ist_obs::enabled() || ist_obs::trace_enabled()
}

/// The op currently being recorded on this thread (`"op"` outside any
/// guard) — [`crate::Tape::push`] tags nodes with it.
pub(crate) fn current_op() -> &'static str {
    OP_STACK.with(|s| s.borrow().last().copied().unwrap_or("op"))
}

fn ensure_hooked() {
    if !HOOKED.swap(true, Ordering::Relaxed) {
        ist_obs::register_flush_hook(FlushHook {
            name: "autograd.profile",
            sync: || {},
            json_lines,
            summary,
            reset,
        });
    }
}

/// RAII guard for one forward op invocation. Also opens a trace scope so
/// the op appears in the chrome-trace timeline.
pub(crate) struct OpGuard {
    pops_stack: bool,
    rec: Option<(&'static str, Instant, bool)>, // (op, start, is_backward)
    _trace: ist_obs::TraceScope,
}

/// Opens a forward-op guard; call at the top of every op function.
#[inline]
pub(crate) fn fwd(op: &'static str) -> OpGuard {
    let depth = OP_STACK.with(|s| {
        let mut s = s.borrow_mut();
        s.push(op);
        s.len()
    });
    if !on() {
        return OpGuard {
            pops_stack: true,
            rec: None,
            _trace: ist_obs::trace::scope_cat(op, "autograd"),
        };
    }
    OpGuard {
        pops_stack: true,
        // Outermost only: nested (composite) calls are part of the outer op.
        rec: (depth == 1).then(|| (op, Instant::now(), false)),
        _trace: ist_obs::trace::scope_cat(op, "autograd"),
    }
}

/// Opens a backward guard for one tape node (the reverse sweep calls this
/// per node around rule execution + gradient accumulation).
#[inline]
pub(crate) fn bwd(op: &'static str) -> OpGuard {
    if !on() {
        return OpGuard {
            pops_stack: false,
            rec: None,
            _trace: ist_obs::trace::scope_cat(op, "autograd.bwd"),
        };
    }
    OpGuard {
        pops_stack: false,
        rec: Some((op, Instant::now(), true)),
        _trace: ist_obs::trace::scope_cat(op, "autograd.bwd"),
    }
}

impl Drop for OpGuard {
    fn drop(&mut self) {
        if self.pops_stack {
            OP_STACK.with(|s| {
                s.borrow_mut().pop();
            });
        }
        if let Some((op, start, is_bwd)) = self.rec.take() {
            let ns = start.elapsed().as_nanos() as u64;
            record(|ledger| {
                let stat = ledger.ops.entry(op).or_default();
                if is_bwd {
                    stat.bwd_ns += ns;
                    stat.bwd_count += 1;
                } else {
                    stat.fwd_ns += ns;
                    stat.fwd_count += 1;
                }
            });
        }
    }
}

/// Records the output-tensor size of a freshly pushed node.
#[inline]
pub(crate) fn note_output(op: &'static str, bytes: u64) {
    if !on() {
        return;
    }
    record(|ledger| ledger.ops.entry(op).or_default().out_bytes += bytes);
}

/// Which window a [`WindowGuard`] accumulates into.
enum Window {
    Forward,
    Backward,
}

/// RAII window over a whole forward (or backward) pass; attributed op time
/// is reported as a fraction of the window total (`autograd.coverage`).
pub struct WindowGuard {
    start: Option<(Instant, Window)>,
}

/// Opens the forward window — the trainer wraps each step's forward + loss
/// construction in this.
pub fn forward_window() -> WindowGuard {
    WindowGuard {
        start: on().then(|| (Instant::now(), Window::Forward)),
    }
}

pub(crate) fn backward_window() -> WindowGuard {
    WindowGuard {
        start: on().then(|| (Instant::now(), Window::Backward)),
    }
}

impl Drop for WindowGuard {
    fn drop(&mut self) {
        if let Some((start, window)) = self.start.take() {
            let ns = start.elapsed().as_nanos() as u64;
            record(|ledger| match window {
                Window::Forward => ledger.fwd_window_ns += ns,
                Window::Backward => ledger.bwd_window_ns += ns,
            });
        }
    }
}

/// Attribution totals (test hook + coverage reporting).
#[derive(Default, Clone, Copy)]
pub struct Totals {
    /// Op-attributed forward nanoseconds.
    pub attributed_fwd_ns: u64,
    /// Op-attributed backward nanoseconds.
    pub attributed_bwd_ns: u64,
    /// Wall time inside [`forward_window`] guards.
    pub fwd_window_ns: u64,
    /// Wall time inside the tape's backward sweeps.
    pub bwd_window_ns: u64,
}

impl Totals {
    /// Fraction of window time attributed to named ops (1.0 when no window
    /// has been recorded).
    pub fn coverage(&self) -> f64 {
        let window = self.fwd_window_ns + self.bwd_window_ns;
        if window == 0 {
            return 1.0;
        }
        (self.attributed_fwd_ns + self.attributed_bwd_ns) as f64 / window as f64
    }
}

/// Current process-wide attribution totals.
pub fn totals() -> Totals {
    global().totals()
}

/// Snapshot of the process-wide per-op stats, sorted by total (fwd+bwd)
/// time, descending.
pub fn op_table() -> Vec<(&'static str, OpStat)> {
    global().op_table()
}

fn reset() {
    *global() = Ledger::default();
}

/// A profiling scope bound to the thread that opened it (see
/// [`session`]). Not `Send`: it only ever sees its own thread's ops.
pub struct Session {
    ledger: Rc<RefCell<Ledger>>,
    outer: Option<Rc<RefCell<Ledger>>>,
}

/// Opens a [`Session`] on the calling thread. Until it is dropped, every op,
/// backward rule and window this thread records (while profiling is on)
/// is accumulated into the session as well as the process-wide ledger.
/// Sessions nest: the innermost one receives the records, and dropping it
/// reinstates the one it shadowed.
pub fn session() -> Session {
    let ledger = Rc::new(RefCell::new(Ledger::default()));
    let outer = SESSION.with(|s| s.borrow_mut().replace(Rc::clone(&ledger)));
    Session { ledger, outer }
}

impl Session {
    /// This session's per-op stats, sorted like [`op_table`].
    pub fn op_table(&self) -> Vec<(&'static str, OpStat)> {
        self.ledger.borrow().op_table()
    }

    /// This session's attribution totals.
    pub fn totals(&self) -> Totals {
        self.ledger.borrow().totals()
    }
}

impl Drop for Session {
    fn drop(&mut self) {
        SESSION.with(|s| *s.borrow_mut() = self.outer.take());
    }
}

fn json_lines(out: &mut Vec<String>) {
    for (op, s) in op_table() {
        if s.fwd_count + s.bwd_count == 0 {
            continue;
        }
        out.push(format!(
            "{{\"span\":\"autograd.op.{op}\",\"elapsed_us\":{},\"fwd_us\":{},\"fwd_count\":{},\
             \"bwd_us\":{},\"bwd_count\":{},\"out_bytes\":{}}}",
            (s.fwd_ns + s.bwd_ns) / 1_000,
            s.fwd_ns / 1_000,
            s.fwd_count,
            s.bwd_ns / 1_000,
            s.bwd_count,
            s.out_bytes
        ));
    }
    let t = totals();
    if t.fwd_window_ns + t.bwd_window_ns > 0 {
        out.push(format!(
            "{{\"span\":\"autograd.coverage\",\"elapsed_us\":{},\"window_us\":{},\
             \"coverage\":{:.4}}}",
            (t.attributed_fwd_ns + t.attributed_bwd_ns) / 1_000,
            (t.fwd_window_ns + t.bwd_window_ns) / 1_000,
            t.coverage()
        ));
    }
}

const TOP_K: usize = 12;

fn summary(out: &mut String) {
    let rows = op_table();
    if rows.is_empty() {
        return;
    }
    out.push_str(&format!(
        "{:<22} {:>10} {:>8} {:>10} {:>8} {:>10}\n",
        "autograd op", "fwd ms", "calls", "bwd ms", "calls", "out MB"
    ));
    for (op, s) in rows.iter().take(TOP_K) {
        out.push_str(&format!(
            "{op:<22} {:>10.3} {:>8} {:>10.3} {:>8} {:>10.2}\n",
            s.fwd_ns as f64 / 1e6,
            s.fwd_count,
            s.bwd_ns as f64 / 1e6,
            s.bwd_count,
            s.out_bytes as f64 / (1024.0 * 1024.0)
        ));
    }
    if rows.len() > TOP_K {
        out.push_str(&format!("… {} more op kinds\n", rows.len() - TOP_K));
    }
    let t = totals();
    if t.fwd_window_ns + t.bwd_window_ns > 0 {
        out.push_str(&format!(
            "op-attributed time: {:.1} ms of {:.1} ms forward+backward ({:.1}%)\n",
            (t.attributed_fwd_ns + t.attributed_bwd_ns) as f64 / 1e6,
            (t.fwd_window_ns + t.bwd_window_ns) as f64 / 1e6,
            t.coverage() * 100.0
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ops, Tape};
    use ist_tensor::Tensor;

    #[test]
    fn session_ignores_ops_recorded_on_other_threads() {
        ist_obs::set_mode(ist_obs::Mode::Summary);
        let session = session();
        let matmul = || {
            let tape = Tape::new();
            let a = tape.leaf(Tensor::ones(&[8, 8]));
            let _ = ops::matmul(&a, &a);
        };
        // Another thread's op lands while the session is open…
        std::thread::spawn(matmul).join().unwrap();
        // …and a session opened on that thread sees only that thread.
        let other = std::thread::spawn(move || {
            let inner = super::session();
            matmul();
            matmul();
            inner.op_table()
        })
        .join()
        .unwrap();
        matmul();
        let count = |rows: &[(&str, OpStat)]| {
            rows.iter()
                .find(|(k, _)| *k == "matmul")
                .map_or(0, |(_, s)| s.fwd_count)
        };
        assert_eq!(count(&session.op_table()), 1);
        assert_eq!(count(&other), 2);
        assert!(
            count(&op_table()) >= 4,
            "the global table sees every thread"
        );
        ist_obs::set_mode(ist_obs::Mode::Off);
    }
}
