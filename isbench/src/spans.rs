//! The benchmark's own spans around its calls into the program. They are
//! kept in memory while a traced run measures and written out once, at the
//! end, as a Chrome trace (`chrome://tracing` / Perfetto).

use std::cell::RefCell;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

struct Record {
    name: &'static str,
    start_us: f64,
    end_us: f64,
    /// Index of the span that caused this one.
    parent: Option<usize>,
    tid: u64,
}

/// An in-memory span log for one thread. Disabled logs record nothing.
pub struct Spans {
    on: bool,
    epoch: Instant,
    tid: u64,
    records: RefCell<Vec<Record>>,
}

impl Spans {
    pub fn new(on: bool, epoch: Instant, tid: u64) -> Spans {
        Spans {
            on,
            epoch,
            tid,
            records: RefCell::new(Vec::new()),
        }
    }

    /// Records `[start, end)` under `name`; returns its id for children.
    pub fn add(
        &self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
    ) -> Option<usize> {
        if !self.on {
            return None;
        }
        let at = |t: Instant| t.saturating_duration_since(self.epoch).as_secs_f64() * 1e6;
        let mut r = self.records.borrow_mut();
        r.push(Record {
            name,
            start_us: at(start),
            end_us: at(end),
            parent,
            tid: self.tid,
        });
        Some(r.len() - 1)
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// Moves another thread's spans into this log (their parents stay
    /// relative to their own log, so they are re-based here).
    pub fn absorb(&self, other: Spans) {
        let mut r = self.records.borrow_mut();
        let base = r.len();
        r.extend(other.records.into_inner().into_iter().map(|mut rec| {
            rec.parent = rec.parent.map(|p| p + base);
            rec
        }));
    }

    /// Writes every span as a Chrome-trace `X` event; a no-op when off.
    pub fn write(&self, path: &Path) -> Result<(), String> {
        if !self.on {
            return Ok(());
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("create {dir:?}: {e}"))?;
        }
        let mut f = std::io::BufWriter::new(
            std::fs::File::create(path).map_err(|e| format!("create {path:?}: {e}"))?,
        );
        let records = self.records.borrow();
        let mut body = String::from("[\n");
        for (i, r) in records.iter().enumerate() {
            let parent = r.parent.map_or("null".to_string(), |p| p.to_string());
            body.push_str(&format!(
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i},\"parent\":{parent}}}}}{}\n",
                r.name,
                r.tid,
                r.start_us,
                r.end_us - r.start_us,
                if i + 1 == records.len() { "" } else { "," }
            ));
        }
        body.push_str("]\n");
        f.write_all(body.as_bytes())
            .and_then(|()| f.flush())
            .map_err(|e| format!("write {path:?}: {e}"))
    }
}
