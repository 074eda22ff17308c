//! An in-memory span recorder for the traced run.
//!
//! Spans are opened and closed around calls into the program's layers from
//! the benchmark's own code. Each carries a name (its layer is the part
//! before the first `.`), its start and end, its parent, and the id of the
//! sweep or request it belongs to. A span's *self time* is its duration
//! minus the part of it that its children cover, so the self times of one
//! sweep or request add up to its wall time exactly when every child lies
//! inside its parent and no two siblings overlap, which [`ledger`]
//! checks.

use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One closed span; times are nanoseconds since the recorder's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Unique id of this span.
    pub id: u64,
    /// The enclosing span, `None` for a root (one sweep or request).
    pub parent: Option<u64>,
    /// The id of the root span this span belongs to.
    pub root: u64,
    /// `layer.detail`, e.g. `machines.spawn`.
    pub name: &'static str,
    /// The machine the span worked on, or `""`.
    pub machine: &'static str,
    /// Start, in ns since the epoch.
    pub start: u64,
    /// End, in ns since the epoch.
    pub end: u64,
}

impl Span {
    /// The span's layer: its name up to the first `.`.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    /// Duration in ns.
    pub fn dur(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// A span that has been opened but not closed.
#[derive(Debug)]
pub struct Open {
    id: u64,
    parent: Option<u64>,
    root: u64,
    start: u64,
}

impl Open {
    /// This span's id, to parent children on.
    pub fn id(&self) -> u64 {
        self.id
    }
}

/// The recorder: thread-safe, append-only, held in memory until the run
/// ends.
#[derive(Debug)]
pub struct Spans {
    epoch: Instant,
    next: AtomicU64,
    done: Mutex<Vec<Span>>,
}

impl Default for Spans {
    fn default() -> Self {
        Self::new()
    }
}

impl Spans {
    /// An empty recorder whose epoch is now.
    pub fn new() -> Self {
        Spans {
            epoch: Instant::now(),
            next: AtomicU64::new(1),
            done: Mutex::new(Vec::new()),
        }
    }

    /// Nanoseconds since the epoch.
    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a root span (one sweep or one request).
    pub fn root(&self) -> Open {
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        Open {
            id,
            parent: None,
            root: id,
            start: self.now(),
        }
    }

    /// Opens a child of `parent`.
    pub fn child(&self, parent: &Open) -> Open {
        self.child_of(parent.id, parent.root)
    }

    /// Opens a child of the span with id `parent` in root `root`, for code
    /// that holds the parent's id rather than the parent.
    pub fn child_of(&self, parent: u64, root: u64) -> Open {
        Open {
            id: self.next.fetch_add(1, Ordering::Relaxed),
            parent: Some(parent),
            root,
            start: self.now(),
        }
    }

    /// Closes `open` under `name`; the name is given at close so a span
    /// can be classified by what the call turned out to do.
    pub fn close(&self, open: Open, name: &'static str, machine: &'static str) {
        let span = Span {
            id: open.id,
            parent: open.parent,
            root: open.root,
            name,
            machine,
            start: open.start,
            end: self.now(),
        };
        self.done
            .lock()
            .expect("span recorder lock is never held across a panic")
            .push(span);
    }

    /// Every closed span, in close order.
    pub fn take(&self) -> Vec<Span> {
        std::mem::take(
            &mut *self
                .done
                .lock()
                .expect("span recorder lock is never held across a panic"),
        )
    }
}

/// Per-span self times (ns), keyed by span id: each span's duration minus
/// the union of its children's intervals clipped to its own. Overlapping
/// siblings or children outside their parent therefore lose time, which
/// the ledger reports.
pub fn self_times(spans: &[Span]) -> HashMap<u64, u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start, s.end));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut kids = children.remove(&s.id).unwrap_or_default();
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = s.start;
            for (a, b) in kids {
                let a = a.max(cursor);
                let b = b.min(s.end);
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            (s.id, s.dur() - covered.min(s.dur()))
        })
        .collect()
}

/// Self time (ns) summed per layer.
pub fn layer_self_times(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let own = self_times(spans);
    let mut out = BTreeMap::new();
    for s in spans {
        *out.entry(s.layer()).or_insert(0) += own[&s.id];
    }
    out
}

/// The ledger: for every root, the largest relative gap between its wall
/// time and the sum of the self times in its tree, plus the sum of all
/// self times. A gap means a child escaped its parent or two siblings
/// overlapped, i.e. the spans misattribute time.
pub fn ledger(spans: &[Span]) -> (f64, u64) {
    let own = self_times(spans);
    let mut per_root: HashMap<u64, u64> = HashMap::new();
    for s in spans {
        *per_root.entry(s.root).or_insert(0) += own[&s.id];
    }
    let mut worst = 0.0f64;
    let mut total = 0u64;
    for s in spans.iter().filter(|s| s.parent.is_none()) {
        let sum = per_root.get(&s.id).copied().unwrap_or(0);
        total += sum;
        if s.dur() > 0 {
            worst = worst.max((sum as f64 - s.dur() as f64).abs() / s.dur() as f64);
        }
    }
    (worst, total)
}

/// Writes the spans as tab-separated lines (id, parent, root, name,
/// machine, start_ns, end_ns).
///
/// # Errors
///
/// Propagates file-system errors.
pub fn write_tsv(spans: &[Span], path: &Path) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "id\tparent\troot\tname\tmachine\tstart_ns\tend_ns")?;
    for s in spans {
        writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}\t{}\t{}",
            s.id,
            s.parent.unwrap_or(0),
            s.root,
            s.name,
            s.machine,
            s.start,
            s.end
        )?;
    }
    out.flush()
}
