//! In-memory span recorder for the traced run.
//!
//! Spans are opened and closed by the benchmark around its calls into each
//! layer's public functions; nothing inside the program is instrumented.
//! Each client thread owns one [`Tracer`], so recording never synchronizes;
//! the spans are merged and written out when the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One closed span.  Times are nanoseconds since the run's epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Unique within the run.
    pub id: u64,
    /// The span that caused this one, if any.
    pub parent: Option<u64>,
    /// Every span of one query shares its request id.
    pub request: u64,
    /// Layer-qualified name, e.g. `engine.run`.
    pub name: &'static str,
    /// Start, ns since the epoch.
    pub start_ns: u64,
    /// End, ns since the epoch.
    pub end_ns: u64,
}

impl Span {
    /// Wall time the span covers.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// An open span; hand it back to [`Tracer::close`].
#[derive(Debug)]
pub struct Open {
    id: u64,
    parent: Option<u64>,
    request: u64,
    name: &'static str,
    start: Option<Instant>,
}

impl Open {
    /// Id to pass as the parent of nested spans.
    pub fn id(&self) -> u64 {
        self.id
    }
}

/// Per-thread span recorder.  A disabled tracer reads no clock and stores
/// nothing, so the untraced run pays only a branch per span.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next_id: u64,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder for thread `lane` (ids are disjoint across lanes).
    pub fn new(enabled: bool, epoch: Instant, lane: u64) -> Self {
        Self {
            enabled,
            epoch,
            next_id: (lane << 40) + 1,
            spans: Vec::new(),
        }
    }

    /// Opens a span.
    pub fn open(&mut self, name: &'static str, parent: Option<u64>, request: u64) -> Open {
        let id = self.next_id;
        self.next_id += 1;
        Open {
            id,
            parent,
            request,
            name,
            start: self.enabled.then(Instant::now),
        }
    }

    /// Closes a span, recording it when tracing is on.
    pub fn close(&mut self, open: Open) {
        if let Some(start) = open.start {
            let end = Instant::now();
            self.spans.push(Span {
                id: open.id,
                parent: open.parent,
                request: open.request,
                name: open.name,
                start_ns: start.saturating_duration_since(self.epoch).as_nanos() as u64,
                end_ns: end.saturating_duration_since(self.epoch).as_nanos() as u64,
            });
        }
    }

    /// Runs `f` inside a span.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        parent: Option<u64>,
        request: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let open = self.open(name, parent, request);
        let out = f();
        self.close(open);
        out
    }

    /// Duration of the span closed last (0 when tracing is off).
    pub fn last_ns(&self) -> u64 {
        self.spans.last().map_or(0, Span::duration_ns)
    }

    /// The recorded spans.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Self time of every span: its duration minus the part of its interval
/// covered by its children (overlapping children are counted once).
/// Returned in the order of `spans`.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut kids = children.get(&s.id).cloned().unwrap_or_default();
            kids.sort_unstable();
            let (mut covered, mut cursor) = (0u64, s.start_ns);
            for (a, b) in kids {
                let (a, b) = (a.max(cursor), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            s.duration_ns().saturating_sub(covered)
        })
        .collect()
}

/// Per-name totals: `(count, total ns, self ns)`.
pub fn summarize(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64, u64)> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for (s, own) in spans.iter().zip(selfs) {
        let e = out.entry(s.name).or_default();
        e.0 += 1;
        e.1 += s.duration_ns();
        e.2 += own;
    }
    out
}

/// Spans as CSV, one line each, sorted by start time.
pub fn to_csv(spans: &[Span]) -> String {
    let mut sorted: Vec<&Span> = spans.iter().collect();
    sorted.sort_by_key(|s| (s.start_ns, s.id));
    let mut out = String::from("request,id,parent,name,start_ns,end_ns\n");
    for s in sorted {
        let parent = s.parent.map(|p| p.to_string()).unwrap_or_default();
        let _ = writeln!(
            out,
            "{},{},{},{},{},{}",
            s.request, s.id, parent, s.name, s.start_ns, s.end_ns
        );
    }
    out
}
