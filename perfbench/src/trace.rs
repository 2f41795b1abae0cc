//! In-memory span recorder for the traced run.
//!
//! The benchmark records spans from its own code, around the public calls
//! it makes into each layer; the simulator crates carry no hooks. A span
//! has a name, a start and an end (ns since the run's clock origin), the
//! span that caused it, and a track (0 = the main thread, `1 + host` = a
//! fleet host on a pool worker). Spans stay in memory and are written out
//! once, when the run ends.
//!
//! A disabled tracer never reads the clock: [`Tracer::span`] is one branch
//! and a direct call, so the untraced passes run the same code.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::time::Instant;

/// The run's clock origin: the benchmark's one wall-clock read. Every
/// later time is [`now_ns`] against it.
#[allow(clippy::disallowed_methods)] // the benchmark measures wall time
pub fn clock_origin() -> Instant {
    Instant::now() // detlint: allow(instant) gd-lint: allow(sim-purity)
}

/// Host nanoseconds since `origin`.
pub fn now_ns(origin: Instant) -> u64 {
    u64::try_from(origin.elapsed().as_nanos()).expect("a run lasts less than 584 years")
}

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Free-form label within a layer (the app of a `dram.run_trace`).
    pub tag: &'static str,
    /// Index of the causing span in the same recording, if any.
    pub parent: Option<usize>,
    pub track: usize,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records nested spans on one track.
#[derive(Debug)]
pub struct Tracer {
    origin: Option<Instant>,
    track: usize,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that records nothing and never reads the clock.
    pub fn off() -> Self {
        Tracer {
            origin: None,
            track: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A recording tracer on `track`, timed against the shared `origin`.
    pub fn on(origin: Instant, track: usize) -> Self {
        Tracer {
            origin: Some(origin),
            track,
            ..Tracer::off()
        }
    }

    /// A fresh tracer for another track, recording iff `self` records.
    pub fn child(&self, track: usize) -> Self {
        match self.origin {
            Some(origin) => Tracer::on(origin, track),
            None => Tracer::off(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.origin.is_some()
    }

    /// Runs `f` inside a span named `name` (a plain call when disabled).
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        self.span_tagged(name, "", f)
    }

    /// [`span`](Self::span) with a tag.
    pub fn span_tagged<T>(
        &mut self,
        name: &'static str,
        tag: &'static str,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        let Some(origin) = self.origin else {
            return f(self);
        };
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            tag,
            parent: self.open.last().copied(),
            track: self.track,
            start_ns: now_ns(origin),
            end_ns: 0,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = now_ns(origin);
        out
    }

    /// Index of the innermost open span.
    pub fn current(&self) -> Option<usize> {
        self.open.last().copied()
    }

    /// Moves another track's spans in, re-parenting its roots under
    /// `parent` (a span of this recording).
    pub fn adopt(&mut self, parent: Option<usize>, spans: Vec<Span>) {
        let base = self.spans.len();
        self.spans.extend(spans.into_iter().map(|mut s| {
            s.parent = match s.parent {
                Some(p) => Some(base + p),
                None => parent,
            };
            s
        }));
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Per-name roll-up: call count, total and self time.
#[derive(Debug, Clone, Copy, Default)]
pub struct Rollup {
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Rolls `spans` up by name. A span's self time is its duration minus the
/// durations of its children on the same track (those nest and never
/// overlap); children on other tracks run in parallel and are not
/// subtracted.
pub fn rollup(spans: &[Span]) -> BTreeMap<&'static str, Rollup> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            if spans[p].track == s.track {
                child_ns[p] += s.dur_ns();
            }
        }
    }
    let mut out: BTreeMap<&'static str, Rollup> = BTreeMap::new();
    for (s, child) in spans.iter().zip(child_ns) {
        let r = out.entry(s.name).or_default();
        r.calls += 1;
        r.total_ns += s.dur_ns();
        r.self_ns += s.dur_ns() - child;
    }
    out
}

/// Writes `spans` as JSON lines. Spans whose parent is named `fold_under`
/// are written as one line per (parent, name) with their call count and
/// total time instead of one line each: the fleet's per-second KSM and
/// daemon spans number in the millions.
pub fn write_jsonl(
    path: &std::path::Path,
    spans: &[Span],
    fold_under: &str,
) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    let mut folded: BTreeMap<(usize, &'static str), (u64, u64)> = BTreeMap::new();
    for (id, s) in spans.iter().enumerate() {
        match s.parent {
            Some(p) if spans[p].name == fold_under => {
                let e = folded.entry((p, s.name)).or_default();
                e.0 += 1;
                e.1 += s.dur_ns();
            }
            parent => writeln!(
                out,
                "{{\"id\":{id},\"parent\":{},\"name\":\"{}\",\"tag\":\"{}\",\"track\":{},\"start_ns\":{},\"end_ns\":{}}}",
                parent.map_or("null".to_string(), |p| p.to_string()),
                s.name,
                s.tag,
                s.track,
                s.start_ns,
                s.end_ns
            )?,
        }
    }
    for ((parent, name), (calls, total_ns)) in folded {
        writeln!(
            out,
            "{{\"parent\":{parent},\"name\":\"{name}\",\"calls\":{calls},\"total_ns\":{total_ns}}}"
        )?;
    }
    out.flush()
}
