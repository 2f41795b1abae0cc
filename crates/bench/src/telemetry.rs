//! `--telemetry <path>` wiring for the `gd-bench` figures.
//!
//! Each sweep point runs with its own [`Telemetry`] shard (points share no
//! mutable state, so shards need no locking); the harness merges the
//! shards **in point order** after the sweep joins, wrapping each one in a
//! synthetic `sweep.point` span so the merged JSONL reads as one document.
//! Because the merge order is the point order — never the completion
//! order — the rendered bytes are identical for any `--jobs N` and for
//! either time-advance engine.

use gd_obs::{Telemetry, Trace, Value};
use gd_types::SimTime;
use std::io::Write as _;
use std::path::Path;

/// One labelled telemetry shard; `None` when telemetry is off or the
/// point produced nothing.
pub type Shard = (String, Option<Telemetry>);

/// The telemetry a sweep point hands back, labelled under the point's
/// label when the driver merges the shards.
pub trait PointShards {
    /// Appends this point's shards to `out`, labelled under `label`.
    fn push_under(self, label: &str, out: &mut Vec<Shard>);
}

/// A point's single shard takes the point's label.
impl PointShards for Option<Telemetry> {
    fn push_under(self, label: &str, out: &mut Vec<Shard>) {
        out.push((label.to_string(), self));
    }
}

/// A point's several shards are labelled `<point label>/<shard label>`.
impl PointShards for Vec<Shard> {
    fn push_under(self, label: &str, out: &mut Vec<Shard>) {
        out.extend(
            self.into_iter()
                .map(|(sub, tele)| (format!("{label}/{sub}"), tele)),
        );
    }
}

/// Merges labelled shards in the given (point) order and writes the JSONL
/// file, announcing it on stderr. Shards that are `None` are skipped.
/// Prints a warning (but does not fail the figure) if the write is
/// impossible.
pub fn write(path: &Path, shards: &[Shard]) {
    let payload = render_shards(shards);
    match std::fs::File::create(path).and_then(|mut f| f.write_all(payload.as_bytes())) {
        Ok(()) => eprintln!("[telemetry -> {}]", path.display()),
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }
}

/// Renders labelled shards as one JSONL document, in slice order, each
/// wrapped in a synthetic `sweep.point` span (stamped at sim time zero:
/// the wrapper is structural, not temporal — each shard's own events carry
/// the real sim times).
#[must_use]
pub fn render_shards(shards: &[Shard]) -> String {
    let mut out = String::new();
    for (label, tele) in shards {
        let Some(tele) = tele else {
            continue;
        };
        let mut wrap = Trace::default();
        wrap.span_open(SimTime::ZERO, "sweep.point");
        wrap.render_jsonl(label, &mut out);
        out.push_str(&tele.render_jsonl(label));
        let mut wrap = Trace::default();
        wrap.span_close(
            SimTime::ZERO,
            "sweep.point",
            &[("events", Value::U64(tele.trace.events().len() as u64))],
        );
        wrap.render_jsonl(label, &mut out);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_shards_are_labelled_under_the_point() {
        let mut out = Vec::new();
        Some(Telemetry::new()).push_under("p0", &mut out);
        vec![("s1".to_string(), None), ("s2".to_string(), None)].push_under("p1", &mut out);
        let labels: Vec<&str> = out.iter().map(|(l, _)| l.as_str()).collect();
        assert_eq!(labels, ["p0", "p1/s1", "p1/s2"]);
    }

    #[test]
    fn shards_merge_in_slice_order_with_wrappers() {
        let mk = |n: u64| {
            let mut t = Telemetry::new();
            t.registry.counter_add("c", n);
            Some(t)
        };
        let out = render_shards(&[("p1".into(), mk(1)), ("p0".into(), mk(2))]);
        let lines: Vec<&str> = out.lines().collect();
        // p1 before p0: slice order wins, not label order.
        assert!(lines[0].contains("\"point\":\"p1\"") && lines[0].contains("sweep.point"));
        assert!(lines[1].contains("\"counter\"") && lines[1].contains("\"value\":1"));
        assert!(lines[2].contains("\"span_close\""));
        assert!(lines[3].contains("\"point\":\"p0\""));
        // Rendering twice is byte-identical.
        assert_eq!(
            out,
            render_shards(&[("p1".into(), mk(1)), ("p0".into(), mk(2))])
        );
    }

    #[test]
    fn none_shards_are_skipped() {
        let out = render_shards(&[("p0".into(), None), ("p1".into(), None)]);
        assert!(out.is_empty());
    }
}
