//! The `gd-bench` driver: one binary for every figure and table.
//!
//! ```text
//! gd-bench list                      the figure ids, one per line
//! gd-bench run <fig> [flags]         one figure, to stdout
//! gd-bench regen [--check] [fig…]    rewrite (or byte-check) results/<fig>.txt
//! ```
//!
//! A figure is a registry entry ([`Figure`], listed in
//! [`crate::figures::FIGURES`]): its id, the flags it declares, its
//! canonical config description and its rendering code. The driver owns
//! the wiring around the rendering code — the provenance line, the
//! `[strict-validate: …]` banner, the timed sweep and its
//! `BENCH_<fig>.json` sidecar, and the merge of per-point telemetry shards
//! — so every figure gets it identically. Sidecar and telemetry
//! announcements go to stderr: stdout is exactly the snapshot.
//!
//! Exit codes: 0 success, 1 stale snapshots under `regen --check`, 2 bad
//! command line (with usage on stderr).

use crate::cli::{self, Flag, Opts};
use crate::energy::memspec_suffix;
use crate::provenance::provenance_line;
use crate::report::Report;
use crate::sweep::{results_dir, sweep, PointTiming, SweepTiming};
use crate::telemetry::{PointShards, Shard};
use std::path::Path;
use std::time::Instant;

/// One figure or table of the evaluation.
pub struct Figure {
    /// The id: the `run` argument and the `results/<id>.txt` stem.
    pub id: &'static str,
    /// The flags the figure's computation reads, beyond `--jobs` and
    /// `--telemetry`.
    pub flags: &'static [Flag],
    /// The canonical description of everything that determines the
    /// figure's numbers; its hash is the provenance `config=`.
    pub config: fn(&Opts) -> String,
    /// Runs the sweep ([`Ctx::sweep`]) and writes the tables.
    pub run: fn(&mut Ctx<'_>),
}

/// What a figure's rendering code works with.
pub struct Ctx<'a> {
    /// The parsed flags.
    pub opts: &'a Opts,
    /// Where the tables go.
    pub out: Report,
    fig: &'static str,
    timing: Option<SweepTiming>,
    shards: Vec<Shard>,
}

impl Ctx<'_> {
    /// Runs `f` over every point on `--jobs` workers and returns the
    /// results in point order. Each point also hands back its telemetry,
    /// which the driver merges in point order under the point's label;
    /// the wall-clock profile becomes the figure's `BENCH_<fig>.json`.
    pub fn sweep<T, R, S, F>(&mut self, points: &[T], labels: &[String], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        S: PointShards + Send,
        F: Fn(&T) -> (R, S) + Sync,
    {
        let jobs = self.opts.jobs;
        self.timed_sweep(points, labels, jobs, jobs.clamp(1, points.len().max(1)), f)
    }

    /// [`Ctx::sweep`] with the points run one after another, for figures
    /// that parallelize *inside* each point (the fleet shards hosts over
    /// `--jobs` workers); the sidecar records that inner width.
    pub fn sweep_serial<T, R, S, F>(&mut self, points: &[T], labels: &[String], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        S: PointShards + Send,
        F: Fn(&T) -> (R, S) + Sync,
    {
        let jobs = self.opts.jobs;
        self.timed_sweep(points, labels, 1, jobs, f)
    }

    /// The timed sweep itself: the one place figures read the wall clock.
    /// The sidecar is *about* wall time and never feeds back into any
    /// simulated result.
    #[allow(clippy::disallowed_methods)] // wall-time measurement is the point
    fn timed_sweep<T, R, S, F>(
        &mut self,
        points: &[T],
        labels: &[String],
        pool_jobs: usize,
        recorded_jobs: usize,
        f: F,
    ) -> Vec<R>
    where
        T: Sync,
        R: Send,
        S: PointShards + Send,
        F: Fn(&T) -> (R, S) + Sync,
    {
        assert_eq!(points.len(), labels.len(), "one label per sweep point");
        assert!(self.timing.is_none(), "{} runs one sweep", self.fig);
        let t0 = Instant::now(); // detlint: allow(instant) gd-lint: allow(sim-purity)
        let timed = sweep(points, pool_jobs, |_, p| {
            let p0 = Instant::now(); // detlint: allow(instant) gd-lint: allow(sim-purity)
            let r = f(p);
            (r, p0.elapsed().as_secs_f64())
        });
        let total_s = t0.elapsed().as_secs_f64();
        let mut results = Vec::with_capacity(points.len());
        let mut timings = Vec::with_capacity(points.len());
        for (label, ((r, shards), seconds)) in labels.iter().zip(timed) {
            shards.push_under(label, &mut self.shards);
            results.push(r);
            timings.push(PointTiming {
                label: label.clone(),
                seconds,
            });
        }
        self.timing = Some(SweepTiming {
            fig: self.fig.to_string(),
            jobs: recorded_jobs.max(1),
            total_s,
            points: timings,
        });
        results
    }
}

/// Runs `fig` under `opts`, writing the provenance line, the strict
/// banner and the tables to `out`, and the merged telemetry to
/// `--telemetry`. Returns the report and the sweep's timing.
pub fn render(fig: &Figure, opts: &Opts, out: Report) -> (Report, Option<SweepTiming>) {
    let mut cx = Ctx {
        opts,
        out,
        fig: fig.id,
        timing: None,
        shards: Vec::new(),
    };
    let provenance = provenance_line(fig.id, &(fig.config)(opts), &opts.engine_label(), opts);
    crate::outln!(cx.out, "{provenance}{}", memspec_suffix(opts.memspec));
    if opts.strict_validate {
        for f in fig.flags {
            if let Flag::StrictValidate(what) = f {
                crate::outln!(cx.out, "[strict-validate: {what}]");
            }
        }
    }
    (fig.run)(&mut cx);
    if let Some(path) = &opts.telemetry {
        crate::telemetry::write(path, &cx.shards);
    }
    (cx.out, cx.timing)
}

/// Regenerates each figure with its default flags and byte-compares it
/// against `<dir>/<id>.txt`.
///
/// # Errors
///
/// The ids whose snapshot is missing or differs, in the given order.
pub fn check(figs: &[&Figure], dir: &Path) -> Result<(), Vec<&'static str>> {
    let mut stale = Vec::new();
    for fig in figs {
        let (report, _) = render(fig, &Opts::defaults(fig.flags), Report::capture());
        let fresh = report.into_text();
        let ok =
            std::fs::read(dir.join(format!("{}.txt", fig.id))).is_ok_and(|c| c == fresh.as_bytes());
        eprintln!("{}: {}", fig.id, if ok { "up to date" } else { "STALE" });
        if !ok {
            stale.push(fig.id);
        }
    }
    if stale.is_empty() {
        Ok(())
    } else {
        Err(stale)
    }
}

const USAGE: &str = "usage: gd-bench list\n       gd-bench run <fig> [flags]\n       \
                     gd-bench regen [--check] [fig...]";

fn find(id: &str) -> Result<&'static Figure, String> {
    crate::figures::FIGURES
        .iter()
        .find(|f| f.id == id)
        .ok_or_else(|| format!("unknown figure {id:?} (see gd-bench list)"))
}

/// The whole command line of `gd-bench` (without the program name);
/// returns the process exit code.
pub fn main(args: &[String]) -> i32 {
    let usage_error = |msg: &str, usage: &str| {
        eprintln!("error: {msg}\n{usage}");
        2
    };
    match args.split_first() {
        Some((cmd, rest)) if cmd == "list" => {
            if !rest.is_empty() {
                return usage_error("list takes no arguments", USAGE);
            }
            for fig in crate::figures::FIGURES {
                println!("{}", fig.id);
            }
            0
        }
        Some((cmd, rest)) if cmd == "run" => {
            let Some((id, flags)) = rest.split_first() else {
                return usage_error("run needs a figure id", USAGE);
            };
            let fig = match find(id) {
                Ok(fig) => fig,
                Err(e) => return usage_error(&e, USAGE),
            };
            let opts = match cli::parse(fig.id, fig.flags, flags) {
                Ok(opts) => opts,
                Err(e) => return usage_error(&e, &cli::usage(fig.id, fig.flags)),
            };
            if let (_, Some(timing)) = render(fig, &opts, Report::echo()) {
                timing.write();
            }
            0
        }
        Some((cmd, rest)) if cmd == "regen" => {
            let check_only = rest.first().is_some_and(|a| a == "--check");
            let ids = if check_only { &rest[1..] } else { rest };
            let figs: Result<Vec<&Figure>, String> = if ids.is_empty() {
                Ok(crate::figures::FIGURES.iter().collect())
            } else {
                ids.iter().map(|id| find(id)).collect()
            };
            let figs = match figs {
                Ok(figs) => figs,
                Err(e) => return usage_error(&e, USAGE),
            };
            if check_only {
                return match check(&figs, &results_dir()) {
                    Ok(()) => 0,
                    Err(stale) => {
                        eprintln!(
                            "error: stale snapshots: {} (regenerate with gd-bench regen)",
                            stale.join(" ")
                        );
                        1
                    }
                };
            }
            for fig in figs {
                let (report, timing) = render(fig, &Opts::defaults(fig.flags), Report::capture());
                let path = results_dir().join(format!("{}.txt", fig.id));
                if let Err(e) = std::fs::write(&path, report.into_text()) {
                    eprintln!("error: could not write {}: {e}", path.display());
                    return 1;
                }
                eprintln!("[snapshot -> {}]", path.display());
                if let Some(timing) = timing {
                    timing.write();
                }
            }
            0
        }
        Some((cmd, _)) => usage_error(&format!("unknown command {cmd:?}"), USAGE),
        None => usage_error("missing command", USAGE),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_ids_are_the_committed_snapshot_stems_in_order() {
        let ids: Vec<&str> = crate::figures::FIGURES.iter().map(|f| f.id).collect();
        let mut stems: Vec<String> = std::fs::read_dir(results_dir())
            .expect("results/ exists")
            .filter_map(|e| {
                let name = e.ok()?.file_name().into_string().ok()?;
                name.strip_suffix(".txt").map(str::to_string)
            })
            .collect();
        stems.sort();
        assert_eq!(ids, stems);
    }

    #[test]
    fn check_names_a_figure_whose_snapshot_differs_by_one_byte() {
        let fig = find("fig05_addrmap").unwrap();
        let dir = std::env::temp_dir().join(format!("gd-bench-check-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let committed = std::fs::read(results_dir().join("fig05_addrmap.txt")).unwrap();
        let snapshot = dir.join("fig05_addrmap.txt");

        std::fs::write(&snapshot, &committed).unwrap();
        assert_eq!(
            check(&[fig], &dir),
            Ok(()),
            "the committed snapshot is current"
        );

        let mut flipped = committed;
        let at = flipped.len() / 2;
        flipped[at] ^= 0x01;
        std::fs::write(&snapshot, &flipped).unwrap();
        let result = check(&[fig], &dir);
        std::fs::remove_dir_all(&dir).unwrap();
        assert_eq!(result, Err(vec!["fig05_addrmap"]));
    }
}
