//! The one command-line parser of `gd-bench run <fig> [flags]`.
//!
//! Every figure declares the flags its computation reads ([`Flag`]);
//! `--jobs` and `--telemetry` are common to all. [`parse`] turns an
//! argument list into typed [`Opts`] and rejects, with a message naming
//! the offending argument, anything else: an unknown flag, a flag the
//! figure does not declare, and a missing, malformed or out-of-range
//! value. The driver prints that message with the figure's [`usage`] and
//! exits 2, so a typo can never silently run the default.

use crate::energy::{engine_name, MeasureOpts};
use crate::sweep::default_jobs;
use gd_dram::EngineMode;
use gd_obs::Telemetry;
use gd_types::config::MemSpecKind;
use std::path::PathBuf;

/// A bounded integer flag value with its default.
#[derive(Debug, Clone, Copy)]
pub struct Count {
    /// What one unit of the value is, for the usage text.
    pub unit: &'static str,
    /// Value when the flag is absent.
    pub default: usize,
    /// Smallest accepted value.
    pub min: usize,
    /// Largest accepted value.
    pub max: usize,
}

impl Count {
    /// `N >= min` with no upper bound.
    #[must_use]
    pub const fn at_least(unit: &'static str, default: usize, min: usize) -> Self {
        Count {
            unit,
            default,
            min,
            max: usize::MAX,
        }
    }

    /// `N>=min`, or `min..=max` when bounded above.
    fn range(&self) -> String {
        if self.max == usize::MAX {
            format!("N>={}", self.min)
        } else {
            format!("{}..={}", self.min, self.max)
        }
    }

    fn parse(&self, flag: &str, v: &str) -> Result<usize, String> {
        v.parse::<usize>()
            .ok()
            .filter(|n| (self.min..=self.max).contains(n))
            .ok_or_else(|| format!("{flag} needs an integer {}, got {v:?}", self.range()))
    }
}

/// The fleet-size bound of `--hosts`.
const HOSTS: Count = Count {
    unit: "hosts",
    default: 1_000,
    min: 1,
    max: 10_000,
};

/// The host-sampling bound of `--sample-stride`.
const SAMPLE_STRIDE: Count = Count {
    unit: "every Nth host co-simulated exactly",
    default: 16,
    min: 1,
    max: 10_000,
};

/// The worker-pool width of `--jobs`.
const JOBS: Count = Count::at_least("workers", 0, 1);

/// A flag a figure may declare beyond the common `--jobs N` and
/// `--telemetry PATH`.
#[derive(Debug, Clone, Copy)]
pub enum Flag {
    /// `--requests N`: the figure's size knob (requests, seeds, periods or
    /// iterations, as `Count::unit` says).
    Requests(Count),
    /// `--engine stepped|event`: the time-advance engine.
    Engine,
    /// `--strict-validate`: run the verification gate; the text names
    /// what it enforces in the `[strict-validate: …]` banner.
    StrictValidate(&'static str),
    /// `--memspec ddr4|ddr5|lpddr4-pasr`: the memory-generation backend.
    Memspec,
    /// `--hosts N`: the fleet size.
    Hosts,
    /// `--sample-stride N`: co-simulate every Nth host exactly.
    SampleStride,
    /// `--fault-rate X`: restrict the sweep to one rate in `[0, 1]`.
    FaultRate,
}

impl Flag {
    fn name(self) -> &'static str {
        match self {
            Flag::Requests(_) => "--requests",
            Flag::Engine => "--engine",
            Flag::StrictValidate(_) => "--strict-validate",
            Flag::Memspec => "--memspec",
            Flag::Hosts => "--hosts",
            Flag::SampleStride => "--sample-stride",
            Flag::FaultRate => "--fault-rate",
        }
    }

    fn syntax(self) -> String {
        match self {
            Flag::Requests(c) => format!("[--requests {} ({})]", c.range(), c.unit),
            Flag::Engine => "[--engine stepped|event]".into(),
            Flag::StrictValidate(_) => "[--strict-validate]".into(),
            Flag::Memspec => "[--memspec ddr4|ddr5|lpddr4-pasr]".into(),
            Flag::Hosts => format!("[--hosts {}]", HOSTS.range()),
            Flag::SampleStride => format!("[--sample-stride {}]", SAMPLE_STRIDE.range()),
            Flag::FaultRate => "[--fault-rate 0..=1]".into(),
        }
    }
}

/// Every flag name `gd-bench run` knows, declared by some figure or not.
const KNOWN: &[&str] = &[
    "--jobs",
    "--telemetry",
    "--requests",
    "--engine",
    "--strict-validate",
    "--memspec",
    "--hosts",
    "--sample-stride",
    "--fault-rate",
];

/// Parsed options of one figure run.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Worker threads; defaults to the machine's available parallelism.
    pub jobs: usize,
    /// True when `--jobs` was given. Provenance renders `jobs=auto`
    /// otherwise, so a snapshot never encodes the machine's core count.
    pub jobs_explicit: bool,
    /// The figure's size knob (its declared default when absent).
    pub requests: usize,
    /// True when `--requests` was given (provenance `requests=`).
    pub requests_explicit: bool,
    /// Time-advance engine of the cycle-level runs.
    pub engine: EngineMode,
    /// Whether the verification gate runs.
    pub strict_validate: bool,
    /// Memory-generation backend.
    pub memspec: MemSpecKind,
    /// Fleet size.
    pub hosts: usize,
    /// Host-sampling stride; `Some` only for figures declaring it.
    pub sample_stride: Option<usize>,
    /// A single fault rate to run instead of the full sweep.
    pub fault_rate: Option<f64>,
    /// Where to write the merged JSONL telemetry, if anywhere.
    pub telemetry: Option<PathBuf>,
}

impl Opts {
    /// The options of a flagless run of a figure declaring `flags`.
    #[must_use]
    pub fn defaults(flags: &[Flag]) -> Self {
        let mut o = Opts {
            jobs: default_jobs(),
            jobs_explicit: false,
            requests: 0,
            requests_explicit: false,
            engine: EngineMode::default(),
            strict_validate: false,
            memspec: MemSpecKind::default(),
            hosts: HOSTS.default,
            sample_stride: None,
            fault_rate: None,
            telemetry: None,
        };
        for f in flags {
            match f {
                Flag::Requests(c) => o.requests = c.default,
                Flag::SampleStride => o.sample_stride = Some(SAMPLE_STRIDE.default),
                _ => {}
            }
        }
        o
    }

    /// The measurement-pipeline options these flags select.
    #[must_use]
    pub fn measure(&self) -> MeasureOpts {
        MeasureOpts {
            strict_validate: self.strict_validate,
            engine: self.engine,
        }
    }

    /// The co-simulation verification mode (`Strict` under
    /// `--strict-validate`).
    #[must_use]
    pub fn verify(&self) -> Option<gd_verify::Mode> {
        self.strict_validate.then_some(gd_verify::Mode::Strict)
    }

    /// True when a telemetry sink was requested.
    #[must_use]
    pub fn telemetry_enabled(&self) -> bool {
        self.telemetry.is_some()
    }

    /// A fresh per-point telemetry shard, or `None` when telemetry is off
    /// (simulation code then skips all instrumentation).
    #[must_use]
    pub fn shard(&self) -> Option<Telemetry> {
        self.telemetry_enabled().then(Telemetry::new)
    }

    /// The provenance name of the engine, naming the stride whenever
    /// hosts are sampled.
    #[must_use]
    pub fn engine_label(&self) -> String {
        match self.sample_stride {
            Some(n) if n != 1 => format!("{}+stride{n}(sampled)", engine_name(self.engine)),
            _ => engine_name(self.engine).to_string(),
        }
    }
}

/// The usage line of `gd-bench run <fig>` for a figure declaring `flags`.
#[must_use]
pub fn usage(fig: &str, flags: &[Flag]) -> String {
    let mut out = format!(
        "usage: gd-bench run {fig} [--jobs {}] [--telemetry PATH]",
        JOBS.range()
    );
    for f in flags {
        out.push(' ');
        out.push_str(&f.syntax());
    }
    out
}

/// Parses the flags of `gd-bench run <fig>` for a figure declaring
/// `flags`.
///
/// # Errors
///
/// A message naming the argument when it is not a flag, is unknown, is not
/// declared by the figure, or lacks a well-formed in-range value.
pub fn parse(fig: &str, flags: &[Flag], args: &[String]) -> Result<Opts, String> {
    let mut o = Opts::defaults(flags);
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let name = arg.as_str();
        if !KNOWN.contains(&name) {
            return Err(if name.starts_with("--") {
                format!("unknown flag {name}")
            } else {
                format!("unexpected argument {name:?}")
            });
        }
        let declared = flags.iter().copied().find(|f| f.name() == name);
        if declared.is_none() && name != "--jobs" && name != "--telemetry" {
            return Err(format!("{fig} does not take {name}"));
        }
        if name == "--strict-validate" {
            o.strict_validate = true;
            continue;
        }
        let v = it
            .next()
            .map(String::as_str)
            .filter(|v| !v.starts_with("--"))
            .ok_or_else(|| format!("{name} needs a value"))?;
        match declared {
            None if name == "--jobs" => {
                o.jobs = JOBS.parse(name, v)?;
                o.jobs_explicit = true;
            }
            None => o.telemetry = Some(PathBuf::from(v)),
            Some(Flag::Requests(c)) => {
                o.requests = c.parse(name, v)?;
                o.requests_explicit = true;
            }
            Some(Flag::Engine) => {
                o.engine = match v {
                    "stepped" => EngineMode::Stepped,
                    "event" => EngineMode::EventDriven,
                    _ => return Err(format!("unknown --engine {v:?} (expected stepped, event)")),
                }
            }
            Some(Flag::Memspec) => {
                o.memspec = MemSpecKind::parse(v).ok_or_else(|| {
                    format!("unknown --memspec {v:?} (expected ddr4, ddr5, lpddr4-pasr)")
                })?;
            }
            Some(Flag::Hosts) => o.hosts = HOSTS.parse(name, v)?,
            Some(Flag::SampleStride) => o.sample_stride = Some(SAMPLE_STRIDE.parse(name, v)?),
            Some(Flag::FaultRate) => {
                let rate = v
                    .parse::<f64>()
                    .ok()
                    .filter(|r| (0.0..=1.0).contains(r))
                    .ok_or_else(|| format!("--fault-rate needs a number in [0, 1], got {v:?}"))?;
                o.fault_rate = Some(rate);
            }
            Some(Flag::StrictValidate(_)) => unreachable!("--strict-validate takes no value"),
        }
    }
    Ok(o)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SEEDS: Count = Count {
        unit: "seeds",
        default: 5,
        min: 1,
        max: 64,
    };
    const FLAGS: &[Flag] = &[
        Flag::Requests(SEEDS),
        Flag::Engine,
        Flag::StrictValidate("test invariants enforced"),
        Flag::FaultRate,
    ];

    fn parse_args(flags: &[Flag], args: &[&str]) -> Result<Opts, String> {
        let args: Vec<String> = args.iter().map(|a| (*a).to_string()).collect();
        parse("figX", flags, &args)
    }

    #[test]
    fn declared_flags_parse() {
        let o = parse_args(
            FLAGS,
            &[
                "--jobs",
                "3",
                "--requests",
                "64",
                "--strict-validate",
                "--engine",
                "stepped",
                "--fault-rate",
                "0.1",
                "--telemetry",
                "t.jsonl",
            ],
        )
        .unwrap();
        assert_eq!((o.jobs, o.jobs_explicit), (3, true));
        assert_eq!((o.requests, o.requests_explicit), (64, true));
        assert!(o.strict_validate);
        assert_eq!(o.engine, EngineMode::Stepped);
        assert_eq!(o.fault_rate, Some(0.1));
        assert_eq!(o.telemetry, Some(PathBuf::from("t.jsonl")));
    }

    #[test]
    fn absent_flags_take_declared_defaults() {
        let o = parse_args(FLAGS, &[]).unwrap();
        assert_eq!(
            (o.requests, o.requests_explicit, o.jobs_explicit),
            (5, false, false)
        );
        assert_eq!(
            (o.fault_rate, o.sample_stride, o.hosts),
            (None, None, 1_000)
        );
        assert_eq!(o.engine_label(), "event-driven");
        let fleet = parse_args(&[Flag::SampleStride, Flag::Hosts], &[]).unwrap();
        assert_eq!(fleet.engine_label(), "event-driven+stride16(sampled)");
        let exact = parse_args(&[Flag::SampleStride], &["--sample-stride", "1"]).unwrap();
        assert_eq!(exact.engine_label(), "event-driven");
    }

    #[test]
    fn bad_input_is_rejected_with_the_argument_named() {
        for (args, needle) in [
            (&["--stirct-validate"][..], "unknown flag --stirct-validate"),
            (&["--memspec", "ddr5"], "figX does not take --memspec"),
            (&["fig05"], "unexpected argument"),
            (&["--telemetry"], "--telemetry needs a value"),
            (&["--jobs", "--requests", "2"], "--jobs needs a value"),
            (&["--jobs", "0"], "--jobs needs an integer N>=1"),
            (&["--requests", "65"], "--requests needs an integer 1..=64"),
            (&["--requests", "abc"], "--requests"),
            (&["--engine", "event-driven"], "unknown --engine"),
            (&["--fault-rate", "abc"], "--fault-rate"),
            (&["--fault-rate", "7"], "--fault-rate"),
            (&["--fault-rate", "NaN"], "--fault-rate"),
        ] {
            let err = parse_args(FLAGS, args).expect_err(&format!("{args:?} must fail"));
            assert!(err.contains(needle), "{args:?}: {err}");
        }
    }

    #[test]
    fn usage_lists_every_declared_flag() {
        let u = usage("figX", FLAGS);
        assert!(u.starts_with("usage: gd-bench run figX [--jobs N>=1] [--telemetry PATH]"));
        for needle in [
            "[--requests 1..=64 (seeds)]",
            "[--engine stepped|event]",
            "[--strict-validate]",
            "[--fault-rate 0..=1]",
        ] {
            assert!(u.contains(needle), "{u}");
        }
        assert!(!u.contains("--memspec"), "{u}");
    }
}
