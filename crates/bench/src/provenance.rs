//! Result provenance: every regenerated `results/*.txt` snapshot starts
//! with a `# provenance:` header recording what produced it, so a stale
//! snapshot (produced by an older simulator) is mechanically detectable —
//! `gd-bench regen --check` regenerates the figures and byte-compares them
//! against the committed files.
//!
//! The header must itself be deterministic across machines: the config is
//! identified by an FNV-1a hash of its canonical description, the engine
//! mode is named explicitly, and `jobs` renders as `auto` unless the user
//! pinned it (sweep output is jobs-invariant, so the machine's core count
//! must not leak into the snapshot).

use crate::cli::Opts;

/// 64-bit FNV-1a over a string — stable across platforms and runs, good
/// enough to fingerprint a config description.
#[must_use]
pub fn fnv1a(data: &str) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    for b in data.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(PRIME);
    }
    h
}

/// Builds the one-line provenance header for a figure snapshot.
///
/// `config_desc` is a canonical human-readable description of everything
/// that determines the figure's numbers (platform config, seeds, durations);
/// only its hash lands in the header. `engine` names the time-advance
/// engine the figure ran with (`"event-driven"` for every default run).
#[must_use]
pub fn provenance_line(fig: &str, config_desc: &str, engine: &str, opts: &Opts) -> String {
    let jobs = if opts.jobs_explicit {
        opts.jobs.to_string()
    } else {
        "auto".to_string()
    };
    let requests = if opts.requests_explicit {
        opts.requests.to_string()
    } else {
        "default".to_string()
    };
    format!(
        "# provenance: fig={fig} config={:016x} engine={engine} jobs={jobs} \
         requests={requests} version={}",
        fnv1a(config_desc),
        env!("CARGO_PKG_VERSION")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(config: &str, opts: &Opts) -> String {
        provenance_line("fig05_addrmap", config, "event-driven", opts)
    }

    #[test]
    fn fnv1a_reference_vectors() {
        // Standard FNV-1a test vectors.
        assert_eq!(fnv1a(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a("a"), 0xaf63_dc4c_8601_ec8c);
        assert_ne!(fnv1a("config-a"), fnv1a("config-b"));
    }

    #[test]
    fn default_opts_render_machine_independent() {
        let line = line("ddr4-2133 64GB", &Opts::defaults(&[]));
        assert!(line.starts_with("# provenance: fig=fig05_addrmap config="));
        // The machine's core count must not appear: snapshots hold this line.
        assert!(line.contains("jobs=auto"), "{line}");
        assert!(line.contains("requests=default"), "{line}");
        assert!(line.contains("engine=event-driven"), "{line}");
    }

    #[test]
    fn explicit_opts_are_recorded() {
        let opts = Opts {
            jobs: 4,
            jobs_explicit: true,
            requests: 1000,
            requests_explicit: true,
            ..Opts::defaults(&[])
        };
        let line = line("cfg", &opts);
        assert!(line.contains("jobs=4"), "{line}");
        assert!(line.contains("requests=1000"), "{line}");
    }

    #[test]
    fn config_changes_change_the_hash() {
        let opts = Opts::defaults(&[]);
        assert_ne!(line("seed=1", &opts), line("seed=2", &opts));
    }
}
