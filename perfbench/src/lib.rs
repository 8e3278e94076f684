//! The repository benchmark: three closed-loop workloads through the
//! public entry points of `fsjoin` and `ssj-serve`, every result checked
//! against an independent oracle.
//!
//! A `--trace 0` run prints the end-to-end metrics of
//! [`layers::END_TO_END`]; a `--trace 1` run prints the per-layer metrics
//! of [`layers::per_layer`]. See `README.md` for the workloads and for
//! which layer metric should move which end-to-end metric.

pub mod batch;
pub mod layers;
pub mod oracle;
pub mod report;
pub mod rss;
pub mod serve;
pub mod stats;
pub mod tracing;

use std::collections::BTreeMap;
use std::path::PathBuf;

use report::Report;
use stats::{median, OpKind, OpLog, Timing};

/// The workloads, by name.
pub const WORKLOADS: [&str; 3] = ["fsjoin_wiki_large", "rsjoin_wiki_large", "serve_wiki_mixed"];

/// Command-line arguments of one run.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// One of [`WORKLOADS`].
    pub workload: String,
    /// Workload seed, passed to the corpus generator.
    pub seed: u64,
    /// Seconds of measured client time.
    pub seconds: f64,
    /// Print per-layer metrics from a traced run instead of end-to-end
    /// metrics.
    pub trace: bool,
    /// Where a traced run writes its trace, metrics dump, profile and the
    /// exact counters of the seed.
    pub out: Option<PathBuf>,
}

impl Args {
    /// Parse `--workload W --seed N --seconds S --trace 0|1 [--out DIR]`.
    pub fn parse(argv: &[String]) -> Result<Args, String> {
        let mut flags: BTreeMap<&str, &str> = BTreeMap::new();
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let key = match flag.as_str() {
                k @ ("--workload" | "--seed" | "--seconds" | "--trace" | "--out") => k,
                other => return Err(format!("unknown argument {other:?}")),
            };
            let value = it.next().ok_or_else(|| format!("{key} needs a value"))?;
            if flags.insert(key, value).is_some() {
                return Err(format!("{key} given twice"));
            }
        }
        let need = |k: &str| flags.get(k).copied().ok_or_else(|| format!("missing {k}"));
        let workload = need("--workload")?.to_string();
        if !WORKLOADS.contains(&workload.as_str()) {
            return Err(format!(
                "unknown workload {workload:?}; one of {WORKLOADS:?}"
            ));
        }
        let seed = need("--seed")?
            .parse()
            .map_err(|e| format!("--seed: {e}"))?;
        let seconds: f64 = need("--seconds")?
            .parse()
            .map_err(|e| format!("--seconds: {e}"))?;
        if !(seconds.is_finite() && seconds > 0.0 && seconds <= 3600.0) {
            return Err(format!("--seconds must be in (0, 3600], got {seconds}"));
        }
        let trace = match need("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
        };
        Ok(Args {
            workload,
            seed,
            seconds,
            trace,
            out: flags.get("--out").map(PathBuf::from),
        })
    }
}

/// The traced half of a `--trace 1` run.
pub struct Traced {
    /// Operations of the traced half.
    pub log: OpLog,
    /// Per-layer values (medians over joins or passes).
    pub layers: BTreeMap<String, f64>,
    /// What the trace recorded.
    pub summary: tracing::TraceSummary,
}

/// What one workload run produced.
pub struct Outcome {
    /// Seconds of each set-up.
    pub setup_s: Vec<f64>,
    /// Operations of the untraced run (or untraced half).
    pub log: OpLog,
    /// Peak RSS of the workload, MiB.
    pub peak_rss_mb: f64,
    /// The exact counters of the seed (identical across every join or
    /// pass, or the run has failed operations).
    pub counters: BTreeMap<String, u64>,
    /// The traced half, for `--trace 1`.
    pub traced: Option<Traced>,
}

/// Run the workload `args` names.
pub fn run(args: &Args) -> Outcome {
    match args.workload.as_str() {
        "fsjoin_wiki_large" => batch::run(batch::BatchKind::SelfJoin, args),
        "rsjoin_wiki_large" => batch::run(batch::BatchKind::RsJoin, args),
        "serve_wiki_mixed" => serve::run(args),
        other => unreachable!("workload {other} was validated by Args::parse"),
    }
}

/// Mean seconds per attempted operation, in ms.
fn mean_op_ms(log: &OpLog) -> f64 {
    layers::ratio(log.busy().as_secs_f64() * 1e3, log.attempted() as f64)
}

/// Turn an outcome into the result line's report.
pub fn report(args: &Args, outcome: &Outcome) -> Report {
    let mut report = Report {
        attempted: outcome.log.attempted(),
        failed: outcome.log.failed(),
        ..Report::default()
    };
    let Some(traced) = &outcome.traced else {
        let all = Timing::of(&outcome.log.latencies(None));
        let values = [
            median(&outcome.setup_s),
            all.p50 * 1e3,
            outcome.log.ops_per_s(),
            outcome.peak_rss_mb,
        ];
        for ((name, unit), v) in layers::END_TO_END.iter().zip(values) {
            report.set(name, v, unit);
        }
        return report;
    };
    report.attempted += traced.log.attempted();
    report.failed += traced.log.failed();
    let mut values = traced.layers.clone();
    // Latency by serving operation, from the untraced half.
    for kind in OpKind::SERVE {
        let t = Timing::of(&outcome.log.latencies(Some(kind)));
        let (pct, tail) = t.tail.map_or((0.0, 0.0), |(bp, v)| (bp as f64 / 100.0, v));
        let op = kind.name();
        values.insert(format!("serve.{op}_p50_us"), t.p50 * 1e6);
        values.insert(format!("serve.{op}_tail_us"), tail * 1e6);
        values.insert(format!("serve.{op}_tail_pct"), pct);
        values.insert(format!("serve.{op}_count"), t.count as f64);
    }
    let untraced_ms = mean_op_ms(&outcome.log);
    let traced_ms = mean_op_ms(&traced.log);
    values.insert("observe.spans".into(), traced.summary.spans as f64);
    values.insert("observe.untraced_op_ms".into(), untraced_ms);
    values.insert("observe.traced_op_ms".into(), traced_ms);
    values.insert(
        "observe.trace_overhead_ratio".into(),
        layers::ratio(traced_ms, untraced_ms),
    );
    values.insert(
        "observe.critical_path_s".into(),
        traced.summary.critical_path_s,
    );
    for (name, unit) in layers::per_layer() {
        report.set(&name, values.get(&name).copied().unwrap_or(0.0), unit);
    }
    if let Some(dir) = &args.out {
        let lines: Vec<String> = outcome
            .counters
            .iter()
            .map(|(k, v)| format!("{k} {v}"))
            .collect();
        let path = dir.join(format!("{}-seed{}-counters.txt", args.workload, args.seed));
        if let Err(e) = std::fs::write(&path, lines.join("\n") + "\n") {
            eprintln!("cannot write {}: {e}", path.display());
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_full_command_line() {
        let a = Args::parse(&argv(
            "--workload serve_wiki_mixed --seed 7 --seconds 20 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.workload, "serve_wiki_mixed");
        assert_eq!((a.seed, a.seconds, a.trace, a.out), (7, 20.0, true, None));
    }

    #[test]
    fn rejects_bad_command_lines() {
        for bad in [
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload fsjoin_wiki_large --seed 1 --seconds 1",
            "--workload fsjoin_wiki_large --seed x --seconds 1 --trace 0",
            "--workload fsjoin_wiki_large --seed 1 --seconds 0 --trace 0",
            "--workload fsjoin_wiki_large --seed 1 --seconds 1 --trace 2",
            "--workload fsjoin_wiki_large --seed 1 --seed 2 --seconds 1 --trace 0",
            "--workload fsjoin_wiki_large --seed 1 --seconds 1 --trace 0 --extra 1",
        ] {
            assert!(Args::parse(&argv(bad)).is_err(), "{bad}");
        }
    }
}
