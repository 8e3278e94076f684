//! `bench_probe` — seeded perf probes emitting / checking `BENCH_*.json`.
//!
//! ```text
//! bench_probe --out results/bench              # (re)generate baselines
//! bench_probe --check results/bench            # gate: fail on regression
//! bench_probe --check results/bench --handicap 2.0   # gate self-test
//! ```
//!
//! Each probe runs a deterministic workload (fixed synthetic corpus,
//! fixed θ), measures wall time as the **min of [`TRIALS`]** (five) runs
//! normalized by [`calibrate_unit_secs`] (machine-portable units), and
//! captures the workload's logical counters exactly. `--check` compares a
//! fresh run against the committed baselines with
//! [`DEFAULT_WALL_TOLERANCE`] noise headroom on wall units and zero
//! tolerance on logical counters; see `crates/bench/src/regress.rs` for
//! the policy.
//!
//! `--handicap F` multiplies the measured wall units by `F` — CI uses
//! `--handicap 2.0` to prove the gate actually trips on a 2× slowdown.

use fsjoin::{FsJoinConfig, FsJoinResult};
use ssj_bench::regress::DEFAULT_WALL_TOLERANCE;
use ssj_bench::{calibrate_unit_secs, corpus, BenchReport, Scale};
use ssj_text::{Collection, CorpusProfile};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let mut out_dir: Option<PathBuf> = None;
    let mut check_dir: Option<PathBuf> = None;
    let mut handicap = 1.0f64;
    let mut tolerance = DEFAULT_WALL_TOLERANCE;
    while let Some(a) = args.next() {
        match a.as_str() {
            "--out" => match args.next() {
                Some(d) => out_dir = Some(PathBuf::from(d)),
                None => return usage("--out requires a directory"),
            },
            "--check" => match args.next() {
                Some(d) => check_dir = Some(PathBuf::from(d)),
                None => return usage("--check requires a directory"),
            },
            "--handicap" => match args.next().and_then(|v| v.parse().ok()) {
                Some(f) => handicap = f,
                None => return usage("--handicap requires a factor"),
            },
            "--tolerance" => match args.next().and_then(|v| v.parse().ok()) {
                Some(f) => tolerance = f,
                None => return usage("--tolerance requires a fraction"),
            },
            "--help" | "-h" => return usage(""),
            other => return usage(&format!("unexpected argument {other:?}")),
        }
    }
    if out_dir.is_none() == check_dir.is_none() {
        return usage("exactly one of --out or --check is required");
    }

    // Build the corpus once, outside all timing. Scale::Small (not the
    // tiny Bench scale) keeps each probe in the tens-of-milliseconds
    // range, where min-of-N wall clocks are noise-robust.
    let corpus = corpus(CorpusProfile::WikiLike, Scale::Small);
    let unit = calibrate_unit_secs();
    println!("calibration unit: {unit:.4}s");

    let mut reports: Vec<BenchReport> = PROBES
        .iter()
        .map(|(name, run)| measure(name, run, &corpus, unit, handicap))
        .collect();
    reports.push(measure_serve(&corpus, unit, handicap));
    reports.push(measure_rsjoin(unit, handicap));
    for r in &reports {
        println!(
            "{}: {:.3} wall units, {} counters",
            r.name,
            r.wall_units,
            r.counters.len()
        );
    }

    if let Some(dir) = out_dir {
        if let Err(e) = std::fs::create_dir_all(&dir) {
            eprintln!("error: cannot create {}: {e}", dir.display());
            return ExitCode::from(2);
        }
        for r in &reports {
            let path = dir.join(r.file_name());
            if let Err(e) = std::fs::write(&path, r.to_json()) {
                eprintln!("error: cannot write {}: {e}", path.display());
                return ExitCode::from(2);
            }
            println!("wrote {}", path.display());
        }
        return ExitCode::SUCCESS;
    }

    let dir = check_dir.expect("checked above");
    let mut failures = Vec::new();
    for r in &reports {
        let path = dir.join(r.file_name());
        let base = match std::fs::read_to_string(&path).map_err(|e| e.to_string()) {
            Ok(doc) => match BenchReport::parse(&doc) {
                Ok(b) => b,
                Err(e) => {
                    failures.push(format!("{}: unreadable baseline: {e}", path.display()));
                    continue;
                }
            },
            Err(e) => {
                failures.push(format!("{}: missing baseline: {e}", path.display()));
                continue;
            }
        };
        failures.extend(r.compare_against(&base, tolerance));
    }
    if failures.is_empty() {
        println!(
            "bench_probe: {} probes within {:.0}% of baselines",
            reports.len(),
            tolerance * 100.0
        );
        ExitCode::SUCCESS
    } else {
        for f in &failures {
            eprintln!("REGRESSION {f}");
        }
        ExitCode::FAILURE
    }
}

fn usage(err: &str) -> ExitCode {
    if !err.is_empty() {
        eprintln!("error: {err}");
    }
    eprintln!("usage: bench_probe (--out DIR | --check DIR) [--handicap F] [--tolerance F]");
    if err.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(2)
    }
}

type ProbeFn = fn(&Collection) -> FsJoinResult;

/// The probe workloads: (name, runner). Both join the deterministic
/// WikiLike corpus at θ = 0.8 with default FS-Join tuning.
/// Timed runs per probe; the reported wall time is their minimum.
const TRIALS: usize = 5;

const PROBES: &[(&str, ProbeFn)] = &[
    ("fsjoin_wiki", |c| {
        fsjoin::run_self_join(c, &FsJoinConfig::default().with_theta(0.8))
    }),
    ("pf_wiki", |c| {
        fsjoin::run_self_join_pf(c, &FsJoinConfig::default().with_theta(0.8))
    }),
];

/// Run one probe: min-of-[`TRIALS`] wall time (normalized and handicapped)
/// plus the logical counters of the final run (seeded ⇒ identical across
/// runs).
fn measure(
    name: &str,
    run: &ProbeFn,
    corpus: &Collection,
    unit_secs: f64,
    handicap: f64,
) -> BenchReport {
    let mut best = f64::INFINITY;
    let mut last = None;
    for _ in 0..TRIALS {
        let start = Instant::now();
        let res = run(corpus);
        best = best.min(start.elapsed().as_secs_f64());
        last = Some(res);
    }
    let res = last.expect("TRIALS > 0 timed runs");
    let mut counters: Vec<(String, f64)> = res
        .filter_stats
        .fields()
        .iter()
        .map(|(k, v)| (k.to_string(), *v as f64))
        .collect();
    counters.push(("fsjoin.candidates".into(), res.candidates as f64));
    counters.push(("fsjoin.pairs".into(), res.pairs.len() as f64));
    counters.push((
        "mr.shuffle.bytes".into(),
        res.chain.total_shuffle_bytes() as f64,
    ));
    counters.sort_by(|a, b| a.0.cmp(&b.0));
    BenchReport {
        name: name.to_string(),
        wall_units: best / unit_secs * handicap,
        counters,
    }
}

/// The two-input R×S probe on the asymmetric |R| ≪ |S| WikiLike pair
/// (see [`ssj_bench::datasets::rs_corpus`]): time
/// [`fsjoin::run_rs_join_two_input`] on its default co-group join path
/// (DESIGN.md §13) and record its logical footprint *next to* both the
/// legacy rekey fan-in path and the RIDPairsPPJoin-over-concat way of
/// answering the same query — shuffle records/bytes and candidate counts
/// for all three, plus the result-pair counts they must agree on and the
/// join stage's bytes-saved counter. A plan-layer regression that brings
/// the second shuffle back (or silently changes either side's candidate
/// generation) trips the zero-tolerance counter gate.
fn measure_rsjoin(unit_secs: f64, handicap: f64) -> BenchReport {
    use ssj_baselines::ridpairs::ridpairs_ppjoin;
    use ssj_similarity::Measure;
    use ssj_text::Record;

    let (r, s) = ssj_bench::datasets::rs_corpus(CorpusProfile::WikiLike, Scale::Bench);
    let cfg = FsJoinConfig::default().with_theta(0.8);
    let mut best = f64::INFINITY;
    let mut last = None;
    for _ in 0..TRIALS {
        let start = Instant::now();
        let res = fsjoin::run_rs_join_two_input(&r, &s, &cfg);
        best = best.min(start.elapsed().as_secs_f64());
        last = Some(res);
    }
    let res = last.expect("TRIALS > 0 timed runs");

    // The path the co-group stage replaced: identity-rekey fan-in with a
    // second shuffle (untimed — kept for the A/B shuffle accounting and
    // the exactness cross-check).
    let rekey = fsjoin::run_rs_join_two_input(&r, &s, &cfg.clone().with_rs_cogroup(false));
    assert_eq!(
        res.pairs.len(),
        rekey.pairs.len(),
        "co-group and rekey join paths disagree on the result"
    );

    // The incumbent: self-join the concatenated collection with
    // RIDPairsPPJoin, then keep only cross-side pairs (untimed — its wall
    // time is gated by the comparison figures, not this probe).
    let offset = r.len() as u32;
    let records: Vec<Record> = r
        .iter()
        .map(|v| Record::from_sorted(v.id, v.tokens.to_vec()))
        .chain(
            s.iter()
                .map(|v| Record::from_sorted(v.id + offset, v.tokens.to_vec())),
        )
        .collect();
    let concat = Collection::new(records, r.token_freqs.clone(), None);
    let rid = ridpairs_ppjoin(
        &concat,
        Measure::Jaccard,
        0.8,
        &ssj_baselines::BaselineConfig::default(),
    );
    let rid_cross = rid
        .pairs
        .iter()
        .filter(|p| {
            let (a, b) = p.ids();
            a < offset && b >= offset
        })
        .count();

    let mut counters: Vec<(String, f64)> = vec![
        ("rsjoin.pairs".into(), res.pairs.len() as f64),
        ("rsjoin.candidates".into(), res.candidates as f64),
        (
            "rsjoin.shuffle.records".into(),
            res.chain
                .jobs
                .iter()
                .map(|j| j.shuffle_records)
                .sum::<usize>() as f64,
        ),
        (
            "rsjoin.shuffle.bytes".into(),
            res.chain.total_shuffle_bytes() as f64,
        ),
        (
            "rsjoin.join.shuffle_bytes_saved".into(),
            res.chain.jobs[2].cogroup_shuffle_bytes_saved() as f64,
        ),
        (
            "rsjoin_rekey.shuffle.records".into(),
            rekey
                .chain
                .jobs
                .iter()
                .map(|j| j.shuffle_records)
                .sum::<usize>() as f64,
        ),
        (
            "rsjoin_rekey.shuffle.bytes".into(),
            rekey.chain.total_shuffle_bytes() as f64,
        ),
        ("ridpairs_concat.pairs_cross".into(), rid_cross as f64),
        (
            "ridpairs_concat.shuffle.records".into(),
            rid.chain
                .jobs
                .iter()
                .map(|j| j.shuffle_records)
                .sum::<usize>() as f64,
        ),
        (
            "ridpairs_concat.shuffle.bytes".into(),
            rid.chain.total_shuffle_bytes() as f64,
        ),
    ];
    assert_eq!(
        res.pairs.len(),
        rid_cross,
        "two-input plan and ridpairs-over-concat disagree on the result"
    );
    counters.sort_by(|a, b| a.0.cmp(&b.0));
    BenchReport {
        name: "rsjoin_wiki".to_string(),
        wall_units: best / unit_secs * handicap,
        counters,
    }
}

/// The serving-plane probe: build a [`ssj_serve::ServeIndex`] over the
/// same corpus (untimed — the build path is already covered by the batch
/// probes it reuses), then time a full sequential replay of every record
/// at θ = 0.8. Counters are the probe cascade's exact tallies plus the
/// index shape, so a filter regression trips the gate even when wall time
/// hides it.
fn measure_serve(corpus: &Collection, unit_secs: f64, handicap: f64) -> BenchReport {
    use ssj_serve::{build_index, ProbeStats, ServeConfig};
    let index = build_index(corpus, &ServeConfig::default().with_theta_min(0.7));
    let mut best = f64::INFINITY;
    let mut last = ProbeStats::default();
    let mut hits = 0u64;
    for _ in 0..TRIALS {
        let mut stats = ProbeStats::default();
        hits = 0;
        let start = Instant::now();
        for rec in 0..index.len() as u32 {
            hits += index
                .probe_with(index.tokens_of(rec), 0.8, Some(rec), &mut stats)
                .len() as u64;
        }
        best = best.min(start.elapsed().as_secs_f64());
        last = stats;
    }
    let mut counters: Vec<(String, f64)> = last
        .fields()
        .iter()
        .map(|(k, v)| (k.to_string(), *v as f64))
        .collect();
    counters.push(("serve.replay.hits".into(), hits as f64));
    counters.push(("serve.index.postings".into(), index.main_postings() as f64));
    counters.push(("serve.index.records".into(), index.len() as f64));
    counters.sort_by(|a, b| a.0.cmp(&b.0));
    BenchReport {
        name: "serve_wiki".to_string(),
        wall_units: best / unit_secs * handicap,
        counters,
    }
}
