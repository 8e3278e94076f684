//! The metric catalogue and the per-layer extraction from what the public
//! calls return (`FsJoinResult`, `ProbeStats`, the `ssj-observe` spans).
//!
//! Every workload prints every metric of the catalogue. A per-layer
//! metric of a layer the workload does not run (the FS-Join filter stage
//! on the serving stream, say) reads 0.

use std::collections::BTreeMap;

use fsjoin::{FilterStats, FsJoinResult};
use ssj_mapreduce::{schedules_makespan_secs, ClusterModel, JobMetrics};
use ssj_serve::ProbeStats;

use crate::stats::OpKind;

/// End-to-end metrics: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// The MapReduce plan stages reported per stage.
pub const STAGES: [&str; 6] = [
    "fsjoin-filter",
    "fsjoin-verify",
    "rsjoin-r-prefix",
    "rsjoin-s-prefix",
    "rsjoin-join",
    "rsjoin-dedup",
];

/// Per-stage fields: `(field, unit)`.
pub const STAGE_FIELDS: [(&str, &str); 9] = [
    ("map_busy_s", "s"),
    ("reduce_busy_s", "s"),
    ("queue_s", "s"),
    ("elapsed_s", "s"),
    ("shuffle_bytes", "bytes"),
    ("shuffle_records", "count"),
    ("pre_combine_records", "count"),
    ("combine_ratio", "ratio"),
    ("reduce_skew", "ratio"),
];

/// `FilterStats` fields, reported as `fsjoin.<field>` (`policy_dropped`
/// is always 0 under the default exact emit policy and is left out).
pub fn filter_fields(fs: &FilterStats) -> [(&'static str, u64); 10] {
    [
        ("pairs_considered", fs.pairs_considered),
        ("strl_pruned", fs.strl_pruned),
        ("segl_pruned", fs.segl_pruned),
        ("segi_pruned", fs.segi_pruned),
        ("segd_pruned", fs.segd_pruned),
        ("emitted", fs.emitted),
        ("intersections", fs.intersections),
        ("intersect_tokens", fs.intersect_tokens),
        ("bitmap_checks", fs.bitmap_checks),
        ("bitmap_pruned", fs.bitmap_pruned),
    ]
}

/// Per-layer metrics: `(name, unit)`, in catalogue order.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = Vec::new();
    let mut add = |name: String, unit: &'static str| out.push((name, unit));
    add("text.encode_s".into(), "s");
    add("text.records".into(), "count");
    add("text.tokens".into(), "count");
    for stage in STAGES {
        for (field, unit) in STAGE_FIELDS {
            add(format!("mapreduce.{stage}.{field}"), unit);
        }
    }
    add("mapreduce.peak_live_bytes".into(), "bytes");
    add("mapreduce.cogroup_bytes_saved".into(), "bytes");
    add("mapreduce.attempts".into(), "count");
    add("mapreduce.retries".into(), "count");
    add("cluster.sim_plan_s".into(), "s");
    for (field, _) in filter_fields(&FilterStats::default()) {
        add(format!("fsjoin.{field}"), "count");
    }
    add("fsjoin.candidates".into(), "count");
    add("fsjoin.pairs".into(), "count");
    add("fsjoin.pairs_per_candidate".into(), "ratio");
    add("fsjoin.bitmap_prune_ratio".into(), "ratio");
    add("serve.build_s".into(), "s");
    for op in OpKind::SERVE.map(OpKind::name) {
        add(format!("serve.{op}_busy_s"), "s");
    }
    // `ProbeStats::fields` names them `serve.probe.<field>`.
    for (name, _) in ProbeStats::default().fields() {
        add(name.into(), "count");
    }
    add("serve.hits_per_verified".into(), "ratio");
    add("serve.postings_per_candidate".into(), "ratio");
    add("serve.delta_records_at_compact".into(), "count");
    add("serve.main_postings".into(), "count");
    for op in OpKind::SERVE.map(OpKind::name) {
        add(format!("serve.{op}_p50_us"), "us");
        add(format!("serve.{op}_tail_us"), "us");
        add(format!("serve.{op}_tail_pct"), "pct");
        add(format!("serve.{op}_count"), "count");
    }
    add("observe.spans".into(), "count");
    add("observe.untraced_op_ms".into(), "ms");
    add("observe.traced_op_ms".into(), "ms");
    add("observe.trace_overhead_ratio".into(), "ratio");
    add("observe.critical_path_s".into(), "s");
    out
}

/// `num / den`, or 0 when the base is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn stage_layers(job: &JobMetrics, out: &mut BTreeMap<String, f64>) {
    let secs = |d: std::time::Duration| d.as_secs_f64();
    let busy = |tasks: &[ssj_mapreduce::TaskStat]| tasks.iter().map(|t| secs(t.duration)).sum();
    let reduce: Vec<f64> = job.reduce_tasks.iter().map(|t| secs(t.duration)).collect();
    let reduce_busy: f64 = busy(&job.reduce_tasks);
    let max_reduce = reduce.iter().copied().fold(0.0, f64::max);
    let mean_reduce = ratio(reduce_busy, reduce.len() as f64);
    let queue: f64 = job
        .map_tasks
        .iter()
        .chain(&job.reduce_tasks)
        .map(|t| secs(t.queue))
        .sum();
    let values = [
        busy(&job.map_tasks),
        reduce_busy,
        queue,
        secs(job.elapsed),
        job.shuffle_bytes as f64,
        job.shuffle_records as f64,
        job.pre_combine_records as f64,
        ratio(job.shuffle_records as f64, job.pre_combine_records as f64),
        ratio(max_reduce, mean_reduce),
    ];
    for ((field, _), v) in STAGE_FIELDS.iter().zip(values) {
        out.insert(format!("mapreduce.{}.{field}", job.name), v);
    }
}

/// Per-layer values of one batch join.
pub fn batch_layers(res: &FsJoinResult) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    for job in &res.chain.jobs {
        if STAGES.contains(&job.name.as_str()) {
            stage_layers(job, &mut out);
        }
    }
    let exec = res.chain.total_exec();
    let saved: usize = res
        .chain
        .jobs
        .iter()
        .map(JobMetrics::cogroup_shuffle_bytes_saved)
        .sum();
    out.insert(
        "mapreduce.peak_live_bytes".into(),
        res.peak_live_bytes as f64,
    );
    out.insert("mapreduce.cogroup_bytes_saved".into(), saved as f64);
    out.insert("mapreduce.attempts".into(), exec.attempts as f64);
    out.insert("mapreduce.retries".into(), exec.retries as f64);
    // A model, not a measurement: the paper's 10-node cluster replaying
    // this run's measured task times over its plan shape.
    let schedules = ClusterModel::paper_default(10).simulate_plan(&res.chain, &res.deps);
    out.insert(
        "cluster.sim_plan_s".into(),
        schedules_makespan_secs(&schedules),
    );
    let fs = &res.filter_stats;
    for (field, v) in filter_fields(fs) {
        out.insert(format!("fsjoin.{field}"), v as f64);
    }
    out.insert("fsjoin.candidates".into(), res.candidates as f64);
    out.insert("fsjoin.pairs".into(), res.pairs.len() as f64);
    out.insert(
        "fsjoin.pairs_per_candidate".into(),
        ratio(res.pairs.len() as f64, res.candidates as f64),
    );
    out.insert(
        "fsjoin.bitmap_prune_ratio".into(),
        ratio(fs.bitmap_pruned as f64, fs.bitmap_checks as f64),
    );
    out
}

/// The counters of one batch join that must repeat bit for bit for a
/// given input: result and candidate counts, every `FilterStats` field,
/// and each stage's logical shuffle volume. (Peak live bytes depends on
/// pipelining timing and is not among them.)
pub fn exact_counters(res: &FsJoinResult) -> BTreeMap<String, u64> {
    let mut out = BTreeMap::new();
    out.insert("pairs".to_string(), res.pairs.len() as u64);
    out.insert("candidates".to_string(), res.candidates as u64);
    for (field, v) in filter_fields(&res.filter_stats) {
        out.insert(format!("filter.{field}"), v);
    }
    for job in &res.chain.jobs {
        out.insert(
            format!("{}.shuffle_bytes", job.name),
            job.shuffle_bytes as u64,
        );
        out.insert(
            format!("{}.shuffle_records", job.name),
            job.shuffle_records as u64,
        );
        out.insert(
            format!("{}.pre_combine_records", job.name),
            job.pre_combine_records as u64,
        );
    }
    out
}

/// Median of each key across samples (keys missing from a sample are
/// skipped for that sample).
pub fn median_by_key(samples: &[BTreeMap<String, f64>]) -> BTreeMap<String, f64> {
    let mut by_key: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for s in samples {
        for (k, v) in s {
            by_key.entry(k.clone()).or_default().push(*v);
        }
    }
    by_key
        .into_iter()
        .map(|(k, v)| (k, crate::stats::median(&v)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::valid_metric_name;

    #[test]
    fn catalogue_names_are_valid_and_unique() {
        let mut names: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
        names.extend(per_layer().into_iter().map(|(n, _)| n));
        for n in &names {
            assert!(valid_metric_name(n), "{n}");
        }
        let total = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), total, "duplicate metric name");
        assert!(per_layer().len() <= 128);
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json readable");
        let mut want: Vec<(String, &str)> = END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), *u))
            .collect();
        want.extend(per_layer());
        for (name, unit) in &want {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let declared = json.matches("\"unit\":").count();
        assert_eq!(
            declared,
            want.len(),
            "BENCHMARK.json declares other metrics"
        );
    }
}
