//! End-to-end equivalence pins for the columnar token data plane.
//!
//! The arena-backed [`TokenPool`] replaced per-record / per-segment owned
//! `Vec<TokenId>` storage, but the change is required to be *observationally
//! invisible*: join results, candidate counts, filter pruning counters and
//! every per-job shuffle-volume metric must be bit-identical to the
//! owned-vector implementation. The constants below were captured by
//! running the pre-refactor code on this exact seeded corpus; any drift in
//! partitioning, filtering, or — most subtly — logical byte accounting
//! (a span must cost what the tokens it denotes would cost on the wire)
//! shows up here as a hard failure.

use fsjoin::{run_rs_join, run_self_join, run_self_join_pf, FsJoinConfig};
use ssj_common::ByteSize;
use ssj_mapreduce::JobMetrics;
use ssj_similarity::Measure;
use ssj_text::encode::encode_two;
use ssj_text::{encode, CorpusProfile, TokenPool};

/// Order- and score-sensitive FNV digest of a result set.
fn digest_pairs(pairs: &[ssj_similarity::SimilarPair]) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for p in pairs {
        let (a, b) = p.ids();
        let sim_bits = (p.sim * 1e9).round() as u64;
        for v in [a as u64, b as u64, sim_bits] {
            h ^= v;
            h = h.wrapping_mul(0x100000001b3);
        }
    }
    h
}

fn corpus() -> ssj_text::Collection {
    encode(
        &CorpusProfile::WikiLike
            .config()
            .with_records(300)
            .generate(),
    )
}

fn assert_job(job: &JobMetrics, shuffle_records: usize, shuffle_bytes: usize, map_input: usize) {
    assert_eq!(
        job.shuffle_records, shuffle_records,
        "{} shuffle_records",
        job.name
    );
    assert_eq!(
        job.shuffle_bytes, shuffle_bytes,
        "{} shuffle_bytes",
        job.name
    );
    let map_in: usize = job.map_tasks.iter().map(|t| t.input_bytes).sum();
    assert_eq!(map_in, map_input, "{} map_input_bytes", job.name);
}

#[test]
fn corpus_is_the_one_the_goldens_were_captured_on() {
    let c = corpus();
    assert_eq!(c.len(), 300);
    assert_eq!(c.universe(), 5631);
    assert_eq!(c.total_tokens(), 15929);
}

#[test]
fn default_config_matches_owned_vec_goldens() {
    let res = run_self_join(&corpus(), &FsJoinConfig::default().with_theta(0.8));
    assert_eq!(res.pairs.len(), 13);
    assert_eq!(digest_pairs(&res.pairs), 0x947e907426c9f3c7);
    assert_eq!(res.candidates, 20814);

    let fs = &res.filter_stats;
    assert_eq!(fs.pairs_considered, 53720);
    assert_eq!(fs.strl_pruned, 21944);
    assert_eq!(fs.segl_pruned, 5005);
    assert_eq!(fs.segi_pruned, 5957);
    assert_eq!(fs.segd_pruned, 0);
    assert_eq!(fs.policy_dropped, 0);
    assert_eq!(fs.emitted, 20814);

    assert_job(res.chain.job("fsjoin-filter").unwrap(), 7324, 304728, 67616);
    assert_job(
        res.chain.job("fsjoin-verify").unwrap(),
        20808,
        416160,
        416280,
    );
}

#[test]
fn fragmented_horizontal_config_matches_owned_vec_goldens() {
    let cfg = FsJoinConfig::default()
        .with_theta(0.7)
        .with_fragments(8)
        .with_horizontal(3);
    let res = run_self_join(&corpus(), &cfg);
    assert_eq!(res.pairs.len(), 20);
    assert_eq!(digest_pairs(&res.pairs), 0xec25473913792d83);
    assert_eq!(res.candidates, 18137);

    let fs = &res.filter_stats;
    assert_eq!(fs.pairs_considered, 50464);
    assert_eq!(fs.strl_pruned, 19098);
    assert_eq!(fs.segl_pruned, 2720);
    assert_eq!(fs.segi_pruned, 10509);
    assert_eq!(fs.emitted, 18137);

    assert_job(res.chain.job("fsjoin-filter").unwrap(), 4359, 244439, 67616);
    assert_job(
        res.chain.job("fsjoin-verify").unwrap(),
        18137,
        362740,
        362740,
    );
}

#[test]
fn pf_variant_matches_owned_vec_goldens() {
    let res = run_self_join_pf(&corpus(), &FsJoinConfig::default().with_theta(0.8));
    assert_eq!(res.pairs.len(), 13);
    assert_eq!(digest_pairs(&res.pairs), 0x947e907426c9f3c7);
    assert_eq!(res.candidates, 45);
    assert_job(
        res.chain.job("fsjoin-pf-discover").unwrap(),
        7324,
        304728,
        67616,
    );
    assert_job(res.chain.job("fsjoin-pf-dedup").unwrap(), 45, 720, 720);
    assert_job(res.chain.job("fsjoin-pf-verify").unwrap(), 13, 208, 368);
}

/// The byte-accounting invariant in isolation: a spanned segment's logical
/// [`ByteSize`] must equal the pre-columnar owned-vector layout — metadata
/// (rid 4 + side 1 + len/head/tail 12) plus a length-prefixed token vector
/// (4 + 4n) — for every segment the vertical partitioner produces.
#[test]
fn spanned_segment_byte_size_equals_owned_segment_size() {
    let c = corpus();
    let pool: &TokenPool = c.pool();
    let pivots = [40u32, 400, 2000];
    let mut checked = 0usize;
    for v in c.iter() {
        let segs = fsjoin::vertical::split_record(v.id, 0, v.tokens, c.span(v.id), &pivots);
        for (_, seg) in segs {
            let owned_layout = 17 + 4 + 4 * seg.tokens(pool).len();
            assert_eq!(seg.byte_size(), owned_layout);
            checked += 1;
        }
    }
    assert!(checked > 300, "expected multiple segments per record");
}

/// Everything a golden pins about one FS-Join run: the result digest, the
/// candidate count, every [`FilterStats`](fsjoin::FilterStats) field (in
/// `FilterStats::fields` order) and per-job shuffle records/bytes.
struct RunGolden {
    pairs: usize,
    digest: u64,
    candidates: usize,
    stats: [u64; 11],
    jobs: &'static [(&'static str, usize, usize)],
}

fn assert_run(res: &fsjoin::FsJoinResult, want: &RunGolden) {
    let stats: Vec<u64> = res.filter_stats.fields().iter().map(|f| f.1).collect();
    let jobs: Vec<(String, usize, usize)> = res
        .chain
        .jobs
        .iter()
        .map(|j| (j.name.clone(), j.shuffle_records, j.shuffle_bytes))
        .collect();
    assert_eq!(res.pairs.len(), want.pairs);
    assert_eq!(digest_pairs(&res.pairs), want.digest);
    assert_eq!(res.candidates, want.candidates);
    assert_eq!(stats, want.stats);
    let want_jobs: Vec<(String, usize, usize)> = want
        .jobs
        .iter()
        .map(|&(n, r, b)| (n.to_string(), r, b))
        .collect();
    assert_eq!(jobs, want_jobs);
}

#[test]
fn dice_config_matches_goldens() {
    let cfg = FsJoinConfig::default()
        .with_measure(Measure::Dice)
        .with_theta(0.85)
        .with_horizontal(2);
    assert_run(
        &run_self_join(&corpus(), &cfg),
        &RunGolden {
            pairs: 17,
            digest: 0x297b7c69e59b5ac0,
            candidates: 32086,
            stats: [
                79147, 37339, 3873, 5849, 0, 0, 32086, 37933, 317151, 23054, 2,
            ],
            jobs: &[
                ("fsjoin-filter", 6262, 261138),
                ("fsjoin-verify", 32078, 641560),
            ],
        },
    );
}

#[test]
fn cosine_config_matches_goldens() {
    let cfg = FsJoinConfig::default()
        .with_measure(Measure::Cosine)
        .with_theta(0.75)
        .with_fragments(6);
    assert_run(
        &run_self_join(&corpus(), &cfg),
        &RunGolden {
            pairs: 24,
            digest: 0x89b6743265dccc82,
            candidates: 24802,
            stats: [
                53737, 13758, 1107, 14070, 0, 0, 24802, 38748, 787884, 26490, 124,
            ],
            jobs: &[
                ("fsjoin-filter", 4369, 290349),
                ("fsjoin-verify", 24802, 496040),
            ],
        },
    );
}

#[test]
fn rs_join_config_matches_goldens() {
    // R is a prefix of S's generator stream, so every R record has an
    // exact partner in S besides the near-duplicates.
    let gen = CorpusProfile::WikiLike.config();
    let (r, s) = encode_two(
        &gen.clone().with_records(120).generate(),
        &gen.with_records(300).generate(),
    );
    let cfg = FsJoinConfig::default().with_theta(0.7).with_horizontal(2);
    assert_run(
        &run_rs_join(&r, &s, &cfg),
        &RunGolden {
            pairs: 143,
            digest: 0x0ffb402f0799b040,
            candidates: 34230,
            stats: [
                68912, 27520, 2535, 4627, 0, 0, 34230, 38855, 340036, 20982, 2,
            ],
            jobs: &[
                ("fsjoin-filter", 8788, 378992),
                ("fsjoin-verify", 33972, 679440),
            ],
        },
    );
}
