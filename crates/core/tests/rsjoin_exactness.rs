//! Exactness of the two-input R×S plan (`run_rs_join_two_input`): its join
//! stage verifies each cross pair in the group of the pair's smallest
//! shared token only, so it must emit every result pair exactly once —
//! with no dedup stage behind it — and the result must equal the naive
//! R×S oracle bit for bit, scores included, on every configuration axis.

use fsjoin::FsJoinConfig;
use proptest::prelude::*;
use ssj_similarity::naive::naive_rs_join;
use ssj_similarity::pair::compare_results;
use ssj_similarity::Measure;
use ssj_text::{Collection, Record};

/// Token universe of the generated corpora: small, so records share
/// tokens and pairs meet under several prefix tokens.
const VOCAB: u32 = 40;
const THETAS: [f64; 3] = [0.6, 0.8, 1.0];

/// Encode raw R and S documents into one frequency-ascending rank space
/// with shared token frequencies, as `encode_two` would.
fn encode_sides(r_docs: Vec<Vec<u32>>, s_docs: Vec<Vec<u32>>) -> (Collection, Collection) {
    let mut freqs = vec![0u64; VOCAB as usize];
    let to_records = |docs: Vec<Vec<u32>>| -> Vec<Record> {
        docs.into_iter()
            .enumerate()
            .map(|(i, toks)| Record::new(i as u32, toks))
            .collect()
    };
    let (r, s) = (to_records(r_docs), to_records(s_docs));
    for rec in r.iter().chain(&s) {
        for &t in &rec.tokens {
            freqs[t as usize] += 1;
        }
    }
    let mut by_freq: Vec<u32> = (0..VOCAB).collect();
    by_freq.sort_by_key(|&t| (freqs[t as usize], t));
    let mut rank_of = vec![0u32; VOCAB as usize];
    for (rank, &t) in by_freq.iter().enumerate() {
        rank_of[t as usize] = rank as u32;
    }
    let rank_freqs: Vec<u64> = by_freq.iter().map(|&t| freqs[t as usize]).collect();
    let rerank = |side: Vec<Record>| -> Collection {
        let records = side
            .into_iter()
            .map(|rec| {
                Record::new(
                    rec.id,
                    rec.tokens.iter().map(|&t| rank_of[t as usize]).collect(),
                )
            })
            .collect();
        Collection::new(records, rank_freqs.clone(), None)
    };
    (rerank(r), rerank(s))
}

/// Strategy: R and S with empty and single-token records (lengths start at
/// 0), exact duplicates of R records planted in S, and near-duplicates
/// (one token dropped) so results exist at high thresholds.
fn arb_rs_corpora() -> impl Strategy<Value = (Collection, Collection)> {
    (
        prop::collection::vec(prop::collection::vec(0u32..VOCAB, 0..12), 1..20),
        prop::collection::vec(prop::collection::vec(0u32..VOCAB, 0..12), 1..30),
        prop::collection::vec(0usize..64, 0..6),
        prop::collection::vec(0usize..64, 0..6),
    )
        .prop_map(|(r_docs, mut s_docs, exact, near)| {
            for &k in &exact {
                s_docs.push(r_docs[k % r_docs.len()].clone());
            }
            for &k in &near {
                let mut copy = r_docs[k % r_docs.len()].clone();
                if copy.len() > 1 {
                    copy.remove(k % copy.len());
                }
                s_docs.push(copy);
            }
            encode_sides(r_docs, s_docs)
        })
}

/// Run the plan under `cfg` and check the join stage's output against the
/// oracle: no pair twice, one join-stage emission per result pair, and the
/// oracle's pairs with identical score bits.
fn check(r: &Collection, s: &Collection, cfg: &FsJoinConfig) -> Result<(), TestCaseError> {
    let label = format!(
        "{:?} θ={} reduce_tasks={} workers={} cogroup={} bitmap={}",
        cfg.measure, cfg.theta, cfg.reduce_tasks, cfg.workers, cfg.rs_cogroup, cfg.bitmap_prune
    );
    let res = fsjoin::run_rs_join_two_input(r, s, cfg);
    let names: Vec<&str> = res.chain.jobs.iter().map(|j| j.name.as_str()).collect();
    prop_assert!(
        names == ["rsjoin-r-prefix", "rsjoin-s-prefix", "rsjoin-join"],
        "{label}: stages {names:?}"
    );
    // `pairs` is sorted by ids, so a repeated pair would sit next to itself.
    let dup = res.pairs.windows(2).find(|w| w[0].ids() == w[1].ids());
    prop_assert!(dup.is_none(), "{label}: pair {dup:?} emitted twice");
    prop_assert!(
        res.candidates == res.pairs.len() && res.filter_stats.emitted == res.pairs.len() as u64,
        "{label}: {} join emissions ({} counted) for {} pairs",
        res.candidates,
        res.filter_stats.emitted,
        res.pairs.len()
    );

    let offset = r.len() as u32;
    let s_shifted: Vec<Record> = s
        .iter()
        .map(|v| Record::from_sorted(v.id + offset, v.tokens.to_vec()))
        .collect();
    let want = naive_rs_join(&r.views(), &s_shifted, cfg.measure, cfg.theta);
    compare_results(&res.pairs, &want, 0.0)
        .map_err(|e| TestCaseError::fail(format!("{label}: {e}")))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every measure and threshold on random corpora, with the engine
    /// geometry, join path and bitmap prune drawn per case.
    #[test]
    fn join_stage_emits_each_pair_once_and_matches_oracle(
        (r, s) in arb_rs_corpora(),
        reduce_tasks in prop::sample::select(vec![1usize, 3, 12]),
        workers in prop::sample::select(vec![1usize, 2, 7]),
        cogroup in prop::sample::select(vec![true, false]),
        bitmap in prop::sample::select(vec![true, false]),
    ) {
        for measure in Measure::all() {
            for theta in THETAS {
                let cfg = FsJoinConfig::default()
                    .with_measure(measure)
                    .with_theta(theta)
                    .with_tasks(3, reduce_tasks)
                    .with_workers(workers)
                    .with_rs_cogroup(cogroup)
                    .with_bitmap_prune(bitmap);
                check(&r, &s, &cfg)?;
            }
        }
    }
}

/// The full configuration grid on one fixed adversarial corpus: empty and
/// single-token records, exact duplicates across sides (including one
/// record duplicated many times) and chains of near-duplicates.
#[test]
fn full_grid_on_adversarial_corpus() {
    let mut r_docs: Vec<Vec<u32>> = vec![
        vec![],
        vec![3],
        vec![0, 1, 2, 3, 4, 5],
        (0..VOCAB).collect(),
        vec![7, 8, 9, 10, 11],
    ];
    let mut s_docs: Vec<Vec<u32>> = vec![vec![], vec![3], vec![4], (0..VOCAB).collect()];
    for k in 0..8u32 {
        r_docs.push((k..k + 10).collect());
        s_docs.push((k + 1..k + 11).collect());
        s_docs.push(vec![0, 1, 2, 3, 4, 5]);
    }
    let (r, s) = encode_sides(r_docs, s_docs);
    for measure in Measure::all() {
        for theta in THETAS {
            for reduce_tasks in [1usize, 3, 12] {
                for workers in [1usize, 2, 7] {
                    for cogroup in [true, false] {
                        for bitmap in [true, false] {
                            let cfg = FsJoinConfig::default()
                                .with_measure(measure)
                                .with_theta(theta)
                                .with_tasks(3, reduce_tasks)
                                .with_workers(workers)
                                .with_rs_cogroup(cogroup)
                                .with_bitmap_prune(bitmap);
                            check(&r, &s, &cfg).unwrap_or_else(|e| panic!("{e}"));
                        }
                    }
                }
            }
        }
    }
}
