//! The oracle checks catch a corrupted result, and the closed-loop log
//! counts it as a failed operation.

use std::time::Duration;

use fsjoin::{run_rs_join_two_input, run_self_join, FsJoinConfig};
use perfbench::oracle::{
    check_answer, check_pairs, naive_probe, naive_top_k, rs_join_oracle, self_join_oracle,
};
use perfbench::stats::{OpKind, OpLog};
use ssj_serve::{build_index, ProbeStats, ServeConfig};
use ssj_similarity::{Measure, SimilarPair};
use ssj_text::{encode, encode::encode_two, CorpusProfile, RawCorpus};

const THETA: f64 = 0.8;

/// Log one operation whose result passed or failed its check.
fn logged(check: Result<(), String>) -> OpLog {
    let mut log = OpLog::default();
    log.push(OpKind::Join, Duration::from_millis(1), check.is_ok());
    log
}

/// Corruptions of a correct pair list: one pair dropped, one score
/// nudged by one ulp, one pair duplicated.
fn corruptions(good: &[SimilarPair]) -> Vec<Vec<SimilarPair>> {
    let mut dropped = good.to_vec();
    dropped.pop();
    let mut perturbed = good.to_vec();
    perturbed[0].sim = f64::from_bits(perturbed[0].sim.to_bits() - 1);
    let mut duplicated = good.to_vec();
    duplicated.push(good[0]);
    vec![dropped, perturbed, duplicated]
}

#[test]
fn self_join_check_fails_corrupted_results() {
    let c = encode(
        &CorpusProfile::WikiLike
            .config()
            .with_records(1_500)
            .generate(),
    );
    let want = self_join_oracle(&c, Measure::Jaccard, THETA);
    assert!(!want.is_empty());
    let got = run_self_join(&c, &FsJoinConfig::default().with_theta(THETA)).pairs;
    assert_eq!(logged(check_pairs(&got, &want)).failed(), 0);
    for bad in corruptions(&got) {
        let log = logged(check_pairs(&bad, &want));
        assert_eq!((log.attempted(), log.failed(), log.completed()), (1, 1, 0));
        assert!(log.latencies(None).is_empty());
    }
}

#[test]
fn rs_join_check_fails_corrupted_results() {
    let s_raw = CorpusProfile::WikiLike
        .config()
        .with_records(2_000)
        .generate();
    let r_raw = RawCorpus {
        docs: s_raw.docs[..250].to_vec(),
        vocab: None,
    };
    let (r, s) = encode_two(&r_raw, &s_raw);
    let want = rs_join_oracle(&r, &s, Measure::Jaccard, THETA);
    // Every R record recurs in S.
    assert!(want.len() >= r.len());
    assert!(want
        .iter()
        .all(|p| (p.a as usize) < r.len() && (p.b as usize) >= r.len()));
    let got = run_rs_join_two_input(&r, &s, &FsJoinConfig::default().with_theta(THETA)).pairs;
    assert_eq!(logged(check_pairs(&got, &want)).failed(), 0);
    for bad in corruptions(&got) {
        assert_eq!(logged(check_pairs(&bad, &want)).failed(), 1);
    }
}

#[test]
fn serve_check_fails_corrupted_answers() {
    let c = encode(
        &CorpusProfile::WikiLike
            .config()
            .with_records(2_000)
            .generate(),
    );
    let index = build_index(&c, &ServeConfig::default().with_theta_min(0.7));
    let visible = || c.iter().map(|v| (v.id, v.tokens));
    let mut checked = 0;
    for rid in (0..c.len() as u32).step_by(7) {
        let q = c.tokens(rid);
        let mut stats = ProbeStats::default();
        let got = index.probe_with(q, THETA, None, &mut stats);
        let want = naive_probe(visible(), q, Measure::Jaccard, THETA);
        assert_eq!(logged(check_answer(&got, &want)).failed(), 0);
        let top = index.top_k(q, 10);
        let want_top = naive_top_k(visible(), q, Measure::Jaccard, 0.7, 10);
        assert_eq!(logged(check_answer(&top, &want_top)).failed(), 0);
        if got.len() >= 2 {
            let mut dropped = got.clone();
            dropped.remove(0);
            let mut perturbed = got.clone();
            perturbed[1].1 = f64::from_bits(perturbed[1].1.to_bits() + 1);
            assert_eq!(logged(check_answer(&dropped, &want)).failed(), 1);
            assert_eq!(logged(check_answer(&perturbed, &want)).failed(), 1);
            checked += 1;
        }
    }
    assert!(checked > 0, "no probe with two or more hits");
}
