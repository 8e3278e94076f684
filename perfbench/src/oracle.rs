//! Independent in-memory oracles. Every check here runs outside the timed
//! calls.
//!
//! The batch oracles are PPJoin (a single-machine prefix-filter join from
//! `ssj-similarity`, sharing no code path with the MapReduce pipelines);
//! the serving oracle is a plain scan that scores every visible record.

use ssj_similarity::pair::compare_results;
use ssj_similarity::ppjoin::ppjoin_self_join;
use ssj_similarity::{Measure, SimilarPair};
use ssj_text::{Collection, RecordId, RecordView, TokenId};

/// Check a join result against the oracle's pairs: the same pair set, no
/// duplicate pair, and bit-identical scores.
pub fn check_pairs(got: &[SimilarPair], want: &[SimilarPair]) -> Result<(), String> {
    compare_results(got, want, 0.0)?;
    if got.len() != want.len() {
        return Err(format!(
            "{} pairs returned for {} distinct pairs (duplicates)",
            got.len(),
            want.len()
        ));
    }
    Ok(())
}

/// Self-join oracle: PPJoin over the collection's records.
pub fn self_join_oracle(c: &Collection, measure: Measure, theta: f64) -> Vec<SimilarPair> {
    ppjoin_self_join(&c.views(), measure, theta)
}

/// R×S oracle: the cross-side pairs of PPJoin over R followed by S, with
/// S ids offset by `|R|` (the id convention of the R×S joins).
pub fn rs_join_oracle(
    r: &Collection,
    s: &Collection,
    measure: Measure,
    theta: f64,
) -> Vec<SimilarPair> {
    let offset = r.len() as RecordId;
    let both: Vec<RecordView<'_>> = r
        .iter()
        .chain(s.iter().map(|v| RecordView {
            id: v.id + offset,
            tokens: v.tokens,
        }))
        .collect();
    ppjoin_self_join(&both, measure, theta)
        .into_iter()
        .filter(|p| p.a < offset && p.b >= offset)
        .collect()
}

fn overlap(x: &[TokenId], y: &[TokenId]) -> usize {
    let (mut i, mut j, mut n) = (0, 0, 0);
    while i < x.len() && j < y.len() {
        match x[i].cmp(&y[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                n += 1;
                i += 1;
                j += 1;
            }
        }
    }
    n
}

/// Score every record in `visible` against `query`; keep those at or above
/// `theta`, ascending by record id (the order `probe_with` answers in).
pub fn naive_probe<'a>(
    visible: impl Iterator<Item = (RecordId, &'a [TokenId])>,
    query: &[TokenId],
    measure: Measure,
    theta: f64,
) -> Vec<(RecordId, f64)> {
    let mut out: Vec<(RecordId, f64)> = visible
        .filter_map(|(rid, y)| {
            let o = overlap(query, y);
            (o > 0 && measure.passes(o, query.len(), y.len(), theta))
                .then(|| (rid, measure.score(o, query.len(), y.len())))
        })
        .collect();
    out.sort_by_key(|&(rid, _)| rid);
    out
}

/// The `k` best records at or above `theta_min`, by score descending then
/// record id ascending (the order `top_k` answers in).
pub fn naive_top_k<'a>(
    visible: impl Iterator<Item = (RecordId, &'a [TokenId])>,
    query: &[TokenId],
    measure: Measure,
    theta_min: f64,
    k: usize,
) -> Vec<(RecordId, f64)> {
    let mut out = naive_probe(visible, query, measure, theta_min);
    out.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    out.truncate(k);
    out
}

/// Compare a serving answer with the oracle's, bit for bit.
pub fn check_answer(got: &[(RecordId, f64)], want: &[(RecordId, f64)]) -> Result<(), String> {
    let same = got.len() == want.len()
        && got
            .iter()
            .zip(want)
            .all(|(g, w)| g.0 == w.0 && g.1.to_bits() == w.1.to_bits());
    if same {
        Ok(())
    } else {
        Err(format!(
            "answer differs: got {} records {:?}…, want {} records {:?}…",
            got.len(),
            &got[..got.len().min(3)],
            want.len(),
            &want[..want.len().min(3)]
        ))
    }
}
