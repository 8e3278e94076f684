//! The mutable side of the serving index.
//!
//! Inserts land here: tokens are appended to a private [`TokenPool`]
//! (validated CSR push, see `TokenPool::append`) and the record's
//! `theta_min` prefix is indexed into small per-token posting blocks kept
//! in a hash map. Probes scan the delta block for each probe-prefix token
//! right after the sealed main block, so fresh records are visible
//! immediately. Compaction consumes the whole structure
//! ([`DeltaIndex::into_parts`]) and appends it to the main index in place.
//!
//! Record ids continue the main arena's dense numbering: a delta record's
//! public id is `base + local`, where `base` is the main pool's length at
//! insert time and `local` its slot in the delta pool. Compaction appends
//! the delta pool to the main arena, so public ids are stable across
//! compactions.

use ssj_common::FxHashMap;
use ssj_similarity::Measure;
use ssj_text::{MalformedRecord, RecordId, TokenId, TokenPool};

use crate::posting::{Posting, PostingBlock};

/// Mutable delta index: private token pool + per-token prefix postings.
#[derive(Debug, Default)]
pub(crate) struct DeltaIndex {
    pool: TokenPool,
    postings: FxHashMap<TokenId, PostingBlock>,
    /// All delta record lengths, ascending (binary-insert on insert) —
    /// the delta half of the prefix-filter pruning-power accounting.
    sorted_lens: Vec<u32>,
    /// Total postings across all blocks.
    posting_count: usize,
}

impl DeltaIndex {
    pub(crate) fn new() -> Self {
        DeltaIndex::default()
    }

    /// Number of delta records.
    pub(crate) fn len(&self) -> usize {
        self.pool.len()
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.pool.len() == 0
    }

    /// Total postings held.
    pub(crate) fn posting_count(&self) -> usize {
        self.posting_count
    }

    /// The delta token pool (compaction appends it to the main arena).
    pub(crate) fn pool(&self) -> &TokenPool {
        &self.pool
    }

    /// Tokens of delta-local record `local`.
    pub(crate) fn tokens_of(&self, local: RecordId) -> &[TokenId] {
        self.pool.tokens_of(local)
    }

    /// Delta record lengths, ascending.
    pub(crate) fn sorted_lens(&self) -> &[u32] {
        &self.sorted_lens
    }

    /// Posting block for token `t`, if any delta record's indexed prefix
    /// contains it.
    pub(crate) fn postings_of(&self, t: TokenId) -> Option<&PostingBlock> {
        self.postings.get(&t)
    }

    /// Validate and index one record. `base` is the main arena's record
    /// count: the returned public id is `base + local`, and errors are
    /// remapped to the public id space too.
    pub(crate) fn insert(
        &mut self,
        tokens: &[TokenId],
        base: RecordId,
        measure: Measure,
        theta_min: f64,
    ) -> Result<RecordId, MalformedRecord> {
        let (local, _span) = self.pool.append(tokens).map_err(|e| MalformedRecord {
            id: base + e.id,
            position: e.position,
        })?;
        let rid = base + local;
        let len = tokens.len() as u32;
        let prefix = measure.probe_prefix_len(theta_min, tokens.len());
        for (pos, &t) in tokens[..prefix].iter().enumerate() {
            self.postings.entry(t).or_default().push(Posting {
                rec: rid,
                pos: pos as u32,
                len,
            });
        }
        self.posting_count += prefix;
        let at = self.sorted_lens.partition_point(|&l| l <= len);
        self.sorted_lens.insert(at, len);
        Ok(rid)
    }

    /// Consume the delta's postings for compaction (its pool has already
    /// been appended): `(token, block)` entries ascending by token, and
    /// the ascending record lengths. Within a block postings are
    /// record-ascending (insertion order is id order).
    pub(crate) fn into_parts(self) -> (Vec<(TokenId, PostingBlock)>, Vec<u32>) {
        let mut entries: Vec<(TokenId, PostingBlock)> = self.postings.into_iter().collect();
        entries.sort_unstable_by_key(|e| e.0);
        (entries, self.sorted_lens)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_indexes_theta_min_prefix_and_remaps_ids() {
        let mut d = DeltaIndex::new();
        // |x| = 4, θ_min = 0.5 Jaccard ⇒ probe prefix = 4 - ceil(0.5·4) + 1 = 3.
        let rid = d
            .insert(&[5, 7, 9, 11], 100, Measure::Jaccard, 0.5)
            .unwrap();
        assert_eq!(rid, 100);
        assert_eq!(d.len(), 1);
        assert_eq!(d.tokens_of(0), &[5, 7, 9, 11]);
        assert_eq!(d.sorted_lens(), &[4]);
        let prefix = Measure::Jaccard.probe_prefix_len(0.5, 4);
        assert_eq!(d.posting_count(), prefix);
        let p = d.postings_of(5).unwrap().get(0);
        assert_eq!((p.rec, p.pos, p.len), (100, 0, 4));
        assert!(d.postings_of(11).is_none(), "suffix tokens are not indexed");
    }

    #[test]
    fn insert_error_carries_public_id_and_leaves_state_clean() {
        let mut d = DeltaIndex::new();
        let err = d.insert(&[3, 3], 42, Measure::Jaccard, 0.8).unwrap_err();
        assert_eq!((err.id, err.position), (42, 1));
        assert!(d.is_empty());
        assert_eq!(d.posting_count(), 0);
        assert!(d.into_parts().0.is_empty());
    }

    #[test]
    fn into_parts_is_token_then_record_ascending() {
        let mut d = DeltaIndex::new();
        d.insert(&[2, 8], 10, Measure::Jaccard, 0.5).unwrap();
        d.insert(&[2, 4], 10 + 1, Measure::Jaccard, 0.5).unwrap();
        d.insert(&[1, 9], 10 + 2, Measure::Jaccard, 0.5).unwrap();
        let postings = d.posting_count();
        let (entries, lens) = d.into_parts();
        assert_eq!(lens, vec![2, 2, 2]);
        let keys: Vec<(TokenId, RecordId)> = entries
            .iter()
            .flat_map(|(t, b)| b.recs.iter().map(move |&r| (*t, r)))
            .collect();
        assert_eq!(keys.len(), postings);
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        assert_eq!(keys, sorted);
    }
}
