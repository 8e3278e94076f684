//! Posting types shared by the build plan, the sealed main index, and the
//! mutable delta index.
//!
//! A [`Posting`] is one `(record, position, length)` triple: record `rec`
//! carries the posting's token at position `pos` of its sorted token
//! vector, and has `len` tokens total. Storing the length *in* the posting
//! is the Bitmap-Filter-style design point (prune state resident next to
//! the index): the probe path applies the length window without touching
//! the record arena, so a pruned posting costs one comparison and zero
//! cache misses outside the posting block.
//!
//! A [`PostingBlock`] is one token's posting list stored **columnar** —
//! three parallel vectors rather than an array of structs — so the length
//! filter scans a contiguous `&[u32]` and the verify stage reads record
//! ids without striding over positions. Blocks are also the build plan's
//! reduce *output* type: the reducer seals each token's postings into a
//! block, and [`ServeIndex::from_plan`](crate::ServeIndex::from_plan)
//! serves straight out of the sealed partitions.

use ssj_common::ByteSize;
use ssj_text::RecordId;

/// One posting: `(record, position, length)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Posting {
    /// Record id within the serving index (main arena ++ delta pool).
    pub rec: RecordId,
    /// Position of the token within the record's sorted token vector.
    pub pos: u32,
    /// The record's total token count.
    pub len: u32,
}

impl ByteSize for Posting {
    #[inline]
    fn byte_size(&self) -> usize {
        12
    }
}

/// One token's posting list, columnar: `recs[i]`, `poss[i]`, `lens[i]`
/// form the `i`-th [`Posting`], ascending in `recs` (build and compaction
/// both emit record-ascending lists; probes rely on it only for
/// determinism, not correctness).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PostingBlock {
    /// Record ids, ascending.
    pub recs: Vec<RecordId>,
    /// Token positions, parallel to `recs`.
    pub poss: Vec<u32>,
    /// Record lengths, parallel to `recs`.
    pub lens: Vec<u32>,
}

impl PostingBlock {
    /// A block with room for `n` postings.
    pub fn with_capacity(n: usize) -> Self {
        PostingBlock {
            recs: Vec::with_capacity(n),
            poss: Vec::with_capacity(n),
            lens: Vec::with_capacity(n),
        }
    }

    /// Number of postings.
    #[inline]
    pub fn len(&self) -> usize {
        self.recs.len()
    }

    /// True when the block holds no postings.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.recs.is_empty()
    }

    /// Append one posting.
    #[inline]
    pub fn push(&mut self, p: Posting) {
        self.recs.push(p.rec);
        self.poss.push(p.pos);
        self.lens.push(p.len);
    }

    /// The `i`-th posting, re-assembled from the columns.
    #[inline]
    pub fn get(&self, i: usize) -> Posting {
        Posting {
            rec: self.recs[i],
            pos: self.poss[i],
            len: self.lens[i],
        }
    }

    /// Append `other`'s postings (compaction: their ids exceed ours).
    pub fn extend_from(&mut self, other: &PostingBlock) {
        self.recs.extend_from_slice(&other.recs);
        self.poss.extend_from_slice(&other.poss);
        self.lens.extend_from_slice(&other.lens);
    }

    /// Iterate the postings in storage order.
    pub fn iter(&self) -> impl Iterator<Item = Posting> + '_ {
        (0..self.len()).map(move |i| self.get(i))
    }
}

impl ByteSize for PostingBlock {
    /// Wire size: three length-prefixed u32 columns — identical to the
    /// `(rec, pos, len)` rows plus two extra prefixes, so block-shaped
    /// shuffle accounting stays comparable to row-shaped accounting.
    fn byte_size(&self) -> usize {
        self.recs.byte_size() + self.poss.byte_size() + self.lens.byte_size()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_round_trips_postings() {
        let mut b = PostingBlock::with_capacity(2);
        assert!(b.is_empty());
        let p0 = Posting {
            rec: 3,
            pos: 0,
            len: 7,
        };
        let p1 = Posting {
            rec: 9,
            pos: 2,
            len: 4,
        };
        b.push(p0);
        b.push(p1);
        assert_eq!(b.len(), 2);
        assert_eq!(b.get(0), p0);
        assert_eq!(b.iter().collect::<Vec<_>>(), vec![p0, p1]);
        let mut c = PostingBlock::default();
        c.push(p0);
        let mut tail = PostingBlock::default();
        tail.push(p1);
        c.extend_from(&tail);
        assert_eq!(c, b);
    }

    #[test]
    fn byte_sizes_are_row_comparable() {
        let mut b = PostingBlock::default();
        assert_eq!(b.byte_size(), 12); // three empty length prefixes
        b.push(Posting {
            rec: 1,
            pos: 0,
            len: 2,
        });
        assert_eq!(b.byte_size(), 12 + 12);
        assert_eq!(
            Posting {
                rec: 0,
                pos: 0,
                len: 0
            }
            .byte_size(),
            12
        );
    }
}
