//! Reduce-side fragment joins (paper §V-A "Join Algorithms").
//!
//! A reduce task receives every segment of one `(horizontal, vertical)`
//! cell and must produce, for each surviving record pair, the number of
//! common tokens *within this fragment*. Three kernels are compared by the
//! paper (Figure 12):
//!
//! * **Loop** — nested loop over segment pairs, merge-intersecting each;
//! * **Index** — a full inverted index over segment tokens; overlap counts
//!   accumulate while probing, so no per-pair intersection is needed;
//! * **Prefix** — index only each segment's *local prefix* (long enough to
//!   be complete for θ-similar pairs — DESIGN.md §4 item 2); candidates
//!   then verify with an exact merge intersection. FS-Join's default.
//!
//! All kernels apply the same [`FilterSet`] and produce identical output
//! (property-tested); they differ only in work. Segments carry spans into
//! the collection's shared [`TokenPool`], so every kernel takes the pool
//! and resolves token slices on the fly (a bounds-checked slice of the
//! flat arena — contiguous, cache-friendly, and allocation-free).

use crate::filters::{
    segd_pass, segd_pass_precheck, segi_pass, segl_pass, EmitPolicy, FilterSet, FilterStats,
    PairBounds,
};
use crate::horizontal::JoinRule;
use crate::segment::Segment;
use ssj_common::FxHashMap;
use ssj_similarity::bitmap::overlap_upper_bound;
use ssj_similarity::intersect::intersect_count_adaptive;
use ssj_similarity::Measure;
use ssj_text::TokenPool;

/// Which record pairs a join considers, besides the horizontal rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PairScope {
    /// Self-join: all distinct record pairs.
    SelfJoin,
    /// R×S join: only pairs from different sides.
    CrossSides,
}

/// Join kernel choice (paper Figure 12).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum JoinKernel {
    /// Nested-loop with merge intersections.
    Loop,
    /// Full inverted index with count accumulation.
    Index,
    /// Prefix-filtered inverted index (default).
    Prefix,
}

impl JoinKernel {
    /// Short name for experiment tables.
    pub fn name(self) -> &'static str {
        match self {
            JoinKernel::Loop => "Loop",
            JoinKernel::Index => "Index",
            JoinKernel::Prefix => "Prefix",
        }
    }

    /// All kernels in the paper's reporting order.
    pub fn all() -> [JoinKernel; 3] {
        [JoinKernel::Loop, JoinKernel::Index, JoinKernel::Prefix]
    }
}

/// One candidate record emitted by a fragment join: a record pair
/// (`rid_a < rid_b`) with its local overlap and both record lengths.
///
/// The field order (`rid_a`, `rid_b`, `common`, `len_a`, `len_b`) matches
/// the former `((u32, u32), (u32, u32, u32))` tuple encoding, so the
/// derived `Ord` sorts exactly as the tuples did and the MapReduce wire
/// format `((rid_a, rid_b), (common, len_a, len_b))` round-trips
/// losslessly through [`CandidateRecord::key`] / [`CandidateRecord::value`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CandidateRecord {
    /// Smaller record id of the pair.
    pub rid_a: u32,
    /// Larger record id of the pair.
    pub rid_b: u32,
    /// Common tokens within this fragment.
    pub common: u32,
    /// Full length of record `rid_a`.
    pub len_a: u32,
    /// Full length of record `rid_b`.
    pub len_b: u32,
}

impl CandidateRecord {
    /// The shuffle key: the record-id pair.
    #[inline]
    pub fn key(&self) -> (u32, u32) {
        (self.rid_a, self.rid_b)
    }

    /// The shuffle value: `(common, len_a, len_b)`.
    #[inline]
    pub fn value(&self) -> (u32, u32, u32) {
        (self.common, self.len_a, self.len_b)
    }
}

/// Join all segments of one fragment cell. `segments` may contain at most
/// one segment per `(rid, side)` (guaranteed by vertical partitioning);
/// their spans resolve against `pool`.
///
/// Base cells (rule [`JoinRule::All`]) join all admissible pairs; boundary
/// cells join **bipartitely** — segments are split at the pivot into the
/// short band `[lo, pivot)` and the long group `[pivot, ∞)`, and only
/// cross-group pairs are considered, so the join never spends discovery
/// work on pairs the boundary rule would reject.
/// `bitmap` enables the lossless bitmap prune in front of every exact
/// segment intersection (see [`bitmap_settles`]); pass the driver's
/// `FsJoinConfig::bitmap_prune`. All counters pinned by the
/// `columnar_equivalence` goldens are bit-identical with it on or off —
/// only `bitmap_checks`/`bitmap_pruned`/`intersections`/`intersect_tokens`
/// move.
#[allow(clippy::too_many_arguments)]
pub fn join_fragment(
    pool: &TokenPool,
    segments: &[Segment],
    rule: JoinRule,
    scope: PairScope,
    measure: Measure,
    theta: f64,
    kernel: JoinKernel,
    filters: FilterSet,
    policy: EmitPolicy,
    bitmap: bool,
    stats: &mut FilterStats,
) -> Vec<CandidateRecord> {
    let max_len = segments.iter().map(|s| s.len).max().unwrap_or(0);
    let cascade = Cascade::new(
        pool, max_len, scope, measure, theta, filters, policy, bitmap,
    );
    let mut out = Vec::new();
    match rule {
        JoinRule::All => match kernel {
            JoinKernel::Loop => {
                for (i, a) in segments.iter().enumerate() {
                    for b in &segments[i + 1..] {
                        cascade.pair(a, b, None, stats, &mut out);
                    }
                }
            }
            JoinKernel::Index | JoinKernel::Prefix => {
                let all: Vec<&Segment> = segments.iter().collect();
                indexed_join(&cascade, &all, None, kernel, stats, &mut out);
            }
        },
        JoinRule::Boundary { lo, pivot } => {
            let mut short: Vec<&Segment> = Vec::new();
            let mut long: Vec<&Segment> = Vec::new();
            for s in segments {
                if s.len >= pivot {
                    long.push(s);
                } else if s.len >= lo {
                    short.push(s);
                }
                // Segments below `lo` can never satisfy the boundary rule.
            }
            if short.is_empty() || long.is_empty() {
                return out;
            }
            if kernel == JoinKernel::Loop {
                for a in &short {
                    for b in &long {
                        cascade.pair(a, b, None, stats, &mut out);
                    }
                }
            } else {
                indexed_join(&cascade, &short, Some(&long), kernel, stats, &mut out);
            }
        }
    }
    out
}

/// Pair admissibility within a group layout (scope only; the horizontal
/// rule is enforced structurally by the caller's grouping).
#[inline]
fn admissible(a: &Segment, b: &Segment, scope: PairScope) -> bool {
    match scope {
        PairScope::SelfJoin => a.rid != b.rid,
        PairScope::CrossSides => a.side != b.side,
    }
}

/// The filter cascade every kernel runs its pairs through, set up once
/// per cell. The two θ-bounds a pair needs — StrL's `min_partner_len` by
/// the longer length and the `min_overlap` behind [`PairBounds`] — are
/// tabulated from the [`Measure`] functions themselves, so every value is
/// identical by construction and a pair pays two table reads instead of
/// two floating-point `ceil`s. Jaccard and Dice `min_overlap` depend on
/// `len_a + len_b` only; Cosine's depends on the product and keeps the
/// direct call.
struct Cascade<'p> {
    pool: &'p TokenPool,
    scope: PairScope,
    measure: Measure,
    theta: f64,
    filters: FilterSet,
    policy: EmitPolicy,
    bitmap: bool,
    /// `min_partner_len(θ, len)` for `len ≤ max_len`.
    partner: Vec<usize>,
    /// `min_overlap(θ, a, b)` by `a + b ≤ 2·max_len`; empty for Cosine.
    overlap: Vec<usize>,
}

impl<'p> Cascade<'p> {
    #[allow(clippy::too_many_arguments)]
    fn new(
        pool: &'p TokenPool,
        max_len: u32,
        scope: PairScope,
        measure: Measure,
        theta: f64,
        filters: FilterSet,
        policy: EmitPolicy,
        bitmap: bool,
    ) -> Self {
        let max_len = max_len as usize;
        let partner = (0..=max_len)
            .map(|l| measure.min_partner_len(theta, l))
            .collect();
        let overlap = match measure {
            Measure::Cosine => Vec::new(),
            _ => (0..=2 * max_len)
                .map(|sum| measure.min_overlap(theta, sum, 0))
                .collect(),
        };
        Cascade {
            pool,
            scope,
            measure,
            theta,
            filters,
            policy,
            bitmap,
            partner,
            overlap,
        }
    }

    /// `measure.min_overlap(θ, len_a, len_b)`.
    #[inline]
    fn min_overlap(&self, len_a: u32, len_b: u32) -> usize {
        match self.overlap.get(len_a as usize + len_b as usize) {
            Some(&alpha) => alpha,
            None => self
                .measure
                .min_overlap(self.theta, len_a as usize, len_b as usize),
        }
    }

    /// StrL-Filter (Lemma 1), as [`crate::filters::strl_pass`].
    #[inline]
    fn strl_pass(&self, len_a: u32, len_b: u32) -> bool {
        len_a.min(len_b) as usize >= self.partner[len_a.max(len_b) as usize]
    }

    /// Run one pair through the cascade and push its candidate record if
    /// it survives. `counted` is the local overlap when the kernel already
    /// accumulated it (the Index kernels: no SegD precheck, no bitmap
    /// step, no intersection); `None` intersects the segments exactly
    /// after the pre-intersection filters.
    #[inline]
    fn pair(
        &self,
        a: &Segment,
        b: &Segment,
        counted: Option<usize>,
        stats: &mut FilterStats,
        out: &mut Vec<CandidateRecord>,
    ) {
        if !admissible(a, b, self.scope) {
            return;
        }
        let filters = self.filters;
        stats.pairs_considered += 1;
        if filters.strl && !self.strl_pass(a.len, b.len) {
            stats.strl_pruned += 1;
            return;
        }
        let alpha = self.min_overlap(a.len, b.len);
        let bounds = PairBounds::with_alpha(alpha, a.len, a.head, a.tail, b.len, b.head, b.tail);
        let (seg_a, seg_b) = (a.seg_len(), b.seg_len());
        if filters.segl && !segl_pass(&bounds, seg_a, seg_b) {
            stats.segl_pruned += 1;
            return;
        }
        let overlap = match counted {
            Some(c) => c,
            None => {
                if filters.segd && !segd_pass_precheck(&bounds, seg_a, seg_b) {
                    stats.segd_pruned += 1;
                    return;
                }
                if self.bitmap && bitmap_settles(self.pool, a, b, &bounds, filters, stats) {
                    return;
                }
                stats.count_intersection(seg_a, seg_b);
                intersect_count_adaptive(a.tokens(self.pool), b.tokens(self.pool))
            }
        };
        if filters.segi && !segi_pass(&bounds, overlap) {
            stats.segi_pruned += 1;
            return;
        }
        if filters.segd && !segd_pass(&bounds, seg_a, seg_b, overlap) {
            stats.segd_pruned += 1;
            return;
        }
        if overlap == 0 {
            // Nothing to contribute to the verification sum.
            return;
        }
        if self.policy == EmitPolicy::PositiveBoundOnly && bounds.required_local < 1 {
            // Paper-magnitude mode: drop contributions no lemma can demand.
            // NOT exact — see EmitPolicy docs.
            stats.policy_dropped += 1;
            return;
        }
        stats.emitted += 1;
        let (x, y) = if a.rid < b.rid { (a, b) } else { (b, a) };
        out.push(CandidateRecord {
            rid_a: x.rid,
            rid_b: y.rid,
            common: overlap as u32,
            len_a: x.len,
            len_b: y.len,
        });
    }
}

/// Consult the two records' hashed bitmaps before paying for an exact
/// segment intersection. Returns `true` when the bitmap verdict settles
/// the pair — counters are then updated exactly as the exact path would
/// have, and the caller skips the intersection and the post-intersection
/// filters entirely. Returns `false` when the exact intersection must run.
///
/// Soundness: a segment is a subset of its record, so the record-level
/// overlap upper bound also bounds the *local* (segment) overlap. Two
/// rules, both counter-exact so every counter pinned by the
/// `columnar_equivalence` goldens stays bit-identical to the no-prune run:
///
/// * **zero rule** — a bound of 0 proves the local overlap is exactly 0;
///   emulate the post-intersection filters at overlap 0 verbatim: SegI
///   verdict first, then SegD, else the silent zero-overlap drop.
/// * **SegI rule** — with SegI on and `required_local ≥ 1`, a bound below
///   `required_local` proves the exact path would take the SegI branch
///   (local overlap ≤ record overlap ≤ bound < required), and the cascade
///   checks SegI first after intersecting.
#[inline]
fn bitmap_settles(
    pool: &TokenPool,
    a: &Segment,
    b: &Segment,
    bounds: &PairBounds,
    filters: FilterSet,
    stats: &mut FilterStats,
) -> bool {
    // Saturation guard: the XOR-Hamming distance is at most the bitmap
    // width, so the bound can never fall below
    // `(len_a + len_b - width) / 2`. When that floor already rules out
    // both prune rules, skip the bitmap reads entirely — long records
    // saturate fixed-width bitmaps and would otherwise pay the popcount
    // for a verdict that cannot prune.
    let floor_ub = (a.len as usize + b.len as usize).saturating_sub(pool.bitmap_bits()) / 2;
    if floor_ub >= 1 && (!filters.segi || bounds.required_local <= floor_ub as i64) {
        return false;
    }
    stats.bitmap_checks += 1;
    let ub = overlap_upper_bound(
        pool.bitmap_of(a.rid),
        pool.bitmap_of(b.rid),
        a.len as usize,
        b.len as usize,
    );
    if ub == 0 {
        stats.bitmap_pruned += 1;
        if filters.segi && !segi_pass(bounds, 0) {
            stats.segi_pruned += 1;
        } else if filters.segd && !segd_pass(bounds, a.seg_len(), b.seg_len(), 0) {
            stats.segd_pruned += 1;
        }
        // else: the cascade's silent zero-overlap drop — no counter.
        return true;
    }
    if filters.segi && bounds.required_local >= 1 && (ub as i64) < bounds.required_local {
        stats.bitmap_pruned += 1;
        stats.segi_pruned += 1;
        return true;
    }
    false
}

/// Index and Prefix kernels. With `long = None` (base cells) each segment
/// probes the segments indexed before it; with `Some(long)` (boundary
/// cells) the short group is indexed up front and only the long group
/// probes. Index indexes and probes every token and counts the exact
/// local overlap while probing; Prefix uses only each segment's local
/// prefix (complete for θ-similar pairs — the argument is pairwise, not
/// scan-order-dependent) and intersects the candidates it discovers.
///
/// Discovery is slot-indexed: `hits[slot]` counts the probe's tokens
/// found in that indexed segment and `found` lists the slots hit, in
/// first-seen order; visiting `found` resets exactly the counts it set.
fn indexed_join(
    cascade: &Cascade,
    short: &[&Segment],
    long: Option<&[&Segment]>,
    kernel: JoinKernel,
    stats: &mut FilterStats,
    out: &mut Vec<CandidateRecord>,
) {
    let prefix = kernel == JoinKernel::Prefix;
    let keys = |seg: &Segment| {
        let tokens = seg.tokens(cascade.pool);
        if prefix {
            &tokens[..local_prefix_len(cascade.measure, cascade.theta, seg)]
        } else {
            tokens
        }
    };
    // token -> slots (into `short`) of indexed segments containing it.
    let mut index: FxHashMap<u32, Vec<u32>> = FxHashMap::default();
    let add = |index: &mut FxHashMap<u32, Vec<u32>>, slot: usize| {
        for &t in keys(short[slot]) {
            index.entry(t).or_default().push(slot as u32);
        }
    };
    if long.is_some() {
        for slot in 0..short.len() {
            add(&mut index, slot);
        }
    }
    let mut hits = vec![0u32; short.len()];
    let mut found: Vec<u32> = Vec::new();
    for (i, &b) in long.unwrap_or(short).iter().enumerate() {
        for t in keys(b) {
            if let Some(slots) = index.get(t) {
                for &s in slots {
                    let h = &mut hits[s as usize];
                    if *h == 0 {
                        found.push(s);
                    }
                    *h += 1;
                }
            }
        }
        for &s in &found {
            let count = std::mem::take(&mut hits[s as usize]) as usize;
            cascade.pair(b, short[s as usize], (!prefix).then_some(count), stats, out);
        }
        found.clear();
        if long.is_none() {
            add(&mut index, i);
        }
    }
}

/// Minimum local overlap a θ-similar pair must exhibit in this fragment,
/// from one record's own metadata (DESIGN.md §4 item 2):
/// `max(1, minoverlap_any(θ,|s|) − |s^h| − |s^e|)`.
#[inline]
fn local_alpha(measure: Measure, theta: f64, seg: &Segment) -> usize {
    (measure.min_overlap_any(theta, seg.len as usize) as i64
        - i64::from(seg.head)
        - i64::from(seg.tail))
    .max(1) as usize
}

/// Local prefix length of a segment: long enough that θ-similar pairs are
/// guaranteed to collide (completeness proof in DESIGN.md §4 item 2).
#[inline]
fn local_prefix_len(measure: Measure, theta: f64, seg: &Segment) -> usize {
    let alpha = local_alpha(measure, theta, seg);
    debug_assert!(alpha <= seg.seg_len().max(1));
    seg.seg_len() - alpha.min(seg.seg_len()) + 1
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seg(pool: &mut TokenPool, rid: u32, len: u32, head: u32, tokens: &[u32]) -> Segment {
        let tail = len - head - tokens.len() as u32;
        Segment {
            rid,
            side: 0,
            len,
            head,
            tail,
            span: pool.push(tokens),
        }
    }

    fn cand(rid_a: u32, rid_b: u32, common: u32, len_a: u32, len_b: u32) -> CandidateRecord {
        CandidateRecord {
            rid_a,
            rid_b,
            common,
            len_a,
            len_b,
        }
    }

    fn run(
        pool: &TokenPool,
        segments: &[Segment],
        kernel: JoinKernel,
        theta: f64,
        filters: FilterSet,
    ) -> (Vec<CandidateRecord>, FilterStats) {
        let cell = (JoinRule::All, PairScope::SelfJoin, Measure::Jaccard);
        join(pool, segments, cell, kernel, theta, filters, true)
    }

    /// `join_fragment` with sorted output, for one `(rule, scope, measure)`.
    fn join(
        pool: &TokenPool,
        segments: &[Segment],
        (rule, scope, measure): (JoinRule, PairScope, Measure),
        kernel: JoinKernel,
        theta: f64,
        filters: FilterSet,
        bitmap: bool,
    ) -> (Vec<CandidateRecord>, FilterStats) {
        let mut stats = FilterStats::default();
        let mut out = join_fragment(
            pool,
            segments,
            rule,
            scope,
            measure,
            theta,
            kernel,
            filters,
            EmitPolicy::Exact,
            bitmap,
            &mut stats,
        );
        out.sort_unstable();
        (out, stats)
    }

    /// Every `(rule, scope, measure)` the kernel tests sweep: base and
    /// boundary cells, self- and cross-side pairs, all three measures.
    fn cells() -> Vec<(JoinRule, PairScope, Measure)> {
        let mut cells = Vec::new();
        for rule in [JoinRule::All, JoinRule::Boundary { lo: 4, pivot: 12 }] {
            for scope in [PairScope::SelfJoin, PairScope::CrossSides] {
                for measure in Measure::all() {
                    cells.push((rule, scope, measure));
                }
            }
        }
        cells
    }

    #[test]
    fn identical_segments_emit_full_overlap() {
        // Whole records in one fragment (no pivots case).
        let mut pool = TokenPool::new();
        let segs = vec![
            seg(&mut pool, 0, 3, 0, &[1, 2, 3]),
            seg(&mut pool, 1, 3, 0, &[1, 2, 3]),
        ];
        for k in JoinKernel::all() {
            let (out, _) = run(&pool, &segs, k, 0.9, FilterSet::ALL);
            assert_eq!(out, vec![cand(0, 1, 3, 3, 3)], "{k:?}");
        }
    }

    #[test]
    fn kernels_agree_on_pseudorandom_fragments() {
        // Build a plausible fragment: many segments with shared metadata
        // consistency, compare all kernels under all filter sets.
        let mut state = 77u64;
        let mut next = move |m: u32| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((state >> 33) as u32) % m
        };
        let mut pool = TokenPool::new();
        let mut segments = Vec::new();
        for rid in 0..60u32 {
            let seg_len = 1 + next(8);
            let head = next(10);
            let tail = next(10);
            let mut toks: Vec<u32> = (0..seg_len).map(|_| next(40)).collect();
            toks.sort_unstable();
            toks.dedup();
            let len = head + tail + toks.len() as u32;
            segments.push(Segment {
                rid,
                side: (rid % 2) as u8,
                len,
                head,
                tail,
                span: pool.push(&toks),
            });
        }
        for cell in cells() {
            for &theta in &[0.5, 0.7, 0.9] {
                for filters in [FilterSet::ALL, FilterSet::NONE, FilterSet::STRL_ONLY] {
                    let run = |k| join(&pool, &segments, cell, k, theta, filters, true).0;
                    let loop_out = run(JoinKernel::Loop);
                    let index_out = run(JoinKernel::Index);
                    assert_eq!(loop_out, index_out, "index {cell:?} θ={theta} {filters:?}");
                    // Prefix may legitimately emit a SUBSET (it skips pairs
                    // that provably cannot be θ-similar), but must contain
                    // every pair whose local overlap meets both records'
                    // local alphas.
                    let prefix_out = run(JoinKernel::Prefix);
                    for rec in &prefix_out {
                        assert!(loop_out.contains(rec), "prefix emitted non-loop record");
                    }
                    let m = cell.2;
                    for rec in &loop_out {
                        let sa = segments.iter().find(|s| s.rid == rec.rid_a).unwrap();
                        let sb = segments.iter().find(|s| s.rid == rec.rid_b).unwrap();
                        let need = local_alpha(m, theta, sa).max(local_alpha(m, theta, sb));
                        if (rec.common as usize) >= need {
                            assert!(
                                prefix_out.contains(rec),
                                "prefix missed a qualifying record {rec:?} ({cell:?} θ={theta})"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn cross_sides_scope_only_pairs_across() {
        let mut pool = TokenPool::new();
        let segs = vec![
            seg(&mut pool, 0, 3, 0, &[1, 2, 3]),
            Segment {
                side: 1,
                ..seg(&mut pool, 10, 3, 0, &[1, 2, 3])
            },
            Segment {
                side: 1,
                ..seg(&mut pool, 11, 3, 0, &[1, 2, 3])
            },
        ];
        let mut stats = FilterStats::default();
        // bitmap off: these test rids (10, 11) are not pool indices, so
        // the rid→bitmap lookup the prune relies on does not apply here.
        let mut out = join_fragment(
            &pool,
            &segs,
            JoinRule::All,
            PairScope::CrossSides,
            Measure::Jaccard,
            0.9,
            JoinKernel::Loop,
            FilterSet::ALL,
            EmitPolicy::Exact,
            false,
            &mut stats,
        );
        out.sort_unstable();
        assert_eq!(
            out,
            vec![cand(0, 10, 3, 3, 3), cand(0, 11, 3, 3, 3)],
            "identical S-side records must not pair"
        );
    }

    #[test]
    fn boundary_rule_suppresses_same_side_pairs() {
        let mut pool = TokenPool::new();
        let segs = vec![
            seg(&mut pool, 0, 8, 0, &[1, 2, 3]),
            seg(&mut pool, 1, 8, 0, &[1, 2, 3]),
            seg(&mut pool, 2, 12, 0, &[1, 2, 3]),
        ];
        let rule = JoinRule::Boundary { lo: 0, pivot: 10 };
        let mut stats = FilterStats::default();
        let mut out = join_fragment(
            &pool,
            &segs,
            rule,
            PairScope::SelfJoin,
            Measure::Jaccard,
            0.5,
            JoinKernel::Loop,
            FilterSet::NONE,
            EmitPolicy::Exact,
            true,
            &mut stats,
        );
        out.sort_unstable();
        // Only (0,2) and (1,2) straddle the pivot.
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].key(), (0, 2));
        assert_eq!(out[1].key(), (1, 2));
    }

    #[test]
    fn filters_reduce_emission_monotonically() {
        let mut pool = TokenPool::new();
        let mut segments = Vec::new();
        let mut state = 5u64;
        let mut next = move |m: u32| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((state >> 33) as u32) % m
        };
        for rid in 0..50u32 {
            let mut toks: Vec<u32> = (0..(2 + next(6))).map(|_| next(30)).collect();
            toks.sort_unstable();
            toks.dedup();
            let head = next(12);
            let tail = next(12);
            segments.push(Segment {
                rid,
                side: 0,
                len: head + tail + toks.len() as u32,
                head,
                tail,
                span: pool.push(&toks),
            });
        }
        let (none, _) = run(&pool, &segments, JoinKernel::Loop, 0.8, FilterSet::NONE);
        let (all, stats) = run(&pool, &segments, JoinKernel::Loop, 0.8, FilterSet::ALL);
        assert!(all.len() <= none.len());
        assert!(stats.strl_pruned + stats.segl_pruned + stats.segi_pruned + stats.segd_pruned > 0);
    }

    #[test]
    fn zero_overlap_pairs_never_emitted() {
        let mut pool = TokenPool::new();
        let segs = vec![
            seg(&mut pool, 0, 3, 0, &[1, 2, 3]),
            seg(&mut pool, 1, 3, 0, &[7, 8, 9]),
        ];
        for k in JoinKernel::all() {
            let (out, _) = run(&pool, &segs, k, 0.5, FilterSet::NONE);
            assert!(out.is_empty(), "{k:?}");
        }
    }

    #[test]
    fn bitmap_prune_is_counter_exact() {
        // The prune may only move work between `bitmap_pruned` and
        // `intersections`: outputs and every golden-pinned counter must
        // be bit-identical with the bitmap on or off, for every kernel
        // and filter set.
        let mut state = 123u64;
        let mut next = move |m: u32| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((state >> 33) as u32) % m
        };
        let mut pool = TokenPool::new();
        let mut segments = Vec::new();
        for rid in 0..80u32 {
            let mut toks: Vec<u32> = (0..(1 + next(10))).map(|_| next(60)).collect();
            toks.sort_unstable();
            toks.dedup();
            let head = next(6);
            let tail = next(6);
            segments.push(Segment {
                rid,
                side: 0,
                len: head + tail + toks.len() as u32,
                head,
                tail,
                span: pool.push(&toks),
            });
        }
        for (cell, kernel) in cells()
            .into_iter()
            .flat_map(|c| JoinKernel::all().map(|k| (c, k)))
        {
            for filters in [FilterSet::ALL, FilterSet::NONE, FilterSet::STRL_ONLY] {
                for &theta in &[0.6, 0.8, 0.95] {
                    let (with_bitmap, on) =
                        join(&pool, &segments, cell, kernel, theta, filters, true);
                    let (without, off) =
                        join(&pool, &segments, cell, kernel, theta, filters, false);
                    let ctx = format!("{cell:?} {kernel:?} {filters:?} θ={theta}");
                    assert_eq!(with_bitmap, without, "{ctx}");
                    // Golden-pinned counters are identical...
                    assert_eq!(on.pairs_considered, off.pairs_considered, "{ctx}");
                    assert_eq!(on.strl_pruned, off.strl_pruned, "{ctx}");
                    assert_eq!(on.segl_pruned, off.segl_pruned, "{ctx}");
                    assert_eq!(on.segi_pruned, off.segi_pruned, "{ctx}");
                    assert_eq!(on.segd_pruned, off.segd_pruned, "{ctx}");
                    assert_eq!(on.policy_dropped, off.policy_dropped, "{ctx}");
                    assert_eq!(on.emitted, off.emitted, "{ctx}");
                    // ...while each settled pair skips exactly one
                    // intersection, and the off-run touches no bitmaps.
                    assert_eq!(on.intersections + on.bitmap_pruned, off.intersections);
                    assert!(on.bitmap_pruned <= on.bitmap_checks);
                    assert_eq!(off.bitmap_checks, 0);
                    assert_eq!(off.bitmap_pruned, 0);
                }
            }
        }
    }

    #[test]
    fn bound_tables_equal_the_measure_functions() {
        let pool = TokenPool::new();
        let max = 2000u32;
        for measure in Measure::all() {
            for &theta in &[0.5, 0.7, 0.8, 0.9, 0.95, 1.0] {
                let c = Cascade::new(
                    &pool,
                    max,
                    PairScope::SelfJoin,
                    measure,
                    theta,
                    FilterSet::ALL,
                    EmitPolicy::Exact,
                    false,
                );
                for a in 0..=max {
                    let partner = measure.min_partner_len(theta, a as usize);
                    assert_eq!(c.partner[a as usize], partner, "{measure:?} θ={theta} {a}");
                    for b in 0..=max {
                        let (la, lb) = (a as usize, b as usize);
                        assert_eq!(
                            c.min_overlap(a, b),
                            measure.min_overlap(theta, la, lb),
                            "{measure:?} θ={theta} |a|={a} |b|={b}"
                        );
                        let strl = la.min(lb) >= measure.min_partner_len(theta, la.max(lb));
                        assert_eq!(c.strl_pass(a, b), strl, "{measure:?} θ={theta} {a} {b}");
                    }
                }
            }
        }
    }

    #[test]
    fn candidate_record_orders_like_the_old_tuple_encoding() {
        let records = [
            cand(0, 1, 2, 3, 4),
            cand(0, 1, 1, 9, 9),
            cand(1, 0, 0, 0, 0),
            cand(0, 2, 0, 0, 0),
        ];
        let mut by_struct = records;
        by_struct.sort_unstable();
        let mut by_tuple = records;
        by_tuple.sort_unstable_by_key(|r| (r.key(), r.value()));
        assert_eq!(by_struct, by_tuple);
    }

    #[test]
    fn local_prefix_len_bounds() {
        let m = Measure::Jaccard;
        let mut pool = TokenPool::new();
        // Whole record as one segment: local alpha = ceil(θ|s|).
        let s = seg(&mut pool, 0, 10, 0, &[0, 1, 2, 3, 4, 5, 6, 7, 8, 9]);
        assert_eq!(local_alpha(m, 0.8, &s), 8);
        assert_eq!(local_prefix_len(m, 0.8, &s), 3);
        // A tiny middle segment: alpha clamps to 1, prefix = full segment.
        let s = seg(&mut pool, 0, 20, 9, &[100, 101]);
        assert_eq!(local_alpha(m, 0.8, &s), 1);
        assert_eq!(local_prefix_len(m, 0.8, &s), 2);
    }
}
