//! R×S similarity join as a **two-input plan**: the first consumer of the
//! plan layer's multi-input stages.
//!
//! [`crate::run_rs_join`] folds R and S into one self-join input and tags
//! sides per record. This module instead declares the join the way a
//! distributed engine would plan it:
//!
//! * stage `rsjoin-r-prefix` maps **R only**: each record emits
//!   `(prefix token, record)` for its probe-prefix tokens;
//! * stage `rsjoin-s-prefix` does the same over **S only**, with the same
//!   partitioner and reduce-task count — the two stages are
//!   *co-partitioned*, so prefix token `t` lands in the same partition
//!   index on both sides;
//! * stage `rsjoin-join` consumes **both** prefix stages. By default
//!   ([`FsJoinConfig::rs_cogroup`]) it is a **co-group stage**
//!   ([`Plan::add_cogroup`]): task `i` merges the sealed partitions `i`
//!   of R and S in place (side 0 = R, side 1 = S) and verifies the
//!   cross-side pairs of each token group — the re-shuffle the old
//!   identity-rekey fan-in paid to reunite records its upstreams had
//!   already co-partitioned is gone. With the flag off, the stage runs
//!   as that rekey fan-in through [`StageInput::Stages`] instead; both
//!   paths share one verification core, so pair digests and filter
//!   verdicts are bit-identical.
//!
//! The join stage's output is the result: every pair is emitted once, so
//! no dedup stage follows.
//!
//! Record ids live in the concatenated-pool id space of
//! [`TokenPool::concat`]: R keeps its ids, S ids are shifted by `|R|`, so
//! a pair `(a, b)` always has `a < |R| ≤ b`. The shared arena ships to all
//! three stages over one [`Broadcast`](ssj_mapreduce::StageEdge) edge.
//!
//! Inside a token group `t` the verification core
//! ([`CrossVerifyCore::verify_group`]) runs, per cross pair `(r, s)`:
//!
//! 1. **Length window** (StrL, Lemma 1). Both sides are sorted by
//!    `(|x|, id)`. The `|s|` that pass StrL against `|r|` form an
//!    interval, so two binary searches find each `r`'s window and the
//!    pairs outside it are counted as pruned without being visited.
//! 2. **Bitmap prune** (optional, lossless): an XOR-Hamming upper bound on
//!    the overlap below the required overlap `α` skips the pair.
//! 3. **Ownership.** Merge `r` and `s` from their first tokens up to the
//!    first common token `c`. The group verifies the pair only if
//!    `c = t`; otherwise the group of `c` does.
//! 4. **Positional bound.** With `t` at positions `i` in `r` and `j` in
//!    `s`, the overlap is at most `1 + min(|r|−i−1, |s|−j−1)`. A bound
//!    below `α` skips the pair; otherwise the suffixes after `t` go to
//!    the early-exit kernel, which needs `α − 1` more common tokens.
//!
//! Completeness and uniqueness. If `sim(r, s) ≥ θ`, the two-sided
//! prefix-filter theorem puts some common token `t'` in both probe
//! prefixes. The smallest common token `c ≤ t'` precedes `t'` in both
//! records, so `c` lies in both probe prefixes too, and the pair meets in
//! `c`'s group. Every common token `t > c` has `c` before it in both
//! records, so the pair is skipped in `t`'s group. Hence each result pair
//! is verified and emitted exactly once, in the group of its smallest
//! shared token. Scores come from the same `passes` / `score` calls as
//! the PPJoin kernel on the full overlap `1 + |r[i+1..] ∩ s[j+1..]|`, so
//! pair digests match RIDPairsPPJoin run over the concatenated collection
//! and filtered to cross-side pairs, bit for bit.

use crate::config::FsJoinConfig;
use crate::driver::FsJoinResult;
use crate::filters::{strl_pass, FilterStats};
use ssj_mapreduce::{
    CoGroupReducer, Dataset, Emitter, GroupValues, HashPartitioner, IdentityCombiner, Mapper, Plan,
    PlanRunner, SideGroups, StreamingReducer,
};
use ssj_observe::{span, MetricsRegistry};
use ssj_similarity::intersect::intersect_count_at_least;
use ssj_similarity::{Measure, SimilarPair};
use ssj_text::{Collection, PooledRecord, TokenPool};
use std::sync::Arc;

/// Prefix-stage mapper: emits `(prefix token, record)` once per probe-prefix
/// token. One instance serves both sides — the input dataset decides which
/// records it sees.
struct PrefixEmit {
    pool: Arc<TokenPool>,
    measure: Measure,
    theta: f64,
}

impl Mapper for PrefixEmit {
    type InKey = u32;
    type InValue = PooledRecord;
    type OutKey = u32;
    type OutValue = PooledRecord;

    fn map(&mut self, _rid: u32, record: PooledRecord, out: &mut Emitter<u32, PooledRecord>) {
        if record.span.is_empty() {
            return;
        }
        let tokens = self.pool.resolve(record.span);
        let prefix = self.measure.probe_prefix_len(self.theta, tokens.len());
        for &t in &tokens[..prefix] {
            out.emit(t, record);
        }
    }
}

/// Prefix-stage reducer: pass-through. The stage exists to *route* records
/// into co-partitioned token groups; the join stage does the work.
struct PrefixPassThrough;

impl StreamingReducer for PrefixPassThrough {
    type InKey = u32;
    type InValue = PooledRecord;
    type OutKey = u32;
    type OutValue = PooledRecord;

    fn reduce_group(
        &mut self,
        token: &u32,
        records: &mut GroupValues<'_, '_, u32, PooledRecord>,
        out: &mut Emitter<u32, PooledRecord>,
    ) {
        for rec in records {
            out.emit(*token, *rec);
        }
    }
}

/// Join-stage mapper: identity. Map split `i` re-keys partition `i` of both
/// prefix stages so the join shuffle groups R and S records of one token
/// into a single reduce group.
struct JoinIdentity;

impl Mapper for JoinIdentity {
    type InKey = u32;
    type InValue = PooledRecord;
    type OutKey = u32;
    type OutValue = PooledRecord;

    fn map(&mut self, token: u32, record: PooledRecord, out: &mut Emitter<u32, PooledRecord>) {
        out.emit(token, record);
    }
}

/// The `|s|` window of `s_buf` (sorted by length) that passes StrL against
/// a record of length `len_r`. The pass set is the interval
/// `[min_partner_len(|r|), max{|s| : min_partner_len(|s|) ≤ |r|}]`: below
/// `|r|` the predicate rises with `|s|`, above it falls. Each search uses
/// the exact [`strl_pass`] predicate on its side of `|r|`.
fn strl_window(
    measure: Measure,
    theta: f64,
    len_r: u32,
    s_buf: &[PooledRecord],
) -> std::ops::Range<usize> {
    let lo = s_buf
        .partition_point(|s| s.span.len < len_r && !strl_pass(measure, theta, len_r, s.span.len));
    let hi = lo
        + s_buf[lo..].partition_point(|s| {
            s.span.len <= len_r || strl_pass(measure, theta, len_r, s.span.len)
        });
    lo..hi
}

/// Positions `(i, j)` of the first token `a` and `b` share, by a merge
/// from their first tokens; `None` when they are disjoint.
fn first_common(a: &[u32], b: &[u32]) -> Option<(usize, usize)> {
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => return Some((i, j)),
        }
    }
    None
}

/// The exact cross-pair verification pipeline shared by both join-stage
/// execution paths ([`CrossVerify`] on the rekey fan-in, [`CrossVerifyCo`]
/// on the co-group stage): length window → optional bitmap prune →
/// ownership → positional bound → early-exit intersection (module docs),
/// with every decision counted into the same [`FilterStats`]. One code
/// path means the two stages' filter verdicts and scores are
/// bit-identical by construction. The side buffers are reused across
/// groups.
struct CrossVerifyCore {
    pool: Arc<TokenPool>,
    measure: Measure,
    theta: f64,
    bitmap: bool,
    r_buf: Vec<PooledRecord>,
    s_buf: Vec<PooledRecord>,
    local_stats: FilterStats,
    registry: Arc<MetricsRegistry>,
}

impl CrossVerifyCore {
    /// Verify the cross pairs of token `token`'s group that this group
    /// owns. `records` yields `(is_r, record)` for every group member.
    fn verify_group(
        &mut self,
        token: u32,
        records: impl Iterator<Item = (bool, PooledRecord)>,
        out: &mut Emitter<(u32, u32), f64>,
    ) {
        self.r_buf.clear();
        self.s_buf.clear();
        for (is_r, rec) in records {
            if is_r {
                self.r_buf.push(rec);
            } else {
                self.s_buf.push(rec);
            }
        }
        let by_len = |x: &PooledRecord| (x.span.len, x.id);
        self.r_buf.sort_unstable_by_key(by_len);
        self.s_buf.sort_unstable_by_key(by_len);
        let (measure, theta) = (self.measure, self.theta);
        let stats = &mut self.local_stats;
        for r in &self.r_buf {
            let window = strl_window(measure, theta, r.span.len, &self.s_buf);
            stats.pairs_considered += self.s_buf.len() as u64;
            stats.strl_pruned += (self.s_buf.len() - window.len()) as u64;
            let ra = self.pool.resolve(r.span);
            for s in &self.s_buf[window] {
                let sb = self.pool.resolve(s.span);
                let alpha = measure.min_overlap(theta, ra.len(), sb.len());
                if self.bitmap {
                    // Record ids index the concat pool (id contract above),
                    // so each side's bitmap is a direct lookup. A bound
                    // below α cannot pass verification — lossless skip.
                    // The saturation guard skips the bitmap reads when the
                    // bound's floor `(|r| + |s| - width) / 2` already
                    // reaches α (long records saturate the bitmap).
                    let floor_ub =
                        (ra.len() + sb.len()).saturating_sub(self.pool.bitmap_bits()) / 2;
                    if floor_ub < alpha {
                        stats.bitmap_checks += 1;
                        let ub = ssj_similarity::bitmap::overlap_upper_bound(
                            self.pool.bitmap_of(r.id),
                            self.pool.bitmap_of(s.id),
                            ra.len(),
                            sb.len(),
                        );
                        if ub < alpha {
                            stats.bitmap_pruned += 1;
                            continue;
                        }
                    }
                }
                // Ownership: only the group of the first shared token
                // verifies the pair.
                let (i, j) = match first_common(ra, sb) {
                    Some((i, j)) if ra[i] == token => (i, j),
                    _ => continue,
                };
                // Positional bound: no token before `token` is shared.
                let (r_tail, s_tail) = (&ra[i + 1..], &sb[j + 1..]);
                if 1 + r_tail.len().min(s_tail.len()) < alpha {
                    continue;
                }
                stats.intersections += 1;
                stats.intersect_tokens += (r_tail.len() + s_tail.len()) as u64;
                let Some(tail) = intersect_count_at_least(r_tail, s_tail, alpha.saturating_sub(1))
                else {
                    continue;
                };
                let overlap = 1 + tail;
                if measure.passes(overlap, ra.len(), sb.len(), theta) {
                    stats.emitted += 1;
                    out.emit((r.id, s.id), measure.score(overlap, ra.len(), sb.len()));
                }
            }
        }
    }

    /// Flush the task's pruning counters into the run registry.
    fn flush(&mut self) {
        self.local_stats.record_to(&self.registry);
        self.local_stats = FilterStats::default();
    }
}

/// Join-stage reducer (rekey fan-in path): splits each token group by side
/// (`id < |R|` is R — the concat-pool id contract) and hands it to the
/// shared core. Pruning counters flow into the run's registry at cleanup,
/// like the main driver's fragment reducer.
struct CrossVerify {
    core: CrossVerifyCore,
    num_r: u32,
}

impl StreamingReducer for CrossVerify {
    type InKey = u32;
    type InValue = PooledRecord;
    type OutKey = (u32, u32);
    type OutValue = f64;

    fn reduce_group(
        &mut self,
        token: &u32,
        records: &mut GroupValues<'_, '_, u32, PooledRecord>,
        out: &mut Emitter<(u32, u32), f64>,
    ) {
        let num_r = self.num_r;
        self.core
            .verify_group(*token, records.map(|rec| (rec.id < num_r, *rec)), out);
    }

    fn cleanup(&mut self, _out: &mut Emitter<(u32, u32), f64>) {
        self.core.flush();
    }
}

/// Join-stage reducer (co-group path): consumes the sealed prefix
/// partitions directly — side 0 is `rsjoin-r-prefix`, side 1 is
/// `rsjoin-s-prefix` (edge order), so the side tag replaces the
/// `id < |R|` split with no re-shuffle in front. The verification core is
/// shared with [`CrossVerify`], so filter verdicts, pruning counters, and
/// scores are bit-identical across the two paths.
struct CrossVerifyCo {
    core: CrossVerifyCore,
}

impl CoGroupReducer for CrossVerifyCo {
    type InKey = u32;
    type InValue = PooledRecord;
    type OutKey = (u32, u32);
    type OutValue = f64;

    fn cogroup(
        &mut self,
        token: &u32,
        records: &mut SideGroups<'_, '_, u32, PooledRecord>,
        out: &mut Emitter<(u32, u32), f64>,
    ) {
        self.core
            .verify_group(*token, records.map(|(side, rec)| (side == 0, *rec)), out);
    }

    fn cleanup(&mut self, _out: &mut Emitter<(u32, u32), f64>) {
        self.core.flush();
    }
}

/// R×S join declared as a two-input plan (module docs have the stage
/// graph). Same conventions as [`crate::run_rs_join`]: both collections
/// must be encoded in one token-rank space
/// ([`ssj_text::encode::encode_two`]), and S-side ids in the returned
/// pairs are offset by `r.len()`.
///
/// The returned [`FsJoinResult`] carries no pivots (`pivots` /
/// `h_pivots` empty — this plan partitions by prefix token, not by
/// fragment), `candidates` counts the join stage's output records —
/// equal to `pairs.len()`, since each pair is emitted exactly once — and
/// `deps` records the fan-in shape `[[], [], [0, 1]]`, identical on both
/// join-stage paths, since a co-group edge and a rekey shuffle edge
/// express the same dependency.
pub fn run_rs_join_two_input(r: &Collection, s: &Collection, cfg: &FsJoinConfig) -> FsJoinResult {
    cfg.validate();
    assert_eq!(
        r.token_freqs, s.token_freqs,
        "R and S must be encoded together (shared global ordering)"
    );
    let pool = Arc::new(TokenPool::concat(r.pool(), s.pool()));
    let num_r = r.len();
    let num_s = s.len();
    let run_span = span("fsjoin.stage", "run-rs2")
        .field("records", num_r + num_s)
        .field("theta", cfg.theta);
    let (measure, theta) = (cfg.measure, cfg.theta);

    let side_input = |lo: usize, hi: usize| -> Dataset<u32, PooledRecord> {
        Dataset::from_records(
            (lo..hi)
                .map(|rid| {
                    let rid = rid as u32;
                    (
                        rid,
                        PooledRecord {
                            id: rid,
                            span: pool.span_of(rid),
                        },
                    )
                })
                .collect(),
            cfg.map_tasks,
        )
    };
    let r_input = side_input(0, num_r);
    let s_input = side_input(num_r, num_r + num_s);

    let run_registry = Arc::new(MetricsRegistry::new());
    let prefix_span = span("fsjoin.stage", "rs-prefix-jobs");
    let join_span = span("fsjoin.stage", "rs-join-job");

    let mut plan = Plan::new("rsjoin").with_workers(cfg.workers);
    let pool_bcast = plan.broadcast(Arc::clone(&pool));
    // Both prefix stages MUST share reduce_tasks and partitioner: the join
    // stage's map split i consumes partition i of each.
    let prefix_factory = {
        move |_: usize, pool: &Arc<TokenPool>| PrefixEmit {
            pool: Arc::clone(pool),
            measure,
            theta,
        }
    };
    let h_r = plan.add_full_broadcast(
        "rsjoin-r-prefix",
        r_input,
        pool_bcast,
        cfg.reduce_tasks,
        prefix_factory,
        |_, _: &Arc<TokenPool>| PrefixPassThrough,
        HashPartitioner,
        None::<IdentityCombiner>,
    );
    let h_s = plan.add_full_broadcast(
        "rsjoin-s-prefix",
        s_input,
        pool_bcast,
        cfg.reduce_tasks,
        prefix_factory,
        |_, _: &Arc<TokenPool>| PrefixPassThrough,
        HashPartitioner,
        None::<IdentityCombiner>,
    );
    let core_factory = {
        let registry = Arc::clone(&run_registry);
        let bitmap = cfg.bitmap_prune;
        move |pool: &Arc<TokenPool>| CrossVerifyCore {
            pool: Arc::clone(pool),
            measure,
            theta,
            bitmap,
            r_buf: Vec::new(),
            s_buf: Vec::new(),
            local_stats: FilterStats::default(),
            registry: Arc::clone(&registry),
        }
    };
    // Join stage: co-group over the sealed prefix partitions (default) or
    // identity-rekey fan-in with a second shuffle of every prefix record.
    // Same reducer core either way — pair digests are path-invariant.
    let joined = if cfg.rs_cogroup {
        plan.add_cogroup_broadcast(
            "rsjoin-join",
            vec![h_r, h_s],
            pool_bcast,
            move |_, pool: &Arc<TokenPool>| CrossVerifyCo {
                core: core_factory(pool),
            },
        )
    } else {
        plan.add_full_broadcast(
            "rsjoin-join",
            [h_r, h_s],
            pool_bcast,
            cfg.reduce_tasks,
            |_, _: &Arc<TokenPool>| JoinIdentity,
            move |_, pool: &Arc<TokenPool>| CrossVerify {
                core: core_factory(pool),
                num_r: num_r as u32,
            },
            HashPartitioner,
            None::<IdentityCombiner>,
        )
    };

    let mut outcome = PlanRunner::new(cfg.plan_mode).run(plan);
    let verified = outcome.take_output(joined);
    let peak_live_bytes = outcome.peak_live_bytes;
    let deps = outcome.deps().to_vec();
    let chain = outcome.metrics;
    // Join-stage emissions — the cross-pair analogue of the kernel-output
    // candidate count the baselines report (one per result pair).
    let candidates = chain.jobs[2].reduce_output_records();
    drop(prefix_span);
    drop(join_span.field("candidates", candidates));

    let mut pairs: Vec<SimilarPair> = verified
        .into_records()
        .map(|((a, b), sim)| SimilarPair::new(a, b, sim))
        .collect();
    pairs.sort_unstable_by_key(|x| x.ids());

    let filter_stats = FilterStats::from_registry(&run_registry);
    run_registry.gauge_set(crate::keys::CANDIDATES, candidates as f64);
    run_registry.gauge_set(crate::keys::PAIRS, pairs.len() as f64);
    if let Some(global) = ssj_observe::global_registry() {
        global.merge_from(&run_registry);
    }
    drop(run_span.field("pairs", pairs.len()));
    FsJoinResult {
        pairs,
        chain,
        filter_stats,
        candidates,
        pivots: Vec::new(),
        h_pivots: Vec::new(),
        peak_live_bytes,
        deps,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssj_mapreduce::PlanMode;
    use ssj_similarity::naive::naive_rs_join;
    use ssj_similarity::pair::compare_results;
    use ssj_text::encode::encode_two;
    use ssj_text::{CorpusProfile, RawCorpus, Record, Tokenizer};

    fn rs_corpora(num_r: usize, num_s: usize) -> (Collection, Collection) {
        let r = CorpusProfile::WikiLike
            .config()
            .with_records(num_r)
            .generate();
        let s = CorpusProfile::WikiLike
            .config()
            .with_records(num_s)
            .with_seed(7)
            .generate();
        encode_two(&r, &s)
    }

    /// Order-independent FNV-1a digest of a sorted pair list (ids + exact
    /// score bits) — the cross-implementation equality witness.
    fn pair_digest(pairs: &[SimilarPair]) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |v: u64| {
            for b in v.to_le_bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        for p in pairs {
            let (a, b) = p.ids();
            mix(a as u64);
            mix(b as u64);
            mix(p.sim.to_bits());
        }
        h
    }

    /// RIDPairsPPJoin over the concatenated collection, filtered to
    /// cross-side pairs — the oracle the ISSUE pins the digest against.
    fn ridpairs_cross_oracle(
        r: &Collection,
        s: &Collection,
        measure: Measure,
        theta: f64,
    ) -> Vec<SimilarPair> {
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
        let res = ssj_baselines::ridpairs::ridpairs_ppjoin(
            &concat,
            measure,
            theta,
            &ssj_baselines::BaselineConfig::default(),
        );
        res.pairs
            .into_iter()
            .filter(|p| {
                let (a, b) = p.ids();
                a < offset && b >= offset
            })
            .collect()
    }

    #[test]
    fn declares_the_fan_in_plan_shape() {
        let (r, s) = rs_corpora(20, 60);
        let res = run_rs_join_two_input(&r, &s, &FsJoinConfig::default().with_theta(0.8));
        assert_eq!(res.chain.jobs.len(), 3);
        assert_eq!(res.chain.jobs[2].name, "rsjoin-join");
        assert_eq!(res.deps, vec![vec![], vec![], vec![0, 1]]);
        // No dedup stage: the join emits each result pair once.
        assert_eq!(res.candidates, res.pairs.len());
        assert!(res.pivots.is_empty() && res.h_pivots.is_empty());
        // Default path: the join stage is a co-group — no map tasks, no
        // shuffle traffic of its own, bytes-saved counter populated.
        let join = &res.chain.jobs[2];
        assert!(join.cogroup);
        assert!(join.map_tasks.is_empty());
        assert_eq!(join.shuffle_bytes, 0);
        assert!(join.cogroup_shuffle_bytes_saved() > 0);
    }

    /// Both join-stage paths produce bit-identical pairs AND filter
    /// statistics; the co-group path ships zero join-stage shuffle bytes
    /// where the rekey path re-shuffles every prefix record.
    #[test]
    fn cogroup_and_rekey_paths_are_bit_identical() {
        let (r, s) = rs_corpora(40, 120);
        for &theta in &[0.75, 0.85, 0.95] {
            let cogroup = run_rs_join_two_input(
                &r,
                &s,
                &FsJoinConfig::default()
                    .with_theta(theta)
                    .with_rs_cogroup(true),
            );
            let rekey = run_rs_join_two_input(
                &r,
                &s,
                &FsJoinConfig::default()
                    .with_theta(theta)
                    .with_rs_cogroup(false),
            );
            assert_eq!(
                pair_digest(&cogroup.pairs),
                pair_digest(&rekey.pairs),
                "θ={theta} digest mismatch"
            );
            assert_eq!(cogroup.candidates, rekey.candidates, "θ={theta}");
            assert_eq!(
                format!("{:?}", cogroup.filter_stats),
                format!("{:?}", rekey.filter_stats),
                "θ={theta} filter stats diverge"
            );
            // The saved bytes are exactly the rekey join stage's shuffle.
            let co_join = &cogroup.chain.jobs[2];
            let rk_join = &rekey.chain.jobs[2];
            assert!(co_join.cogroup && !rk_join.cogroup);
            assert_eq!(co_join.shuffle_bytes, 0);
            assert!(rk_join.shuffle_bytes > 0);
            assert_eq!(co_join.cogroup_shuffle_bytes_saved(), rk_join.shuffle_bytes);
            let total = |res: &FsJoinResult| -> usize {
                res.chain.jobs.iter().map(|j| j.shuffle_bytes).sum()
            };
            assert!(
                total(&cogroup) < total(&rekey),
                "θ={theta}: co-group total shuffle {} must undercut rekey {}",
                total(&cogroup),
                total(&rekey)
            );
        }
    }

    /// The binary-searched StrL window is exactly the set of lengths a
    /// linear `strl_pass` scan keeps, for every measure, a spread of
    /// thresholds and every probe length up to 2000.
    #[test]
    fn strl_window_equals_linear_scan() {
        const MAX_LEN: u32 = 2000;
        let s_buf: Vec<PooledRecord> = (0..=MAX_LEN)
            .map(|len| PooledRecord {
                id: len,
                span: ssj_text::TokenSpan { start: 0, len },
            })
            .collect();
        for measure in Measure::all() {
            for &theta in &[0.5, 0.75, 0.8, 0.95, 1.0] {
                for len_r in 0..=MAX_LEN {
                    let want: Vec<u32> = (0..=MAX_LEN)
                        .filter(|&len_s| strl_pass(measure, theta, len_r, len_s))
                        .collect();
                    let got: Vec<u32> = s_buf[strl_window(measure, theta, len_r, &s_buf)]
                        .iter()
                        .map(|s| s.span.len)
                        .collect();
                    assert_eq!(got, want, "{measure:?} θ={theta} |r|={len_r}");
                }
            }
        }
    }

    #[test]
    fn matches_naive_rs_oracle() {
        let (r, s) = rs_corpora(40, 120);
        let offset = r.len() as u32;
        let s_shifted: Vec<Record> = s
            .iter()
            .map(|v| Record::from_sorted(v.id + offset, v.tokens.to_vec()))
            .collect();
        for &theta in &[0.6, 0.8] {
            let res = run_rs_join_two_input(&r, &s, &FsJoinConfig::default().with_theta(theta));
            let want = naive_rs_join(&r.views(), &s_shifted, Measure::Jaccard, theta);
            compare_results(&res.pairs, &want, 1e-9).unwrap_or_else(|e| panic!("θ={theta}: {e}"));
        }
    }

    /// The ISSUE's acceptance bar: pair digests bit-identical to
    /// RIDPairsPPJoin-over-concat (cross pairs only) at
    /// θ ∈ {0.75, 0.85, 0.95}, in both plan modes.
    #[test]
    fn digest_matches_ridpairs_over_concat_in_both_modes() {
        let (r, s) = rs_corpora(40, 150);
        for &theta in &[0.75, 0.85, 0.95] {
            let want = pair_digest(&ridpairs_cross_oracle(&r, &s, Measure::Jaccard, theta));
            for mode in [PlanMode::Pipelined, PlanMode::Sequential] {
                let cfg = FsJoinConfig::default()
                    .with_theta(theta)
                    .with_plan_mode(mode);
                let res = run_rs_join_two_input(&r, &s, &cfg);
                assert_eq!(
                    pair_digest(&res.pairs),
                    want,
                    "θ={theta} mode={mode:?} digest mismatch"
                );
            }
        }
    }

    #[test]
    fn agrees_with_the_single_input_rs_driver() {
        let (r, s) = rs_corpora(30, 90);
        for &theta in &[0.7, 0.9] {
            let cfg = FsJoinConfig::default().with_theta(theta);
            let two = run_rs_join_two_input(&r, &s, &cfg);
            let one = crate::run_rs_join(&r, &s, &cfg);
            compare_results(&two.pairs, &one.pairs, 1e-9)
                .unwrap_or_else(|e| panic!("θ={theta}: {e}"));
        }
    }

    #[test]
    fn empty_sides_yield_no_pairs() {
        let (r, s) = rs_corpora(10, 30);
        let empty = Collection::new(Vec::new(), r.token_freqs.clone(), None);
        let cfg = FsJoinConfig::default().with_theta(0.8);
        assert!(run_rs_join_two_input(&empty, &s, &cfg).pairs.is_empty());
        assert!(run_rs_join_two_input(&r, &empty, &cfg).pairs.is_empty());
    }

    #[test]
    fn exact_duplicates_across_sides() {
        let r_corpus = RawCorpus::from_texts(&["a b c d e", "x y z"], &Tokenizer::Words);
        let s_corpus = RawCorpus::from_texts(&["a b c d e", "p q"], &Tokenizer::Words);
        let (r, s) = encode_two(&r_corpus, &s_corpus);
        let res = run_rs_join_two_input(&r, &s, &FsJoinConfig::default().with_theta(0.99));
        assert_eq!(res.pairs.len(), 1);
        assert_eq!(res.pairs[0].ids(), (0, r.len() as u32));
        assert!((res.pairs[0].sim - 1.0).abs() < 1e-12);
    }
}
