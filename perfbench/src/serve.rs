//! `serve_wiki_mixed`: one closed-loop client against a serving index,
//! reads and writes on the same index.
//!
//! Set-up generates 100,000 WikiLike records, encodes the first 80,000
//! and builds the index over them (θ_min = 0.7). The last 20,000 are held
//! out: generated after the indexed ones, they include near-duplicates of
//! indexed records, so probes have hits. The client then replays a fixed
//! script of [`OPS_PER_PASS`] operations drawn from the held-out records:
//! ~90% `probe_with` at θ ∈ {0.8, 0.9}, ~5% `top_k(10)`, ~5% `insert`,
//! and a `compact` after every [`COMPACT_EVERY`] inserts.
//!
//! Each pass starts from a freshly set-up index, so every pass does the
//! same work and its exact counters must repeat; passes continue until
//! the client has been busy for the run's seconds.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use ssj_observe::span;
use ssj_serve::{build_index, ProbeStats, ServeConfig, ServeIndex};
use ssj_similarity::Measure;
use ssj_text::encode::encode_with;
use ssj_text::ordering::compute_ordering_local;
use ssj_text::{Collection, CorpusProfile, RawCorpus, RecordId, TokenId};

use crate::layers::{median_by_key, ratio};
use crate::oracle::{check_answer, naive_probe, naive_top_k};
use crate::stats::{median, OpId, OpKind, OpLog};
use crate::tracing::Tracing;
use crate::{Args, Outcome, Traced};

/// Records indexed at set-up.
pub const INDEXED: usize = 80_000;
/// Records held out for the query and insert stream.
pub const HELD_OUT: usize = 20_000;
/// Lowest threshold the index supports.
pub const THETA_MIN: f64 = 0.7;
/// Probe thresholds, drawn uniformly.
pub const PROBE_THETAS: [f64; 2] = [0.8, 0.9];
/// `k` of the top-k lookups.
pub const TOP_K: usize = 10;
/// Operations per pass, compactions not counted.
pub const OPS_PER_PASS: usize = 200_000;
/// Inserts between compactions.
pub const COMPACT_EVERY: usize = 500;
/// Every this many operations, a probe or top-k answer is kept for the
/// oracle (20 checks per pass; each scans every visible record).
pub const CHECK_EVERY: usize = 10_000;

/// One scripted operation; indices are into the held-out records.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Op {
    /// `probe_with(held_out[q], theta)`.
    Probe { q: u32, theta: f64 },
    /// `top_k(held_out[q], TOP_K)`.
    TopK { q: u32 },
    /// `insert(held_out[h])`.
    Insert { h: u32 },
    /// `compact()`.
    Compact,
}

/// SplitMix64: a small, fixed generator, so the script depends on the
/// seed alone.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// The operation script of every pass for `seed`.
pub fn script(seed: u64) -> Vec<Op> {
    let mut rng = SplitMix(seed ^ 0x5E2F_E000_0000_0001);
    let mut ops = Vec::with_capacity(OPS_PER_PASS + OPS_PER_PASS / 20 / COMPACT_EVERY + 1);
    let mut inserts = 0usize;
    for _ in 0..OPS_PER_PASS {
        let roll = rng.next() % 100;
        let q = (rng.next() % HELD_OUT as u64) as u32;
        if roll < 90 {
            let theta = PROBE_THETAS[(rng.next() % 2) as usize];
            ops.push(Op::Probe { q, theta });
        } else if roll < 95 {
            ops.push(Op::TopK { q });
        } else {
            ops.push(Op::Insert {
                h: (inserts % HELD_OUT) as u32,
            });
            inserts += 1;
            if inserts.is_multiple_of(COMPACT_EVERY) {
                ops.push(Op::Compact);
            }
        }
    }
    ops
}

/// A set-up index and the records it was built from.
pub struct ServeInput {
    /// The indexed records.
    pub collection: Collection,
    /// Held-out records, as ranks in the indexed records' frozen ordering
    /// (tokens the ordering has never seen get fresh ranks past its
    /// universe).
    pub held_out: Vec<Vec<TokenId>>,
    /// The index under test.
    pub index: ServeIndex,
    /// Seconds spent encoding.
    pub encode_s: f64,
    /// Seconds spent in `build_index`.
    pub build_s: f64,
}

impl ServeInput {
    /// Generate, encode and index.
    pub fn setup(seed: u64) -> ServeInput {
        let raw = CorpusProfile::WikiLike
            .config()
            .with_seed(seed)
            .with_records(INDEXED + HELD_OUT)
            .generate();
        let t = Instant::now();
        let head = RawCorpus {
            docs: raw.docs[..INDEXED].to_vec(),
            vocab: None,
        };
        let ordering = compute_ordering_local(&head);
        let collection = encode_with(&head, &ordering);
        let universe = ordering.universe() as TokenId;
        let mut unseen: BTreeMap<u64, TokenId> = BTreeMap::new();
        let held_out = raw.docs[INDEXED..]
            .iter()
            .map(|doc| {
                let mut ranks: Vec<TokenId> = doc
                    .iter()
                    .map(|&tok| {
                        ordering.rank(tok).unwrap_or_else(|| {
                            let next = universe + unseen.len() as TokenId;
                            *unseen.entry(tok).or_insert(next)
                        })
                    })
                    .collect();
                ranks.sort_unstable();
                ranks.dedup();
                ranks
            })
            .collect();
        let encode_s = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let index = build_index(
            &collection,
            &ServeConfig::default().with_theta_min(THETA_MIN),
        );
        ServeInput {
            collection,
            held_out,
            index,
            encode_s,
            build_s: t.elapsed().as_secs_f64(),
        }
    }
}

/// An answer kept for the oracle.
struct Kept {
    id: OpId,
    op: Op,
    /// Inserts visible when the operation ran.
    inserted: usize,
    answer: Vec<(RecordId, f64)>,
}

/// Counters and timings of one pass.
#[derive(Debug, Clone, Default)]
pub struct PassOutcome {
    /// Probe counters over the pass's `probe_with` calls.
    pub stats: ProbeStats,
    /// Delta records at each compaction.
    pub delta_at_compact: Vec<usize>,
    /// Postings in the main index after the pass.
    pub main_postings: usize,
}

/// Check the kept answers against a scan of the records visible when
/// each operation ran; fail the operations that disagree.
fn check_kept(
    input: &ServeInput,
    inserted: &[(RecordId, u32)],
    kept: &[Kept],
    measure: Measure,
    log: &mut OpLog,
) {
    for k in kept {
        let visible = input.collection.iter().map(|v| (v.id, v.tokens)).chain(
            inserted[..k.inserted]
                .iter()
                .map(|&(rid, h)| (rid, input.held_out[h as usize].as_slice())),
        );
        let want = match k.op {
            Op::Probe { q, theta } => {
                naive_probe(visible, &input.held_out[q as usize], measure, theta)
            }
            Op::TopK { q } => naive_top_k(
                visible,
                &input.held_out[q as usize],
                measure,
                THETA_MIN,
                TOP_K,
            ),
            Op::Insert { .. } | Op::Compact => continue,
        };
        if let Err(e) = check_answer(&k.answer, &want) {
            eprintln!("{:?} failed the oracle: {e}", k.op);
            log.fail(k.id);
        }
    }
}

/// Replay the script once against a fresh index.
fn pass(input: &mut ServeInput, script: &[Op], log: &mut OpLog) -> PassOutcome {
    let measure = input.index.config().measure;
    let mut out = PassOutcome::default();
    let mut inserted: Vec<(RecordId, u32)> = Vec::new();
    let mut kept: Vec<Kept> = Vec::new();
    for (i, &op) in script.iter().enumerate() {
        let keep = i % CHECK_EVERY == 0;
        let index = &mut input.index;
        let held_out = &input.held_out;
        let kind = match op {
            Op::Probe { .. } => OpKind::Probe,
            Op::TopK { .. } => OpKind::TopK,
            Op::Insert { .. } => OpKind::Insert,
            Op::Compact => OpKind::Compact,
        };
        if op == Op::Compact {
            out.delta_at_compact.push(index.delta_len());
        }
        let _span = span("bench.op", kind.name());
        let stats = &mut out.stats;
        let t = Instant::now();
        let res = catch_unwind(AssertUnwindSafe(|| match op {
            Op::Probe { q, theta } => Ok(Some(index.probe_with(
                &held_out[q as usize],
                theta,
                None,
                stats,
            ))),
            Op::TopK { q } => Ok(Some(index.top_k(&held_out[q as usize], TOP_K))),
            Op::Insert { h } => index.insert(&held_out[h as usize]).map(|rid| {
                inserted.push((rid, h));
                None
            }),
            Op::Compact => {
                index.compact();
                Ok(None)
            }
        }));
        let dur = t.elapsed();
        match res {
            Ok(Ok(answer)) => {
                let id = log.push(kind, dur, true);
                if let (true, Some(answer)) = (keep, answer) {
                    kept.push(Kept {
                        id,
                        op,
                        inserted: inserted.len(),
                        answer,
                    });
                }
            }
            Ok(Err(e)) => {
                eprintln!("{op:?} rejected: {e}");
                log.push(kind, dur, false);
            }
            Err(_) => {
                log.push(kind, dur, false);
            }
        }
    }
    out.main_postings = input.index.main_postings();
    check_kept(input, &inserted, &kept, measure, log);
    out
}

/// Per-layer values of one pass.
fn pass_layers(p: &PassOutcome, log: &OpLog, input: &ServeInput) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    let s = &p.stats;
    for (name, v) in s.fields() {
        out.insert(name.to_string(), v as f64);
    }
    out.insert(
        "serve.hits_per_verified".into(),
        ratio(s.hits as f64, s.verified as f64),
    );
    // Postings the scan touched: those the length window rejected plus one
    // per candidate entry (a lower bound; repeat postings of a candidate
    // are not counted by `ProbeStats`).
    out.insert(
        "serve.postings_per_candidate".into(),
        ratio((s.length_pruned + s.candidates) as f64, s.candidates as f64),
    );
    out.insert(
        "serve.delta_records_at_compact".into(),
        median(
            &p.delta_at_compact
                .iter()
                .map(|&d| d as f64)
                .collect::<Vec<_>>(),
        ),
    );
    out.insert("serve.main_postings".into(), p.main_postings as f64);
    for kind in OpKind::SERVE {
        out.insert(
            format!("serve.{}_busy_s", kind.name()),
            log.busy_of(kind).as_secs_f64(),
        );
    }
    out.insert("serve.build_s".into(), input.build_s);
    out.insert("text.encode_s".into(), input.encode_s);
    out.insert("text.records".into(), input.collection.len() as f64);
    out.insert("text.tokens".into(), input.collection.total_tokens() as f64);
    out
}

/// The exact counters of one pass.
fn pass_counters(p: &PassOutcome) -> BTreeMap<String, u64> {
    let mut out: BTreeMap<String, u64> = p
        .stats
        .fields()
        .iter()
        .map(|&(k, v)| (k.to_string(), v))
        .collect();
    out.insert("serve.main_postings".into(), p.main_postings as u64);
    out
}

/// Passes until the client has been busy for `seconds`. Returns the log,
/// set-up times and per-pass layer values.
fn phase(
    args: &Args,
    script: &[Op],
    seconds: f64,
    first: &mut Option<BTreeMap<String, u64>>,
) -> (OpLog, Vec<f64>, Vec<BTreeMap<String, f64>>) {
    let mut log = OpLog::default();
    let mut setup_s = Vec::new();
    let mut layers = Vec::new();
    while log.attempted() == 0 || log.busy().as_secs_f64() < seconds {
        let t = Instant::now();
        let mut input = {
            let _span = span("bench.op", "setup");
            ServeInput::setup(args.seed)
        };
        setup_s.push(t.elapsed().as_secs_f64());
        let mut pass_log = OpLog::default();
        let p = pass(&mut input, script, &mut pass_log);
        let counters = pass_counters(&p);
        match first {
            Some(want) if *want != counters => {
                eprintln!("pass counters differ: {counters:?} vs first {want:?}");
                pass_log.fail_all();
            }
            Some(_) => {}
            None => *first = Some(counters),
        }
        layers.push(pass_layers(&p, &pass_log, &input));
        eprintln!(
            "pass {}: {:.3} s busy, {:.0} ops/s, p50 {:.3} us, {} failed",
            setup_s.len(),
            pass_log.busy().as_secs_f64(),
            pass_log.ops_per_s(),
            crate::stats::Timing::of(&pass_log.latencies(None)).p50 * 1e6,
            pass_log.failed()
        );
        log.extend(&pass_log);
    }
    (log, setup_s, layers)
}

/// Run the serving workload.
pub fn run(args: &Args) -> Outcome {
    let script = script(args.seed);
    crate::rss::reset_peak_rss();
    let mut first = None;
    let traced = args.trace.then(|| {
        let tracing = Tracing::start();
        let (log, _, samples) = phase(args, &script, args.seconds / 2.0, &mut first);
        let summary = tracing
            .finish(args.out.as_deref())
            .expect("trace artifacts written");
        Traced {
            log,
            layers: median_by_key(&samples),
            summary,
        }
    });
    let seconds = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let (log, setup_s, _) = phase(args, &script, seconds, &mut first);
    Outcome {
        setup_s,
        log,
        peak_rss_mb: crate::rss::peak_rss_mb().unwrap_or(0.0),
        counters: first.unwrap_or_default(),
        traced,
    }
}
