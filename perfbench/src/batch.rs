//! The two batch workloads: closed-loop repeated joins over one input.
//!
//! * `fsjoin_wiki_large` — `run_self_join` at θ = 0.8 over WikiLike at its
//!   reference size (10,000 short records). Tens of millions of
//!   candidates for a few hundred pairs, so the fragment kernels and the
//!   candidate shuffle carry the time.
//! * `rsjoin_wiki_large` — `run_rs_join_two_input` at θ = 0.8 with
//!   |S| = 300,000 and |R| = 37,500 WikiLike records encoded together. The
//!   only workload that runs co-group stages, and the one where the
//!   bitmap prune pays.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use fsjoin::{run_rs_join_two_input, run_self_join, FsJoinConfig, FsJoinResult};
use ssj_observe::span;
use ssj_similarity::{Measure, SimilarPair};
use ssj_text::{encode, encode::encode_two, Collection, CorpusProfile, RawCorpus};

use crate::layers::{batch_layers, exact_counters, median_by_key};
use crate::oracle::{check_pairs, rs_join_oracle, self_join_oracle};
use crate::stats::{median, OpKind, OpLog};
use crate::tracing::Tracing;
use crate::{Args, Outcome, Traced};

/// Join threshold of both batch workloads.
pub const THETA: f64 = 0.8;
/// |S| of the R×S workload; |R| is an eighth of it, as in the repository's
/// R×S probe corpus.
pub const RS_S_RECORDS: usize = 300_000;
/// Set-ups per run, at least; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;
/// Set-ups continue until they have taken this long, so that a set-up of
/// a tenth of a second still gets a median of many.
pub const SETUP_MIN_SECONDS: f64 = 2.0;

/// Which batch join.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchKind {
    /// `run_self_join`.
    SelfJoin,
    /// `run_rs_join_two_input`.
    RsJoin,
}

/// A generated, encoded input.
pub enum Input {
    /// One collection.
    SelfJoin(Collection),
    /// R and S in one token-rank space.
    RsJoin(Collection, Collection),
}

impl Input {
    /// Generate and encode the workload's input; returns it with the
    /// seconds spent encoding.
    pub fn generate(kind: BatchKind, seed: u64) -> (Input, f64) {
        let base = CorpusProfile::WikiLike.config().with_seed(seed);
        match kind {
            BatchKind::SelfJoin => {
                let raw = base.generate();
                let t = Instant::now();
                let c = encode(&raw);
                (Input::SelfJoin(c), t.elapsed().as_secs_f64())
            }
            BatchKind::RsJoin => {
                let s_raw = base.with_records(RS_S_RECORDS).generate();
                // The generator draws records sequentially, so R — the same
                // configuration with an eighth of the records — is exactly
                // S's prefix: R's records recur in S and cross-side matches
                // exist.
                let r_raw = RawCorpus {
                    docs: s_raw.docs[..RS_S_RECORDS / 8].to_vec(),
                    vocab: None,
                };
                let t = Instant::now();
                let (r, s) = encode_two(&r_raw, &s_raw);
                (Input::RsJoin(r, s), t.elapsed().as_secs_f64())
            }
        }
    }

    /// The join under test.
    pub fn join(&self, cfg: &FsJoinConfig) -> FsJoinResult {
        match self {
            Input::SelfJoin(c) => run_self_join(c, cfg),
            Input::RsJoin(r, s) => run_rs_join_two_input(r, s, cfg),
        }
    }

    /// The oracle's pairs.
    pub fn oracle(&self, measure: Measure) -> Vec<SimilarPair> {
        match self {
            Input::SelfJoin(c) => self_join_oracle(c, measure, THETA),
            Input::RsJoin(r, s) => rs_join_oracle(r, s, measure, THETA),
        }
    }

    /// Records and tokens in the input.
    pub fn size(&self) -> (usize, u64) {
        match self {
            Input::SelfJoin(c) => (c.len(), c.total_tokens()),
            Input::RsJoin(r, s) => (r.len() + s.len(), r.total_tokens() + s.total_tokens()),
        }
    }
}

/// Joins for `seconds`, checking each against the oracle and against the
/// first join's exact counters (`first`, shared across both halves of a
/// traced run). Returns the log and, per join, its per-layer values.
fn phase(
    input: &Input,
    cfg: &FsJoinConfig,
    oracle: &[SimilarPair],
    seconds: f64,
    first: &mut Option<BTreeMap<String, u64>>,
) -> (OpLog, Vec<BTreeMap<String, f64>>) {
    let mut log = OpLog::default();
    let mut layers = Vec::new();
    let start = Instant::now();
    while log.attempted() == 0 || start.elapsed() < Duration::from_secs_f64(seconds) {
        let _span = span("bench.op", "join");
        let t = Instant::now();
        let res = catch_unwind(AssertUnwindSafe(|| input.join(cfg)));
        let dur = t.elapsed();
        let ok = match res {
            Ok(res) => {
                let checked = check_pairs(&res.pairs, oracle).and_then(|()| {
                    let counters = exact_counters(&res);
                    match first {
                        Some(want) if *want != counters => {
                            Err(format!("counters differ: {counters:?} vs first {want:?}"))
                        }
                        _ => {
                            *first = Some(counters);
                            Ok(())
                        }
                    }
                });
                layers.push(batch_layers(&res));
                checked.map_err(|e| eprintln!("join failed: {e}")).is_ok()
            }
            Err(_) => false,
        };
        log.push(OpKind::Join, dur, ok);
        eprintln!(
            "join {}: {:.3} s, ok {ok}",
            log.attempted(),
            dur.as_secs_f64()
        );
    }
    (log, layers)
}

/// Run one batch workload.
pub fn run(kind: BatchKind, args: &Args) -> Outcome {
    let tracing = args.trace.then(Tracing::start);
    let cfg = FsJoinConfig::default().with_theta(THETA);
    let mut setup_s = Vec::new();
    let mut encode_s = Vec::new();
    let mut input = None;
    while setup_s.len() < SETUP_REPS || setup_s.iter().sum::<f64>() < SETUP_MIN_SECONDS {
        drop(input.take());
        let _span = span("bench.op", "setup");
        let t = Instant::now();
        let (generated, enc) = Input::generate(kind, args.seed);
        setup_s.push(t.elapsed().as_secs_f64());
        encode_s.push(enc);
        input = Some(generated);
    }
    let input = input.expect("at least one set-up");
    let oracle = input.oracle(cfg.measure);
    let (records, tokens) = input.size();
    eprintln!(
        "{kind:?}: {records} records, {tokens} tokens, oracle {} pairs",
        oracle.len()
    );
    crate::rss::reset_peak_rss();

    let mut first = None;
    let traced = tracing.map(|tracing| {
        let (log, samples) = phase(&input, &cfg, &oracle, args.seconds / 2.0, &mut first);
        let summary = tracing
            .finish(args.out.as_deref())
            .expect("trace artifacts written");
        let mut layers = median_by_key(&samples);
        layers.insert("text.encode_s".into(), median(&encode_s));
        layers.insert("text.records".into(), records as f64);
        layers.insert("text.tokens".into(), tokens as f64);
        Traced {
            log,
            layers,
            summary,
        }
    });
    let seconds = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let (log, _) = phase(&input, &cfg, &oracle, seconds, &mut first);
    Outcome {
        setup_s,
        log,
        peak_rss_mb: crate::rss::peak_rss_mb().unwrap_or(0.0),
        counters: first.unwrap_or_default(),
        traced,
    }
}
