//! The batch/serve seam's zero-copy guarantee, asserted with a counting
//! allocator: adopting a build plan's sealed output into a [`ServeIndex`]
//! ([`ServeIndexBuild::adopt`] → `PlanOutcome::take_sealed`) must perform
//! a small **constant** number of container allocations — independent of
//! how many postings the plan produced — because the posting partitions
//! move by `Arc`, never by deep copy. The same harness bounds compaction:
//! folding a fixed delta into the main index costs allocations in
//! proportion to the delta, not to the main index.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use ssj_mapreduce::PlanRunner;
use ssj_serve::{build_index, ServeConfig, ServeIndexBuild};
use ssj_text::{encode, Collection, CorpusProfile, Record, RecordId};

struct CountingAlloc;

static ALLOC_CALLS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// The counter is process-wide: tests that read it take this lock so
/// they never run (and allocate) concurrently.
static SERIAL: Mutex<()> = Mutex::new(());

fn allocs_during<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = ALLOC_CALLS.load(Ordering::Relaxed);
    let out = f();
    (out, ALLOC_CALLS.load(Ordering::Relaxed) - before)
}

/// Allocation budget for adopting a plan outcome: the partition vector,
/// the directory, the length vector, the registry and its handful of
/// gauge entries — and nothing proportional to postings.
const ADOPT_ALLOC_BUDGET: usize = 64;

#[test]
fn from_plan_adopts_sealed_partitions_without_posting_copies() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let collection = encode(
        &CorpusProfile::WikiLike
            .config()
            .with_records(800)
            .generate(),
    );
    let cfg = ServeConfig::default().with_theta_min(0.7).with_workers(2);
    let mut build = ServeIndexBuild::new(&collection, cfg);
    let plan = build.take_plan();
    let mut outcome = PlanRunner::pipelined().run(plan);

    let (index, allocs) = allocs_during(|| build.adopt(&mut outcome));

    assert!(
        index.main_postings() > 10_000,
        "corpus too small to make the bound meaningful: {} postings",
        index.main_postings()
    );
    assert!(
        allocs <= ADOPT_ALLOC_BUDGET,
        "adopting the plan outcome allocated {allocs} times (budget \
         {ADOPT_ALLOC_BUDGET}) — a posting-list deep copy has crept into \
         the batch/serve seam"
    );

    // The adopted index must actually work.
    let query = collection.tokens(0).to_vec();
    let hits = index.probe(&query, 0.8);
    assert!(hits.iter().any(|&(rec, sim)| rec == 0 && sim == 1.0));
}

/// The first `n` records of `full`, in `full`'s rank space.
fn prefix_collection(full: &Collection, n: usize) -> Collection {
    let records = (0..n)
        .map(|rid| Record::from_sorted(rid as RecordId, full.tokens(rid as RecordId).to_vec()))
        .collect();
    Collection::new(records, full.token_freqs.clone(), None)
}

/// Fixed allocation allowance of one compaction (pool plane growth, the
/// sorted delta entries, the length merge, the fresh delta) on top of the
/// per-posting allowance below.
const COMPACT_ALLOC_BASE: usize = 64;
/// Allocations allowed per delta posting: at most three column growths
/// per delta token block.
const COMPACT_ALLOCS_PER_POSTING: usize = 3;

/// Allocations of compacting `delta` (records of `full`) into an index
/// built on `full`'s first `main` records, after one warm-up compaction
/// has paid the one-time copy of the shared main pool.
fn compact_allocs(
    full: &Collection,
    main: usize,
    warm_up: &[RecordId],
    delta: &[RecordId],
) -> (usize, usize) {
    let cfg = ServeConfig::default().with_theta_min(0.7).with_workers(2);
    let mut index = build_index(&prefix_collection(full, main), &cfg);
    for &rid in warm_up {
        index.insert(full.tokens(rid)).unwrap();
    }
    index.compact();
    let before = index.main_postings();
    for &rid in delta {
        index.insert(full.tokens(rid)).unwrap();
    }
    let ((), allocs) = allocs_during(|| index.compact());
    (allocs, index.main_postings() - before)
}

#[test]
fn compaction_allocates_in_proportion_to_the_delta_not_the_main_index() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let full = encode(
        &CorpusProfile::WikiLike
            .config()
            .with_records(3_240)
            .generate(),
    );
    let warm_up: Vec<RecordId> = (3_200..3_220).collect();
    let delta: Vec<RecordId> = (3_220..3_240).collect();
    for main in [800, 3_200] {
        let (allocs, delta_postings) = compact_allocs(&full, main, &warm_up, &delta);
        let budget = COMPACT_ALLOC_BASE + COMPACT_ALLOCS_PER_POSTING * delta_postings;
        assert!(delta_postings > 0);
        assert!(
            allocs <= budget,
            "compacting {} records ({delta_postings} postings) into a \
             {main}-record index allocated {allocs} times (budget {budget}) \
             — compaction has started copying the main index",
            delta.len()
        );
    }
}
