//! Property tests for the MapReduce engine: shuffle correctness (every
//! emitted pair reaches exactly the reducer its partitioner chose, exactly
//! once), determinism of results and byte counters, and combiner
//! transparency. Each job runs as a one-stage [`Plan`].

use proptest::prelude::*;
use ssj_mapreduce::{
    Combiner, Dataset, DirectPartitioner, Emitter, HashPartitioner, IdentityCombiner, JobMetrics,
    Mapper, Partitioner, Plan, PlanRunner, Reducer, StreamingReducer, SumCombiner,
};

/// Identity mapper over (u32, u32).
struct IdMap;
impl Mapper for IdMap {
    type InKey = u32;
    type InValue = u32;
    type OutKey = u32;
    type OutValue = u32;
    fn map(&mut self, k: u32, v: u32, out: &mut Emitter<u32, u32>) {
        out.emit(k, v);
    }
}

/// Reducer that re-emits each (key, value) pair unchanged.
#[derive(Clone)]
struct Passthrough;
impl Reducer for Passthrough {
    type InKey = u32;
    type InValue = u32;
    type OutKey = u32;
    type OutValue = u32;
    fn reduce(&mut self, k: &u32, vs: Vec<u32>, out: &mut Emitter<u32, u32>) {
        for v in vs {
            out.emit(*k, v);
        }
    }
}

/// Reducer summing values per key.
#[derive(Clone)]
struct SumRed;
impl Reducer for SumRed {
    type InKey = u32;
    type InValue = u32;
    type OutKey = u32;
    type OutValue = u32;
    fn reduce(&mut self, k: &u32, vs: Vec<u32>, out: &mut Emitter<u32, u32>) {
        out.emit(*k, vs.into_iter().sum());
    }
}

fn arb_records() -> impl Strategy<Value = Vec<(u32, u32)>> {
    prop::collection::vec((0u32..50, 0u32..1000), 0..200)
}

/// Run `input` through [`IdMap`] and `reducer` as the single stage of
/// `plan`; returns the stage's output and metrics.
fn run_job<R, P, C>(
    mut plan: Plan,
    input: &Dataset<u32, u32>,
    reduce_tasks: usize,
    reducer: R,
    partitioner: P,
    combiner: Option<C>,
) -> (Dataset<u32, u32>, JobMetrics)
where
    R: StreamingReducer<InKey = u32, InValue = u32, OutKey = u32, OutValue = u32>
        + Clone
        + Sync
        + 'static,
    P: Partitioner<u32> + Send + Sync + 'static,
    C: Combiner<u32, u32> + 'static,
{
    let name = plan.name().to_string();
    let h = plan.add_full(
        name,
        input.clone(),
        reduce_tasks,
        |_| IdMap,
        move |_| reducer.clone(),
        partitioner,
        combiner,
    );
    let mut outcome = PlanRunner::pipelined().run(plan);
    let out = outcome.take_output(h);
    (out, outcome.metrics.jobs.remove(0))
}

proptest! {
    /// Every emitted pair appears in the output exactly once (multiset
    /// equality through a passthrough job).
    #[test]
    fn shuffle_delivers_exactly_once(
        records in arb_records(),
        splits in 1usize..6,
        reducers in 1usize..6,
    ) {
        let input = Dataset::from_records(records.clone(), splits);
        let (out, metrics) = run_job(
            Plan::new("pass"),
            &input,
            reducers,
            Passthrough,
            HashPartitioner,
            None::<IdentityCombiner>,
        );
        let mut expect = records;
        expect.sort();
        let mut got: Vec<(u32, u32)> = out.into_records().collect();
        got.sort();
        prop_assert_eq!(got, expect);
        prop_assert_eq!(metrics.shuffle_records, metrics.map_output_records());
    }

    /// Each pair lands on the reduce task chosen by the partitioner: with a
    /// DirectPartitioner on the key, output partition p contains only keys
    /// with k % reducers == p.
    #[test]
    fn partitioner_controls_placement(
        records in arb_records(),
        reducers in 1usize..5,
    ) {
        let input = Dataset::from_records(records, 3);
        let (out, _) = run_job(
            Plan::new("direct"),
            &input,
            reducers,
            Passthrough,
            DirectPartitioner::new(|k: &u32| *k as usize),
            None::<IdentityCombiner>,
        );
        for (p, part) in out.partitions().iter().enumerate() {
            for (k, _) in part {
                prop_assert_eq!(*k as usize % reducers, p);
            }
        }
    }

    /// Re-running the same job yields byte-identical results and counters
    /// (determinism matters: experiment tables must be reproducible).
    #[test]
    fn jobs_are_deterministic(records in arb_records()) {
        let input = Dataset::from_records(records, 4);
        let run = || {
            run_job(
                Plan::new("det"),
                &input,
                3,
                SumRed,
                HashPartitioner,
                None::<IdentityCombiner>,
            )
        };
        let (out1, m1) = run();
        let (out2, m2) = run();
        prop_assert_eq!(out1.partitions(), out2.partitions());
        prop_assert_eq!(m1.shuffle_bytes, m2.shuffle_bytes);
        prop_assert_eq!(m1.shuffle_records, m2.shuffle_records);
    }

    /// A sum combiner must not change the result of a sum reducer, and can
    /// only shrink the shuffle.
    #[test]
    fn combiner_is_transparent(records in arb_records(), splits in 1usize..5) {
        let input = Dataset::from_records(records, splits);
        let (plain, mp) = run_job(
            Plan::new("plain"),
            &input,
            3,
            SumRed,
            HashPartitioner,
            None::<IdentityCombiner>,
        );
        let (combined, mc) = run_job(
            Plan::new("combined"),
            &input,
            3,
            SumRed,
            HashPartitioner,
            Some(SumCombiner),
        );
        prop_assert_eq!(plain.partitions(), combined.partitions());
        prop_assert!(mc.shuffle_records <= mp.shuffle_records);
        prop_assert!(mc.shuffle_bytes <= mp.shuffle_bytes);
        prop_assert_eq!(mc.pre_combine_records, mp.shuffle_records);
    }

    /// Worker-thread count never affects results or logical byte counts.
    #[test]
    fn worker_count_is_observationally_neutral(records in arb_records()) {
        let input = Dataset::from_records(records, 6);
        let (o1, m1) = run_job(
            Plan::new("w1").with_workers(1),
            &input,
            4,
            SumRed,
            HashPartitioner,
            None::<IdentityCombiner>,
        );
        let (o4, m4) = run_job(
            Plan::new("w4").with_workers(4),
            &input,
            4,
            SumRed,
            HashPartitioner,
            None::<IdentityCombiner>,
        );
        prop_assert_eq!(o1.partitions(), o4.partitions());
        prop_assert_eq!(m1.shuffle_bytes, m4.shuffle_bytes);
    }
}
