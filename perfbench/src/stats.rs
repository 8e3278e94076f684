//! Timing summaries and closed-loop operation accounting.
//!
//! A timing is reported as its median plus the highest percentile of
//! [`TAIL_LADDER`] that still has at least [`MIN_BEYOND`] samples beyond
//! it, together with the sample count: a p99 read from 200 samples rests
//! on two observations and says nothing stable.

use std::time::Duration;

/// Minimum number of samples that must lie beyond a reported tail
/// percentile.
pub const MIN_BEYOND: usize = 10;

/// Tail percentiles considered, in basis points (5000 = p50).
pub const TAIL_LADDER: [u32; 5] = [5000, 9000, 9900, 9990, 9999];

/// Nearest-rank index (0-based) of the percentile `bp` basis points in
/// `n` sorted samples: `ceil(bp·n / 10000) − 1`, computed in integers so
/// that `p99` of 1000 samples is exactly the 990th.
fn rank_index(bp: u32, n: usize) -> usize {
    let rank = (bp as usize * n).div_ceil(10_000);
    rank.max(1) - 1
}

/// The highest ladder percentile (basis points) with at least
/// [`MIN_BEYOND`] of `n` samples strictly beyond its rank, or `None`
/// when not even the median qualifies.
pub fn tail_percentile(n: usize) -> Option<u32> {
    TAIL_LADDER
        .iter()
        .rev()
        .copied()
        .find(|&bp| n >= 1 && n - (rank_index(bp, n) + 1) >= MIN_BEYOND)
}

/// Median of `values` (mean of the middle two for an even count); 0 for
/// an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Median, tail and count of one set of samples.
#[derive(Debug, Clone, PartialEq)]
pub struct Timing {
    /// Number of samples.
    pub count: usize,
    /// Median sample.
    pub p50: f64,
    /// `(percentile in basis points, value)` per [`tail_percentile`].
    pub tail: Option<(u32, f64)>,
}

impl Timing {
    /// Summarise `samples` (any unit).
    pub fn of(samples: &[f64]) -> Timing {
        let mut v = samples.to_vec();
        v.sort_by(f64::total_cmp);
        let tail = tail_percentile(v.len()).map(|bp| (bp, v[rank_index(bp, v.len())]));
        Timing {
            count: v.len(),
            p50: median(&v),
            tail,
        }
    }
}

/// The operations the workloads issue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum OpKind {
    /// One `run_self_join` / `run_rs_join_two_input` call.
    Join,
    /// One `ServeIndex::probe_with` call.
    Probe,
    /// One `ServeIndex::top_k` call.
    TopK,
    /// One `ServeIndex::insert` call.
    Insert,
    /// One `ServeIndex::compact` call.
    Compact,
}

impl OpKind {
    /// Every kind, in report order.
    pub const ALL: [OpKind; 5] = [
        OpKind::Join,
        OpKind::Probe,
        OpKind::TopK,
        OpKind::Insert,
        OpKind::Compact,
    ];

    /// The serving operations.
    pub const SERVE: [OpKind; 4] = [OpKind::Probe, OpKind::TopK, OpKind::Insert, OpKind::Compact];

    /// Metric-name stem.
    pub fn name(self) -> &'static str {
        match self {
            OpKind::Join => "join",
            OpKind::Probe => "probe",
            OpKind::TopK => "topk",
            OpKind::Insert => "insert",
            OpKind::Compact => "compact",
        }
    }
}

/// Handle of one logged operation, for failing it after the fact (an
/// oracle check that runs after the timed call).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpId(usize);

/// Closed-loop log of one client's operations.
///
/// Every attempted operation is logged with its duration. A failed
/// operation (oracle mismatch, rejected insert, panic) counts in
/// [`failed`](OpLog::failed) and its duration still counts as busy time,
/// but it never contributes a latency sample and never counts as
/// completed: a fast wrong answer must not make the system look faster.
///
/// Entries are packed into one `u64` each (nanoseconds in the low 56
/// bits, kind and outcome above), so a million-operation log adds 8 MB to
/// the process footprint the benchmark itself reports.
#[derive(Debug, Clone, Default)]
pub struct OpLog {
    ops: Vec<u64>,
}

const NANOS_BITS: u32 = 56;
const NANOS_MASK: u64 = (1 << NANOS_BITS) - 1;
const FAILED_BIT: u64 = 1 << 63;

impl OpLog {
    /// Log one attempted operation.
    pub fn push(&mut self, kind: OpKind, dur: Duration, ok: bool) -> OpId {
        let nanos = u64::try_from(dur.as_nanos()).map_or(NANOS_MASK, |n| n.min(NANOS_MASK));
        let failed = if ok { 0 } else { FAILED_BIT };
        self.ops
            .push(nanos | ((kind as u64) << NANOS_BITS) | failed);
        OpId(self.ops.len() - 1)
    }

    /// Mark an already logged operation as failed.
    pub fn fail(&mut self, id: OpId) {
        self.ops[id.0] |= FAILED_BIT;
    }

    /// Mark every logged operation as failed.
    pub fn fail_all(&mut self) {
        for e in &mut self.ops {
            *e |= FAILED_BIT;
        }
    }

    /// Append another log.
    pub fn extend(&mut self, other: &OpLog) {
        self.ops.extend_from_slice(&other.ops);
    }

    fn entries(&self) -> impl Iterator<Item = (OpKind, Duration, bool)> + '_ {
        self.ops.iter().map(|&e| {
            let kind = OpKind::ALL[((e >> NANOS_BITS) & 0x7f) as usize];
            (
                kind,
                Duration::from_nanos(e & NANOS_MASK),
                e & FAILED_BIT == 0,
            )
        })
    }

    /// Operations attempted.
    pub fn attempted(&self) -> usize {
        self.ops.len()
    }

    /// Operations that failed.
    pub fn failed(&self) -> usize {
        self.ops.iter().filter(|&&e| e & FAILED_BIT != 0).count()
    }

    /// Operations that completed correctly.
    pub fn completed(&self) -> usize {
        self.attempted() - self.failed()
    }

    /// Client time spent inside operations, failed ones included.
    pub fn busy(&self) -> Duration {
        self.entries().map(|o| o.1).sum()
    }

    /// Client time spent inside operations of one kind.
    pub fn busy_of(&self, kind: OpKind) -> Duration {
        self.entries().filter(|o| o.0 == kind).map(|o| o.1).sum()
    }

    /// Latencies in seconds of the successful operations of `kind`, or of
    /// every kind when `kind` is `None`.
    pub fn latencies(&self, kind: Option<OpKind>) -> Vec<f64> {
        self.entries()
            .filter(|o| o.2 && kind.is_none_or(|k| o.0 == k))
            .map(|o| o.1.as_secs_f64())
            .collect()
    }

    /// Completed operations per second of client busy time: the
    /// throughput a single closed-loop client sees.
    pub fn ops_per_s(&self) -> f64 {
        let busy = self.busy().as_secs_f64();
        if busy > 0.0 {
            self.completed() as f64 / busy
        } else {
            0.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        assert_eq!(tail_percentile(0), None);
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(5000));
        assert_eq!(tail_percentile(99), Some(5000));
        assert_eq!(tail_percentile(100), Some(9000));
        assert_eq!(tail_percentile(999), Some(9000));
        assert_eq!(tail_percentile(1000), Some(9900));
        assert_eq!(tail_percentile(10_000), Some(9990));
        assert_eq!(tail_percentile(100_000), Some(9999));
        assert_eq!(tail_percentile(10_000_000), Some(9999));
    }

    #[test]
    fn timing_reports_tail_value_and_sample_count() {
        let samples: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = Timing::of(&samples);
        assert_eq!(t.count, 1000);
        assert_eq!(t.p50, 500.5);
        // p99 of 1..=1000 is the 990th value; exactly 10 lie beyond it.
        assert_eq!(t.tail, Some((9900, 990.0)));
        let beyond = samples.iter().filter(|&&v| v > 990.0).count();
        assert_eq!(beyond, MIN_BEYOND);

        let few = Timing::of(&[3.0, 1.0, 2.0]);
        assert_eq!((few.count, few.p50, few.tail), (3, 2.0, None));
    }

    #[test]
    fn failed_ops_count_as_failures_never_as_fast_samples() {
        let mut log = OpLog::default();
        log.push(OpKind::Probe, Duration::from_micros(10), true);
        log.push(OpKind::Probe, Duration::from_micros(12), true);
        // A wrong answer returned fast, and a rejected insert.
        let wrong = log.push(OpKind::Probe, Duration::from_nanos(1), true);
        log.push(OpKind::Insert, Duration::from_nanos(1), false);
        log.fail(wrong);

        assert_eq!(log.attempted(), 4);
        assert_eq!(log.failed(), 2);
        assert_eq!(log.completed(), 2);
        let probes = log.latencies(Some(OpKind::Probe));
        assert_eq!(probes, vec![10e-6, 12e-6]);
        assert!(log.latencies(Some(OpKind::Insert)).is_empty());
        assert!((Timing::of(&log.latencies(None)).p50 - 11e-6).abs() < 1e-12);
        // Failed work still costs client time, so it lowers throughput.
        let busy = 22e-6 + 2e-9;
        assert!((log.ops_per_s() - 2.0 / busy).abs() < 1e-6);
    }
}
