//! The traced half of a `--trace 1` run: turns on the `ssj-observe`
//! collector and registry the engine already reports to, and writes the
//! trace, the metrics dump and a per-stage profile when it ends.

use std::fmt::Write as _;
use std::path::Path;
use std::sync::Arc;

use ssj_observe::{
    install_collector, install_registry, spans_from_events, uninstall_collector,
    uninstall_registry, ChromeTrace, Collector, MetricsRegistry, PlanProfile,
};

/// What the trace says about the traced half.
#[derive(Debug, Clone, Copy, Default)]
pub struct TraceSummary {
    /// Spans recorded (engine spans plus the harness's own).
    pub spans: usize,
    /// Mean critical-path span of the plan runs in the trace, seconds.
    pub critical_path_s: f64,
}

/// An installed collector and registry.
pub struct Tracing {
    collector: Arc<Collector>,
    registry: Arc<MetricsRegistry>,
}

impl Tracing {
    /// Install a fresh collector and registry.
    pub fn start() -> Tracing {
        Tracing {
            collector: install_collector(),
            registry: install_registry(),
        }
    }

    /// Uninstall both, write `trace.json`, `metrics.jsonl` and
    /// `profile.txt` under `dir` (when given) and summarise the spans.
    pub fn finish(self, dir: Option<&Path>) -> std::io::Result<TraceSummary> {
        uninstall_collector();
        uninstall_registry();
        let events = self.collector.events();
        let profiles = PlanProfile::from_spans(&spans_from_events(&events));
        let paths: Vec<u64> = profiles.iter().map(|p| p.critical_path_span_us()).collect();
        let summary = TraceSummary {
            spans: events.len(),
            critical_path_s: crate::layers::ratio(
                paths.iter().sum::<u64>() as f64 / 1e6,
                paths.len() as f64,
            ),
        };
        if let Some(dir) = dir {
            std::fs::create_dir_all(dir)?;
            let trace = ChromeTrace::from_collector(&self.collector);
            std::fs::write(dir.join("trace.json"), trace.to_json())?;
            std::fs::write(dir.join("metrics.jsonl"), self.registry.to_jsonl())?;
            std::fs::write(dir.join("profile.txt"), profile_text(&profiles))?;
        }
        Ok(summary)
    }
}

/// Per-plan-run stage waterfall and critical path, as text.
fn profile_text(profiles: &[PlanProfile]) -> String {
    let mut out = String::new();
    for p in profiles {
        let _ = writeln!(
            out,
            "plan {} run {}: makespan {} us, critical path {} us (busy {} us)",
            p.plan,
            p.run,
            p.makespan_us(),
            p.critical_path_span_us(),
            p.critical_path_busy_us()
        );
        for s in p.stage_waterfall() {
            let _ = writeln!(
                out,
                "  stage {:>2} {:<20} tasks {:>4} busy {:>10} us span {:>10} us peak {}",
                s.stage,
                s.name,
                s.tasks,
                s.busy_us,
                s.end_us.saturating_sub(s.start_us),
                s.peak_concurrency
            );
        }
    }
    out
}
