//! The metric catalogue and the result line.
//!
//! Every metric the benchmark prints is declared here with its unit and
//! better-direction; [`Results::json`] refuses a name the catalogue does not
//! hold, so the printed line and `BENCHMARK.json` cannot drift apart
//! silently.

use std::fmt::Write as _;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// One catalogued metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn m(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric { name, unit, better }
}

use Better::{Higher, Lower};

/// End-to-end metrics, printed by every untraced run. Host times are in
/// `s`; modelled (simulated) times are in `sim_s` and `sim_ns`.
pub const END_TO_END: &[Metric] = &[
    m("replay_s", "s", Lower),
    m("setup_s", "s", Lower),
    m("render_s", "s", Lower),
    m("peak_rss_mb", "MB", Lower),
    m("report_mb", "MB", Lower),
    m("sim_admit_ratio", "ratio", Higher),
    m("sim_scaleup_p99_s", "sim_s", Lower),
    m("sim_read_p99_ns", "sim_ns", Lower),
    m("sim_bricks_off", "count", Higher),
];

/// Per-layer metrics, printed by every traced run. Names follow
/// `<crate>.<call>.<stat>`.
pub const PER_LAYER: &[Metric] = &[
    m("workload.generate.calls", "count", Lower),
    m("workload.generate.ns_per_call", "ns", Lower),
    m("core.build.calls", "count", Lower),
    m("core.build.ns_per_call", "ns", Lower),
    m("core.build.fail_ratio", "ratio", Lower),
    m("orchestrator.route.calls", "count", Lower),
    m("orchestrator.route.ns_per_call", "ns", Lower),
    m("orchestrator.route.spill_ratio", "ratio", Lower),
    m("orchestrator.upsert.calls", "count", Lower),
    m("orchestrator.upsert.ns_per_call", "ns", Lower),
    m("core.allocate_vm.calls", "count", Lower),
    m("core.allocate_vm.ns_per_call", "ns", Lower),
    m("core.allocate_vm.fail_ratio", "ratio", Lower),
    m("core.release_vm.calls", "count", Lower),
    m("core.release_vm.ns_per_call", "ns", Lower),
    m("core.release_vm.fail_ratio", "ratio", Lower),
    m("memory.pool_allocate.calls", "count", Lower),
    m("memory.pool_allocate.ns_per_call", "ns", Lower),
    m("memory.pool_allocate.fail_ratio", "ratio", Lower),
    m("memory.pool_release.calls", "count", Lower),
    m("memory.pool_release.ns_per_call", "ns", Lower),
    m("memory.pool_release.fail_ratio", "ratio", Lower),
    m("softstack.scale_up.calls", "count", Lower),
    m("softstack.scale_up.ns_per_call", "ns", Lower),
    m("softstack.scale_up.fail_ratio", "ratio", Lower),
    m("softstack.scale_down.calls", "count", Lower),
    m("softstack.scale_down.ns_per_call", "ns", Lower),
    m("softstack.scale_down.fail_ratio", "ratio", Lower),
    m("core.migrate_vm.calls", "count", Lower),
    m("core.migrate_vm.ns_per_call", "ns", Lower),
    m("core.migrate_vm.fail_ratio", "ratio", Lower),
    m("core.power_sweep.calls", "count", Lower),
    m("core.power_sweep.ns_per_call", "ns", Lower),
    m("core.power_sweep.bricks_off", "count", Higher),
    m("interconnect.read_latency.calls", "count", Lower),
    m("interconnect.read_latency.ns_per_call", "ns", Lower),
    m("interconnect.charge_queueing.calls", "count", Lower),
    m("interconnect.charge_queueing.ns_per_call", "ns", Lower),
    m("snap.capture.calls", "count", Lower),
    m("snap.capture.ns_per_call", "ns", Lower),
    m("snap.encode.calls", "count", Lower),
    m("snap.encode.ns_per_call", "ns", Lower),
    m("snap.encode.bytes", "B", Lower),
    m("snap.restore.calls", "count", Lower),
    m("snap.restore.ns_per_call", "ns", Lower),
    m("snap.restore.fail_ratio", "ratio", Lower),
    m("sim.summary.calls", "count", Lower),
    m("sim.summary.ns_per_call", "ns", Lower),
    m("sim.summary.samples", "count", Lower),
    m("report.render.calls", "count", Lower),
    m("report.render.ns_per_call", "ns", Lower),
    m("report.render.bytes", "B", Lower),
    m("sim.replay.calls", "count", Lower),
    m("sim.replay.events", "count", Lower),
    m("sim.replay.ns_per_event", "ns", Lower),
    m("sim.replay_serial.events", "count", Lower),
    m("sim.replay_serial.ns_per_event", "ns", Lower),
    m("trace.overhead_s", "s", Lower),
];

/// Looks a metric up in both catalogues.
pub fn lookup(name: &str) -> Option<&'static Metric> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}

/// The values one run measured, in insertion order.
#[derive(Debug, Default, Clone)]
pub struct Results {
    values: Vec<(&'static Metric, f64)>,
}

impl Results {
    /// Records `value` under `name`.
    ///
    /// # Panics
    ///
    /// Panics when `name` is not catalogued or was already recorded: both
    /// are bugs in the benchmark, not in the program it measures.
    pub fn set(&mut self, name: &str, value: f64) {
        let metric = lookup(name).unwrap_or_else(|| panic!("uncatalogued metric {name}"));
        assert!(
            self.values.iter().all(|(m, _)| m.name != name),
            "metric {name} recorded twice"
        );
        self.values.push((metric, value));
    }

    /// The recorded metrics.
    pub fn iter(&self) -> impl Iterator<Item = (&'static Metric, f64)> + '_ {
        self.values.iter().copied()
    }

    /// The result line: `correct`, `attempted`, `failed` and every recorded
    /// metric with its value and unit.
    pub fn json(&self, correct: bool, attempted: u64, failed: u64) -> String {
        let mut out = format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
        );
        for (i, (metric, value)) in self.values.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            write!(
                out,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                metric.name,
                json_number(*value),
                metric.unit
            )
            .expect("writing to a String cannot fail");
        }
        out.push_str("}}");
        out
    }
}

/// A finite number as JSON; non-finite values (never expected) become 0 so
/// the line stays parseable, and the run is already marked incorrect by the
/// caller's checks.
fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value:?}")
    } else {
        "0.0".to_owned()
    }
}
