//! End-to-end and per-layer benchmark of the dReDBox scenario simulator.
//!
//! One invocation replays one workload (see [`workload::jobs`]) for a given
//! number of seconds. An untraced run (`--trace 0`) times set-up, replay and
//! rendering over several bit-identical passes, each normalised by a
//! host-speed probe ([`calibrate`]), and prints the end-to-end metrics; a
//! traced run (`--trace 1`) additionally drives each layer crate's public
//! calls under spans and prints the per-layer metrics.
//! Both runs apply the correctness gate of [`gate`]. `perfbench/README.md`
//! explains the workloads and the metric map.

pub mod calibrate;
pub mod drive;
pub mod gate;
pub mod metrics;
pub mod trace;
pub mod workload;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use dredbox::prelude::*;
use dredbox::sim::stats::Summary;

use drive::DriveCounts;
use metrics::Results;
use trace::{SelfTime, Tracer};
use workload::{render, render_into, secs_since, set_up, Job};

/// Passes every run makes, however short `--seconds` is. The first pass
/// warms caches and the allocator: it is checked but not timed.
pub const MIN_PASSES: usize = 4;

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

pub const USAGE: &str =
    "usage: perfbench --workload <fed16-t2|fed64|rack-mix> [--seed <n>] [--seconds <s>] [--trace <0|1>]";

/// Parses `--workload`, `--seed`, `--seconds` and `--trace`.
///
/// # Errors
///
/// Describes the first unknown flag, missing value or malformed number.
pub fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut parsed = Args {
        workload: String::new(),
        seed: workload::DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
    };
    let mut args = args.into_iter();
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => parsed.workload = value,
            "--seed" => parsed.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => {
                parsed.seconds = value.parse().map_err(|e| bad(&e))?;
                if !(parsed.seconds.is_finite() && parsed.seconds >= 0.0) {
                    return Err(bad(&"must be a non-negative number"));
                }
            }
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if workload::jobs(&parsed.workload, parsed.seed).is_none() {
        return Err(format!("unknown workload {:?}", parsed.workload));
    }
    Ok(parsed)
}

/// What one invocation measured and checked.
#[derive(Debug)]
pub struct Run {
    pub results: Results,
    /// Replays attempted (jobs × passes, the warm-up pass included).
    pub attempted: u64,
    /// Replays that errored or failed the gate.
    pub failed: u64,
    /// One line per gate failure.
    pub errors: Vec<String>,
    /// The host-shape tag line.
    pub host: String,
    /// Deterministic outputs that traced and untraced runs must share.
    pub check: String,
}

impl Run {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.errors.is_empty()
    }
}

/// Runs the benchmark as `args` asks.
pub fn run(args: &Args) -> Run {
    let jobs = workload::jobs(&args.workload, args.seed).expect("parse_args checked the name");
    let mut tracer = args.trace.then(Tracer::new);
    let replay_seconds = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let replayed = replay_passes(&jobs, replay_seconds, tracer.as_mut());
    let mut failed = replayed.failed.clone();
    let mut errors = replayed.errors.clone();
    let serial = gate_reports(&jobs, &replayed, tracer.as_mut(), &mut failed, &mut errors);

    let mut results = Results::default();
    let mut drive_spans = None;
    if let Some(tracer) = tracer.as_mut() {
        let drove = drive_passes(&jobs, args.seconds / 2.0, &mut errors);
        layer_metrics(&mut results, &jobs, &replayed, tracer, &drove, serial);
        drive_spans = Some(drove.first);
    } else {
        let times = &replayed.times;
        results.set("replay_s", times.normalised(&times.replay, false, true));
        results.set("setup_s", times.normalised(&times.setup, false, false));
        results.set("render_s", times.normalised(&times.render, false, false));
        results.set("peak_rss_mb", replayed.peak_rss_mb);
        results.set("report_mb", replayed.report_bytes() as f64 / 1e6);
        for (name, value) in sim_metrics(&replayed.reports) {
            results.set(name, value);
        }
    }
    if results.iter().any(|(_, v)| !v.is_finite()) {
        errors.push("a metric is not a finite number".to_owned());
    }
    if let (Some(run_tracer), Some(drive_tracer)) = (&tracer, &drive_spans) {
        let stem = format!("{}-{}", args.workload, args.seed);
        let dir = trace_dir();
        for (tracer, part) in [(run_tracer, "replay"), (drive_tracer, "drive")] {
            let path = dir.join(format!("{stem}-{part}.csv"));
            if let Err(e) = tracer.write_csv(&path) {
                errors.push(format!("writing {}: {e}", path.display()));
            }
        }
    }
    Run {
        attempted: (jobs.len() * replayed.passes) as u64,
        failed: failed.iter().sum(),
        errors,
        host: host_line(args, &jobs, &replayed.times),
        check: check_line(&replayed),
        results,
    }
}

/// What the timed replay passes produced.
struct Replayed {
    passes: usize,
    times: PassTimes,
    /// Peak resident memory once the first pass has replayed, before it
    /// renders. Rendering's growing buffers and later passes only add
    /// allocator history that varies from run to run; `report_mb` covers
    /// the rendered size.
    peak_rss_mb: f64,
    /// The first pass's reports; `None` where the replay errored.
    reports: Vec<Option<ScenarioReport>>,
    rendered: Vec<String>,
    /// Failed replays per job.
    failed: Vec<u64>,
    errors: Vec<String>,
}

impl Replayed {
    fn report_bytes(&self) -> usize {
        self.rendered.iter().map(String::len).sum()
    }

    fn events(&self) -> u64 {
        self.reports.iter().flatten().map(|r| r.events).sum()
    }
}

/// Host seconds of every timed pass, and of the speed probes around them.
#[derive(Debug, Default)]
struct PassTimes {
    /// `probes[i]` ran on one thread just before pass `i`; one more ran
    /// after the last.
    probes: Vec<f64>,
    /// The probe on as many threads as the replay keeps busy.
    worker_probes: Vec<f64>,
    /// That thread count.
    workers: usize,
    setup: Vec<f64>,
    replay: Vec<f64>,
    render: Vec<f64>,
    /// Whether pass `i` replayed under `sim.replay` spans.
    traced: Vec<bool>,
}

impl PassTimes {
    /// The median over the timed passes `traced` selects of `phase`
    /// divided by the mean of the two probes around the pass, in reference
    /// seconds: what the phase would take on a host where the probe takes
    /// [`calibrate::reference_s`]. `on_workers` picks the probe run on as
    /// many threads as the replay keeps busy.
    fn normalised(&self, phase: &[f64], traced: bool, on_workers: bool) -> f64 {
        let (probes, threads) = if on_workers {
            (&self.worker_probes, self.workers)
        } else {
            (&self.probes, 1)
        };
        let ratios: Vec<f64> = phase
            .iter()
            .enumerate()
            .filter(|&(i, _)| self.traced[i] == traced)
            .map(|(i, t)| t / ((probes[i] + probes[i + 1]) / 2.0))
            .collect();
        median(ratios) * calibrate::reference_s(threads)
    }

    /// The fastest of the timed passes `traced` selects, in host seconds.
    fn fastest(&self, phase: &[f64], traced: bool) -> f64 {
        phase
            .iter()
            .enumerate()
            .filter(|&(i, _)| self.traced[i] == traced)
            .map(|(_, &t)| t)
            .fold(f64::INFINITY, f64::min)
    }
}

/// Median of `values` (NaN when empty).
fn median(mut values: Vec<f64>) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// Replays every job once, untimed: the warm-up pass whose reports and
/// renderings every timed pass is checked against.
fn first_pass(jobs: &[Job], out: &mut Replayed) {
    for (i, job) in jobs.iter().enumerate() {
        let replayed = job.spec.run_with_threads(job.seed, job.threads);
        if let Err(e) = &replayed {
            out.failed[i] += 1;
            out.errors
                .push(format!("{}: replay failed: {e}", job.label()));
        }
        out.reports.push(replayed.ok());
    }
    out.peak_rss_mb = peak_rss_mb();
    out.rendered = out
        .reports
        .iter()
        .map(|r| r.as_ref().map(render).unwrap_or_default())
        .collect();
}

/// After an untimed warm-up pass, times set-up, replay and render passes
/// until `seconds` have passed and at least [`MIN_PASSES`] ran in all, with
/// host-speed probes before every timed pass and after the last. With a
/// tracer, every other timed replay runs each job under a `sim.replay`
/// span.
fn replay_passes(jobs: &[Job], seconds: f64, mut tracer: Option<&mut Tracer>) -> Replayed {
    let mut out = Replayed {
        passes: 1,
        times: PassTimes::default(),
        peak_rss_mb: 0.0,
        reports: Vec::new(),
        rendered: Vec::new(),
        failed: vec![0; jobs.len()],
        errors: Vec::new(),
    };
    let start = Instant::now();
    first_pass(jobs, &mut out);
    let min_passes = if tracer.is_some() {
        2 * MIN_PASSES
    } else {
        MIN_PASSES
    };
    let workers = jobs.iter().map(|j| j.threads).max().unwrap_or(1);
    out.times.workers = workers;
    let probe = |times: &mut PassTimes| {
        times.probes.push(calibrate::probe(1));
        let on_workers = if workers > 1 {
            calibrate::probe(workers)
        } else {
            *times.probes.last().expect("just pushed")
        };
        times.worker_probes.push(on_workers);
    };
    let mut buffer = String::new();
    while out.passes < min_passes || secs_since(start) < seconds {
        probe(&mut out.times);
        let t = Instant::now();
        let set_ups: Vec<_> = jobs.iter().map(set_up).collect();
        out.times.setup.push(secs_since(t));
        drop(std::hint::black_box(set_ups));

        let traced = tracer.is_some() && out.passes.is_multiple_of(2);
        let t = Instant::now();
        let reports: Vec<Result<ScenarioReport, SystemError>> = jobs
            .iter()
            .map(|job| match tracer.as_deref_mut().filter(|_| traced) {
                Some(tracer) => tracer.span("sim.replay", || {
                    job.spec.run_with_threads(job.seed, job.threads)
                }),
                None => job.spec.run_with_threads(job.seed, job.threads),
            })
            .collect();
        out.times.replay.push(secs_since(t));
        out.times.traced.push(traced);

        let t = Instant::now();
        for report in reports.iter().flatten() {
            render_into(&mut buffer, report);
            std::hint::black_box(&buffer);
        }
        out.times.render.push(secs_since(t));

        for (i, (job, report)) in jobs.iter().zip(reports).enumerate() {
            let check = match (&out.reports[i], report) {
                (Some(first), Ok(again)) => {
                    gate::check_same(&job.label(), "timed and first-pass reports", first, &again)
                }
                (_, Err(e)) => Err(format!("{}: replay failed: {e}", job.label())),
                (None, Ok(_)) => Err(format!(
                    "{}: replay failed on the first pass only",
                    job.label()
                )),
            };
            if let Err(e) = check {
                out.failed[i] += 1;
                out.errors.push(e);
            }
        }
        let i = out.times.replay.len() - 1;
        eprintln!(
            "pass {}: probe {:.6} s, worker probe {:.6} s, setup {:.6} s, replay {:.6} s{}, render {:.6} s",
            out.passes,
            out.times.probes[i],
            out.times.worker_probes[i],
            out.times.setup[i],
            out.times.replay[i],
            if traced { " (traced)" } else { "" },
            out.times.render[i],
        );
        out.passes += 1;
    }
    probe(&mut out.times);
    out
}

/// The untimed checks on the first pass's reports: goldens at the golden
/// seeds, threaded against serial replays, and rolling-upgrade invariants.
/// A job failing one counts every one of its passes as failed. Returns the
/// serial cross-check replays' total events and seconds, when any ran.
fn gate_reports(
    jobs: &[Job],
    replayed: &Replayed,
    mut tracer: Option<&mut Tracer>,
    failed: &mut [u64],
    errors: &mut Vec<String>,
) -> Option<(u64, f64)> {
    let dir = gate::golden_dir();
    let mut serial: Option<(u64, f64)> = None;
    for (i, job) in jobs.iter().enumerate() {
        let Some(report) = &replayed.reports[i] else {
            continue;
        };
        let label = job.label();
        let mut checks = vec![gate::check_upgrade(&label, report)];
        if job.golden {
            checks.push(gate::check_golden(&dir, &label, &replayed.rendered[i]));
        }
        if job.threads > 1 {
            let t = Instant::now();
            let again = match tracer.as_deref_mut() {
                Some(tracer) => tracer.span("sim.replay_serial", || {
                    job.spec.run_with_threads(job.seed, 1)
                }),
                None => job.spec.run_with_threads(job.seed, 1),
            };
            let seconds = secs_since(t);
            checks.push(match again {
                Ok(again) => {
                    let (events, total) = serial.unwrap_or((0, 0.0));
                    serial = Some((events + again.events, total + seconds));
                    gate::check_same(&label, "threaded and serial reports", report, &again)
                }
                Err(e) => Err(format!("{label}: serial replay failed: {e}")),
            });
        }
        for check in checks {
            if let Err(e) = check {
                failed[i] = replayed.passes as u64;
                errors.push(e);
            }
        }
    }
    serial
}

/// The modelled results of the workload's reports. Counts are summed; a
/// p99 is taken per report and the geometric mean over the reports that
/// have one is reported, so one seed's extreme tail in one scenario does
/// not swing the figure of a multi-scenario workload.
fn sim_metrics(reports: &[Option<ScenarioReport>]) -> Vec<(&'static str, f64)> {
    let reports: Vec<&ScenarioReport> = reports.iter().flatten().collect();
    let admitted: u64 = reports.iter().map(|r| r.admitted).sum();
    let rejected: u64 = reports.iter().map(|r| r.rejected).sum();
    let p99 = |pick: fn(&ScenarioReport) -> Option<&Summary>| {
        let p99s: Vec<f64> = reports
            .iter()
            .filter_map(|r| pick(r))
            .map(|s| s.percentile(99.0))
            .collect();
        match p99s.as_slice() {
            [] => 0.0,
            [only] => *only,
            _ => (p99s.iter().map(|p| p.ln()).sum::<f64>() / p99s.len() as f64).exp(),
        }
    };
    vec![
        (
            "sim_admit_ratio",
            admitted as f64 / (admitted + rejected).max(1) as f64,
        ),
        ("sim_scaleup_p99_s", p99(|r| r.scale_up_delay.as_ref())),
        ("sim_read_p99_ns", p99(|r| r.read_latency.as_ref())),
        (
            "sim_bricks_off",
            reports.iter().map(|r| r.bricks_powered_off).sum::<u64>() as f64,
        ),
    ]
}

/// What the drive passes produced.
struct Drove {
    /// Fastest self time per call for every span name, and its call count.
    per_call: BTreeMap<&'static str, (u64, f64)>,
    counts: DriveCounts,
    /// The first pass's spans, written out at the end.
    first: Tracer,
}

/// Runs the per-layer drive until `seconds` have passed (at least twice);
/// keeps each call's fastest per-pass mean self time. Every pass must make
/// the same calls with the same outcomes.
fn drive_passes(jobs: &[Job], seconds: f64, errors: &mut Vec<String>) -> Drove {
    let mut drove: Option<Drove> = None;
    let start = Instant::now();
    let mut passes = 0;
    while passes < 2 || secs_since(start) < seconds {
        let mut tracer = Tracer::new();
        let mut counts = DriveCounts::default();
        drive::drive(jobs, &mut tracer, &mut counts);
        let times: BTreeMap<&'static str, SelfTime> = tracer.self_times();
        match drove.as_mut() {
            None => {
                drove = Some(Drove {
                    per_call: times
                        .iter()
                        .map(|(k, t)| (*k, (t.calls, t.ns_per_call())))
                        .collect(),
                    counts,
                    first: tracer,
                });
            }
            Some(d) => {
                let same_calls = d.per_call.len() == times.len()
                    && times
                        .iter()
                        .all(|(k, t)| d.per_call.get(k).map(|p| p.0) == Some(t.calls));
                if !same_calls || d.counts != counts {
                    errors.push("the per-layer drive is not deterministic".to_owned());
                }
                for (k, t) in &times {
                    if let Some(entry) = d.per_call.get_mut(k) {
                        entry.1 = entry.1.min(t.ns_per_call());
                    }
                }
            }
        }
        passes += 1;
    }
    drove.expect("at least one drive pass ran")
}

/// Fills the per-layer metrics of a traced run.
fn layer_metrics(
    results: &mut Results,
    jobs: &[Job],
    replayed: &Replayed,
    tracer: &mut Tracer,
    drove: &Drove,
    serial: Option<(u64, f64)>,
) {
    // Summaries and rendering are timed once more here, on the first
    // pass's reports, under their own spans.
    let mut samples = 0u64;
    let mut rendered_bytes = 0u64;
    for report in replayed.reports.iter().flatten() {
        for summary in summaries(report) {
            let values: Vec<f64> = summary.iter_sorted().collect();
            samples += values.len() as u64;
            tracer.span("sim.summary", || Summary::from_samples(&values));
        }
        rendered_bytes += tracer.span("report.render", || render(report)).len() as u64;
    }
    let run_times = tracer.self_times();

    let calls = |name: &str| drove.per_call.get(name).map_or(0, |p| p.0);
    let per_call = |name: &str| drove.per_call.get(name).map_or(0.0, |p| p.1);
    let fail_ratio = |name: &str| {
        let fails = drove.counts.fails.get(name).copied().unwrap_or(0);
        fails as f64 / calls(name).max(1) as f64
    };
    for layer in [
        "workload.generate",
        "core.build",
        "orchestrator.route",
        "orchestrator.upsert",
        "core.allocate_vm",
        "core.release_vm",
        "memory.pool_allocate",
        "memory.pool_release",
        "softstack.scale_up",
        "softstack.scale_down",
        "core.migrate_vm",
        "core.power_sweep",
        "interconnect.read_latency",
        "interconnect.charge_queueing",
        "snap.capture",
        "snap.encode",
        "snap.restore",
    ] {
        results.set(&format!("{layer}.calls"), calls(layer) as f64);
        results.set(&format!("{layer}.ns_per_call"), per_call(layer));
        let fail = format!("{layer}.fail_ratio");
        if metrics::lookup(&fail).is_some() {
            results.set(&fail, fail_ratio(layer));
        }
    }
    let (routed, spilled) = replayed
        .reports
        .iter()
        .flatten()
        .filter_map(|r| r.cluster.as_ref())
        .fold((0u64, 0u64), |(a, s), c| {
            (a + c.routed_admissions, s + c.spillovers)
        });
    results.set(
        "orchestrator.route.spill_ratio",
        spilled as f64 / routed.max(1) as f64,
    );
    results.set(
        "core.power_sweep.bricks_off",
        drove.counts.bricks_off as f64,
    );
    results.set("snap.encode.bytes", drove.counts.encode_bytes as f64);

    let summary = run_times.get("sim.summary").copied().unwrap_or_default();
    results.set("sim.summary.calls", summary.calls as f64);
    results.set("sim.summary.ns_per_call", summary.ns_per_call());
    results.set("sim.summary.samples", samples as f64);
    let rendering = run_times.get("report.render").copied().unwrap_or_default();
    results.set("report.render.calls", rendering.calls as f64);
    results.set("report.render.ns_per_call", rendering.ns_per_call());
    results.set("report.render.bytes", rendered_bytes as f64);

    let times = &replayed.times;
    let traced_replay_s = times.fastest(&times.replay, true);
    let events = replayed.events();
    let per_event = |seconds: f64, events: u64| seconds * 1e9 / events.max(1) as f64;
    results.set("sim.replay.calls", jobs.len() as f64);
    results.set("sim.replay.events", events as f64);
    results.set(
        "sim.replay.ns_per_event",
        per_event(traced_replay_s, events),
    );
    // Serial workloads' replays are serial already; a threaded workload's
    // serial figure comes from its threads = 1 cross-check replay.
    let (serial_events, serial_s) = serial.unwrap_or((events, traced_replay_s));
    results.set("sim.replay_serial.events", serial_events as f64);
    results.set(
        "sim.replay_serial.ns_per_event",
        per_event(serial_s, serial_events),
    );
    results.set(
        "trace.overhead_s",
        times.normalised(&times.replay, true, true) - times.normalised(&times.replay, false, true),
    );
}

/// Every sample summary a report carries.
fn summaries(report: &ScenarioReport) -> Vec<&Summary> {
    let mut out: Vec<&Summary> = [
        &report.scale_up_delay,
        &report.read_latency,
        &report.pool_utilization,
        &report.migration_downtime,
        &report.precopy_counterfactual,
        &report.scaleout_counterfactual,
        &report.control_plane_wait,
        &report.offload_time,
        &report.offload_local_counterfactual,
        &report.accel_utilization,
    ]
    .into_iter()
    .flatten()
    .collect();
    if let Some(a) = &report.availability {
        out.extend(a.blast_radius.iter().chain(&a.mttr));
    }
    if let Some(d) = &report.data_path {
        out.extend(&d.queue_delay);
    }
    out
}

/// Peak resident memory of this process in MB (`VmHWM`), 0 if unknown.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib * 1024.0 / 1e6)
}

/// Where traced runs write their spans: under the Cargo target directory.
fn trace_dir() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| Path::new(env!("CARGO_MANIFEST_DIR")).join("target"));
    target.join("perfbench-trace")
}

/// The commit the repository checkout is at, read from `.git` without
/// running git; "unknown" outside a git checkout.
pub fn commit() -> String {
    let git = Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let read = |p: PathBuf| std::fs::read_to_string(p).ok().map(|s| s.trim().to_owned());
    let Some(head) = read(git.join("HEAD")) else {
        return "unknown".to_owned();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(git.join(reference))
        .or_else(|| {
            read(git.join("packed-refs"))?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_owned)
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

/// The host-shape tag printed with every result, with the fastest raw
/// host seconds of each phase and the median probe.
fn host_line(args: &Args, jobs: &[Job], times: &PassTimes) -> String {
    let cores = std::thread::available_parallelism().map_or(0, usize::from);
    let mut seeds: Vec<u64> = jobs.iter().map(|j| j.seed).collect();
    seeds.dedup();
    let workers = jobs.iter().map(|j| j.threads).max().unwrap_or(1);
    format!(
        "host {{\"available_parallelism\": {cores}, \"workload\": \"{}\", \"seeds\": {seeds:?}, \
         \"workers\": {workers}, \"held_out_seed\": {}, \"commit\": \"{}\", \"passes\": {}, \
         \"trace\": {}, \"probe_median_s\": {:.6}, \"fastest_setup_s\": {:.6}, \
         \"fastest_replay_s\": {:.6}, \"fastest_render_s\": {:.6}}}",
        args.workload,
        workload::HELD_OUT_SEED,
        commit(),
        times.replay.len(),
        args.trace,
        median(times.probes.clone()),
        times.fastest(&times.setup, false),
        times.fastest(&times.replay, false),
        times.fastest(&times.render, false),
    )
}

/// Deterministic outputs of the run, identical between traced and
/// untraced runs of one workload and seed.
fn check_line(replayed: &Replayed) -> String {
    let sims: Vec<String> = sim_metrics(&replayed.reports)
        .into_iter()
        .map(|(k, v)| format!("\"{k}\": {v:?}"))
        .collect();
    format!(
        "check {{\"events\": {}, \"report_bytes\": {}, {}}}",
        replayed.events(),
        replayed.report_bytes(),
        sims.join(", ")
    )
}
