//! Self-tests of the benchmark's correctness gate and result line.
//!
//! Run with `cargo test --manifest-path perfbench/Cargo.toml`.

use std::path::{Path, PathBuf};

use dredbox::prelude::*;
use dredbox_perfbench::metrics::{self, Better, Results, END_TO_END, PER_LAYER};
use dredbox_perfbench::{gate, parse_args, run, workload, Args};

/// The end-to-end metric names the benchmark is specified with.
const SPEC_END_TO_END: [&str; 9] = [
    "replay_s",
    "setup_s",
    "render_s",
    "peak_rss_mb",
    "report_mb",
    "sim_admit_ratio",
    "sim_scaleup_p99_s",
    "sim_read_p99_ns",
    "sim_bricks_off",
];

/// The `<crate>.<call>` layers the benchmark is specified to trace, plus
/// the tracing overhead.
const SPEC_LAYERS: [&str; 21] = [
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
    "sim.summary",
    "report.render",
    "sim.replay",
    "trace.overhead_s",
];

fn repo_file(relative: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join(relative)
}

/// A scratch directory of this test binary, under the Cargo target dir.
fn scratch(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("perfbench-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

#[test]
fn golden_check_trips_on_a_one_byte_change_to_a_tampered_copy() {
    let label = "steady-state-2018";
    let committed = gate::golden_dir().join(format!("{label}.txt"));
    let before = std::fs::read(&committed).expect("committed golden");
    let report = ScenarioSpec::steady_state().run(2018).expect("replay");
    let rendered = workload::render(&report);

    let dir = scratch("golden");
    let copy = dir.join(format!("{label}.txt"));
    std::fs::write(&copy, &before).expect("write copy");
    assert_eq!(gate::check_golden(&dir, label, &rendered), Ok(()));

    let mut tampered = before.clone();
    let at = tampered.len() / 2;
    tampered[at] ^= 1;
    std::fs::write(&copy, &tampered).expect("tamper copy");
    let err = gate::check_golden(&dir, label, &rendered).expect_err("tampered copy must trip");
    assert!(err.contains(&format!("at byte {at}")), "{err}");

    std::fs::remove_dir_all(&dir).expect("clean scratch dir");
    assert_eq!(
        std::fs::read(&committed).expect("committed golden"),
        before,
        "the gate only reads the committed goldens"
    );
}

#[test]
fn determinism_and_upgrade_checks_trip_on_a_changed_report() {
    let report = ScenarioSpec::steady_state().run(7).expect("replay");
    let mut drifted = report.clone();
    drifted.events += 1;
    assert!(gate::check_same("x", "reports", &report, &report).is_ok());
    assert!(gate::check_same("x", "reports", &report, &drifted).is_err());

    let mut upgraded = ScenarioSpec::rolling_upgrade().run(2018).expect("replay");
    assert!(gate::check_upgrade("x", &upgraded).is_ok());
    upgraded
        .availability
        .as_mut()
        .expect("rolling upgrades report availability")
        .upgrade_lost_bytes = 1;
    assert!(gate::check_upgrade("x", &upgraded).is_err());
}

#[test]
fn the_catalogue_holds_exactly_the_specified_metrics() {
    let names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
    assert_eq!(names, SPEC_END_TO_END);
    for metric in PER_LAYER {
        assert!(
            SPEC_LAYERS
                .iter()
                .any(|layer| metric.name.starts_with(&format!("{layer}."))
                    || metric.name == *layer
                    || metric.name.starts_with("sim.replay_serial.")),
            "{} names no specified layer",
            metric.name
        );
    }
    for layer in SPEC_LAYERS {
        assert!(
            PER_LAYER
                .iter()
                .any(|m| m.name == layer || m.name.starts_with(&format!("{layer}."))),
            "no metric for {layer}"
        );
    }
}

#[test]
fn benchmark_json_declares_every_catalogued_metric_and_workload() {
    let json = std::fs::read_to_string(repo_file("BENCHMARK.json")).expect("BENCHMARK.json");
    let compact: String = json.split_whitespace().collect();
    for (section, catalogue) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
        assert!(compact.contains(&format!("\"{section}\":[")));
        for metric in catalogue {
            let better = match metric.better {
                Better::Lower => "lower",
                Better::Higher => "higher",
            };
            let entry = format!(
                "{{\"name\":\"{}\",\"unit\":\"{}\",\"better\":\"{better}\"",
                metric.name, metric.unit
            );
            assert!(compact.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
    }
    for name in workload::WORKLOADS {
        assert!(compact.contains(&format!("{{\"name\":\"{name}\",\"why\":")));
    }
}

/// Checks the result line and returns the metric names it printed.
fn printed_metrics(line: &str) -> Vec<String> {
    assert!(
        line.starts_with("{\"correct\": true, \"attempted\": "),
        "{line}"
    );
    let metrics = line.split_once("\"metrics\": {").expect("metrics object").1;
    let mut names = Vec::new();
    for entry in metrics.split("}, ") {
        let (name, rest) = entry
            .trim_start_matches('"')
            .split_once("\": {\"value\": ")
            .expect("name then value");
        let metric = metrics::lookup(name).unwrap_or_else(|| panic!("{name} is not catalogued"));
        assert!(
            rest.contains(&format!("\"unit\": \"{}\"", metric.unit)),
            "{name} printed without its unit"
        );
        names.push(name.to_owned());
    }
    names
}

#[test]
fn every_printed_metric_is_catalogued_with_a_unit_and_direction() {
    for trace in [false, true] {
        let args = Args {
            workload: "rack-mix".to_owned(),
            seed: 2018,
            seconds: 0.0,
            trace,
        };
        let run = run(&args);
        assert!(run.correct(), "{:?}", run.errors);
        assert_eq!(run.failed, 0);
        assert!(run.attempted >= 24);
        let printed = printed_metrics(&run.results.json(run.correct(), run.attempted, run.failed));
        let catalogue = if trace { PER_LAYER } else { END_TO_END };
        let expected: Vec<&str> = catalogue.iter().map(|m| m.name).collect();
        let mut printed_sorted = printed.clone();
        printed_sorted.sort();
        let mut expected_sorted = expected.clone();
        expected_sorted.sort();
        assert_eq!(printed_sorted, expected_sorted);
        if !trace {
            for (metric, value) in run.results.iter() {
                assert!(value > 0.0, "{} must never read 0", metric.name);
            }
        }
    }
}

#[test]
fn results_refuse_uncatalogued_names() {
    let mut results = Results::default();
    results.set("replay_s", 1.0);
    let refused = std::panic::catch_unwind(move || results.set("made_up_s", 1.0));
    assert!(refused.is_err());
}

#[test]
fn the_command_line_is_checked() {
    let args = |v: &[&str]| parse_args(v.iter().map(|s| (*s).to_owned()));
    let parsed = args(&[
        "--workload",
        "fed64",
        "--seed",
        "3",
        "--seconds",
        "5",
        "--trace",
        "1",
    ])
    .expect("valid");
    assert_eq!(parsed.seed, 3);
    assert!(parsed.trace);
    assert_eq!(args(&["--workload", "fed64"]).expect("defaults").seed, 2018);
    assert!(args(&["--workload", "nope"]).is_err());
    assert!(args(&["--workload", "fed64", "--trace", "2"]).is_err());
    assert!(args(&["--workload", "fed64", "--seconds"]).is_err());
    assert!(args(&["--bogus", "1"]).is_err());
}

#[test]
fn rack_mix_pairs_the_golden_seeds_and_the_held_out_seed_skips_goldens() {
    let jobs = workload::jobs("rack-mix", workload::DEFAULT_SEED).expect("known");
    assert_eq!(jobs.len(), 24);
    assert!(jobs.iter().all(|j| j.golden && j.spec.name != "datacenter"));
    assert!(jobs.iter().any(|j| j.seed == 7));
    let held_out = workload::jobs("fed16-t2", workload::HELD_OUT_SEED).expect("known");
    assert!(held_out.iter().all(|j| !j.golden && j.threads == 2));
    assert!(!workload::GOLDEN_SEEDS.contains(&workload::HELD_OUT_SEED));
}
