//! Regenerates the golden scenario-report snapshots under `tests/golden/`.
//!
//! Each snapshot is the full `Debug` representation plus the rendered table
//! of one extended-suite scenario report at a fixed seed. The
//! `tests/scenario_engine.rs` bit-determinism regression compares live runs
//! against these files byte for byte, so any engine or control-plane change
//! that shifts a single report bit fails loudly.
//!
//! It also writes `failure-storm-1rack-{seed}.txt`: the failure storm
//! replayed on one rack, the only check on single-rack fault recovery (the
//! suite's own failure storm federates two racks).
//!
//! Run with: `cargo run --release --example golden`
//!
//! Only run this intentionally — overwriting the snapshots redefines the
//! baseline the regression tests hold the engine to.

use dredbox::prelude::*;

fn main() -> Result<(), SystemError> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden");
    std::fs::create_dir_all(&dir).expect("create tests/golden");
    let mut one_rack_storm = ScenarioSpec::failure_storm();
    one_rack_storm.system.racks = 1;
    let goldens = ScenarioSpec::extended_suite()
        .into_iter()
        .map(|spec| (spec.name.clone(), spec))
        .chain([("failure-storm-1rack".to_owned(), one_rack_storm)]);
    for (file, spec) in goldens {
        for seed in [2018u64, 7] {
            let report = spec.run(seed)?;
            let path = dir.join(format!("{file}-{seed}.txt"));
            let contents = format!("{report:#?}\n{report}");
            std::fs::write(&path, contents).expect("write golden snapshot");
            println!("wrote {}", path.display());
        }
    }
    Ok(())
}
