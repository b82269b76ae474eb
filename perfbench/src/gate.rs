//! The correctness gate. A replay that fails any check counts as a failed
//! operation and makes the benchmark exit non-zero.

use std::path::{Path, PathBuf};

use dredbox::prelude::*;

/// The committed goldens, `tests/golden/` at the repository root.
pub fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../tests/golden")
}

/// Compares `rendered` byte for byte with `<dir>/<label>.txt`. Only reads.
///
/// # Errors
///
/// Describes the first differing byte, or the unreadable file.
pub fn check_golden(dir: &Path, label: &str, rendered: &str) -> Result<(), String> {
    let path = dir.join(format!("{label}.txt"));
    let golden = std::fs::read(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    if golden == rendered.as_bytes() {
        return Ok(());
    }
    let at = golden
        .iter()
        .zip(rendered.as_bytes())
        .position(|(a, b)| a != b)
        .unwrap_or_else(|| golden.len().min(rendered.len()));
    Err(format!(
        "{label}: report differs from {} at byte {at} ({} golden bytes, {} rendered)",
        path.display(),
        golden.len(),
        rendered.len()
    ))
}

/// Two replays of one job must give equal reports: a timed pass and the
/// first pass, or a threaded and a serial replay. `what` names the pair.
///
/// # Errors
///
/// Names the replay whose reports differ.
pub fn check_same(
    label: &str,
    what: &str,
    first: &ScenarioReport,
    again: &ScenarioReport,
) -> Result<(), String> {
    if first == again {
        Ok(())
    } else {
        Err(format!("{label}: {what} differ"))
    }
}

/// Rolling upgrades must neither lose pooled bytes nor restore a system that
/// differs from the captured one.
///
/// # Errors
///
/// Names the broken invariant.
pub fn check_upgrade(label: &str, report: &ScenarioReport) -> Result<(), String> {
    let Some(availability) = &report.availability else {
        return Ok(());
    };
    if availability.upgrade_lost_bytes != 0 {
        return Err(format!(
            "{label}: rolling upgrade lost {} pooled bytes",
            availability.upgrade_lost_bytes
        ));
    }
    if availability.upgrade_restore_mismatches != 0 {
        return Err(format!(
            "{label}: {} upgrade stages restored a different system",
            availability.upgrade_restore_mismatches
        ));
    }
    Ok(())
}
