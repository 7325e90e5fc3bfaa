//! CI's shell steps run under `bash -e`: a `run:` step without `shell:`
//! stops at its first command that exits non-zero. A probe written as
//! `cmd; code=$?` therefore never reads its status when `cmd` fails as
//! expected: the step ends there, silently, and every check after it is
//! skipped. Probes read an expected failure as `code=0; cmd || code=$?`.

use std::path::PathBuf;

/// A line that reads `$?` after a command `bash -e` has already aborted on.
fn reads_status_too_late(line: &str) -> bool {
    let line = line.trim();
    line == "code=$?" || line.ends_with("; code=$?")
}

#[test]
fn ci_reads_no_exit_status_after_bash_e_has_aborted() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../.github/workflows/ci.yml");
    let ci = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    let late: Vec<String> = ci
        .lines()
        .enumerate()
        .filter(|(_, line)| reads_status_too_late(line))
        .map(|(i, line)| format!("ci.yml:{}: {}", i + 1, line.trim()))
        .collect();
    assert!(
        late.is_empty(),
        "write `code=0; cmd || code=$?` instead:\n{}",
        late.join("\n")
    );
    assert!(
        ci.contains("|| code=$?"),
        "the probes went missing from ci.yml"
    );
}

#[test]
fn the_guard_tells_a_late_status_read_from_a_guarded_one() {
    assert!(reads_status_too_late("            code=$?"));
    assert!(reads_status_too_late("timeout 30 \"$BIN\" x; code=$?"));
    assert!(!reads_status_too_late("timeout 30 \"$BIN\" x || code=$?"));
    assert!(!reads_status_too_late("code=0"));
}
