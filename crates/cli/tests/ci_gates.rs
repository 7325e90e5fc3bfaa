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

/// The body of the `run: |` block of the ci.yml step named `step`, with
/// the block's indentation removed.
fn step_script(ci: &str, step: &str) -> String {
    let mut lines = ci
        .lines()
        .skip_while(|line| line.trim() != format!("- name: {step}"))
        .skip(1);
    let run = lines
        .next()
        .unwrap_or_else(|| panic!("no step {step:?} in ci.yml"));
    assert_eq!(
        run.trim(),
        "run: |",
        "step {step:?} is not a `run: |` block"
    );
    let key_indent = run.len() - run.trim_start().len();
    let body: Vec<&str> = lines
        .take_while(|line| {
            line.trim().is_empty() || line.len() - line.trim_start().len() > key_indent
        })
        .collect();
    let indent = body
        .iter()
        .filter(|line| !line.trim().is_empty())
        .map(|line| line.len() - line.trim_start().len())
        .min()
        .unwrap_or(0);
    body.iter()
        .map(|line| line.get(indent..).unwrap_or(""))
        .collect::<Vec<_>>()
        .join("\n")
}

/// CI's `fault-injection-smoke` step, run as CI runs it (`bash -eo
/// pipefail`) against the binary this test suite built: every failpoint
/// the CLI can reach exits 1 naming its site, the budgeted run names its
/// rung, and the chain-40 probes exit 0. The step runs in a scratch
/// directory that links the repository's `examples/` and `tests/`, so its
/// `err.txt` lands there.
#[cfg(unix)]
#[test]
fn fault_injection_smoke_step_passes_against_the_built_binary() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let ci = std::fs::read_to_string(root.join(".github/workflows/ci.yml")).expect("read ci.yml");
    let script = step_script(&ci, "Fault-injection smoke test");
    let bin_line = "BIN=target/release/mjoin-cli";
    assert_eq!(
        script.matches(bin_line).count(),
        1,
        "the step no longer sets {bin_line}"
    );
    let script = script.replace(
        bin_line,
        &format!("BIN='{}'", env!("CARGO_BIN_EXE_mjoin-cli")),
    );

    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("fault-injection-smoke");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    for linked in ["examples", "tests"] {
        std::os::unix::fs::symlink(root.join(linked).canonicalize().unwrap(), dir.join(linked))
            .expect("link into the scratch dir");
    }
    std::fs::write(dir.join("step.sh"), &script).expect("write step.sh");
    let out = std::process::Command::new("bash")
        .args(["--noprofile", "--norc", "-eo", "pipefail", "step.sh"])
        .current_dir(&dir)
        .env_remove("MJOIN_FAIL_INJECT")
        .output()
        .expect("run bash");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let report = format!("{stdout}\n{}", String::from_utf8_lossy(&out.stderr));
    assert!(
        out.status.success(),
        "the step failed ({}):\n{report}",
        out.status
    );
    assert!(!stdout.lines().any(|l| l.starts_with("FAIL")), "{report}");

    let checks = script
        .lines()
        .filter(|l| l.trim_start().starts_with("check "))
        .count();
    let oks: Vec<&str> = stdout.lines().filter(|l| l.starts_with("ok ")).collect();
    assert_eq!(oks.len(), checks + 3, "one `ok` line per probe:\n{report}");
    for site in mjoin::failpoints::SITES
        .iter()
        .filter(|s| !s.starts_with("serve::"))
    {
        let ok = format!("ok   {site} (");
        assert!(
            oks.iter().any(|l| l.starts_with(&ok)),
            "no probe of {site}:\n{report}"
        );
    }
    for probe in [
        "ok   budgeted optimize reports the answering rung",
        "ok   optimize chain40 nocp at one thread",
        "ok   analyze chain40 exits 0",
    ] {
        assert!(oks.contains(&probe), "missing {probe:?}:\n{report}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
