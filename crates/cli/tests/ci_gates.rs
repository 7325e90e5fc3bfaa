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

/// Runs the ci.yml step named `step` as CI runs it (`bash -eo pipefail`)
/// against the `mjoin-cli` this test suite built, and returns the script
/// as run and its stdout. The step's `BIN=target/release/mjoin-cli` line
/// is pointed at that binary and its `cargo build` lines are dropped. It
/// runs in the scratch directory `scratch` under `CARGO_TARGET_TMPDIR`,
/// which links the repository's `examples/` and `tests/`, so the files it
/// writes land there. The step must exit 0 and print no `FAIL` line.
#[cfg(unix)]
fn run_step_against_the_built_binary(step: &str, scratch: &str) -> (String, String) {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let ci = std::fs::read_to_string(root.join(".github/workflows/ci.yml")).expect("read ci.yml");
    let script = step_script(&ci, step);
    let bin_line = "BIN=target/release/mjoin-cli";
    assert_eq!(
        script.matches(bin_line).count(),
        1,
        "step {step:?} no longer sets {bin_line}"
    );
    let script = script
        .lines()
        .filter(|line| !line.trim_start().starts_with("cargo build"))
        .collect::<Vec<_>>()
        .join("\n")
        .replace(
            bin_line,
            &format!("BIN='{}'", env!("CARGO_BIN_EXE_mjoin-cli")),
        );

    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(scratch);
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
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    let report = format!("{stdout}\n{}", String::from_utf8_lossy(&out.stderr));
    assert!(
        out.status.success(),
        "step {step:?} failed ({}):\n{report}",
        out.status
    );
    assert!(!stdout.lines().any(|l| l.starts_with("FAIL")), "{report}");
    let _ = std::fs::remove_dir_all(&dir);
    (script, stdout)
}

/// CI's `fault-injection-smoke` step against the built binary: every
/// failpoint the CLI can reach exits 1 naming its site, the budgeted run
/// names its rung, and the chain-40 probes exit 0.
#[cfg(unix)]
#[test]
fn fault_injection_smoke_step_passes_against_the_built_binary() {
    let (script, stdout) =
        run_step_against_the_built_binary("Fault-injection smoke test", "fault-injection-smoke");
    let checks = script
        .lines()
        .filter(|l| l.trim_start().starts_with("check "))
        .count();
    let oks: Vec<&str> = stdout.lines().filter(|l| l.starts_with("ok ")).collect();
    assert_eq!(oks.len(), checks + 3, "one `ok` line per probe:\n{stdout}");
    for site in mjoin::failpoints::SITES
        .iter()
        .filter(|s| !s.starts_with("serve::"))
    {
        let ok = format!("ok   {site} (");
        assert!(
            oks.iter().any(|l| l.starts_with(&ok)),
            "no probe of {site}:\n{stdout}"
        );
    }
    for probe in [
        "ok   budgeted optimize reports the answering rung",
        "ok   optimize chain40 nocp at one thread",
        "ok   analyze chain40 exits 0",
    ] {
        assert!(oks.contains(&probe), "missing {probe:?}:\n{stdout}");
    }
}

/// The `store` job's warm-start step against the built binary: the warm
/// replay is byte-identical with the DP failpoint armed, a corrupt store
/// is a typed error, both store failpoints exit 1, and a 70-relation
/// chain saves and replays. Besides `bash`, `timeout` and `grep`, the
/// step needs `cmp` and `python3` on `PATH`.
#[cfg(unix)]
#[test]
fn store_smoke_step_passes_against_the_built_binary() {
    let (_, stdout) = run_step_against_the_built_binary(
        "Warm-start bit-identity + store failpoint smoke",
        "store-smoke",
    );
    let oks: Vec<&str> = stdout.lines().filter(|l| l.starts_with("ok ")).collect();
    for probe in [
        "ok   warm replay is byte-identical and skips the DP",
        "ok   store inspect",
        "ok   70-relation chain saves and replays",
        "ok   corrupt store is a typed error",
        "ok   store::load",
        "ok   store::save",
    ] {
        assert!(oks.contains(&probe), "missing {probe:?}:\n{stdout}");
    }
    assert_eq!(oks.len(), 6, "one `ok` line per probe:\n{stdout}");
}

/// Whether a Cargo manifest links `mjoin-reference`: names it in a
/// `[dependencies]` table (or a target-specific one), or has a
/// `[dependencies.mjoin-reference]` table. `[dev-dependencies]`,
/// `[build-dependencies]` and `[workspace.dependencies]` link nothing.
fn links_the_reference_crate(manifest: &str) -> bool {
    let mut linked_table = false;
    for line in manifest.lines().map(str::trim) {
        if line.starts_with('#') {
            continue;
        }
        if let Some(header) = line.strip_prefix('[') {
            let header = header.trim_end_matches(']').trim();
            let (table, entry) = match header.rsplit_once(".dependencies.") {
                Some((table, entry)) => (format!("{table}.dependencies"), Some(entry)),
                None => match header.strip_prefix("dependencies.") {
                    Some(entry) => ("dependencies".to_string(), Some(entry)),
                    None => (header.to_string(), None),
                },
            };
            let linking = table == "dependencies"
                || (table.starts_with("target.") && table.ends_with(".dependencies"));
            if linking && entry.is_some_and(|e| e.trim_matches(['"', '\'']) == "mjoin-reference") {
                return true;
            }
            linked_table = linking && entry.is_none();
        } else if linked_table && line.contains("mjoin-reference") {
            return true;
        }
    }
    false
}

/// Reference implementations are test and bench code: outside
/// `[dev-dependencies]` only `mjoin-bench` may depend on `mjoin-reference`,
/// so none of it links into the `mjoin-cli` binary, the daemon or
/// `benchmark/`.
#[test]
fn only_the_bench_crate_links_the_reference_crate() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut manifests = vec![root.join("Cargo.toml")];
    let crates = std::fs::read_dir(root.join("crates")).expect("read crates/");
    manifests.extend(
        crates
            .map(|entry| entry.expect("crates/ entry").path().join("Cargo.toml"))
            .filter(|manifest| manifest.is_file()),
    );
    assert!(manifests.len() > 10, "found only {manifests:?}");
    let bench = root.join("crates/bench/Cargo.toml");
    let linking: Vec<String> = manifests
        .iter()
        .filter(|&manifest| *manifest != bench)
        .filter(|manifest| {
            let text = std::fs::read_to_string(manifest)
                .unwrap_or_else(|e| panic!("{}: {e}", manifest.display()));
            links_the_reference_crate(&text)
        })
        .map(|manifest| manifest.display().to_string())
        .collect();
    assert!(
        linking.is_empty(),
        "mjoin-reference belongs under [dev-dependencies] in:\n{}",
        linking.join("\n")
    );
}

#[test]
fn the_reference_guard_tells_linked_tables_from_the_others() {
    for linked in [
        "[dependencies]\nmjoin-reference.workspace = true\n",
        "[dependencies]\nmjoin-reference = { path = \"../reference\" }\n",
        "[dependencies]\nref = { package = \"mjoin-reference\", path = \"x\" }\n",
        "[target.'cfg(unix)'.dependencies]\nmjoin-reference.workspace = true\n",
        "[dependencies.mjoin-reference]\nworkspace = true\n",
        "[dev-dependencies]\n[dependencies]\nmjoin-reference.workspace = true\n",
    ] {
        assert!(links_the_reference_crate(linked), "{linked}");
    }
    for unlinked in [
        "[dev-dependencies]\nmjoin-reference.workspace = true\n",
        "[build-dependencies]\nmjoin-reference.workspace = true\n",
        "[workspace.dependencies]\nmjoin-reference = { path = \"crates/reference\" }\n",
        "[dependencies]\n# mjoin-reference.workspace = true\nmjoin-obs.workspace = true\n",
        "[dependencies]\nmjoin-obs.workspace = true\n[dev-dependencies]\nmjoin-reference.workspace = true\n",
        "[dev-dependencies.mjoin-reference]\nworkspace = true\n",
        "[package]\ndescription = \"mjoin-reference\"\n",
    ] {
        assert!(!links_the_reference_crate(unlinked), "{unlinked}");
    }
}
