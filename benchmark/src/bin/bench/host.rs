//! Where things are and what they ran on: the daemon binary (built from
//! this checkout on demand), and the metadata every output records.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use mjoin_benchmark::gen::Workload;
use mjoin_benchmark::json::Json;

/// The benchmark's own directory, relative to the repository root every
/// command is run from.
const BENCH_DIR: &str = "benchmark";

/// `benchmark/out/`, created on demand: everything a run writes goes here.
pub fn out_dir() -> Result<PathBuf, String> {
    let dir = Path::new(BENCH_DIR).join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(dir)
}

/// `benchmark/expected/<workload>.tau.json`: the pinned costs `bless` writes
/// and every default-seed run checks.
pub fn tau_file(workload: Workload) -> PathBuf {
    Path::new(BENCH_DIR)
        .join("expected")
        .join(format!("{}.tau.json", workload.name()))
}

/// Fails unless the working directory is the repository root.
pub fn require_repo_root() -> Result<(), String> {
    for needed in [
        "Cargo.toml",
        "crates/cli/Cargo.toml",
        "benchmark/Cargo.toml",
    ] {
        if !Path::new(needed).is_file() {
            return Err(format!(
                "{needed} not found: run the benchmark from the root of the repository"
            ));
        }
    }
    Ok(())
}

fn cargo_build(args: &[&str]) -> Result<(), String> {
    let status = Command::new("cargo")
        .args(["build", "--release", "--offline"])
        .args(args)
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if status.success() {
        Ok(())
    } else {
        Err(format!("cargo build {} failed ({status})", args.join(" ")))
    }
}

/// Builds the shipped `mjoin-cli` from this checkout (a no-op when it is
/// fresh) and returns the binary's path.
pub fn build_daemon() -> Result<PathBuf, String> {
    cargo_build(&["-p", "mjoin-cli"])?;
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from);
    let binary = target.join("release").join("mjoin-cli");
    if binary.is_file() {
        Ok(binary)
    } else {
        Err(format!("{} was not built", binary.display()))
    }
}

/// Builds `bench_trace` — the one target that links `mjoin*` crates, built
/// only when a trace is asked for — next to the running `bench`.
pub fn build_trace_binary() -> Result<PathBuf, String> {
    cargo_build(&[
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--bin",
        "bench_trace",
    ])?;
    let me = std::env::current_exe().map_err(|e| e.to_string())?;
    let binary = me.with_file_name("bench_trace");
    if binary.is_file() {
        Ok(binary)
    } else {
        Err(format!("{} was not built", binary.display()))
    }
}

/// Runs a helper process (the CLI, `bench_trace`) to completion, but not
/// past `deadline`: a child that overstays is killed and reaped, so a
/// wedged commit fails the run instead of hanging it.
pub fn run_bounded(command: &mut Command, deadline: Instant) -> Result<(), String> {
    let name = command.get_program().to_string_lossy().into_owned();
    die_with_parent(command);
    let mut child = command
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .env_remove("MJOIN_THREADS")
        .spawn()
        .map_err(|e| format!("cannot run {name}: {e}"))?;
    loop {
        match child.try_wait() {
            Ok(Some(status)) if status.success() => return Ok(()),
            Ok(Some(status)) => return Err(format!("{name} failed ({status})")),
            Ok(None) if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(1)),
            outcome => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(match outcome {
                    Err(e) => format!("waiting for {name}: {e}"),
                    _ => format!("{name} did not finish in time and was killed"),
                });
            }
        }
    }
}

/// Has the kernel kill the child the moment this process dies, however it
/// dies: `Drop` covers returns and panics, but nothing a process does itself
/// covers a SIGKILL or a SIGTERM it has no handler for, and a benchmark cut
/// short by its driver must not leave a daemon behind.
#[cfg(target_os = "linux")]
pub fn die_with_parent(command: &mut Command) {
    use std::ffi::{c_int, c_ulong};
    use std::os::unix::process::CommandExt;
    extern "C" {
        fn prctl(option: c_int, ...) -> c_int;
    }
    const PR_SET_PDEATHSIG: c_int = 1;
    const SIGKILL: c_ulong = 9;
    // SAFETY: the closure runs in the forked child before `exec`, where only
    // async-signal-safe calls are allowed: `prctl` is a bare system call, it
    // touches no memory of ours and takes no lock. The declaration matches
    // the C prototype `int prctl(int option, ...)`.
    unsafe {
        command.pre_exec(|| {
            prctl(PR_SET_PDEATHSIG, SIGKILL);
            Ok(())
        });
    }
}

#[cfg(not(target_os = "linux"))]
pub fn die_with_parent(_command: &mut Command) {}

/// Pins this process — and with it every child it starts from now on: the
/// daemon, the CLI runs, `bench_trace` — to one CPU, the highest-numbered it
/// is allowed. Returns that CPU, or `None` where pinning is not possible
/// (then the run goes on unpinned, and says so).
///
/// Client and daemon strictly alternate in a closed loop of one, so a second
/// core has nothing to run; what it does add is a coin the scheduler tosses
/// per run. Woken on the core its peer just left, a thread starts at once;
/// woken on the other, idle one, it waits for that core to come out of its
/// sleep state. On a 0.3 ms cache hit that is the difference between a p50
/// of 0.32 and of 0.44 ms, and ten runs of one binary scattered by 29 % in
/// p95 depending on which way the coin fell. No workload got slower on one
/// core. (Call it after the builds: cargo wants every core.)
#[cfg(target_os = "linux")]
pub fn pin_to_one_cpu() -> Option<usize> {
    use std::ffi::c_int;
    extern "C" {
        fn sched_getaffinity(pid: c_int, cpusetsize: usize, mask: *mut u64) -> c_int;
        fn sched_setaffinity(pid: c_int, cpusetsize: usize, mask: *const u64) -> c_int;
    }
    // glibc's `cpu_set_t`: 1024 bits.
    let mut allowed = [0u64; 16];
    // SAFETY: both calls match glibc's prototypes (`pid_t`, `size_t`,
    // `cpu_set_t *`), pid 0 is the calling thread, and each pointer is to a
    // live array of exactly the `cpusetsize` bytes passed with it.
    let got =
        unsafe { sched_getaffinity(0, std::mem::size_of_val(&allowed), allowed.as_mut_ptr()) };
    if got != 0 {
        return None;
    }
    let word = allowed.iter().rposition(|w| *w != 0)?;
    let cpu = word * 64 + 63 - allowed[word].leading_zeros() as usize;
    let mut only = [0u64; 16];
    only[word] = 1 << (cpu % 64);
    // SAFETY: as above.
    let set = unsafe { sched_setaffinity(0, std::mem::size_of_val(&only), only.as_ptr()) };
    (set == 0).then_some(cpu)
}

#[cfg(not(target_os = "linux"))]
pub fn pin_to_one_cpu() -> Option<usize> {
    None
}

fn stdout_of(program: &str, args: &[&str]) -> Option<String> {
    let output = Command::new(program).args(args).output().ok()?;
    output
        .status
        .success()
        .then(|| String::from_utf8_lossy(&output.stdout).trim().to_string())
}

/// FNV-1a-64 of a file's bytes, as 16 hex digits.
fn file_hash(path: &Path) -> Option<String> {
    let bytes = std::fs::read(path).ok()?;
    let hash = bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    });
    Some(format!("{hash:016x}"))
}

/// Host and build metadata: `nproc`, the CPU the run is pinned to, `rustc
/// -V`, the git commit (when the checkout is a repository) and the daemon
/// binary's hash. Pins the process on the way ([`pin_to_one_cpu`]), after
/// counting the CPUs it had before.
pub fn pin_and_describe(daemon: &Path) -> Json {
    let unknown = || "unknown".to_string();
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get() as u64);
    Json::obj(vec![
        ("nproc", Json::Int(nproc)),
        (
            "pinned_cpu",
            pin_to_one_cpu().map_or(Json::Null, |cpu| Json::Int(cpu as u64)),
        ),
        (
            "rustc",
            Json::Str(stdout_of("rustc", &["-V"]).unwrap_or_else(unknown)),
        ),
        (
            "git_commit",
            Json::Str(stdout_of("git", &["rev-parse", "HEAD"]).unwrap_or_else(unknown)),
        ),
        ("daemon_binary", Json::Str(daemon.display().to_string())),
        (
            "daemon_hash",
            Json::Str(file_hash(daemon).unwrap_or_else(unknown)),
        ),
    ])
}
