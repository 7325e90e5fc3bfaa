//! The `mjoin` command-line tool. See the library crate docs for the
//! database file format and commands.
//!
//! Exit codes: 0 on success, 1 on a reported error (bad input, budget
//! exceeded, injected fault), 2 if the pipeline panicked — the
//! `catch_unwind` boundary turns any panic into a diagnostic line instead
//! of a raw abort.

use std::panic::{catch_unwind, AssertUnwindSafe};

fn main() {
    // MJOIN_FAIL_INJECT=site1,site2 arms failpoints before any work runs.
    mjoin::failpoints::init_from_env();
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("serve") {
        share_one_malloc_arena();
    }
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        mjoin_cli::run(&args, |path| {
            std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))
        })
    }));
    match outcome {
        Ok(Ok(report)) => print!("{report}"),
        Ok(Err(e)) => {
            eprintln!("{e}");
            std::process::exit(1);
        }
        Err(payload) => {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "unknown panic".to_string());
            eprintln!("mjoin: internal error: {msg}");
            std::process::exit(2);
        }
    }
}

/// Makes the daemon's threads allocate from one glibc malloc arena.
///
/// A relation is one row-major buffer, so a large join asks the allocator
/// for one block of many megabytes. glibc gives each thread an arena of
/// its own, and once such a block has been freed it keeps blocks of that
/// size in the arenas instead of returning them to the system: its mmap
/// threshold rises to the largest block freed and its trim threshold to
/// twice that. Each worker thread's arena would then keep the largest
/// request it served resident, and the daemon's resident set would grow
/// with its worker count. With one arena the workers reuse each other's
/// freed blocks. Small blocks still come from each thread's own cache,
/// without the arena's lock. The price is paid under concurrent requests:
/// the shared heap is grown and trimmed back more often, and throughput
/// falls below what an arena per thread gives (DESIGN.md, "One malloc
/// arena").
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn share_one_malloc_arena() {
    use std::ffi::c_int;
    extern "C" {
        fn mallopt(param: c_int, value: c_int) -> c_int;
    }
    const M_ARENA_MAX: c_int = -8;
    // SAFETY: `mallopt` only sets an allocator tunable; it is called with
    // glibc's documented parameter code before any thread is spawned.
    unsafe {
        mallopt(M_ARENA_MAX, 1);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn share_one_malloc_arena() {}
