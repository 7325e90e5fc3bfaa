//! Deterministic fault injection, failpoint style.
//!
//! Every registered site calls [`hit`] on its hot path. While no site is
//! armed the cost is a single atomic load; arming a site makes it return
//! [`MjoinError::Internal`] with the site name, letting tests and the CLI
//! prove that every layer propagates typed failures instead of aborting.
//!
//! A site is armed at one of two widths:
//!
//! * **for one thread's run** — [`ScopedFailpoint::arm`]: only the arming
//!   thread, and the workers it hands its [`Scope`] to, see the fault.
//!   Tests running side by side in one binary cannot trip each other;
//! * **process-wide** — [`arm`] / [`disarm`], or the `MJOIN_FAIL_INJECT`
//!   environment variable at process start ([`init_from_env`]): every
//!   thread sees the fault. This is what `--fail-inject` uses, and what a
//!   test needs to reach threads it did not spawn (the serve daemon's);
//!   such tests must run serially ([`ScopedFailpoint::arm_process`]
//!   disarms on drop).

use std::cell::RefCell;
use std::collections::BTreeSet;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use mjoin_obs::Sink;

use crate::MjoinError;

/// All registered failpoint sites, for CLI validation and docs. Keep in
/// sync with the `hit` call sites across the workspace.
pub const SITES: &[&str] = &[
    "cost::materialize",
    "relation::join",
    "optimizer::dp",
    "optimizer::greedy",
    "optimizer::ikkbz",
    "optimizer::lindp",
    "optimizer::partdp",
    "optimizer::exhaustive",
    "semijoin::reduce",
    "core::ladder",
    "adaptive::materialize",
    "adaptive::stage",
    "adaptive::replan",
    "obs::report",
    "serve::accept",
    "serve::decode",
    "serve::enqueue",
    "serve::respond",
    "serve::admit_client",
    "serve::brownout",
    "store::load",
    "store::save",
    "query::parse",
    "query::lower",
];

/// One-line operator-facing description per registered site, in [`SITES`]
/// order. The `failpoints` CLI command renders this table; a guard test
/// keeps it in lockstep with [`SITES`].
pub const SITE_DOCS: &[(&str, &str)] = &[
    (
        "cost::materialize",
        "exact oracle: every τ request, counted or built",
    ),
    ("relation::join", "join kernels: guarded natural join"),
    ("optimizer::dp", "bushy / DPccp dynamic programs"),
    ("optimizer::greedy", "greedy bushy optimizer"),
    ("optimizer::ikkbz", "IK/KBZ linear-order optimizer"),
    ("optimizer::lindp", "IKKBZ-linearized interval-DP optimizer"),
    ("optimizer::partdp", "partitioned DPccp optimizer"),
    ("optimizer::exhaustive", "exhaustive strategy enumeration"),
    ("semijoin::reduce", "semijoin full-reducer passes"),
    ("core::ladder", "degradation-ladder rung dispatch"),
    (
        "adaptive::materialize",
        "adaptive executor: stage input materialization",
    ),
    ("adaptive::stage", "adaptive executor: pipeline stage"),
    (
        "adaptive::replan",
        "adaptive executor: mid-query re-optimization",
    ),
    ("obs::report", "observability: JSON report rendering"),
    ("serve::accept", "serve daemon: connection accept path"),
    ("serve::decode", "serve daemon: request line decode"),
    ("serve::enqueue", "serve daemon: admission-queue submit"),
    ("serve::respond", "serve daemon: response write path"),
    (
        "serve::admit_client",
        "serve daemon: per-client admission (quota/rate) check",
    ),
    (
        "serve::brownout",
        "serve daemon: brownout controller consult",
    ),
    ("store::load", "persistent store: open/validate path"),
    ("store::save", "persistent store: serialize/write path"),
    ("query::parse", "query front end: DSL text parse"),
    (
        "query::lower",
        "query front end: lowering onto the database",
    ),
];

/// Process-wide armed sites plus live thread-scoped arms. Zero — the
/// default — keeps [`hit`] to this one load.
static ARMED: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Sites armed for the calling thread's run only.
    static THREAD_SITES: RefCell<Vec<String>> = const { RefCell::new(Vec::new()) };
}

/// Sites armed process-wide.
static REGISTRY: Mutex<BTreeSet<String>> = Mutex::new(BTreeSet::new());

/// Is `site` one of the registered [`SITES`]?
pub fn is_known(site: &str) -> bool {
    SITES.contains(&site)
}

/// Arms `site` process-wide: its next [`hit`] on any thread returns an
/// injected fault. Unknown sites are accepted (they simply never fire) so
/// arming can precede loading.
pub fn arm(site: &str) {
    let mut reg = REGISTRY.lock().expect("failpoint registry poisoned");
    if reg.insert(site.to_string()) {
        ARMED.fetch_add(1, Ordering::Release);
    }
}

/// Disarms a process-wide `site`.
pub fn disarm(site: &str) {
    let mut reg = REGISTRY.lock().expect("failpoint registry poisoned");
    if reg.remove(site) {
        ARMED.fetch_sub(1, Ordering::Release);
    }
}

/// The sites armed for the calling thread — process-wide ones and its
/// own thread-scoped ones — sorted.
pub fn armed() -> Vec<String> {
    let mut v = THREAD_SITES.with(|sites| sites.borrow().clone());
    v.extend(
        REGISTRY
            .lock()
            .expect("failpoint registry poisoned")
            .iter()
            .cloned(),
    );
    v.sort();
    v.dedup();
    v
}

/// Arms process-wide every site named in the `MJOIN_FAIL_INJECT`
/// environment variable (comma-separated). Returns the sites armed. Call
/// once at process start.
pub fn init_from_env() -> Vec<String> {
    let Ok(spec) = std::env::var("MJOIN_FAIL_INJECT") else {
        return Vec::new();
    };
    let mut out = Vec::new();
    for site in spec.split(',').map(str::trim).filter(|s| !s.is_empty()) {
        arm(site);
        out.push(site.to_string());
    }
    out
}

/// The check every registered site runs. Free (one atomic load) until
/// some site is armed.
#[inline]
pub fn hit(site: &str) -> Result<(), MjoinError> {
    if ARMED.load(Ordering::Acquire) == 0 {
        return Ok(());
    }
    hit_slow(site)
}

#[cold]
fn hit_slow(site: &str) -> Result<(), MjoinError> {
    let armed = THREAD_SITES.with(|sites| sites.borrow().iter().any(|s| s == site))
        || REGISTRY
            .lock()
            .expect("failpoint registry poisoned")
            .contains(site);
    if armed {
        Err(MjoinError::Internal(format!("injected fault at {site}")))
    } else {
        Ok(())
    }
}

/// Arms a site for the lifetime of the value; disarms on drop. Lets tests
/// inject faults without leaking state into other tests.
#[derive(Debug)]
pub struct ScopedFailpoint {
    site: String,
    process_wide: bool,
    /// Not `Send`: a thread-scoped arm must drop on the thread it armed.
    _this_thread: PhantomData<*const ()>,
}

impl ScopedFailpoint {
    /// Arms `site` for the calling thread's run — this thread and the
    /// workers that enter its [`Scope`] — until the value is dropped.
    pub fn arm(site: &str) -> Self {
        THREAD_SITES.with(|sites| sites.borrow_mut().push(site.to_string()));
        ARMED.fetch_add(1, Ordering::Release);
        ScopedFailpoint {
            site: site.to_string(),
            process_wide: false,
            _this_thread: PhantomData,
        }
    }

    /// Arms `site` for every thread in the process ([`arm`]) until the
    /// value is dropped — for faults in threads the caller did not spawn.
    pub fn arm_process(site: &str) -> Self {
        arm(site);
        ScopedFailpoint {
            site: site.to_string(),
            process_wide: true,
            _this_thread: PhantomData,
        }
    }
}

impl Drop for ScopedFailpoint {
    fn drop(&mut self) {
        if self.process_wide {
            return disarm(&self.site);
        }
        // `try_with`: a drop during thread teardown must not panic.
        let _ = THREAD_SITES.try_with(|sites| {
            let mut sites = sites.borrow_mut();
            if let Some(i) = sites.iter().position(|s| *s == self.site) {
                sites.swap_remove(i);
            }
        });
        ARMED.fetch_sub(1, Ordering::Release);
    }
}

/// The calling thread's run-scoped state — its telemetry [`Sink`] and its
/// thread-scoped failpoints — captured so the workers it spawns count and
/// fail as part of the same run: `capture()` before spawning, `enter` as
/// the first thing each worker does. Neither allocates nor locks when
/// nothing is armed.
pub struct Scope {
    sink: Option<Sink>,
    sites: Vec<String>,
}

impl Scope {
    /// What the calling thread has armed right now.
    pub fn capture() -> Scope {
        Scope {
            sink: Sink::current(),
            sites: THREAD_SITES.with(|sites| sites.borrow().clone()),
        }
    }

    /// Runs `f` on the calling thread with the captured state in force,
    /// and takes it away again afterwards (also when `f` unwinds).
    pub fn enter<R>(&self, f: impl FnOnce() -> R) -> R {
        let _armed: Vec<ScopedFailpoint> = self
            .sites
            .iter()
            .map(|site| ScopedFailpoint::arm(site))
            .collect();
        match &self.sink {
            Some(sink) => sink.enter(f),
            None => f(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disarmed_sites_are_free() {
        // Other tests may arm sites concurrently; use a site name nothing
        // else touches and assert it never fires while disarmed.
        assert!(hit("tests::never-armed").is_ok());
    }

    #[test]
    fn armed_site_fires_and_scoped_disarms() {
        {
            let _fp = ScopedFailpoint::arm("tests::scoped-site");
            let e = hit("tests::scoped-site").unwrap_err();
            assert!(e.to_string().contains("tests::scoped-site"));
            // Other sites stay clean while one is armed.
            assert!(hit("tests::other-site").is_ok());
        }
        assert!(hit("tests::scoped-site").is_ok());
    }

    #[test]
    fn scoped_site_reaches_workers_in_the_scope_and_no_other_thread() {
        let fp = ScopedFailpoint::arm("tests::thread-site");
        let scope = Scope::capture();
        std::thread::scope(|s| {
            // A sibling thread (another test, a daemon worker) sees nothing.
            s.spawn(|| assert!(hit("tests::thread-site").is_ok()));
            s.spawn(|| {
                scope.enter(|| assert!(hit("tests::thread-site").is_err()));
                assert!(hit("tests::thread-site").is_ok());
            });
        });
        // `armed()` may also list what a concurrent test armed process-wide.
        let listed = || armed().iter().any(|s| s == "tests::thread-site");
        assert!(listed());
        drop(fp);
        assert!(!listed());
        assert!(hit("tests::thread-site").is_ok());
    }

    #[test]
    fn process_wide_arm_reaches_every_thread_until_dropped() {
        {
            let _fp = ScopedFailpoint::arm_process("tests::process-site");
            std::thread::scope(|s| {
                s.spawn(|| assert!(hit("tests::process-site").is_err()));
            });
        }
        assert!(hit("tests::process-site").is_ok());
    }

    #[test]
    fn registry_lists_known_sites() {
        assert!(is_known("optimizer::dp"));
        assert!(is_known("serve::decode"));
        assert!(!is_known("bogus::site"));
        assert!(SITES.len() >= 8);
    }

    #[test]
    fn site_docs_mirror_the_registry_exactly() {
        assert_eq!(SITE_DOCS.len(), SITES.len());
        for (&site, &(doc_site, doc)) in SITES.iter().zip(SITE_DOCS) {
            assert_eq!(site, doc_site, "SITE_DOCS out of order with SITES");
            assert!(!doc.is_empty(), "{site}: empty description");
        }
    }
}
