//! Multi-tenant bounded admission queue: per-client sub-queues drained by
//! deficit round-robin, with per-client quotas and rate limiting.
//!
//! Every job belongs to a client (requests without a `client` field share
//! the [`ANON_CLIENT`] tenant). Connection threads submit work with
//! [`Admission::try_push`], which never blocks; refusals are typed so the
//! caller can answer with the right error:
//!
//! * a client over its token-bucket rate ([`FairnessConfig::client_rps`])
//!   is refused with [`SubmitError::RateLimited`];
//! * a client over its in-queue quota
//!   ([`FairnessConfig::client_queue_cap`]) is refused with
//!   [`SubmitError::ClientQueueFull`] — its *own* quota, so a flooding
//!   tenant sheds against itself while light tenants keep their slots;
//! * a globally full queue refuses with [`SubmitError::Full`];
//! * a draining queue refuses with [`SubmitError::ShuttingDown`].
//!
//! Workers block in [`Admission::pop`], which drains clients by deficit
//! round-robin: each visit credits the client one quantum and serves jobs
//! while its deficit covers them. Jobs all cost one unit here, so DRR
//! degenerates to exact round-robin — one job per client per round — which
//! is the work-conserving, starvation-free schedule for unit work. With
//! both fairness knobs at 0 and a single (anon) tenant, drain order is
//! plain FIFO: byte-identical to the pre-fairness single-queue daemon.
//!
//! The rate limiter's clock is injectable ([`Admission::with_clock`]) so
//! tests drive token refill deterministically.

use std::collections::{HashMap, VecDeque};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard};
use std::time::Instant;

use mjoin_obs::Json;

use crate::{EngineRequest, Prepared};

/// The shared tenant for requests that carry no `client` field.
pub const ANON_CLIENT: &str = "anon";

/// DRR quantum, in job cost units. Jobs are unit-cost, so 1 means exactly
/// one job per client per round.
const QUANTUM: u64 = 1;

/// One request = 1000 milli-tokens; refill is `client_rps` milli-tokens
/// per millisecond, i.e. `client_rps` whole tokens per second.
const MILLI_PER_JOB: u64 = 1000;

/// One admitted request, carried from the connection thread to a worker.
#[derive(Debug)]
pub struct Job {
    /// The client's correlation id, echoed in the response.
    pub id: Option<Json>,
    /// The tenant this job is queued and accounted under.
    pub client: Arc<str>,
    /// The request, with `timeout_ms` still holding the *requested*
    /// deadline (the worker subtracts queue wait before running it) and
    /// `db` emptied: `work` holds the parsed database.
    pub request: EngineRequest,
    /// The engine's prepared work and plan-cache key.
    pub work: Prepared,
    /// When the job entered the queue — queue wait burns the deadline.
    pub enqueued: Instant,
    /// Channel back to the waiting connection thread (a rendered
    /// response line).
    pub respond: mpsc::Sender<String>,
}

/// Why a submit was refused (the job is handed back alongside).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SubmitError {
    /// The shared queue is at capacity: shed with `overloaded`.
    Full,
    /// The client's own sub-queue is at its quota: shed with `overloaded`
    /// against the client, not the server.
    ClientQueueFull,
    /// The client's token bucket is empty: shed with `overloaded` against
    /// the client's request rate.
    RateLimited,
    /// The server is draining: shed with `shutting_down`.
    ShuttingDown,
}

/// Per-client fairness knobs. Both default to 0 = disabled, which makes
/// the queue behave exactly like the original single FIFO.
#[derive(Clone, Copy, Debug, Default)]
pub struct FairnessConfig {
    /// Max jobs one client may have queued at once (0 = no per-client cap).
    pub client_queue_cap: usize,
    /// Sustained admissions per second per client, enforced by a token
    /// bucket holding one second of burst (0 = no rate limit).
    pub client_rps: u64,
}

/// Milliseconds-since-start clock, injectable for deterministic tests.
type ClockFn = dyn Fn() -> u64 + Send + Sync;

struct ClientState {
    jobs: VecDeque<Job>,
    /// DRR credit carried between rounds (always < QUANTUM between visits).
    deficit: u64,
    milli_tokens: u64,
    last_refill_ms: u64,
    admitted: u64,
    quota_shed: u64,
    rate_shed: u64,
}

impl ClientState {
    fn new(burst_milli: u64, now_ms: u64) -> ClientState {
        ClientState {
            jobs: VecDeque::new(),
            deficit: 0,
            milli_tokens: burst_milli,
            last_refill_ms: now_ms,
            admitted: 0,
            quota_shed: 0,
            rate_shed: 0,
        }
    }
}

/// A point-in-time copy of one client's accounting, for `stats`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ClientSnapshot {
    /// The client name.
    pub client: String,
    /// Jobs queued right now.
    pub queued: u64,
    /// Jobs ever admitted.
    pub admitted: u64,
    /// Submissions refused by the per-client queue quota.
    pub quota_shed: u64,
    /// Submissions refused by the per-client rate limit.
    pub rate_shed: u64,
}

struct State {
    clients: HashMap<Arc<str>, ClientState>,
    /// Active (non-empty) clients, in DRR visit order. Each non-empty
    /// client appears exactly once.
    ring: VecDeque<Arc<str>>,
    total: usize,
    /// Pops remaining before the scan has visited every active client
    /// once (a "round"). Purely for the `drr_rounds` stat.
    round_left: usize,
    rounds: u64,
    shutting_down: bool,
}

/// The bounded multi-tenant queue shared by connection threads and the
/// worker pool.
pub struct Admission {
    state: Mutex<State>,
    ready: Condvar,
    cap: usize,
    fairness: FairnessConfig,
    clock: Box<ClockFn>,
}

fn lock(m: &Mutex<State>) -> MutexGuard<'_, State> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

impl Admission {
    /// A queue admitting at most `cap` pending jobs (min 1) across all
    /// clients, with `fairness` applied per client. The default clock is
    /// wall time since construction.
    pub fn new(cap: usize, fairness: FairnessConfig) -> Admission {
        let epoch = Instant::now();
        Admission::with_clock(
            cap,
            fairness,
            Box::new(move || u64::try_from(epoch.elapsed().as_millis()).unwrap_or(u64::MAX)),
        )
    }

    /// [`Admission::new`] with an injected millisecond clock, so tests
    /// drive token-bucket refill deterministically.
    pub fn with_clock(cap: usize, fairness: FairnessConfig, clock: Box<ClockFn>) -> Admission {
        Admission {
            state: Mutex::new(State {
                clients: HashMap::new(),
                ring: VecDeque::new(),
                total: 0,
                round_left: 0,
                rounds: 0,
                shutting_down: false,
            }),
            ready: Condvar::new(),
            cap: cap.max(1),
            fairness,
            clock,
        }
    }

    /// The configured global capacity.
    pub fn cap(&self) -> usize {
        self.cap
    }

    /// Jobs currently waiting, across all clients.
    pub fn depth(&self) -> usize {
        lock(&self.state).total
    }

    /// Complete DRR rounds drained so far.
    pub fn rounds(&self) -> u64 {
        lock(&self.state).rounds
    }

    /// Per-client accounting, sorted by client name. Clients persist after
    /// their queues drain, so shed/admit history survives the storm that
    /// caused it.
    pub fn client_snapshots(&self) -> Vec<ClientSnapshot> {
        let st = lock(&self.state);
        let mut out: Vec<ClientSnapshot> = st
            .clients
            .iter()
            .map(|(name, c)| ClientSnapshot {
                client: name.to_string(),
                queued: c.jobs.len() as u64,
                admitted: c.admitted,
                quota_shed: c.quota_shed,
                rate_shed: c.rate_shed,
            })
            .collect();
        out.sort_by(|a, b| a.client.cmp(&b.client));
        out
    }

    /// Non-blocking submit: refuses instead of waiting, returning the job
    /// so the caller can shed it with a typed response. Checks run
    /// client-first — rate limit, then the client's queue quota, then the
    /// shared cap — so a flooding tenant is charged against its own
    /// limits before it can be blamed on the server.
    // The Err variant hands the whole Job back by design: a refused
    // request must still be answered, and the connection thread needs the
    // id/respond channel to do it. One refusal is never hot-path.
    #[allow(clippy::result_large_err)]
    pub fn try_push(&self, job: Job) -> Result<(), (Job, SubmitError)> {
        let mut guard = lock(&self.state);
        let st = &mut *guard;
        if st.shutting_down {
            return Err((job, SubmitError::ShuttingDown));
        }
        let name = Arc::clone(&job.client);
        let burst_milli = (self.fairness.client_rps * MILLI_PER_JOB).max(MILLI_PER_JOB);
        let now_ms = if self.fairness.client_rps > 0 {
            (self.clock)()
        } else {
            0
        };
        let client = st
            .clients
            .entry(Arc::clone(&name))
            .or_insert_with(|| ClientState::new(burst_milli, now_ms));
        if self.fairness.client_rps > 0 {
            let elapsed = now_ms.saturating_sub(client.last_refill_ms);
            client.last_refill_ms = now_ms;
            client.milli_tokens = client
                .milli_tokens
                .saturating_add(elapsed.saturating_mul(self.fairness.client_rps))
                .min(burst_milli);
            if client.milli_tokens < MILLI_PER_JOB {
                client.rate_shed += 1;
                return Err((job, SubmitError::RateLimited));
            }
        }
        if self.fairness.client_queue_cap > 0 && client.jobs.len() >= self.fairness.client_queue_cap
        {
            client.quota_shed += 1;
            return Err((job, SubmitError::ClientQueueFull));
        }
        if st.total >= self.cap {
            return Err((job, SubmitError::Full));
        }
        if self.fairness.client_rps > 0 {
            // The token is only spent on actual admission.
            client.milli_tokens -= MILLI_PER_JOB;
        }
        let was_empty = client.jobs.is_empty();
        client.jobs.push_back(job);
        client.admitted += 1;
        st.total += 1;
        if was_empty {
            st.ring.push_back(name);
        }
        drop(guard);
        self.ready.notify_one();
        Ok(())
    }

    /// Blocks until a job is available; `None` once the queue is draining
    /// and empty (the worker should exit). Jobs come out in DRR order.
    pub fn pop(&self) -> Option<Job> {
        let mut st = lock(&self.state);
        loop {
            if let Some(job) = Self::pop_locked(&mut st) {
                return Some(job);
            }
            if st.shutting_down {
                return None;
            }
            st = self.ready.wait(st).unwrap_or_else(|e| e.into_inner());
        }
    }

    fn pop_locked(st: &mut State) -> Option<Job> {
        while let Some(name) = {
            st.round_left = st.round_left.min(st.ring.len());
            if st.round_left == 0 && !st.ring.is_empty() {
                // The scan is about to wrap past every active client.
                st.round_left = st.ring.len();
                st.rounds += 1;
            }
            st.ring.pop_front()
        } {
            st.round_left = st.round_left.saturating_sub(1);
            let Some(client) = st.clients.get_mut(&name) else {
                continue;
            };
            client.deficit += QUANTUM;
            if let Some(job) = client.jobs.pop_front() {
                client.deficit = client.deficit.saturating_sub(1);
                st.total -= 1;
                if client.jobs.is_empty() {
                    // Deficit never carries across an idle period —
                    // otherwise a client could bank credit while absent.
                    client.deficit = 0;
                } else {
                    st.ring.push_back(name);
                }
                return Some(job);
            }
            // An empty client should never be in the ring; self-heal.
            client.deficit = 0;
        }
        None
    }

    /// Flips to draining, wakes every worker, and hands back everything
    /// still queued so the caller can shed it with a typed response.
    pub fn begin_shutdown(&self) -> Vec<Job> {
        let mut guard = lock(&self.state);
        let st = &mut *guard;
        st.shutting_down = true;
        let mut drained = Vec::with_capacity(st.total);
        for name in st.ring.drain(..) {
            if let Some(client) = st.clients.get_mut(&name) {
                drained.extend(client.jobs.drain(..));
                client.deficit = 0;
            }
        }
        st.total = 0;
        st.round_left = 0;
        drop(guard);
        self.ready.notify_all();
        drained
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job_for(client: &str) -> (Job, mpsc::Receiver<String>) {
        let (tx, rx) = mpsc::channel();
        (
            Job {
                id: None,
                client: Arc::from(client),
                request: EngineRequest {
                    op: "optimize".to_string(),
                    db: String::new(),
                    query: None,
                    space: None,
                    timeout_ms: None,
                    max_memo_entries: None,
                    max_tuples: None,
                    brownout: None,
                },
                work: Prepared {
                    key: None,
                    run: Box::new(|_| unreachable!("queue tests never run a job")),
                },
                enqueued: Instant::now(),
                respond: tx,
            },
            rx,
        )
    }

    fn job() -> (Job, mpsc::Receiver<String>) {
        job_for(ANON_CLIENT)
    }

    #[test]
    fn sheds_when_full_and_returns_the_job() {
        let q = Admission::new(2, FairnessConfig::default());
        let (j1, _r1) = job();
        let (j2, _r2) = job();
        let (j3, _r3) = job();
        assert!(q.try_push(j1).is_ok());
        assert!(q.try_push(j2).is_ok());
        let (_, e) = q.try_push(j3).unwrap_err();
        assert_eq!(e, SubmitError::Full);
        assert_eq!(q.depth(), 2);
    }

    #[test]
    fn shutdown_drains_and_unblocks_pop() {
        let q = std::sync::Arc::new(Admission::new(4, FairnessConfig::default()));
        let (j, _r) = job();
        q.try_push(j).unwrap();
        let waiter = {
            let q = q.clone();
            std::thread::spawn(move || {
                // First pop gets the job, second blocks until shutdown.
                assert!(q.pop().is_some());
                assert!(q.pop().is_none());
            })
        };
        // Give the waiter time to drain the queue and block.
        std::thread::sleep(std::time::Duration::from_millis(50));
        let orphans = q.begin_shutdown();
        assert!(orphans.is_empty());
        waiter.join().unwrap();
        let (j, _r) = job();
        let (_, e) = q.try_push(j).unwrap_err();
        assert_eq!(e, SubmitError::ShuttingDown);
    }

    #[test]
    fn shutdown_hands_back_queued_jobs() {
        let q = Admission::new(4, FairnessConfig::default());
        let (j1, _r1) = job_for("a");
        let (j2, _r2) = job_for("b");
        q.try_push(j1).unwrap();
        q.try_push(j2).unwrap();
        assert_eq!(q.begin_shutdown().len(), 2);
        assert_eq!(q.depth(), 0);
    }

    #[test]
    fn single_tenant_drains_fifo() {
        let q = Admission::new(8, FairnessConfig::default());
        let mut receivers = Vec::new();
        for i in 0..5u64 {
            let (mut j, r) = job();
            j.id = Some(Json::U64(i));
            q.try_push(j).unwrap();
            receivers.push(r);
        }
        for i in 0..5u64 {
            assert_eq!(q.pop().unwrap().id, Some(Json::U64(i)));
        }
    }

    #[test]
    fn drr_interleaves_a_hog_with_light_clients() {
        let q = Admission::new(16, FairnessConfig::default());
        // Hog queues 6 jobs first; two light clients queue 2 each after.
        let mut rs = Vec::new();
        for _ in 0..6 {
            let (j, r) = job_for("hog");
            q.try_push(j).unwrap();
            rs.push(r);
        }
        for c in ["light-a", "light-b"] {
            for _ in 0..2 {
                let (j, r) = job_for(c);
                q.try_push(j).unwrap();
                rs.push(r);
            }
        }
        let order: Vec<String> = (0..10)
            .map(|_| q.pop().unwrap().client.to_string())
            .collect();
        // Every light job drains within the first two rounds (positions
        // 0..6), not behind the hog's backlog.
        let light_done = order
            .iter()
            .enumerate()
            .filter(|(_, c)| c.starts_with("light"))
            .map(|(i, _)| i)
            .max()
            .unwrap();
        assert!(light_done <= 5, "light clients starved: {order:?}");
        assert_eq!(order.iter().filter(|c| *c == "hog").count(), 6);
    }

    #[test]
    fn client_queue_cap_sheds_the_hog_only() {
        let q = Admission::new(
            16,
            FairnessConfig {
                client_queue_cap: 2,
                client_rps: 0,
            },
        );
        let (j1, _r1) = job_for("hog");
        let (j2, _r2) = job_for("hog");
        let (j3, _r3) = job_for("hog");
        q.try_push(j1).unwrap();
        q.try_push(j2).unwrap();
        let (_, e) = q.try_push(j3).unwrap_err();
        assert_eq!(e, SubmitError::ClientQueueFull);
        // A different client still has its full quota.
        let (j, _r) = job_for("light");
        assert!(q.try_push(j).is_ok());
        let snaps = q.client_snapshots();
        let hog = snaps.iter().find(|s| s.client == "hog").unwrap();
        assert_eq!(hog.quota_shed, 1);
        assert_eq!(hog.admitted, 2);
    }

    #[test]
    fn token_bucket_refills_on_the_injected_clock() {
        let now = std::sync::Arc::new(std::sync::atomic::AtomicU64::new(0));
        let clock = {
            let now = std::sync::Arc::clone(&now);
            Box::new(move || now.load(std::sync::atomic::Ordering::Relaxed))
        };
        let q = Admission::with_clock(
            64,
            FairnessConfig {
                client_queue_cap: 0,
                client_rps: 2,
            },
            clock,
        );
        // Burst = one second = 2 tokens; the third submit at t=0 is shed.
        let mut rs = Vec::new();
        for _ in 0..2 {
            let (j, r) = job_for("c");
            q.try_push(j).unwrap();
            rs.push(r);
        }
        let (j, _r) = job_for("c");
        let (_, e) = q.try_push(j).unwrap_err();
        assert_eq!(e, SubmitError::RateLimited);
        // 500 ms later one token (2 rps × 0.5 s) has refilled.
        now.store(500, std::sync::atomic::Ordering::Relaxed);
        let (j, r) = job_for("c");
        q.try_push(j).unwrap();
        rs.push(r);
        let (j, _r) = job_for("c");
        assert!(q.try_push(j).is_err());
        assert_eq!(q.client_snapshots()[0].rate_shed, 2);
    }
}
