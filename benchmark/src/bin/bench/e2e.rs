//! The end-to-end run: a closed loop of one client on one connection
//! against one fresh daemon, every response checked.

use std::collections::HashMap;
use std::path::Path;
use std::time::{Duration, Instant};

use mjoin_benchmark::gen::{Generator, Request, Workload, DEFAULT_SEED};
use mjoin_benchmark::json::{self, Json};
use mjoin_benchmark::stats::{band_mean, median, sorted};

use crate::check::{check, Observed};
use crate::daemon::Daemon;
use crate::host;

/// Set-ups per measured run; `setup_s` is their median. The daemons of all
/// but the last are shut down again at once.
pub const SETUPS: usize = 3;

/// How long a run measures.
#[derive(Clone, Copy, Debug)]
pub enum Length {
    /// Whole passes until this much time has gone by (at least one).
    Seconds(f64),
    /// Exactly this many passes.
    Passes(usize),
}

/// One timed request of the first pass.
#[derive(Clone, Debug)]
pub struct Sample {
    /// Request line bytes.
    pub bytes: usize,
    /// End-to-end latency.
    pub latency_ms: f64,
    /// The deadline the request carried, if any.
    pub timeout_ms: Option<u64>,
    /// What the response said (`None` if it failed its checks).
    pub seen: Option<Observed>,
}

/// One timed pass over the workload's shapes.
#[derive(Clone, Debug, Default)]
pub struct Pass {
    /// Latency of every request that got a response line, in ms.
    pub latencies_ms: Vec<f64>,
    /// How many of them passed their checks.
    pub ok: u64,
    /// The daemon's peak resident set (`VmHWM`) during the pass, in MB.
    pub peak_rss_mb: f64,
}

/// Everything one end-to-end run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Requests sent or, after an abort, due to be sent: warm-ups and
    /// every timed pass, whole.
    pub attempted: u64,
    /// Of those, how many got no valid response.
    pub failed: u64,
    /// The first few failures, for the report.
    pub failures: Vec<String>,
    /// The timed passes, whole ones only — unless the run was aborted
    /// inside its very first pass, which is then all there is.
    pub passes: Vec<Pass>,
    /// Wall time of the timed phase.
    pub timed_s: f64,
    /// Of it, the time no request was in flight: generating requests and
    /// checking responses.
    pub think_s: f64,
    /// Each set-up's duration.
    pub setups_s: Vec<f64>,
    /// The first pass, request by request.
    pub first_pass: Vec<Sample>,
    /// The daemon's `stats` object after the last timed request.
    pub stats: Option<Json>,
    /// Was the τ file checked (default seed, and the file exists)?
    pub tau_checked: bool,
}

impl Outcome {
    fn fail(&mut self, requests: u64, what: String) {
        self.failed += requests;
        if self.failures.len() < 5 {
            self.failures.push(what);
        }
    }

    /// Latency samples over all passes.
    pub fn samples(&self) -> usize {
        self.passes.iter().map(|p| p.latencies_ms.len()).sum()
    }

    /// The end-to-end metric values, by name.
    ///
    /// Each is the **median over the run's passes** of the per-pass value.
    /// Every pass runs the same mix of shapes, so per-pass values are
    /// comparable, and a median over them shrugs off a disturbed stretch
    /// of the run (another tenant on the host, a scheduler regime) that a
    /// pooled percentile would soak up.
    pub fn metrics(&self) -> Vec<(&'static str, f64)> {
        let over_passes = |value: &dyn Fn(&Pass) -> f64| {
            let values: Vec<f64> = self.passes.iter().map(value).collect();
            if values.is_empty() {
                f64::NAN
            } else {
                median(&values)
            }
        };
        vec![
            (
                "lat_p50_ms",
                over_passes(&|p| band_mean(&sorted(&p.latencies_ms), 40.0, 60.0)),
            ),
            (
                "lat_p95_ms",
                over_passes(&|p| band_mean(&sorted(&p.latencies_ms), 92.5, 97.5)),
            ),
            (
                "throughput_rps",
                over_passes(&|p| p.ok as f64 / (p.latencies_ms.iter().sum::<f64>() / 1000.0)),
            ),
            ("peak_rss_mb", over_passes(&|p| p.peak_rss_mb)),
            ("setup_s", median(&self.setups_s)),
        ]
    }
}

/// The pinned `cost` of every warm-up and first-pass request at the
/// default seed: `benchmark/expected/<workload>.tau.json`.
fn load_tau_file(workload: Workload) -> Option<HashMap<u64, Option<u64>>> {
    let doc = json::parse(&std::fs::read_to_string(host::tau_file(workload)).ok()?).ok()?;
    let costs = doc.get("costs")?.as_arr()?;
    Some(
        costs
            .iter()
            .filter_map(|e| Some((e.get("index")?.as_u64()?, e.get("cost")?.as_u64())))
            .collect(),
    )
}

/// Sends `request`, checks the answer and books it. `Err` means the
/// connection is gone and the run must stop.
fn exchange(
    daemon: &mut Daemon,
    request: &Request,
    cold: &mut HashMap<usize, String>,
    tau: Option<&HashMap<u64, Option<u64>>>,
    out: &mut Outcome,
) -> Result<(f64, Option<Observed>), String> {
    let (line, latency) = daemon.request(&request.line).map_err(|b| b.0)?;
    let latency_ms = latency.as_secs_f64() * 1000.0;
    let cold_output = match (request.pool_slot, request.expect_cached) {
        (Some(slot), true) => cold.get(&slot).map(String::as_str),
        _ => None,
    };
    let mut verdict = check(request, &line, cold_output);
    if let (Ok(seen), Some(tau)) = (&verdict, tau) {
        if let Some(&pinned) = tau.get(&request.index) {
            if seen.cost != pinned {
                verdict = Err(format!(
                    "cost {:?} differs from the τ file's {pinned:?}",
                    seen.cost
                ));
            }
        }
    }
    match verdict {
        Ok(seen) => {
            if let (Some(slot), false) = (request.pool_slot, request.expect_cached) {
                cold.insert(slot, seen.output.clone());
            }
            Ok((latency_ms, Some(seen)))
        }
        Err(why) => {
            out.fail(
                1,
                format!("request {} ({}): {why}", request.index, request.shape),
            );
            Ok((latency_ms, None))
        }
    }
}

/// Runs `workload` under `seed` against a fresh `binary serve` daemon.
///
/// `wall_cap` bounds the timed phase: a run that exceeds it is aborted and
/// the rest of its current pass counted as failed.
pub fn run(
    binary: &Path,
    workload: Workload,
    seed: u64,
    setups: usize,
    length: Length,
    wall_cap: Duration,
) -> Result<Outcome, String> {
    let out_dir = host::out_dir()?;
    let generator = Generator::new(workload, seed);
    let tau = if seed == DEFAULT_SEED && workload.pins_cost() {
        load_tau_file(workload)
    } else {
        None
    };
    let mut out = Outcome {
        tau_checked: tau.is_some(),
        ..Outcome::default()
    };
    let warmup: Vec<Request> = (0..workload.warmup() as u64)
        .map(|i| generator.request(i))
        .collect();
    // hot_repeat: pool entry → its cold-pass answer.
    let mut cold: HashMap<usize, String> = HashMap::new();

    // Set-up: spawn, first ping, warm-up. Several times, for a median.
    let mut daemon: Option<Daemon> = None;
    for _ in 0..setups.max(1) {
        if let Some(previous) = daemon.take() {
            previous.shutdown();
        }
        let started = Instant::now();
        let mut d = Daemon::spawn(binary, &out_dir)?;
        let (pong, _) = d.request(r#"{"op":"ping"}"#).map_err(|b| b.0)?;
        if !pong.contains("\"ok\":true") {
            return Err(format!("first ping answered {pong}"));
        }
        out.attempted += warmup.len() as u64;
        for request in &warmup {
            exchange(&mut d, request, &mut cold, tau.as_ref(), &mut out)?;
        }
        out.setups_s.push(started.elapsed().as_secs_f64());
        daemon = Some(d);
    }
    let mut daemon = daemon.expect("at least one set-up");

    // The timed phase: whole passes, generated one request at a time.
    let pass_len = workload.pass_len() as u64;
    let mut next = workload.warmup() as u64;
    let started = Instant::now();
    loop {
        out.attempted += pass_len;
        let mut pass = Pass::default();
        let mut aborted = false;
        for position in 0..pass_len {
            let request = generator.request(next);
            next += 1;
            // (requests lost, why) once the run cannot go on.
            let stop = match exchange(&mut daemon, &request, &mut cold, tau.as_ref(), &mut out) {
                Ok((latency_ms, seen)) => {
                    pass.latencies_ms.push(latency_ms);
                    pass.ok += u64::from(seen.is_some());
                    if out.passes.is_empty() {
                        out.first_pass.push(Sample {
                            bytes: request.line.len(),
                            latency_ms,
                            timeout_ms: request.timeout_ms,
                            seen,
                        });
                    }
                    (started.elapsed() > wall_cap).then(|| (0, "wall cap exceeded".to_string()))
                }
                Err(why) => Some((1, why)),
            };
            if let Some((lost, why)) = stop {
                // Whatever the pass still owed counts as failed too.
                let owed = pass_len - position - 1;
                out.fail(
                    lost + owed,
                    format!("run aborted at request {}: {why}", next - 1),
                );
                aborted = true;
                break;
            }
        }
        // A pass cut short is kept only where it is all the run has.
        if !aborted || (out.passes.is_empty() && !pass.latencies_ms.is_empty()) {
            pass.peak_rss_mb = daemon.take_peak_rss_mb().unwrap_or(f64::NAN);
            out.passes.push(pass);
        }
        let done = match length {
            Length::Seconds(s) => started.elapsed().as_secs_f64() >= s,
            Length::Passes(n) => out.passes.len() >= n,
        };
        if aborted || done {
            break;
        }
    }
    out.timed_s = started.elapsed().as_secs_f64();
    let in_flight_ms: f64 = out.passes.iter().flat_map(|p| &p.latencies_ms).sum();
    out.think_s = out.timed_s - in_flight_ms / 1000.0;

    if let Ok((line, _)) = daemon.request(r#"{"op":"stats"}"#) {
        out.stats = json::parse(&line)
            .ok()
            .and_then(|d| d.get("stats").cloned());
    }
    daemon.shutdown();
    Ok(out)
}
