//! Offline drop-in subset of the `criterion` benchmarking API.
//!
//! The build environment cannot reach crates.io, so this crate vendors the
//! slice of criterion the workspace's benches use: [`Criterion`],
//! [`criterion_group!`]/[`criterion_main!`], benchmark groups with
//! `sample_size`/`warm_up_time`/`measurement_time`,
//! `bench_function`/`bench_with_input`, [`BenchmarkId`] and [`black_box`].
//!
//! Measurement model: each sample times a batch of iterations sized so a
//! sample lands near `measurement_time / sample_size`; the report prints
//! the median and min/max per-iteration time. No plots, no statistics
//! beyond that — enough to compare alternatives and detect regressions by
//! eye, which is how the benches here are used.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt::Display;
use std::time::{Duration, Instant};

/// Opaque-to-the-optimizer value laundering.
pub fn black_box<T>(x: T) -> T {
    std::hint::black_box(x)
}

/// A benchmark identifier: `function_name/parameter`.
#[derive(Clone, Debug)]
pub struct BenchmarkId {
    name: String,
}

impl BenchmarkId {
    /// Builds `name/parameter`.
    pub fn new(name: impl Into<String>, parameter: impl Display) -> Self {
        BenchmarkId {
            name: format!("{}/{}", name.into(), parameter),
        }
    }

    /// Builds an id from the parameter alone.
    pub fn from_parameter(parameter: impl Display) -> Self {
        BenchmarkId {
            name: parameter.to_string(),
        }
    }
}

impl From<&str> for BenchmarkId {
    fn from(s: &str) -> Self {
        BenchmarkId {
            name: s.to_string(),
        }
    }
}

impl From<String> for BenchmarkId {
    fn from(s: String) -> Self {
        BenchmarkId { name: s }
    }
}

/// The benchmark driver.
#[derive(Clone, Debug)]
pub struct Criterion {
    sample_size: usize,
    warm_up_time: Duration,
    measurement_time: Duration,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion {
            sample_size: 20,
            warm_up_time: Duration::from_millis(300),
            measurement_time: Duration::from_secs(1),
        }
    }
}

impl Criterion {
    /// Starts a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            name: name.into(),
            sample_size: self.sample_size,
            warm_up_time: self.warm_up_time,
            measurement_time: self.measurement_time,
            _criterion: self,
        }
    }

    /// Benchmarks a closure under `id` without a group.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, id: impl Into<BenchmarkId>, mut f: F) {
        let id = id.into();
        let (sample_size, warm_up, measure) =
            (self.sample_size, self.warm_up_time, self.measurement_time);
        run_one(&id.name, sample_size, warm_up, measure, &mut f);
    }
}

/// A group of benchmarks sharing sampling settings.
pub struct BenchmarkGroup<'a> {
    name: String,
    sample_size: usize,
    warm_up_time: Duration,
    measurement_time: Duration,
    _criterion: &'a mut Criterion,
}

impl BenchmarkGroup<'_> {
    /// Number of samples per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(2);
        self
    }

    /// Warm-up duration before sampling.
    pub fn warm_up_time(&mut self, d: Duration) -> &mut Self {
        self.warm_up_time = d;
        self
    }

    /// Total sampling duration budget.
    pub fn measurement_time(&mut self, d: Duration) -> &mut Self {
        self.measurement_time = d;
        self
    }

    /// Benchmarks a closure under `id`.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, id: impl Into<BenchmarkId>, mut f: F) {
        let id = id.into();
        let full = format!("{}/{}", self.name, id.name);
        run_one(
            &full,
            self.sample_size,
            self.warm_up_time,
            self.measurement_time,
            &mut f,
        );
    }

    /// Benchmarks a closure that receives `input` by reference.
    pub fn bench_with_input<I: ?Sized, F: FnMut(&mut Bencher, &I)>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: F,
    ) {
        let full = format!("{}/{}", self.name, id.name);
        run_one(
            &full,
            self.sample_size,
            self.warm_up_time,
            self.measurement_time,
            &mut |b| f(b, input),
        );
    }

    /// Ends the group (upstream flushes reports here; we print as we go).
    pub fn finish(self) {}
}

/// Passed to the measured closure; `iter` runs and times the payload.
pub struct Bencher {
    /// Iterations the next `iter` call should execute.
    iters: u64,
    /// Total payload time accumulated by `iter`.
    elapsed: Duration,
}

impl Bencher {
    /// Times `iters` executions of `f`.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        let start = Instant::now();
        for _ in 0..self.iters {
            black_box(f());
        }
        self.elapsed = start.elapsed();
    }
}

/// Runs one benchmark: calibrate, warm up, sample, report.
fn run_one<F: FnMut(&mut Bencher)>(
    name: &str,
    sample_size: usize,
    warm_up: Duration,
    measure: Duration,
    f: &mut F,
) {
    // Calibrate: how long does one iteration take?
    let mut b = Bencher {
        iters: 1,
        elapsed: Duration::ZERO,
    };
    f(&mut b);
    let mut per_iter = b.elapsed.max(Duration::from_nanos(1));

    // Warm up for roughly the requested duration.
    let warm_start = Instant::now();
    while warm_start.elapsed() < warm_up {
        let iters = iters_for(per_iter, warm_up / 10);
        let mut wb = Bencher {
            iters,
            elapsed: Duration::ZERO,
        };
        f(&mut wb);
        per_iter = wb.elapsed / iters.max(1) as u32;
        per_iter = per_iter.max(Duration::from_nanos(1));
    }

    // Sample.
    let per_sample = measure / sample_size.max(1) as u32;
    let mut samples: Vec<f64> = Vec::with_capacity(sample_size);
    for _ in 0..sample_size {
        let iters = iters_for(per_iter, per_sample);
        let mut sb = Bencher {
            iters,
            elapsed: Duration::ZERO,
        };
        f(&mut sb);
        samples.push(sb.elapsed.as_secs_f64() / iters.max(1) as f64);
    }
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite times"));
    let median = samples[samples.len() / 2];
    let (lo, hi) = (samples[0], samples[samples.len() - 1]);
    println!(
        "{name:<60} time: [{} {} {}]",
        format_time(lo),
        format_time(median),
        format_time(hi)
    );
}

fn iters_for(per_iter: Duration, budget: Duration) -> u64 {
    (budget.as_nanos() / per_iter.as_nanos().max(1)).clamp(1, 1_000_000_000) as u64
}

fn format_time(secs: f64) -> String {
    if secs < 1e-6 {
        format!("{:.2} ns", secs * 1e9)
    } else if secs < 1e-3 {
        format!("{:.2} µs", secs * 1e6)
    } else if secs < 1.0 {
        format!("{:.2} ms", secs * 1e3)
    } else {
        format!("{secs:.2} s")
    }
}

/// Bundles benchmark functions into one runner, mirroring upstream.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $crate::Criterion::default();
            $($target(&mut criterion);)+
        }
    };
}

/// Emits `main` running the given groups, mirroring upstream.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            // `cargo test --benches` runs bench binaries with --test; a
            // smoke-run of every benchmark would be far too slow there.
            if std::env::args().any(|a| a == "--test") {
                return;
            }
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_runs_and_reports() {
        let mut c = Criterion {
            sample_size: 3,
            warm_up_time: Duration::from_millis(1),
            measurement_time: Duration::from_millis(5),
        };
        let mut group = c.benchmark_group("smoke");
        group.sample_size(3);
        group.warm_up_time(Duration::from_millis(1));
        group.measurement_time(Duration::from_millis(5));
        let mut ran = 0u64;
        group.bench_with_input(BenchmarkId::new("sum", 10), &10u64, |b, &n| {
            b.iter(|| {
                ran += 1;
                (0..n).sum::<u64>()
            })
        });
        group.finish();
        assert!(ran > 0);
        c.bench_function("plain", |b| b.iter(|| black_box(1 + 1)));
    }

    #[test]
    fn id_formats() {
        assert_eq!(BenchmarkId::new("f", "p").name, "f/p");
        assert_eq!(BenchmarkId::from_parameter(7).name, "7");
    }
}
