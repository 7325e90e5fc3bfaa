//! `bench compare BASE.json NEW.json`: per-workload rows, each metric held
//! to its bound, non-zero exit on a regression.

use std::collections::BTreeMap;

use mjoin_benchmark::gen::Workload;
use mjoin_benchmark::json::{self, Json};
use mjoin_benchmark::metrics::{Better, Bound, Metric, END_TO_END, PER_LAYER};
use mjoin_benchmark::stats::{median, spread};

/// workload name → metric name → one value per run.
type Values = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

struct Report {
    seed: u64,
    values: Values,
}

fn load(path: &str) -> Result<Report, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    if doc.get("comparable").and_then(Json::as_bool) != Some(true) {
        return Err(format!(
            "{path} is a smoke report: its numbers are not comparable"
        ));
    }
    let mut values = Values::new();
    for run in doc
        .get("runs")
        .and_then(Json::as_arr)
        .ok_or(format!("{path}: no runs"))?
    {
        let workload = run
            .get("workload")
            .and_then(Json::as_str)
            .ok_or("run without workload")?;
        let by_metric = values.entry(workload.to_string()).or_default();
        for (name, value) in run.get("metrics").and_then(Json::as_obj).unwrap_or(&[]) {
            if let Some(v) = value.as_f64() {
                by_metric.entry(name.clone()).or_default().push(v);
            }
        }
        // `fail_share` of an end-to-end run is carried by its counts.
        if run.get("trace").and_then(Json::as_bool) == Some(false) {
            let count = |k: &str| run.get(k).and_then(Json::as_f64).unwrap_or(0.0);
            by_metric
                .entry("fail_share".into())
                .or_default()
                .push(count("failed") / count("attempted").max(1.0));
        }
    }
    Ok(Report {
        seed: doc.get("seed").and_then(Json::as_u64).unwrap_or(0),
        values,
    })
}

/// What became of one metric on one workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// No worse than the bound allows.
    Within,
    /// Better, and (where runs scatter) every new run beats every base run.
    Improved,
    /// Worse by more than the bound.
    Regressed,
    /// The runs scatter by more than the bound: nothing can be said.
    Unresolved,
    /// Reported only (a layer time, or a count on a clock-driven workload).
    Info,
}

/// The wider of the two sides' run-to-run spreads, where either has enough
/// runs to have one.
fn scatter(base: &[f64], new: &[f64]) -> Option<f64> {
    spread(base).into_iter().chain(spread(new)).reduce(f64::max)
}

/// Judges `new` against `base` for `metric`. `deterministic` says whether
/// the workload's counts repeat exactly.
pub fn judge(metric: &Metric, deterministic: bool, base: &[f64], new: &[f64]) -> Verdict {
    let (b, n) = (median(base), median(new));
    // Positive when `new` is worse.
    let worse_by = match metric.better {
        Better::Lower => n - b,
        Better::Higher => b - n,
    };
    let limit = match metric.bound {
        Bound::Relative(share) => share * b.abs(),
        Bound::Absolute(by) => by,
        Bound::Exact if deterministic => 0.0,
        Bound::Exact | Bound::Unbounded => return Verdict::Info,
    };
    if metric.bound == Bound::Exact {
        // A count that does not even repeat within one report is broken.
        let steady = |v: &[f64]| v.iter().all(|x| *x == v[0]);
        if !steady(base) || !steady(new) {
            return Verdict::Unresolved;
        }
    } else if let Bound::Relative(share) = metric.bound {
        if scatter(base, new).is_some_and(|s| s > share) {
            let beats = |x: f64, y: f64| match metric.better {
                Better::Lower => x < y,
                Better::Higher => x > y,
            };
            let clean_win = new.iter().all(|&x| base.iter().all(|&y| beats(x, y)));
            return if clean_win {
                Verdict::Improved
            } else {
                Verdict::Unresolved
            };
        }
    }
    if worse_by > limit {
        Verdict::Regressed
    } else if worse_by < 0.0 {
        Verdict::Improved
    } else {
        Verdict::Within
    }
}

/// Compares two report files; `Ok(true)` when nothing regressed.
pub fn compare(base_path: &str, new_path: &str) -> Result<bool, String> {
    let (base, new) = (load(base_path)?, load(new_path)?);
    if base.seed != new.seed {
        return Err(format!(
            "the reports were taken at different seeds ({} and {}): counts cannot be compared",
            base.seed, new.seed
        ));
    }
    let mut tally: BTreeMap<&str, usize> = BTreeMap::new();
    for workload in Workload::ALL {
        let (Some(b), Some(n)) = (
            base.values.get(workload.name()),
            new.values.get(workload.name()),
        ) else {
            continue;
        };
        println!("── {} ──", workload.name());
        println!(
            "  {:<34} {:>14} {:>14} {:>9} {:>8}  verdict",
            "metric", "base median", "new median", "change", "spread"
        );
        for metric in END_TO_END.iter().chain(PER_LAYER) {
            let (Some(bv), Some(nv)) = (b.get(metric.name), n.get(metric.name)) else {
                continue;
            };
            let (bm, nm) = (median(bv), median(nv));
            if bm == 0.0 && nm == 0.0 && metric.name != "fail_share" {
                continue;
            }
            let verdict = judge(metric, workload.deterministic(), bv, nv);
            let word = match verdict {
                Verdict::Within => "ok",
                Verdict::Improved => "improved",
                Verdict::Regressed => "REGRESSED",
                Verdict::Unresolved => "unresolved",
                Verdict::Info => "·",
            };
            *tally.entry(word).or_insert(0) += 1;
            let change = if bm != 0.0 {
                format!("{:+.1}%", (nm - bm) / bm.abs() * 100.0)
            } else {
                "n/a".into()
            };
            let scatter = scatter(bv, nv).map_or("-".to_string(), |s| format!("{:.1}%", s * 100.0));
            println!(
                "  {:<34} {bm:>14.4} {nm:>14.4} {change:>9} {scatter:>8}  {word} ({} run{} each side)",
                metric.name,
                bv.len().min(nv.len()),
                if bv.len().min(nv.len()) == 1 { "" } else { "s" }
            );
        }
    }
    let count = |w: &str| tally.get(w).copied().unwrap_or(0);
    println!(
        "{} within bounds, {} improved, {} unresolved, {} REGRESSED ({} reported without a bound)",
        count("ok"),
        count("improved"),
        count("unresolved"),
        count("REGRESSED"),
        count("·")
    );
    Ok(count("REGRESSED") == 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mjoin_benchmark::metrics::find;

    #[test]
    fn relative_bounds_apply_to_medians() {
        let p50 = find("lat_p50_ms").unwrap(); // lower is better, 20 %
        assert_eq!(judge(p50, true, &[10.0], &[11.9]), Verdict::Within);
        assert_eq!(judge(p50, true, &[10.0], &[12.1]), Verdict::Regressed);
        assert_eq!(judge(p50, true, &[10.0], &[8.0]), Verdict::Improved);
        let rps = find("throughput_rps").unwrap(); // higher is better, 20 %
        assert_eq!(judge(rps, true, &[100.0], &[81.0]), Verdict::Within);
        assert_eq!(judge(rps, true, &[100.0], &[79.0]), Verdict::Regressed);
    }

    #[test]
    fn scatter_wider_than_the_bound_is_unresolved_unless_every_run_wins() {
        let p50 = find("lat_p50_ms").unwrap();
        let noisy = [8.0, 10.0, 12.0, 14.0, 9.0];
        assert_eq!(
            judge(p50, true, &noisy, &[13.5, 13.5, 13.5, 13.5]),
            Verdict::Unresolved
        );
        assert_eq!(
            judge(p50, true, &noisy, &[7.0, 7.5, 7.0, 7.9]),
            Verdict::Improved
        );
    }

    #[test]
    fn counts_are_exact_where_answers_do_not_depend_on_a_clock() {
        let tau = find("plan_tau_sum").unwrap();
        assert_eq!(judge(tau, true, &[500.0], &[500.0]), Verdict::Within);
        assert_eq!(judge(tau, true, &[500.0], &[501.0]), Verdict::Regressed);
        assert_eq!(judge(tau, true, &[500.0], &[499.0]), Verdict::Improved);
        assert_eq!(
            judge(tau, true, &[500.0, 501.0], &[500.0]),
            Verdict::Unresolved
        );
        assert_eq!(judge(tau, false, &[500.0], &[900.0]), Verdict::Info);
    }

    #[test]
    fn shares_have_absolute_bounds_and_layer_times_none() {
        let optimal = find("optimal_share").unwrap(); // higher is better, −0.05
        assert_eq!(judge(optimal, false, &[0.30], &[0.26]), Verdict::Within);
        assert_eq!(judge(optimal, false, &[0.30], &[0.24]), Verdict::Regressed);
        let fail = find("fail_share").unwrap();
        assert_eq!(judge(fail, true, &[0.0], &[0.01]), Verdict::Regressed);
        let layer = find("cli.fingerprint_ms").unwrap();
        assert_eq!(judge(layer, true, &[1.0], &[9.0]), Verdict::Info);
    }
}
