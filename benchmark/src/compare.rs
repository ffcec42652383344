//! `compare <a.json> <b.json>`: per workload, is `b`'s median over its runs
//! worse than `a`'s by more than the bound? Every gated (end-to-end) metric
//! is compared against its own bound; the paper's timed exhibits are
//! compared against [`EXHIBIT_BOUND`] and shown beside them, but never fail
//! a comparison.
//!
//! A pair is *unresolved*, not unchanged, when the difference cannot mean
//! anything: when either file's own runs of the workload (its seeds) spread
//! wider than the bound — inter-quartile range over median, the rule the
//! benchmark is accepted by — or, for a timed metric, when a run's own noise
//! read-outs (`loadgen.sat_qps_iqr_ratio`, `host.steal_ratio`) exceed it.

use crate::json::Json;
use crate::metrics::{self, Better, Metric, END_TO_END};
use crate::stats::{iqr_ratio, median};

/// Reported, ungated: Fig. 9 and Fig. 10 of the paper.
const EXHIBITS: [&str; 4] = ["sat_qps", "sat_cpu_us_per_req", "lat_p50_us", "lat_p90_us"];
pub const EXHIBIT_BOUND: f64 = 0.25;

fn is_timed(metric: &Metric) -> bool {
    matches!(metric.unit, "s" | "us" | "ns" | "1/s")
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Verdict {
    Within,
    Regressed,
    Improved,
    Unresolved,
}

#[derive(Debug, Clone)]
pub struct Row {
    pub workload: String,
    pub metric: &'static str,
    /// Medians over the workload's runs in each file.
    pub a: f64,
    pub b: f64,
    /// The wider of the two files' own spreads (0 with one run each).
    pub spread: f64,
    /// Share of `a` by which `b` is worse (negative: better).
    pub worse_by: f64,
    pub bound: f64,
    /// Whether a regression on this metric fails the comparison.
    pub gated: bool,
    pub verdict: Verdict,
}

const NOISE_READOUTS: [&str; 2] = ["loadgen.sat_qps_iqr_ratio", "host.steal_ratio"];

fn runs(document: &Json) -> Result<&[Json], String> {
    document.get("runs").and_then(Json::as_arr).ok_or_else(|| "no \"runs\" array".to_string())
}

fn metric(run: &Json, name: &str) -> Option<f64> {
    run.get("metrics")?.get(name)?.get("value")?.as_f64()
}

fn workload_of(run: &Json) -> Option<&str> {
    run.get("workload")?.as_str()
}

/// The workload's runs in `document`; an error when there are none.
fn runs_of<'a>(document: &'a Json, workload: &str, file: &str) -> Result<Vec<&'a Json>, String> {
    let found: Vec<&Json> =
        runs(document)?.iter().filter(|r| workload_of(r) == Some(workload)).collect();
    if found.is_empty() {
        return Err(format!("{workload}: missing from the {file} file"));
    }
    Ok(found)
}

/// Median and spread (0 for a single run) of `name` over `runs`.
fn summary(runs: &[&Json], name: &str, workload: &str) -> Result<(f64, f64), String> {
    let mut values = runs
        .iter()
        .map(|run| metric(run, name).ok_or_else(|| format!("{workload}: {name} missing")))
        .collect::<Result<Vec<f64>, String>>()?;
    let spread = iqr_ratio(&values).unwrap_or(0.0);
    let mid = median(&mut values).ok_or_else(|| format!("{workload}: {name} is not a number"))?;
    Ok((mid, spread))
}

pub fn compare(a: &Json, b: &Json) -> Result<Vec<Row>, String> {
    let mut workloads: Vec<&str> = Vec::new();
    for run in runs(a)? {
        let workload = workload_of(run).ok_or("run without a workload")?;
        if !workloads.contains(&workload) {
            workloads.push(workload);
        }
    }
    let mut rows = Vec::new();
    for workload in workloads {
        let (runs_a, runs_b) = (runs_of(a, workload, "first")?, runs_of(b, workload, "second")?);
        let noise = NOISE_READOUTS
            .iter()
            .flat_map(|name| runs_a.iter().chain(&runs_b).filter_map(|run| metric(run, name)))
            .fold(0.0f64, f64::max);
        let exhibits = EXHIBITS.iter().filter_map(|name| metrics::find(name));
        for m in END_TO_END.iter().chain(exhibits) {
            let bound = m.bound.unwrap_or(EXHIBIT_BOUND);
            let (va, spread_a) = summary(&runs_a, m.name, workload)?;
            let (vb, spread_b) = summary(&runs_b, m.name, workload)?;
            let spread = spread_a.max(spread_b);
            let worse_by = match m.better {
                Better::Lower => (vb - va) / va.abs(),
                Better::Higher => (va - vb) / va.abs(),
            };
            let verdict = if spread > bound || (is_timed(m) && noise > bound) {
                Verdict::Unresolved
            } else if worse_by > bound {
                Verdict::Regressed
            } else if worse_by < -bound {
                Verdict::Improved
            } else {
                Verdict::Within
            };
            rows.push(Row {
                workload: workload.to_string(),
                metric: m.name,
                a: va,
                b: vb,
                spread,
                worse_by,
                bound,
                gated: m.bound.is_some(),
                verdict,
            });
        }
    }
    Ok(rows)
}

/// Prints one row per workload and metric; the exit code is 1 when any
/// gated metric regressed.
pub fn print(rows: &[Row]) -> i32 {
    println!(
        "{:<18} {:<24} {:>14} {:>14} {:>9} {:>7} {:>6}  verdict",
        "workload", "metric", "median a", "median b", "worse by", "spread", "bound"
    );
    for row in rows {
        println!(
            "{:<18} {:<24} {:>14.4} {:>14.4} {:>8.1}% {:>6.1}% {:>5.0}%  {}{}",
            row.workload,
            row.metric,
            row.a,
            row.b,
            row.worse_by * 100.0,
            row.spread * 100.0,
            row.bound * 100.0,
            match row.verdict {
                Verdict::Within => "within bound",
                Verdict::Regressed => "REGRESSED",
                Verdict::Improved => "improved",
                Verdict::Unresolved => "unresolved",
            },
            if row.gated { "" } else { " (reported, not gated)" }
        );
    }
    i32::from(rows.iter().any(|r| r.gated && r.verdict == Verdict::Regressed))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One run of `router_kv`; every compared metric reads 1 unless given.
    fn run(values: &[(&str, f64)]) -> Json {
        let value = |v: f64| Json::obj([("value", Json::Num(v)), ("unit", Json::Str("x".into()))]);
        let mut metrics: Vec<(String, Json)> = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(EXHIBITS)
            .map(|name| (name.to_string(), value(1.0)))
            .collect();
        for (name, v) in values {
            metrics.retain(|(n, _)| n != name);
            metrics.push((name.to_string(), value(*v)));
        }
        Json::obj([
            ("workload", Json::Str("router_kv".into())),
            ("seed", Json::Num(42.0)),
            ("metrics", Json::Obj(metrics)),
        ])
    }

    fn document(values: &[(&str, f64)]) -> Json {
        Json::obj([("runs", Json::Arr(vec![run(values)]))])
    }

    /// One run per value of `setup_s`, everything else reading 1.
    fn setups(values: &[f64]) -> Json {
        Json::obj([("runs", Json::Arr(values.iter().map(|&v| run(&[("setup_s", v)])).collect()))])
    }

    fn verdict_of(rows: &[Row], metric: &str) -> Verdict {
        rows.iter().find(|r| r.metric == metric).unwrap().verdict
    }

    #[test]
    fn direction_and_bound_decide_the_verdict() {
        let base = document(&[("sat_allocs_per_req", 40.0), ("sat_qps", 10_000.0)]);
        // 20 % more allocations is a gated regression; 20 % fewer, a gain.
        let rows =
            compare(&base, &document(&[("sat_allocs_per_req", 48.0), ("sat_qps", 10_000.0)]))
                .unwrap();
        assert_eq!(verdict_of(&rows, "sat_allocs_per_req"), Verdict::Regressed);
        assert_eq!(verdict_of(&rows, "setup_s"), Verdict::Within);
        assert_eq!(print(&rows), 1);
        let rows =
            compare(&base, &document(&[("sat_allocs_per_req", 32.0), ("sat_qps", 10_000.0)]))
                .unwrap();
        assert_eq!(verdict_of(&rows, "sat_allocs_per_req"), Verdict::Improved);
        // 5 % either way is inside the 10 % bound.
        let rows =
            compare(&base, &document(&[("sat_allocs_per_req", 42.0), ("sat_qps", 10_000.0)]))
                .unwrap();
        assert!(rows.iter().all(|r| r.verdict == Verdict::Within));
        assert_eq!(print(&rows), 0);
    }

    #[test]
    fn exhibits_are_shown_but_never_fail_the_comparison() {
        let base = document(&[("sat_qps", 10_000.0)]);
        // Higher is better for a rate: 40 % down is a regression, reported only.
        let rows = compare(&base, &document(&[("sat_qps", 6_000.0)])).unwrap();
        assert_eq!(verdict_of(&rows, "sat_qps"), Verdict::Regressed);
        assert!(!rows.iter().find(|r| r.metric == "sat_qps").unwrap().gated);
        assert_eq!(print(&rows), 0);
        assert_eq!(rows.len(), END_TO_END.len() + EXHIBITS.len());
    }

    #[test]
    fn noisy_runs_leave_times_unresolved_and_counts_alone() {
        let noisy = document(&[
            ("loadgen.sat_qps_iqr_ratio", 0.4),
            ("sat_qps", 0.5),
            ("sat_allocs_per_req", 2.0),
        ]);
        let rows = compare(&document(&[]), &noisy).unwrap();
        assert_eq!(verdict_of(&rows, "sat_qps"), Verdict::Unresolved);
        assert_eq!(verdict_of(&rows, "setup_s"), Verdict::Unresolved);
        assert_eq!(verdict_of(&rows, "sat_allocs_per_req"), Verdict::Regressed);
    }

    #[test]
    fn medians_over_a_file_s_runs_are_compared_and_a_wide_spread_is_unresolved() {
        // Medians 1.0 and 1.4 with steady runs on both sides: 40 % worse.
        let rows = compare(&setups(&[0.98, 1.0, 1.02]), &setups(&[1.38, 1.4, 1.42])).unwrap();
        let row = rows.iter().find(|r| r.metric == "setup_s").unwrap();
        assert_eq!((row.a, row.b, row.verdict), (1.0, 1.4, Verdict::Regressed));
        assert!(row.spread < 0.1, "{}", row.spread);
        // The same medians out of runs that differ by more than the bound
        // among themselves say nothing.
        let rows = compare(&setups(&[0.6, 1.0, 1.4]), &setups(&[1.38, 1.4, 1.42])).unwrap();
        assert_eq!(verdict_of(&rows, "setup_s"), Verdict::Unresolved);
        assert_eq!(verdict_of(&rows, "sat_allocs_per_req"), Verdict::Within);
        assert_eq!(print(&rows), 0);
    }

    #[test]
    fn a_missing_run_is_an_error() {
        let empty = Json::obj([("runs", Json::Arr(vec![]))]);
        assert!(compare(&document(&[]), &empty).is_err());
        assert!(compare(&Json::Null, &empty).is_err());
    }
}
