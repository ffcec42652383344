//! Figs. 11–14 — OS system-call invocations per QPS for every service.
//!
//! The paper counts syscall invocations with eBPF `syscount` and finds
//! (1) `futex` dominates for every service (thread pools blocking on
//! socket locks, condition variables, and task queues), and (2) per-QPS
//! futex counts are *higher at low load* — at low load many woken threads
//! race for one item and immediately re-block, issuing extra futex calls
//! per served query. This harness counts the same operation classes from
//! the instrumented runtime (see `musuite_telemetry::counters` for the
//! mapping).
//!
//! Run: `cargo bench -p musuite-bench --bench fig11_14_syscalls`

use musuite_bench::{load_label, offer_load, BenchEnv, Deployment, ALL_SERVICES};
use musuite_telemetry::counters::{Event, OsOp, OsOpCounters};
use musuite_telemetry::report::Table;

fn main() {
    let env = BenchEnv::from_env();
    println!("\nFigs. 11-14: OS-op invocations per QPS (process-wide, {}s per point)\n", env.secs);
    for (figure, kind) in (11..).zip(ALL_SERVICES) {
        let deployment = Deployment::launch(kind, &env);
        let mut header = vec!["os op".to_string()];
        header.extend(env.loads.iter().map(|&qps| format!("per-QPS @{}", load_label(qps))));
        let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
        let mut table = Table::new(&header_refs);
        let mut per_load: Vec<Vec<f64>> = Vec::new();
        for &qps in &env.loads {
            let counters = OsOpCounters::global();
            let before = counters.snapshot();
            let report = offer_load(&deployment, qps, env.duration());
            let delta = counters.snapshot().since(&before);
            let completed = report.completed.max(1) as f64;
            per_load.push(OsOp::ALL.iter().map(|&op| delta.get(op) as f64 / completed).collect());
        }
        let mut futex_row: Vec<f64> = Vec::new();
        for (i, op) in OsOp::ALL.iter().enumerate() {
            let counts: Vec<f64> = per_load.iter().map(|row| row[i]).collect();
            if counts.iter().all(|&c| c < 0.005) {
                continue; // skip all-zero rows, as the figures do
            }
            if op.name() == "futex" {
                futex_row = counts.clone();
            }
            let mut row = vec![op.name().to_string()];
            row.extend(counts.iter().map(|c| format!("{c:.2}")));
            table.row_owned(row);
        }
        println!("--- Fig. {figure}: {} ---", kind.name());
        println!("{}", table.render());
        if futex_row.len() >= 2 {
            println!(
                "futex-dominance check: futex/QPS falls from {:.2} (lowest load) to {:.2} (highest)\n",
                futex_row.first().unwrap(),
                futex_row.last().unwrap()
            );
        }
        deployment.shutdown();
    }
}
