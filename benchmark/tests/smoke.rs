//! Drives the real binary end to end in `--smoke` mode (short phases, 200
//! trace samples) on one workload, then checks everything a consumer of
//! the benchmark relies on: the result line, the results file, the trace
//! file, `compare`, and the failure exit paths.

use musuite_benchmark::json::Json;
use musuite_benchmark::metrics::{END_TO_END, PER_LAYER};
use std::path::Path;
use std::process::{Command, Output};

const BIN: &str = env!("CARGO_BIN_EXE_musuite-benchmark");

fn bench(args: &[&str]) -> Output {
    Command::new(BIN).args(args).output().expect("run the benchmark binary")
}

#[test]
fn smoke_run_reports_every_metric_and_checks_outputs() {
    let out_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let results = out_dir.join(format!("smoke-{}.json", std::process::id()));
    let results_arg = results.to_str().unwrap();
    let output =
        bench(&["run", "--workload", "router_kv", "--seed", "5", "--smoke", "--out", results_arg]);
    let stdout = String::from_utf8(output.stdout).unwrap();
    assert!(output.status.success(), "exit {:?}\n{stdout}", output.status);

    // The last line is the result object with exactly the contract's keys.
    let line = Json::parse(stdout.lines().last().unwrap()).unwrap();
    let Json::Obj(entries) = &line else { panic!("result line is not an object") };
    let keys: Vec<&str> = entries.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
    assert_eq!(line.get("failed").and_then(Json::as_f64), Some(0.0));
    assert!(line.get("attempted").and_then(Json::as_f64).unwrap() >= 10_000.0);

    // Without --trace the run reports both sets: every registered metric,
    // with its unit, and every end-to-end metric non-zero.
    let metrics = line.get("metrics").unwrap();
    for metric in END_TO_END.iter().chain(PER_LAYER) {
        let entry = metrics.get(metric.name).unwrap_or_else(|| panic!("{} missing", metric.name));
        assert_eq!(entry.get("unit").and_then(Json::as_str), Some(metric.unit), "{}", metric.name);
        let value = entry.get("value").and_then(Json::as_f64).unwrap();
        assert!(value.is_finite() && value >= 0.0, "{} = {value}", metric.name);
        assert!(metric.bound.is_none() || value > 0.0, "{} must never read 0", metric.name);
    }
    for must_be_zero in ["fail_ratio", "rpc.accounting_gap", "rpc.shed", "rpc.rejected"] {
        let value = metrics.get(must_be_zero).and_then(|m| m.get("value")).and_then(Json::as_f64);
        assert_eq!(value, Some(0.0), "{must_be_zero}");
    }
    // Router runs the paper-default stack: the reactor and batch read-outs
    // do not apply and the table says so instead of printing a zero.
    assert!(stdout.lines().any(|l| l.starts_with("rpc.batch_mean_occupancy") && l.contains("n/a")));
    assert!(stdout.lines().any(|l| l.starts_with("sat_qps") && l.contains("1/s")));
    assert!(stdout.lines().any(|l| l.starts_with("sat_allocs_per_req") && l.contains("count")));

    // The trace file: one JSON object per span, replay spans nested.
    let trace = std::fs::read_to_string(out_dir.join("trace_router_kv.jsonl")).unwrap();
    let spans: Vec<Json> = trace.lines().map(|l| Json::parse(l).unwrap()).collect();
    assert!(spans.len() > 200 * 10, "only {} spans", spans.len());
    let named = |name: &str| {
        spans.iter().filter(|s| s.get("name").and_then(Json::as_str) == Some(name)).count()
    };
    assert_eq!(named("live.call"), 200);
    assert_eq!(named("request"), 200);
    assert!(named("leaf.handle") >= 200 && named("client.call") > 0);
    assert!(spans.iter().all(|s| {
        s.get("end_ns").and_then(Json::as_f64) >= s.get("start_ns").and_then(Json::as_f64)
    }));

    // The results file feeds `compare`; a run agrees with itself.
    let single = Json::parse(&std::fs::read_to_string(&results).unwrap()).unwrap();
    assert_eq!(single.get("workload").and_then(Json::as_str), Some("router_kv"));
    let document = out_dir.join(format!("smoke-doc-{}.json", std::process::id()));
    std::fs::write(&document, Json::obj([("runs", Json::Arr(vec![single]))]).to_pretty()).unwrap();
    let document_arg = document.to_str().unwrap();
    let compared = bench(&["compare", document_arg, document_arg]);
    let table = String::from_utf8(compared.stdout).unwrap();
    assert!(compared.status.success(), "{table}");
    // Header, the gated metrics, the four reported exhibits.
    assert_eq!(table.lines().count(), 1 + END_TO_END.len() + 4);
    assert!(!table.contains("REGRESSED") && !table.contains("improved"));
    std::fs::remove_file(&results).unwrap();
    std::fs::remove_file(&document).unwrap();
}

#[test]
fn bad_invocations_exit_non_zero_without_a_result() {
    for args in [
        &[][..],
        &["run"],
        &["run", "--workload", "nope", "--seed", "1"],
        &["run", "--workload", "router_kv"],
        &["run", "--workload", "router_kv", "--seed", "1", "--trace", "2"],
        &["run", "--workload", "router_kv", "--seed", "x"],
        &["compare", "only-one.json"],
        &["compare", "missing-a.json", "missing-b.json"],
    ] {
        let output = bench(args);
        assert!(!output.status.success(), "{args:?} must fail");
        assert!(!String::from_utf8_lossy(&output.stdout).contains("\"metrics\""), "{args:?}");
    }
}

#[test]
fn manifest_subcommand_prints_the_committed_manifest() {
    let output = bench(&["manifest"]);
    assert!(output.status.success());
    let committed =
        std::fs::read_to_string(Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"))
            .unwrap();
    assert_eq!(String::from_utf8(output.stdout).unwrap(), committed);
}
