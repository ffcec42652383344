//! The μSuite-rs benchmark. See README.md.
//!
//! ```text
//! musuite-benchmark run --workload <name> --seed <u64> [--seconds <s>] [--trace 0|1] [--smoke] [--out <file>]
//! musuite-benchmark suite [--seeds 42,7,1] [--seconds <s>] [--reverse] --out <file>
//! musuite-benchmark compare <a.json> <b.json>
//! musuite-benchmark selfcheck [--seeds 42,7,1] [--seconds <s>]
//! musuite-benchmark manifest | metrics
//! ```

use musuite_benchmark::json::Json;
use musuite_benchmark::run::{self, Mode, Options};
use musuite_benchmark::{compare, metrics, workload};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// `run_seconds` of BENCHMARK.json, and the default of `--seconds`: the
/// contract's 4 + 22 x 4 runs must fit in 3 420 s with their set-up, so the
/// closed and the open loop get half of this each.
const RUN_SECONDS: u32 = 20;

/// A run that takes longer than this is killed (the contract's limit is 180 s).
const RUN_LIMIT: Duration = Duration::from_secs(170);

fn usage() -> i32 {
    eprintln!(
        "usage: musuite-benchmark run --workload <{}> --seed <u64> [--seconds <s>] [--trace 0|1] [--smoke] [--out <file>]\n       \
         musuite-benchmark suite [--seeds 42,7,1] [--seconds <s>] [--reverse] --out <file>\n       \
         musuite-benchmark compare <a.json> <b.json>\n       \
         musuite-benchmark selfcheck [--seeds 42,7,1] [--seconds <s>]\n       \
         musuite-benchmark manifest | metrics",
        workload::WORKLOADS.map(|w| w.name).join("|")
    );
    2
}

/// `--flag value` pairs and bare flags, in order.
struct Args(Vec<String>);

impl Args {
    fn value(&self, flag: &str) -> Option<&str> {
        self.0.iter().position(|a| a == flag).and_then(|i| self.0.get(i + 1)).map(String::as_str)
    }

    fn parsed<T: std::str::FromStr>(&self, flag: &str) -> Result<Option<T>, String> {
        self.value(flag)
            .map(|v| v.parse::<T>().map_err(|_| format!("{flag}: cannot parse {v:?}")))
            .transpose()
    }

    fn has(&self, flag: &str) -> bool {
        self.0.iter().any(|a| a == flag)
    }
}

fn run_options(args: &Args) -> Result<Options, String> {
    let name = args.value("--workload").ok_or("--workload is required")?;
    let workload = workload::find(name).ok_or_else(|| format!("unknown workload {name:?}"))?;
    let seconds: f64 = args.parsed("--seconds")?.unwrap_or(f64::from(RUN_SECONDS));
    if !(1.0..=600.0).contains(&seconds) {
        return Err(format!("--seconds {seconds} is outside 1..=600"));
    }
    let mode = match args.value("--trace") {
        None => Mode::Full,
        Some("0") => Mode::EndToEnd,
        Some("1") => Mode::PerLayer,
        Some(other) => return Err(format!("--trace takes 0 or 1, not {other:?}")),
    };
    Ok(Options {
        workload,
        seed: args.parsed("--seed")?.ok_or("--seed is required")?,
        seconds,
        mode,
        smoke: args.has("--smoke"),
        out: args.value("--out").map(PathBuf::from),
    })
}

fn cmd_run(args: &Args) -> Result<i32, String> {
    let options = run_options(args)?;
    let (report, cluster) = run::run(&options)?;
    run::print_table(&options, &report);
    if let Some(path) = &options.out {
        write_file(path, &run::run_json(&options, &report).to_pretty())?;
    }
    println!("{}", run::result_line(&report, options.mode).to_line());
    if !run::is_correct(&report, options.mode) {
        // For whoever only sees the tail of stderr.
        eprintln!("error: run is not correct: {} of {} failed", report.failed, report.attempted);
        for note in &report.notes {
            eprintln!("  {note}");
        }
    }
    // Results first, then the teardown: whatever it leaves behind goes with
    // the process.
    if !cluster.tear_down() {
        eprintln!("warning: teardown did not finish in 5 s");
    }
    Ok(i32::from(!run::is_correct(&report, options.mode)))
}

fn write_file(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Runs one workload in a child process of this same binary, so that runs
/// do not share an allocator, counters or leftover threads; kills it when
/// it overruns. Returns the run object the child wrote.
fn child_run(workload: &str, seed: u64, seconds: f64, smoke: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = run::out_dir().join(format!("run_{workload}_{seed}_{}.json", std::process::id()));
    let mut command = Command::new(exe);
    command
        .args(["run", "--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string(), "--out"])
        .arg(&out)
        .stdout(Stdio::null());
    if smoke {
        command.arg("--smoke");
    }
    let mut child = command.spawn().map_err(|e| format!("spawn: {e}"))?;
    let started = Instant::now();
    let status = loop {
        match child.try_wait().map_err(|e| format!("wait: {e}"))? {
            Some(status) => break status,
            None if started.elapsed() > RUN_LIMIT => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!("{workload} seed {seed}: killed after {RUN_LIMIT:?}"));
            }
            None => std::thread::sleep(Duration::from_millis(100)),
        }
    };
    let text = std::fs::read_to_string(&out)
        .map_err(|e| format!("{workload} seed {seed}: exit {status}, no result ({e})"))?;
    let _ = std::fs::remove_file(&out);
    let result = Json::parse(&text)?;
    if !status.success() {
        eprintln!("warning: {workload} seed {seed} exited with {status} (run marked incorrect)");
    }
    Ok(result)
}

/// All workloads for each seed, in order or reversed; one results document.
fn suite(seeds: &[u64], seconds: f64, reverse: bool, smoke: bool) -> Result<Json, String> {
    let mut order: Vec<&str> = workload::WORKLOADS.iter().map(|w| w.name).collect();
    if reverse {
        order.reverse();
    }
    let mut runs = Vec::new();
    for &seed in seeds {
        for name in &order {
            eprintln!("suite: {name} seed {seed}");
            runs.push(child_run(name, seed, seconds, smoke)?);
        }
    }
    Ok(Json::obj([("runs", Json::Arr(runs))]))
}

fn all_correct(document: &Json) -> bool {
    document
        .get("runs")
        .and_then(Json::as_arr)
        .is_some_and(|runs| runs.iter().all(|r| r.get("correct") == Some(&Json::Bool(true))))
}

/// Three seeds by default, so that `compare` has a spread to judge by.
fn seeds_of(args: &Args) -> Result<Vec<u64>, String> {
    args.value("--seeds")
        .unwrap_or("42,7,1")
        .split(',')
        .map(|s| s.trim().parse::<u64>().map_err(|_| format!("--seeds: cannot parse {s:?}")))
        .collect()
}

fn cmd_suite(args: &Args) -> Result<i32, String> {
    let out = PathBuf::from(args.value("--out").ok_or("--out is required")?);
    let seconds = args.parsed("--seconds")?.unwrap_or(f64::from(RUN_SECONDS));
    let document = suite(&seeds_of(args)?, seconds, args.has("--reverse"), args.has("--smoke"))?;
    write_file(&out, &document.to_pretty())?;
    Ok(i32::from(!all_correct(&document)))
}

fn read_document(path: &str) -> Result<Json, String> {
    Json::parse(&std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?)
        .map_err(|e| format!("{path}: {e}"))
}

fn cmd_compare(args: &Args) -> Result<i32, String> {
    let [a, b] = args.0.as_slice() else { return Ok(usage()) };
    let verdicts = compare::compare(&read_document(a)?, &read_document(b)?)?;
    Ok(compare::print(&verdicts))
}

/// Two full sets of runs of the same code, the second in reverse order:
/// per workload, the medians over the seeds must agree on every end-to-end
/// metric within the metric's own bound.
fn cmd_selfcheck(args: &Args) -> Result<i32, String> {
    let seconds = args.parsed("--seconds")?.unwrap_or(f64::from(RUN_SECONDS));
    let seeds = seeds_of(args)?;
    let smoke = args.has("--smoke");
    let first = suite(&seeds, seconds, false, smoke)?;
    let second = suite(&seeds, seconds, true, smoke)?;
    write_file(&run::out_dir().join("selfcheck_a.json"), &first.to_pretty())?;
    write_file(&run::out_dir().join("selfcheck_b.json"), &second.to_pretty())?;
    let verdicts = compare::compare(&first, &second)?;
    compare::print(&verdicts);
    // Against itself, "improved" past the bound is as much a disagreement
    // as "regressed": the bound is too tight for the host's noise.
    let count = |wanted: &[compare::Verdict]| {
        verdicts.iter().filter(|v| v.gated && wanted.contains(&v.verdict)).count()
    };
    let disagree = count(&[compare::Verdict::Regressed, compare::Verdict::Improved]);
    println!(
        "selfcheck: of {} gated metric/workload pairs, {} disagree beyond their bound and {} are unresolved",
        verdicts.iter().filter(|v| v.gated).count(),
        disagree,
        count(&[compare::Verdict::Unresolved]),
    );
    Ok(i32::from(disagree > 0 || !all_correct(&first) || !all_correct(&second)))
}

fn main() {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.is_empty() {
        std::process::exit(usage());
    }
    let command = argv.remove(0);
    let args = Args(argv);
    let outcome = match command.as_str() {
        "run" => cmd_run(&args),
        "suite" => cmd_suite(&args),
        "compare" => cmd_compare(&args),
        "selfcheck" => cmd_selfcheck(&args),
        "manifest" => {
            print!("{}", metrics::manifest(RUN_SECONDS).to_pretty());
            Ok(0)
        }
        "metrics" => {
            print!("{}", metrics::markdown_table());
            Ok(0)
        }
        _ => Ok(usage()),
    };
    let code = outcome.unwrap_or_else(|message| {
        eprintln!("error: {message}");
        1
    });
    // Hard exit: server or client threads a bounded teardown gave up on
    // must not keep the process alive.
    std::process::exit(code);
}
