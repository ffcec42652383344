//! Host control and read-outs: confinement to one CPU, the idle-poll
//! thread, per-thread CPU accounting, steal, peak RSS. Everything degrades
//! to "unknown" off Linux.
//!
//! Why confine: on a 2-vCPU shared VM every blocked hand-off between
//! threads on different vCPUs costs an inter-processor interrupt and, when
//! the target vCPU has halted, a wait for the hypervisor to run it again —
//! tens of microseconds to milliseconds, depending on what the host's other
//! tenants do. Unconfined, Router spent ~90 µs of CPU per request and
//! identical runs differed two- to tenfold; on one vCPU, with a thread that
//! keeps that vCPU from halting, the same binary spends ~38 µs per request
//! and repeats far better, because what is left is the program's own work.

use std::fs;
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;

fn allowed_cpus() -> Option<Vec<usize>> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let list = status.lines().find_map(|l| l.strip_prefix("Cpus_allowed_list:"))?;
    parse_cpu_list(list.trim())
}

fn parse_cpu_list(list: &str) -> Option<Vec<usize>> {
    let mut cpus = Vec::new();
    for part in list.split(',').filter(|p| !p.is_empty()) {
        match part.split_once('-') {
            Some((lo, hi)) => {
                cpus.extend(lo.trim().parse::<usize>().ok()?..=hi.trim().parse().ok()?)
            }
            None => cpus.push(part.trim().parse().ok()?),
        }
    }
    Some(cpus)
}

/// Confines this thread — and so every thread spawned after it — to the
/// highest-numbered CPU it may run on (housekeeping tends to sit on CPU 0).
/// Must run before any thread is spawned. Affinity has no safe std API, so
/// this asks util-linux's `taskset`; without it the run goes on unconfined
/// and says so. Returns the number of CPUs the process may use afterwards.
pub fn confine_to_one_cpu(notes: &mut Vec<String>) -> usize {
    let Some(cpus) = allowed_cpus() else {
        notes.push("host: CPU affinity unknown (no procfs); not confined".to_string());
        return 1;
    };
    let Some(&target) = cpus.last() else { return 1 };
    if cpus.len() == 1 {
        return 1;
    }
    let pinned = Command::new("taskset")
        .args(["-cp", &target.to_string(), &std::process::id().to_string()])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .is_ok_and(|status| status.success());
    match allowed_cpus() {
        Some(now) if pinned && now == [target] => {
            notes.push(format!("host: confined to CPU {target} of {cpus:?}"));
            1
        }
        _ => {
            notes.push(format!(
                "host: could not confine to one CPU (taskset missing?); running on {cpus:?}, expect wider spreads"
            ));
            cpus.len()
        }
    }
}

/// Threads that keep the CPUs from halting while the benchmark measures
/// (the kernel's `idle=poll`, from user space). Each is moved to the
/// `SCHED_IDLE` class (util-linux's `chrt`; std has no call for it), so it
/// runs only when nothing else wants the CPU: at normal priority a spinner is
/// owed a fair share, and took 15 % of a single-threaded index build. Their
/// CPU time and context switches are left out of every read-out.
pub struct IdlePoll {
    stop: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
    /// Kernel thread ids of the pollers, for [`ThreadTimes::sample`].
    pub tids: Vec<u32>,
}

impl IdlePoll {
    pub fn start(count: usize, notes: &mut Vec<String>) -> IdlePoll {
        let stop = Arc::new(AtomicBool::new(false));
        let (tx, rx) = mpsc::channel();
        let threads = (0..count)
            .map(|_| {
                let (stop, tx) = (stop.clone(), tx.clone());
                std::thread::Builder::new()
                    .name("bench-idle-poll".to_string())
                    .spawn(move || {
                        let _ = tx.send(own_tid());
                        while !stop.load(Ordering::Relaxed) {
                            for _ in 0..64 {
                                std::hint::spin_loop();
                            }
                            std::thread::yield_now();
                        }
                    })
                    .expect("spawn idle-poll thread")
            })
            .collect::<Vec<_>>();
        let tids: Vec<u32> = (0..count).filter_map(|_| rx.recv().ok().flatten()).collect();
        let demoted = tids.iter().all(|tid| {
            Command::new("chrt")
                .args(["--idle", "--pid", "0", &tid.to_string()])
                .stdin(Stdio::null())
                .stdout(Stdio::null())
                .stderr(Stdio::null())
                .status()
                .is_ok_and(|status| status.success())
        });
        if !demoted || tids.len() < count {
            notes.push(
                "host: idle-poll thread left at normal priority (chrt missing?); it competes with the servers"
                    .to_string(),
            );
        }
        IdlePoll { stop, threads, tids }
    }
}

impl Drop for IdlePoll {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        for thread in self.threads.drain(..) {
            let _ = thread.join();
        }
    }
}

fn own_tid() -> Option<u32> {
    // "<pid>/task/<tid>"
    let link = fs::read_link("/proc/thread-self").ok()?;
    link.file_name()?.to_str()?.parse().ok()
}

/// CPU time, run-queue delay and context switches summed over the
/// process's threads, minus the idle-poll threads (which is why this is not
/// `musuite_telemetry::procstat`: its samplers sum every thread).
#[derive(Debug, Clone, Copy, Default)]
pub struct ThreadTimes {
    pub on_cpu_ns: u64,
    pub run_delay_ns: u64,
    pub context_switches: u64,
}

impl ThreadTimes {
    /// `with_switches` also reads each thread's `status` (twice the reads);
    /// the closed loop's per-slice samples only need the times.
    pub fn sample(exclude: &[u32], with_switches: bool) -> ThreadTimes {
        let mut total = ThreadTimes::default();
        let Ok(tasks) = fs::read_dir("/proc/self/task") else { return total };
        for task in tasks.flatten() {
            let tid = task.file_name().to_str().and_then(|n| n.parse::<u32>().ok());
            if tid.is_none() || tid.is_some_and(|tid| exclude.contains(&tid)) {
                continue;
            }
            if let Ok(text) = fs::read_to_string(task.path().join("schedstat")) {
                let mut fields = text.split_whitespace().map(|f| f.parse::<u64>().unwrap_or(0));
                total.on_cpu_ns += fields.next().unwrap_or(0);
                total.run_delay_ns += fields.next().unwrap_or(0);
            }
            if with_switches {
                if let Ok(text) = fs::read_to_string(task.path().join("status")) {
                    total.context_switches += switches_in(&text);
                }
            }
        }
        total
    }
}

fn switches_in(status: &str) -> u64 {
    status
        .lines()
        .filter(|l| {
            l.starts_with("voluntary_ctxt_switches") || l.starts_with("nonvoluntary_ctxt_switches")
        })
        .filter_map(|l| l.split_whitespace().nth(1)?.parse::<u64>().ok())
        .sum()
}

/// Aggregate jiffies from the first line of `/proc/stat`.
#[derive(Debug, Clone, Copy, Default)]
pub struct CpuTimes {
    pub total: u64,
    pub steal: u64,
}

impl CpuTimes {
    pub fn sample() -> Option<CpuTimes> {
        Self::parse(&fs::read_to_string("/proc/stat").ok()?)
    }

    fn parse(text: &str) -> Option<CpuTimes> {
        let line = text.lines().find(|l| l.starts_with("cpu "))?;
        let fields: Vec<u64> =
            line.split_whitespace().skip(1).filter_map(|f| f.parse().ok()).collect();
        // user nice system idle iowait irq softirq steal [guest guest_nice];
        // guest time is already inside user time, so only the first eight add up.
        (fields.len() >= 8).then(|| CpuTimes { total: fields[..8].iter().sum(), steal: fields[7] })
    }

    /// Share of all CPU time since `earlier` that the hypervisor took away.
    pub fn steal_ratio_since(&self, earlier: &CpuTimes) -> Option<f64> {
        let total = self.total.checked_sub(earlier.total)?;
        (total > 0).then(|| self.steal.saturating_sub(earlier.steal) as f64 / total as f64)
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_proc_stat_and_steal_share() {
        let a = CpuTimes::parse("cpu  100 0 50 800 10 0 5 35 7 0\ncpu0 1 2 3\n").unwrap();
        assert_eq!((a.total, a.steal), (1000, 35));
        let b = CpuTimes::parse("cpu  150 0 80 1600 10 0 5 155 9 0\n").unwrap();
        assert!((b.steal_ratio_since(&a).unwrap() - 0.12).abs() < 1e-12);
        assert!(a.steal_ratio_since(&a).is_none());
        assert!(CpuTimes::parse("cpu 1 2 3\n").is_none());
    }

    #[test]
    fn parses_cpu_lists_and_switch_counts() {
        assert_eq!(parse_cpu_list("0-1"), Some(vec![0, 1]));
        assert_eq!(parse_cpu_list("0,2-3,7"), Some(vec![0, 2, 3, 7]));
        assert_eq!(parse_cpu_list("x"), None);
        let status = "Name:\tt\nvoluntary_ctxt_switches:\t42\nnonvoluntary_ctxt_switches:\t7\n";
        assert_eq!(switches_in(status), 49);
    }

    #[test]
    fn idle_poll_threads_are_left_out_of_the_cpu_sum() {
        let poll = IdlePoll::start(1, &mut Vec::new());
        if poll.tids.is_empty() {
            return; // no procfs: nothing to exclude
        }
        // The poller runs at idle priority, so give it time to be scheduled
        // at all next to the other tests. Sampling the full sum first keeps
        // the difference at or below the poller's own CPU time.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        loop {
            let all = ThreadTimes::sample(&[], false).on_cpu_ns;
            let without = ThreadTimes::sample(&poll.tids, false).on_cpu_ns;
            if all.saturating_sub(without) > 2_000_000 {
                return;
            }
            assert!(std::time::Instant::now() < deadline, "poller's CPU time never left the sum");
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
    }
}
