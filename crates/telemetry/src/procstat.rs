//! `/proc` sampling: context switches and scheduler run-queue delay.
//!
//! Fig. 19 of the paper reports context-switch counts (via `perf`) and the
//! `Sched`/`Active-Exe` stages come from eBPF `runqlat`. The kernel exports
//! both signals through procfs without any probe privileges:
//!
//! * `/proc/self/status` — `voluntary_ctxt_switches` and
//!   `nonvoluntary_ctxt_switches` per thread; summed over
//!   `/proc/self/task/*` for the whole process.
//! * `/proc/self/task/<tid>/schedstat` — cumulative on-CPU time, **run-queue
//!   wait time** (exactly what `runqlat` histograms), and timeslice count.
//!
//! On non-Linux hosts both samplers degrade to zeroed readings so the suite
//! still builds and runs (the figures then lean on the userspace probes).

use std::fmt;
use std::fs;
use std::io;
use std::ops::Sub;
use std::path::Path;
use std::time::Duration;

/// A point-in-time reading of process-wide context-switch counts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ContextSwitches {
    /// Context switches where the thread yielded the CPU itself (blocking).
    pub voluntary: u64,
    /// Context switches forced by the scheduler (preemption).
    pub nonvoluntary: u64,
}

impl ContextSwitches {
    /// Samples context switches for every thread of the current process.
    /// A thread that exits takes its counts out of the sum, so two samples
    /// compare only over threads that outlive both.
    ///
    /// # Errors
    ///
    /// Returns an error if procfs is unreadable (non-Linux hosts should use
    /// [`ContextSwitches::sample_or_default`]).
    pub fn sample() -> io::Result<ContextSwitches> {
        let mut total = ContextSwitches::default();
        for entry in fs::read_dir("/proc/self/task")? {
            // A thread that exits mid-walk is skipped, not an error.
            let Ok(entry) = entry else { continue };
            if let Ok(cs) = Self::parse_status(&entry.path().join("status")) {
                total.voluntary += cs.voluntary;
                total.nonvoluntary += cs.nonvoluntary;
            }
        }
        Ok(total)
    }

    /// Samples context switches, returning zeros when procfs is unavailable.
    pub fn sample_or_default() -> ContextSwitches {
        Self::sample().unwrap_or_default()
    }

    fn parse_status(path: &Path) -> io::Result<ContextSwitches> {
        let text = fs::read_to_string(path)?;
        Ok(Self::parse_status_text(&text))
    }

    fn parse_status_text(text: &str) -> ContextSwitches {
        let mut cs = ContextSwitches::default();
        for line in text.lines() {
            if let Some(rest) = line.strip_prefix("voluntary_ctxt_switches:") {
                cs.voluntary = rest.trim().parse().unwrap_or(0);
            } else if let Some(rest) = line.strip_prefix("nonvoluntary_ctxt_switches:") {
                cs.nonvoluntary = rest.trim().parse().unwrap_or(0);
            }
        }
        cs
    }

    /// Total switches of both kinds.
    pub fn total(&self) -> u64 {
        self.voluntary + self.nonvoluntary
    }
}

impl Sub for ContextSwitches {
    type Output = ContextSwitches;

    fn sub(self, earlier: ContextSwitches) -> ContextSwitches {
        ContextSwitches {
            voluntary: self.voluntary.saturating_sub(earlier.voluntary),
            nonvoluntary: self.nonvoluntary.saturating_sub(earlier.nonvoluntary),
        }
    }
}

impl fmt::Display for ContextSwitches {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} voluntary + {} nonvoluntary", self.voluntary, self.nonvoluntary)
    }
}

/// A point-in-time reading of the kernel scheduler's per-process statistics.
///
/// `run_delay` is the cumulative time threads of this process spent
/// *runnable but waiting for a CPU* — the kernel's ground truth for the
/// paper's `Active-Exe`/`Sched` stages.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedStat {
    /// Cumulative time spent executing on a CPU.
    pub on_cpu: Duration,
    /// Cumulative time spent runnable, waiting on a run queue.
    pub run_delay: Duration,
    /// Number of timeslices run.
    pub timeslices: u64,
}

impl SchedStat {
    /// Samples schedstat summed over every live thread of this process,
    /// skipping threads that exit mid-walk (see
    /// [`ContextSwitches::sample`] on comparing two samples).
    ///
    /// # Errors
    ///
    /// Returns an error if procfs is unreadable.
    pub fn sample() -> io::Result<SchedStat> {
        let mut total = SchedStat::default();
        for entry in fs::read_dir("/proc/self/task")? {
            let Ok(entry) = entry else { continue };
            let path = entry.path().join("schedstat");
            if let Ok(text) = fs::read_to_string(&path) {
                if let Some(stat) = Self::parse(&text) {
                    total.on_cpu += stat.on_cpu;
                    total.run_delay += stat.run_delay;
                    total.timeslices += stat.timeslices;
                }
            }
        }
        Ok(total)
    }

    /// Samples schedstat, returning zeros when procfs is unavailable.
    pub fn sample_or_default() -> SchedStat {
        Self::sample().unwrap_or_default()
    }

    fn parse(text: &str) -> Option<SchedStat> {
        let mut parts = text.split_whitespace();
        let on_cpu_ns: u64 = parts.next()?.parse().ok()?;
        let run_delay_ns: u64 = parts.next()?.parse().ok()?;
        let timeslices: u64 = parts.next()?.parse().ok()?;
        Some(SchedStat {
            on_cpu: Duration::from_nanos(on_cpu_ns),
            run_delay: Duration::from_nanos(run_delay_ns),
            timeslices,
        })
    }

    /// Difference `self - earlier`, saturating at zero.
    pub fn since(&self, earlier: &SchedStat) -> SchedStat {
        SchedStat {
            on_cpu: self.on_cpu.saturating_sub(earlier.on_cpu),
            run_delay: self.run_delay.saturating_sub(earlier.run_delay),
            timeslices: self.timeslices.saturating_sub(earlier.timeslices),
        }
    }

    /// Mean run-queue delay per timeslice, or zero if no slices ran.
    pub fn mean_run_delay(&self) -> Duration {
        if self.timeslices == 0 {
            Duration::ZERO
        } else {
            self.run_delay / self.timeslices as u32
        }
    }
}

/// A point-in-time reading of host-wide TCP segment counters from
/// `/proc/net/snmp` — the userspace analog of the paper's eBPF
/// `tcpretrans` measurement ("we report network delays in terms of the
/// number of TCP re-transmissions", §V; the paper sees only single-digit
/// counts, and loopback should see essentially none).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TcpStats {
    /// Segments sent (`OutSegs`).
    pub out_segs: u64,
    /// Segments retransmitted (`RetransSegs`).
    pub retrans_segs: u64,
}

impl TcpStats {
    /// Samples `/proc/net/snmp`.
    ///
    /// # Errors
    ///
    /// Returns an error if procfs is unreadable or the Tcp rows are
    /// missing.
    pub fn sample() -> io::Result<TcpStats> {
        let text = fs::read_to_string("/proc/net/snmp")?;
        Self::parse(&text).ok_or_else(|| {
            io::Error::new(io::ErrorKind::InvalidData, "no Tcp rows in /proc/net/snmp")
        })
    }

    /// Samples TCP stats, returning zeros when procfs is unavailable.
    pub fn sample_or_default() -> TcpStats {
        fs::read_to_string("/proc/net/snmp")
            .ok()
            .and_then(|text| Self::parse(&text))
            .unwrap_or_default()
    }

    fn parse(text: &str) -> Option<TcpStats> {
        let mut lines = text.lines().filter(|l| l.starts_with("Tcp:"));
        let header = lines.next()?;
        let values = lines.next()?;
        let fields: Vec<&str> = header.split_whitespace().collect();
        let numbers: Vec<&str> = values.split_whitespace().collect();
        let find = |name: &str| {
            fields
                .iter()
                .position(|f| *f == name)
                .and_then(|i| numbers.get(i))
                .and_then(|v| v.parse::<u64>().ok())
        };
        Some(TcpStats { out_segs: find("OutSegs")?, retrans_segs: find("RetransSegs")? })
    }

    /// Difference `self - earlier`, saturating at zero.
    pub fn since(&self, earlier: &TcpStats) -> TcpStats {
        TcpStats {
            out_segs: self.out_segs.saturating_sub(earlier.out_segs),
            retrans_segs: self.retrans_segs.saturating_sub(earlier.retrans_segs),
        }
    }
}

/// Static host description, the analog of the paper's Table II.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HostInfo {
    /// CPU model string from `/proc/cpuinfo`.
    pub cpu_model: String,
    /// Number of logical CPUs available.
    pub logical_cpus: usize,
    /// Total memory in kilobytes from `/proc/meminfo`.
    pub mem_total_kb: u64,
    /// Kernel version from `/proc/sys/kernel/osrelease`.
    pub kernel: String,
}

impl HostInfo {
    /// Probes the host, tolerating missing procfs entries.
    pub fn probe() -> HostInfo {
        let cpu_model = fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|text| {
                text.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|s| s.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        let logical_cpus = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        let mem_total_kb = fs::read_to_string("/proc/meminfo")
            .ok()
            .and_then(|text| {
                text.lines()
                    .find(|l| l.starts_with("MemTotal"))
                    .and_then(|l| l.split_whitespace().nth(1))
                    .and_then(|v| v.parse().ok())
            })
            .unwrap_or(0);
        let kernel = fs::read_to_string("/proc/sys/kernel/osrelease")
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".to_string());
        HostInfo { cpu_model, logical_cpus, mem_total_kb, kernel }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_status_text() {
        let text = "Name:\ttest\nvoluntary_ctxt_switches:\t42\nnonvoluntary_ctxt_switches:\t7\n";
        let cs = ContextSwitches::parse_status_text(text);
        assert_eq!(cs.voluntary, 42);
        assert_eq!(cs.nonvoluntary, 7);
        assert_eq!(cs.total(), 49);
    }

    #[test]
    fn parse_status_missing_fields() {
        let cs = ContextSwitches::parse_status_text("Name:\ttest\n");
        assert_eq!(cs.total(), 0);
    }

    #[test]
    fn parse_schedstat() {
        let stat = SchedStat::parse("12345678 987654 321\n").unwrap();
        assert_eq!(stat.on_cpu, Duration::from_nanos(12_345_678));
        assert_eq!(stat.run_delay, Duration::from_nanos(987_654));
        assert_eq!(stat.timeslices, 321);
    }

    #[test]
    fn parse_schedstat_garbage() {
        assert!(SchedStat::parse("not numbers").is_none());
        assert!(SchedStat::parse("1 2").is_none());
    }

    #[test]
    fn subtraction_saturates() {
        let a = ContextSwitches { voluntary: 5, nonvoluntary: 5 };
        let b = ContextSwitches { voluntary: 10, nonvoluntary: 2 };
        let d = a - b;
        assert_eq!(d.voluntary, 0);
        assert_eq!(d.nonvoluntary, 3);
    }

    #[test]
    fn schedstat_since_and_mean() {
        let earlier = SchedStat {
            on_cpu: Duration::from_nanos(100),
            run_delay: Duration::from_nanos(50),
            timeslices: 5,
        };
        let later = SchedStat {
            on_cpu: Duration::from_nanos(300),
            run_delay: Duration::from_nanos(150),
            timeslices: 15,
        };
        let d = later.since(&earlier);
        assert_eq!(d.run_delay, Duration::from_nanos(100));
        assert_eq!(d.timeslices, 10);
        assert_eq!(d.mean_run_delay(), Duration::from_nanos(10));
        assert_eq!(SchedStat::default().mean_run_delay(), Duration::ZERO);
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn live_sampling_works_on_linux() {
        // A process-wide sum can fall between two samples — threads of
        // other tests exit and take their counts with them — so the
        // assertions are about this thread's own counters.
        let own_switches = || {
            ContextSwitches::parse_status(Path::new("/proc/thread-self/status")).expect("status")
        };
        let own_sched = || {
            let text = fs::read_to_string("/proc/thread-self/schedstat").expect("schedstat");
            SchedStat::parse(&text).expect("three numbers")
        };
        let (cs1, ss1) = (own_switches(), own_sched());
        // Force at least one voluntary switch, and one more timeslice.
        std::thread::sleep(Duration::from_millis(5));
        let (cs2, ss2) = (own_switches(), own_sched());
        assert!(cs2.voluntary > cs1.voluntary, "{cs1} -> {cs2}");
        assert!(ss2.timeslices > ss1.timeslices, "{ss1:?} -> {ss2:?}");
        // The process-wide samplers count this thread among the live ones.
        assert!(ContextSwitches::sample().expect("procfs").total() >= cs2.total());
        assert!(SchedStat::sample().expect("procfs").timeslices >= ss2.timeslices);
    }

    #[test]
    fn parse_tcp_snmp() {
        let text = "Ip: Forwarding DefaultTTL\nIp: 1 64\n\
                    Tcp: RtoAlgorithm RtoMin OutSegs RetransSegs\n\
                    Tcp: 1 200 123456 42\n";
        let stats = TcpStats::parse(text).unwrap();
        assert_eq!(stats.out_segs, 123_456);
        assert_eq!(stats.retrans_segs, 42);
    }

    #[test]
    fn parse_tcp_snmp_missing_rows() {
        assert!(TcpStats::parse("Ip: Forwarding\nIp: 1\n").is_none());
        assert!(TcpStats::parse("Tcp: OutSegs\n").is_none());
    }

    #[test]
    fn tcp_stats_since_saturates() {
        let a = TcpStats { out_segs: 10, retrans_segs: 1 };
        let b = TcpStats { out_segs: 4, retrans_segs: 3 };
        let d = a.since(&b);
        assert_eq!(d.out_segs, 6);
        assert_eq!(d.retrans_segs, 0);
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn live_tcp_sampling() {
        let stats = TcpStats::sample_or_default();
        // Any networked host has sent at least some segments.
        assert!(stats.out_segs > 0 || stats.retrans_segs == 0);
    }

    #[test]
    fn host_info_probe_is_total() {
        let info = HostInfo::probe();
        assert!(info.logical_cpus >= 1);
        assert!(!info.kernel.is_empty());
    }

    #[test]
    fn context_switch_display() {
        let cs = ContextSwitches { voluntary: 1, nonvoluntary: 2 };
        assert_eq!(cs.to_string(), "1 voluntary + 2 nonvoluntary");
    }
}
