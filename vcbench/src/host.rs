//! Host diagnostics recorded on every run: core count, hypervisor steal
//! and the process's peak resident set.
//!
//! All three read Linux `/proc`; elsewhere steal and peak RSS read as 0.

/// Cores this process may run on.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Aggregate CPU time counters from the first line of `/proc/stat`, in
/// clock ticks: (steal, total).
#[derive(Clone, Copy, Debug, Default)]
pub struct CpuTicks {
    steal: u64,
    total: u64,
}

impl CpuTicks {
    /// Reads the counters now.
    pub fn now() -> Self {
        let Ok(stat) = std::fs::read_to_string("/proc/stat") else {
            return Self::default();
        };
        let fields: Vec<u64> = stat
            .lines()
            .next()
            .unwrap_or("")
            .split_whitespace()
            .skip(1)
            .filter_map(|f| f.parse().ok())
            .collect();
        // user nice system idle iowait irq softirq steal guest guest_nice;
        // guest time is already counted in user, so it is left out.
        Self {
            steal: fields.get(7).copied().unwrap_or(0),
            total: fields.iter().take(8).sum(),
        }
    }

    /// The share of all CPU time between `self` and `later` that the
    /// hypervisor took away (steal).
    pub fn steal_frac_until(&self, later: &CpuTicks) -> f64 {
        let total = later.total.saturating_sub(self.total);
        if total == 0 {
            return 0.0;
        }
        later.steal.saturating_sub(self.steal) as f64 / total as f64
    }
}

/// `VmHWM` of this process in MiB: the peak resident set so far.
pub fn peak_rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// CPU seconds this process has used, all threads, from `/proc/self/stat`.
pub fn process_cpu_s() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line, in USER_HZ (100/s) ticks.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let ticks: u64 = rest
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|f| f.parse::<u64>().ok())
        .sum();
    ticks as f64 / 100.0
}

/// One timed unit: its wall time and the hypervisor steal during it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Unit {
    /// Wall-clock milliseconds.
    pub ms: f64,
    /// Share of all CPU time the hypervisor stole while the unit ran.
    pub steal: f64,
}

/// Times one unit. The steal counters are read before the stopwatch
/// starts and after it stops, so reading them costs the unit nothing.
#[derive(Debug)]
pub struct UnitClock {
    ticks: CpuTicks,
    sw: vc_trace::time::Stopwatch,
}

impl UnitClock {
    /// Starts timing a unit now.
    pub fn start() -> Self {
        let ticks = CpuTicks::now();
        Self {
            ticks,
            sw: vc_trace::time::Stopwatch::start(),
        }
    }

    /// Milliseconds since the start, without reading the steal counters.
    pub fn ms(&self) -> f64 {
        crate::ms(&self.sw)
    }

    /// The unit so far: wall time and steal share since the start.
    pub fn lap(&self) -> Unit {
        let ms = self.ms();
        Unit {
            ms,
            steal: self.ticks.steal_frac_until(&CpuTicks::now()),
        }
    }
}

/// Measures a timed phase: wall time, hypervisor steal and the average
/// number of busy threads of this process.
#[derive(Debug)]
pub struct PhaseMeter {
    sw: vc_trace::time::Stopwatch,
    ticks: CpuTicks,
    cpu_s: f64,
}

impl PhaseMeter {
    /// Starts measuring now.
    pub fn start() -> Self {
        Self {
            ticks: CpuTicks::now(),
            cpu_s: process_cpu_s(),
            sw: vc_trace::time::Stopwatch::start(),
        }
    }

    /// The phase's stopwatch.
    pub fn clock(&self) -> &vc_trace::time::Stopwatch {
        &self.sw
    }

    /// Wall seconds, steal share and busy threads since the start.
    pub fn finish(&self, log: &mut crate::LoopLog) {
        let wall = self.sw.elapsed().as_secs_f64();
        log.phase_s = wall;
        log.steal_frac = self.ticks.steal_frac_until(&CpuTicks::now());
        log.busy_threads = if wall > 0.0 {
            (process_cpu_s() - self.cpu_s) / wall
        } else {
            0.0
        };
    }
}
