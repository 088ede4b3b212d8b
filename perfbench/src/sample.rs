//! Process resource sampler: CPU time, minor faults and peak resident
//! memory, read from `/proc/self/stat` and `/proc/self/status`.
//!
//! The CPU and fault counts cover every thread of the process, so the
//! daemon's handler threads and the worker pool are included.

use std::fs;

/// Clock ticks per second of the `utime`/`stime` fields (`USER_HZ`, 100
/// on every Linux architecture this benchmark runs on).
const TICKS_PER_S: f64 = 100.0;

/// One reading of the process's cumulative resource use.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Usage {
    /// User CPU time, milliseconds.
    pub user_ms: f64,
    /// System CPU time, milliseconds.
    pub sys_ms: f64,
    /// Minor page faults.
    pub minflt: u64,
}

impl Usage {
    /// Reads the current process's usage.
    pub fn now() -> Usage {
        let text = fs::read_to_string("/proc/self/stat").expect("reading /proc/self/stat");
        parse_stat(&text).expect("/proc/self/stat has the documented layout")
    }

    /// User plus system CPU time, milliseconds.
    pub fn cpu_ms(&self) -> f64 {
        self.user_ms + self.sys_ms
    }

    /// The usage accrued since `earlier`.
    pub fn since(&self, earlier: &Usage) -> Usage {
        Usage {
            user_ms: self.user_ms - earlier.user_ms,
            sys_ms: self.sys_ms - earlier.sys_ms,
            minflt: self.minflt - earlier.minflt,
        }
    }
}

/// Parses `/proc/<pid>/stat`. The command name (field 2) may contain
/// spaces and parentheses, so fields are counted from the last `)`.
pub fn parse_stat(text: &str) -> Option<Usage> {
    let rest = &text[text.rfind(')')? + 1..];
    // Fields after the name, numbered as in proc(5): state is field 3,
    // minflt field 10, utime field 14 and stime field 15.
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let field = |n: usize| fields.get(n - 3)?.parse::<u64>().ok();
    Some(Usage {
        user_ms: field(14)? as f64 * 1e3 / TICKS_PER_S,
        sys_ms: field(15)? as f64 * 1e3 / TICKS_PER_S,
        minflt: field(10)?,
    })
}

/// Peak resident set size (`VmHWM`) of the current process, in MiB.
pub fn peak_rss_mb() -> f64 {
    let text = fs::read_to_string("/proc/self/status").expect("reading /proc/self/status");
    let kb = parse_vmhwm_kb(&text).expect("/proc/self/status has a VmHWM line");
    kb as f64 / 1024.0
}

/// The `VmHWM` line of `/proc/<pid>/status`, in KiB.
pub fn parse_vmhwm_kb(text: &str) -> Option<u64> {
    text.lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    const STAT: &str = "4242 (perf bench (x)) R 1 4242 4242 0 -1 4194304 \
        1500 0 2 0 123 45 0 0 20 0 3 0 100 123456789 2048 \
        18446744073709551615 1 1 0 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0";

    #[test]
    fn stat_fields_count_from_the_last_parenthesis() {
        let usage = parse_stat(STAT).expect("valid stat line");
        assert_eq!(usage.minflt, 1500);
        assert_eq!(usage.user_ms, 1230.0);
        assert_eq!(usage.sys_ms, 450.0);
        assert_eq!(usage.cpu_ms(), 1680.0);
    }

    #[test]
    fn truncated_stat_is_rejected() {
        assert_eq!(parse_stat("4242 (bench) R 1 2 3"), None);
        assert_eq!(parse_stat("no parenthesis"), None);
    }

    #[test]
    fn vmhwm_is_read_in_kib() {
        let status = "Name:\tperfbench\nVmPeak:\t  900000 kB\nVmHWM:\t  204800 kB\nVmRSS:\t 1 kB\n";
        assert_eq!(parse_vmhwm_kb(status), Some(204_800));
        assert_eq!(parse_vmhwm_kb("Name:\tx\n"), None);
    }

    #[test]
    fn live_readings_move_forward() {
        let before = Usage::now();
        let mut x = 0u64;
        for i in 0..2_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        let spent = Usage::now().since(&before);
        assert!(spent.cpu_ms() >= 0.0);
        assert!(peak_rss_mb() > 0.0);
    }
}
