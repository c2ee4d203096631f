//! What the host says about this process: peak memory and CPU time.
//!
//! Linux `/proc` only; on a platform without it every reader returns `None`
//! and the metric is reported as missing rather than invented.

use std::fs;

/// Clock ticks per second of `/proc/self/stat`'s `utime`/`stime` fields.
/// `USER_HZ` is 100 on every Linux ABI.
const USER_HZ: f64 = 100.0;

/// Peak resident set (`VmHWM`) of this process, in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// `(user seconds, system seconds)` this process has consumed so far.
pub fn cpu_times_s() -> Option<(f64, f64)> {
    let stat = fs::read_to_string("/proc/self/stat").ok()?;
    // The command name may contain spaces; fields are counted after its ')'.
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace();
    // After the command: state is field 3, utime 14, stime 15 (1-based).
    let utime: f64 = fields.nth(11)?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime / USER_HZ, stime / USER_HZ))
}

/// Hardware threads available to this process (1 when unknown).
pub fn nproc() -> u64 {
    std::thread::available_parallelism().map_or(1, |n| n.get() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[cfg(target_os = "linux")]
    fn proc_readers_answer_on_linux() {
        assert!(peak_rss_mib().unwrap() > 0.0);
        let (user, sys) = cpu_times_s().unwrap();
        assert!(user >= 0.0 && sys >= 0.0);
        assert!(nproc() >= 1);
    }
}
