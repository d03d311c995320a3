//! CPU time and peak RSS of a process, read from procfs (Linux only).

/// Clock ticks per second of `/proc/<pid>/stat` times (`USER_HZ`, which
/// Linux fixes at 100 on every mainstream architecture).
const USER_HZ: f64 = 100.0;

/// User + system CPU time of every thread of `pid`, in milliseconds.
pub fn cpu_ms(pid: u32) -> Result<f64, String> {
    let path = format!("/proc/{pid}/stat");
    let stat = std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))?;
    // Fields after the parenthesised command name, which may hold spaces:
    // the state is field 3, utime and stime are fields 14 and 15.
    let rest = stat
        .rsplit_once(')')
        .map(|(_, rest)| rest)
        .ok_or_else(|| format!("malformed {path}"))?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| -> Result<f64, String> {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .map(|t| t as f64)
            .ok_or_else(|| format!("malformed {path}"))
    };
    Ok((ticks(11)? + ticks(12)?) * 1000.0 / USER_HZ)
}

/// Peak resident set size (`VmHWM`) of `pid`, in KiB.
pub fn peak_rss_kib(pid: u32) -> Result<u64, String> {
    let path = format!("/proc/{pid}/status");
    let status = std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| format!("no VmHWM in {path}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_this_process() {
        let pid = std::process::id();
        assert!(cpu_ms(pid).unwrap() >= 0.0);
        assert!(peak_rss_kib(pid).unwrap() > 0);
    }
}
