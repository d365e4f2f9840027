//! Peak resident memory, read from `/proc/self/status`.
//!
//! `VmHWM` is a high-water mark: it never falls within a process, so a
//! study's peak is only meaningful in a process that ran nothing else.
//! The benchmark therefore measures it in a fresh child of its own
//! executable (see `main.rs`, `--rss-child`).

/// The `VmHWM` line of a `/proc/<pid>/status` text, in kB.
pub fn parse_vmhwm_kb(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut words = line["VmHWM:".len()..].split_whitespace();
    let value = words.next()?.parse().ok()?;
    match words.next() {
        Some("kB") => Some(value),
        _ => None,
    }
}

/// This process's peak resident set, kB.
pub fn self_vmhwm_kb() -> Option<u64> {
    parse_vmhwm_kb(&std::fs::read_to_string("/proc/self/status").ok()?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_vmhwm_line() {
        let status = "Name:\tdles-perfbench\nVmPeak:\t  123456 kB\nVmHWM:\t   34816 kB\nVmRSS:\t   30000 kB\n";
        assert_eq!(parse_vmhwm_kb(status), Some(34816));
    }

    #[test]
    fn rejects_missing_or_malformed_lines() {
        assert_eq!(parse_vmhwm_kb("VmRSS:\t 10 kB\n"), None);
        assert_eq!(parse_vmhwm_kb("VmHWM:\t lots kB\n"), None);
        assert_eq!(parse_vmhwm_kb("VmHWM:\t 10 MB\n"), None);
        assert_eq!(parse_vmhwm_kb("VmHWM:\t 10\n"), None);
    }

    #[test]
    fn reads_this_process() {
        assert!(self_vmhwm_kb().is_some_and(|kb| kb > 0));
    }
}
