//! Best-effort `/proc` resource probes: CPU time and resident-set size.
//!
//! Every probe follows one contract: read a `/proc` file, parse, return
//! `Option` — `None` on any platform or parse hiccup, never an error
//! and never a panic. The manifest stamps its `resources` section with
//! them, and [`crate::span`] samples thread CPU time at span
//! enter/exit.
//!
//! # CPU-time caveats
//!
//! `/proc/*/stat` reports `utime`/`stime` in clock ticks. Without libc
//! there is no `sysconf(_SC_CLK_TCK)`, so the conversion assumes the
//! near-universal Linux default of **100 ticks/second**; on a kernel
//! configured otherwise the absolute values scale by a constant factor
//! (ratios — skew tables, wall-vs-CPU contention — are unaffected).
//! That 10ms granularity also means short spans legitimately read 0
//! CPU; totals accumulate coarsely and only become meaningful for spans
//! well above the tick.

/// Assumed kernel tick rate (`USER_HZ`); see the module docs.
const TICKS_PER_SEC: u64 = 100;

/// Parses `utime + stime` (fields 14 and 15) out of a `/proc/*/stat`
/// line and converts ticks to microseconds. The comm field (2) is an
/// arbitrary string in parentheses — possibly containing spaces or even
/// `)` — so fields are counted from the *last* `)`.
fn stat_cpu_us(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace();
    // After the comm field: state is field 3, so utime (14) and stime
    // (15) are the 12th and 13th tokens of the remainder.
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) * 1_000_000 / TICKS_PER_SEC)
}

/// Looks up a `kB`-valued field in `/proc/self/status` text.
fn status_kb(status: &str, key: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with(key))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// CPU time (user + system) consumed by the **calling thread**, in
/// microseconds, from `/proc/thread-self/stat`. `None` where `/proc`
/// is unavailable.
pub fn thread_cpu_us() -> Option<u64> {
    stat_cpu_us(&std::fs::read_to_string("/proc/thread-self/stat").ok()?)
}

/// CPU time (user + system) consumed by the **whole process** across
/// all threads, in microseconds, from `/proc/self/stat`.
pub fn process_cpu_us() -> Option<u64> {
    stat_cpu_us(&std::fs::read_to_string("/proc/self/stat").ok()?)
}

/// Peak resident-set size of this process in KiB (`VmHWM` — the
/// high-water mark since exec), read from `/proc/self/status`. `None`
/// where `/proc` is unavailable — callers treat RSS as best-effort.
pub fn peak_rss_kb() -> Option<u64> {
    status_kb(&std::fs::read_to_string("/proc/self/status").ok()?, "VmHWM:")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_parsing_counts_from_the_last_paren() {
        // A comm containing spaces and a `)` — the adversarial case.
        let line = "1234 (a b)c) R 1 1 1 0 -1 4194560 100 0 0 0 250 125 0 0 20 0 1 0 8 0 0";
        assert_eq!(stat_cpu_us(line), Some((250 + 125) * 10_000));
    }

    #[test]
    fn stat_parsing_rejects_garbage() {
        assert_eq!(stat_cpu_us(""), None);
        assert_eq!(stat_cpu_us("no parens here"), None);
        assert_eq!(stat_cpu_us("1 (x) R 1 2 3"), None);
    }

    #[test]
    fn status_kb_finds_keyed_lines() {
        let status = "Name:\trepro\nVmHWM:\t  204800 kB\nVmRSS:\t  102400 kB\n";
        assert_eq!(status_kb(status, "VmRSS:"), Some(102_400));
        assert_eq!(status_kb(status, "VmHWM:"), Some(204_800));
        assert_eq!(status_kb(status, "VmSwap:"), None);
    }

    #[test]
    fn live_probes_are_best_effort_and_sane() {
        // On Linux these read real values; elsewhere they return None.
        // Either way they must not panic.
        if let Some(kb) = peak_rss_kb() {
            assert!(kb > 0, "a live process has a nonzero RSS high-water mark");
        }
        if let Some(t) = thread_cpu_us() {
            // Burn a little CPU and confirm the counter is monotone.
            let mut acc = 0u64;
            for i in 0..2_000_000u64 {
                acc = acc.wrapping_add(i.wrapping_mul(2_654_435_761));
            }
            assert!(acc != 1, "keep the loop");
            assert!(thread_cpu_us().unwrap_or(0) >= t, "thread CPU time is monotone");
        }
        if let (Some(thread), Some(process)) = (thread_cpu_us(), process_cpu_us()) {
            // Ticks are coarse: allow one tick of slop between the reads.
            assert!(
                process + 1_000_000 / TICKS_PER_SEC >= thread,
                "process CPU {process} cannot trail this thread's {thread}"
            );
        }
    }
}
