//! Host and provenance stamp, and resident-memory readings.

use std::fmt::Write as _;

/// Peak resident set size (`VmHWM`) of process `pid` (`"self"` for this
/// one), in kB, from `/proc/<pid>/status`.
pub fn peak_rss_kb(pid: &str) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Process ids of this process's live children (every thread's
/// `/proc/self/task/<tid>/children` list).
pub fn child_pids() -> Vec<String> {
    let mut pids = Vec::new();
    if let Ok(tasks) = std::fs::read_dir("/proc/self/task") {
        for task in tasks.flatten() {
            if let Ok(list) = std::fs::read_to_string(task.path().join("children")) {
                pids.extend(list.split_whitespace().map(str::to_string));
            }
        }
    }
    pids.sort();
    pids.dedup();
    pids
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn avx512_detected() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx512f")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// One JSON object naming the host and the build a result came from:
/// core count, CPU model, whether the CPU has AVX-512 and whether the
/// build uses it, the compile-time rustflags, the source revision (from
/// the `PERFBENCH_COMMIT` environment variable set by `run.py`), the
/// workload and the seed.
pub fn stamp(workload: &str, seed: u64, trace: bool) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    format!(
        "{{\"nproc\": {nproc}, \"cpu\": {}, \"avx512_detected\": {}, \"avx512_compiled\": {}, \
         \"rustflags\": {}, \"commit\": {}, \"workload\": {}, \"seed\": {seed}, \"trace\": {trace}}}",
        json_str(&cpu_model()),
        avx512_detected(),
        cfg!(target_feature = "avx512f"),
        json_str(env!("PERFBENCH_RUSTFLAGS")),
        json_str(&std::env::var("PERFBENCH_COMMIT").unwrap_or_else(|_| "unknown".to_string())),
        json_str(workload),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_own_peak_rss() {
        assert!(peak_rss_kb("self").is_some_and(|kb| kb > 0));
    }

    #[test]
    fn stamp_is_valid_json() {
        let s = stamp("share_pooled", 7, false);
        assert!(emerge_bench::report::parse_json(&s).is_ok(), "{s}");
    }
}
