//! Process and host facts read from `/proc` (Linux only; `None` elsewhere).

/// The process's peak resident set size (`VmHWM`), in MB. The kernel keeps
/// the exact maximum, so no sampling can miss a short-lived peak; each
/// workload runs in its own process, so the peak is that workload's.
pub fn vm_hwm_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    let kb: f64 = line.trim().trim_end_matches("kB").trim().parse().ok()?;
    Some(kb / 1024.0)
}

/// The CPU model name of the first processor.
pub fn cpu_model() -> Option<String> {
    let info = std::fs::read_to_string("/proc/cpuinfo").ok()?;
    let line = info.lines().find(|l| l.starts_with("model name"))?;
    Some(line.split_once(':')?.1.trim().to_string())
}
