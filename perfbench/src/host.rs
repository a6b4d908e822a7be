//! The host fingerprint printed with every result, and process memory.

/// What a result was measured on.
pub struct Host {
    /// Hardware threads available to the process; every worker count is
    /// capped at this.
    pub nproc: usize,
}

impl Host {
    /// Probes the running host.
    pub fn probe() -> Self {
        Host {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
        }
    }

    /// One JSON object naming the host and the build.
    pub fn json(&self) -> String {
        format!(
            "{{\"nproc\":{},\"rustc\":\"{}\",\"profile\":\"{}\",\"commit\":\"{}\",\"source_digest\":\"{}\"}}",
            self.nproc,
            env!("PERFBENCH_RUSTC"),
            env!("PERFBENCH_PROFILE"),
            env!("PERFBENCH_COMMIT"),
            env!("PERFBENCH_SOURCE_DIGEST"),
        )
    }
}

/// Peak resident set size of this process so far, in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}
