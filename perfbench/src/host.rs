//! Host facts printed with every result, and process memory.

/// One-line host note: core count, C compiler, kernel-tier pin, caches.
pub fn note() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cc = seamless::cmodule::system_cc().unwrap_or("none");
    let pin = std::env::var("HPC_KERNEL_TIER").unwrap_or_else(|_| "unset".into());
    format!(
        "nproc={nproc} cc={cc} HPC_KERNEL_TIER={pin} {}",
        cache_sizes()
    )
}

/// L2 and L3 sizes as sysfs reports them for cpu0.
fn cache_sizes() -> String {
    let mut parts = Vec::new();
    for idx in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{idx}");
        let read = |f: &str| std::fs::read_to_string(format!("{dir}/{f}")).ok();
        let (Some(level), Some(size)) = (read("level"), read("size")) else {
            continue;
        };
        let level = level.trim();
        if level == "2" || level == "3" {
            parts.push(format!("L{level}={}", size.trim()));
        }
    }
    if parts.is_empty() {
        "L2=unknown L3=unknown".into()
    } else {
        parts.join(" ")
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
