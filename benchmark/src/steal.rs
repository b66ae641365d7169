//! Time the hypervisor took the CPUs away ("steal"), from `/proc/stat`. On a
//! shared host it is the visible part of the interference a run suffered, so
//! each run prints it beside its timings.

/// Stolen seconds so far, summed over all CPUs (0 where not reported).
pub fn stolen_seconds() -> f64 {
    // Field 8 of the aggregate `cpu` line, in USER_HZ (100 per second).
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|stat| {
            let line = stat.lines().next()?;
            line.split_whitespace().nth(8)?.parse::<f64>().ok()
        })
        .map_or(0.0, |ticks| ticks / 100.0)
}
