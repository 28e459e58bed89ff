//! Environment hygiene and provenance: what the numbers were measured on.

use std::process::Command;

/// Removes every `HYPERDRIVE_*` variable, so that the library's defaults
/// are what is measured, and returns the names removed. Must run before
/// any library call (several knobs are latched on first use) and before
/// any thread starts.
pub fn scrub_environment() -> Vec<String> {
    let knobs: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("HYPERDRIVE_"))
        .collect();
    for k in &knobs {
        std::env::remove_var(k);
    }
    knobs
}

/// First line of a command's standard output, or `"unknown"` when the
/// command is missing or fails (the driver's checkout is not a git
/// repository).
fn first_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// Host and build provenance as one JSON object.
pub fn metadata_json(seed: u64, scrubbed: &[String]) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    #[cfg(target_arch = "x86_64")]
    let (avx2, fma) =
        (std::arch::is_x86_feature_detected!("avx2"), std::arch::is_x86_feature_detected!("fma"));
    #[cfg(not(target_arch = "x86_64"))]
    let (avx2, fma) = (false, false);
    format!(
        "{{\"nproc\": {nproc}, \"avx2\": {avx2}, \"fma\": {fma}, \"vmath_backend\": \"{:?}\", \
         \"rustc\": \"{}\", \"git_sha\": \"{}\", \"seed\": {seed}, \"scrubbed_env\": {}}}",
        hyperdrive_curve::vmath::active_backend(),
        first_line("rustc", &["-V"]),
        first_line("git", &["rev-parse", "HEAD"]),
        scrubbed.len(),
    )
}

/// Peak resident set size of this process so far (`VmHWM`), in megabytes;
/// 0 where `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// CPU seconds this process has consumed so far, user plus system, over
/// all its threads; 0 where `/proc` is unavailable.
pub fn cpu_seconds() -> f64 {
    /// `USER_HZ`: the unit of `/proc/<pid>/stat` times, fixed at 100 on Linux.
    const TICKS_PER_SECOND: f64 = 100.0;
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| {
            // The command name (field 2) may hold spaces; fields are
            // counted from the parenthesis that closes it: utime and
            // stime are fields 14 and 15.
            let mut rest = s[s.rfind(')')? + 1..].split_whitespace().skip(11);
            let utime: f64 = rest.next()?.parse().ok()?;
            let stime: f64 = rest.next()?.parse().ok()?;
            Some((utime + stime) / TICKS_PER_SECOND)
        })
        .unwrap_or(0.0)
}
