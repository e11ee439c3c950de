//! Facts about the host and the build: CPU count, process CPU time and
//! peak memory, and the provenance header every result carries.

use std::path::{Path, PathBuf};
use std::process::Command;

use crate::json::Value;

/// CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Worker threads every multi-threaded workload runs with. Two is the
/// widest count the reference container can actually run in parallel;
/// capping there keeps results comparable on wider hosts.
pub fn default_workers() -> usize {
    nproc().min(2)
}

/// User + system CPU seconds this process (all threads, live or
/// joined) has consumed, from `/proc/self/stat`; 0 where that file
/// does not exist. The kernel reports clock ticks, 100 per second on
/// every Linux configuration in practical use, so readings step by
/// 10 ms — read it around windows of seconds, not milliseconds.
pub fn cpu_seconds() -> f64 {
    const TICKS_PER_SEC: f64 = 100.0;
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // The command name (field 2) may hold spaces; fields are counted
    // from the closing parenthesis.
    let after_comm = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let mut fields = after_comm.split_whitespace().skip(11);
    let utime: f64 = fields.next().and_then(|f| f.parse().ok()).unwrap_or(0.0);
    let stime: f64 = fields.next().and_then(|f| f.parse().ok()).unwrap_or(0.0);
    (utime + stime) / TICKS_PER_SEC
}

/// Peak resident set size of this process in MiB (`VmHWM`); 0 where
/// `/proc/self/status` does not exist.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// The benchmark package's own directory.
pub fn package_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// The `key = value` lines of a manifest's `[profile.release]` table,
/// sorted, comments and blanks dropped.
pub fn release_profile(manifest: &str) -> Vec<String> {
    let mut settings: Vec<String> = manifest
        .lines()
        .map(|l| l.split('#').next().unwrap_or("").trim())
        .skip_while(|l| *l != "[profile.release]")
        .skip(1)
        .take_while(|l| !l.starts_with('['))
        .filter(|l| !l.is_empty())
        .map(|l| l.split_whitespace().collect::<String>())
        .collect();
    settings.sort();
    settings
}

/// Checks that the benchmark is built with the settings the repository
/// itself is built with.
///
/// # Errors
///
/// Names both profiles when they differ, or the manifest that could
/// not be read.
pub fn check_build_parity() -> Result<(), String> {
    let read = |path: &Path| {
        std::fs::read_to_string(path).map_err(|e| format!("cannot read {}: {e}", path.display()))
    };
    let own = release_profile(&read(&package_dir().join("Cargo.toml"))?);
    let root = release_profile(&read(&package_dir().join("../Cargo.toml"))?);
    if own == root {
        Ok(())
    } else {
        Err(format!(
            "benchmark/Cargo.toml [profile.release] {own:?} differs from the root manifest's \
             {root:?}; mirror the root profile before measuring"
        ))
    }
}

/// `git rev-parse HEAD` of the checkout, or "unknown" outside a
/// repository.
fn git_commit() -> String {
    Command::new("git")
        .arg("-C")
        .arg(package_dir())
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".into(), |s| s.trim().to_string())
}

/// The provenance header: where and how these numbers were taken.
pub fn provenance(seed: u64, workers: usize) -> Value {
    Value::obj()
        .with("nproc", nproc() as u64)
        .with("workers", workers as u64)
        .with("rustc", env!("BENCH_RUSTC_VERSION"))
        .with("gf256_backend", peerback_gf256::active_backend().name())
        .with("git_commit", git_commit())
        .with("seed", seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn release_profile_reads_only_its_own_table() {
        let manifest = "[package]\nname = \"x\"\n\n[profile.release]\n# why\nlto = \"thin\"  # c\n\
                        codegen-units=4\n\n[profile.bench]\ninherits = \"release\"\n";
        assert_eq!(
            release_profile(manifest),
            vec!["codegen-units=4".to_string(), "lto=\"thin\"".to_string()]
        );
        assert!(release_profile("[package]\nname = \"x\"\n").is_empty());
    }

    #[test]
    fn benchmark_profile_mirrors_the_root_manifest() {
        check_build_parity().unwrap();
    }

    #[test]
    fn process_counters_read_on_linux() {
        if Path::new("/proc/self/stat").exists() {
            assert!(peak_rss_mib() > 0.0);
            let before = cpu_seconds();
            let mut x = 0u64;
            while cpu_seconds() - before < 0.02 {
                x = std::hint::black_box(x.wrapping_add(1));
            }
            assert!(cpu_seconds() > before);
        }
    }
}
