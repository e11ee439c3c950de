//! CI gates over probe reports: four subcommands whose thresholds are
//! exact counts or ratios between samples taken on one host, so they
//! can fire on any runner.
//!
//! * `speedup` — median single-worker `elapsed_secs` over median
//!   sharded `elapsed_secs` (`perf_probe --json`) must reach a ratio.
//! * `alloc` — steady-state `allocs_per_round` under a budget.
//! * `mem` — `bytes_per_peer` (exact) and `peak_rss_bytes / peers`
//!   under budgets.
//! * `rs` — the best gf256 backend's encode speedup over scalar
//!   (`rs_probe --json`) must reach a ratio.
//!
//! Each is documented on its function. Wall time against a stored
//! number is judged by `benchmark compare` alone (see
//! `benchmark/README.md`), never here.
//!
//! The workspace is offline (no serde); the reports are flat JSON
//! objects written by `peerback_bench::json`, so a minimal key scanner
//! is sufficient and keeps the gate dependency-free.

use std::process::ExitCode;

/// Extracts a top-level numeric field from a flat JSON object.
fn extract_f64(json: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\":");
    let at = json.find(&needle)? + needle.len();
    let rest = &json[at..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    rest[..end].trim().parse().ok()
}

/// Extracts a top-level string field from a flat JSON object.
fn extract_str(json: &str, key: &str) -> Option<String> {
    let needle = format!("\"{key}\":");
    let at = json.find(&needle)? + needle.len();
    let rest = json[at..].trim_start().strip_prefix('"')?;
    Some(rest[..rest.find('"')?].to_string())
}

/// Reads an optional numeric field (absent key is not an error).
fn read_optional_field(path: &str, key: &str) -> Result<Option<f64>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    Ok(extract_f64(&text, key))
}

fn read_field(path: &str, key: &str) -> Result<f64, String> {
    read_optional_field(path, key)?.ok_or_else(|| format!("{path}: no numeric field {key:?}"))
}

/// Median of a non-empty sample set.
fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

/// Median of `key` across `paths`; a sample without it is an error.
fn median_field(paths: &[String], key: &str) -> Result<f64, String> {
    let values: Result<Vec<f64>, String> = paths.iter().map(|p| read_field(p, key)).collect();
    values.map(median)
}

type Args<'a> = std::slice::Iter<'a, String>;

/// The value following flag `name`.
fn flag_value(iter: &mut Args, name: &str) -> Result<String, String> {
    iter.next()
        .cloned()
        .ok_or_else(|| format!("flag {name} needs a value"))
}

/// The value following flag `name`, as a number.
fn flag_number(iter: &mut Args, name: &str) -> Result<f64, String> {
    flag_value(iter, name)?
        .parse()
        .map_err(|e| format!("{name}: {e}"))
}

fn unknown_argument(subcommand: &str, arg: &str) -> String {
    format!("{subcommand}: unknown argument {arg:?}\n{USAGE}")
}

/// A positional argument is a sample path; anything else shaped like a
/// flag is a usage error, not a file to open.
fn sample_path(subcommand: &str, arg: &str) -> Result<String, String> {
    if arg.starts_with('-') {
        return Err(unknown_argument(subcommand, arg));
    }
    Ok(arg.to_string())
}

/// `speedup [--min-ratio R] --single FILE... --sharded FILE...`: the
/// median `elapsed_secs` of the `--single` samples over that of the
/// `--sharded` samples must reach `R` (default 2.0).
///
/// Both sets must come from one host: every sample's recorded
/// `host_cpus` has to agree, and it — not the machine running the gate
/// — decides what a miss means. Below 4 CPUs the host cannot express
/// the parallelism, so a miss warns and passes; from 4 up it fails.
fn run_speedup(args: &[String]) -> Result<ExitCode, String> {
    let mut min_ratio = 2.0;
    let mut singles = Vec::new();
    let mut shardeds = Vec::new();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--min-ratio" => min_ratio = flag_number(&mut iter, "--min-ratio")?,
            "--single" => singles.push(flag_value(&mut iter, "--single")?),
            "--sharded" => shardeds.push(flag_value(&mut iter, "--sharded")?),
            other => return Err(unknown_argument("speedup", other)),
        }
    }
    if singles.is_empty() || shardeds.is_empty() {
        return Err("speedup needs --single FILE... and --sharded FILE...".into());
    }
    let cpus = read_field(&singles[0], "host_cpus")?;
    for p in singles.iter().chain(&shardeds) {
        let here = read_field(p, "host_cpus")?;
        if here != cpus {
            return Err(format!(
                "{p} was recorded on {here:.0} CPU(s) but {} on {cpus:.0} — samples from \
                 different hosts have no speedup",
                singles[0]
            ));
        }
    }
    let base = median_field(&singles, "elapsed_secs")?;
    let fast = median_field(&shardeds, "elapsed_secs")?;
    let ratio = base / fast;
    println!(
        "perf_gate: sharded speedup {ratio:.2}x (median {base:.3}s over {} -> median {fast:.3}s \
         over {}) on {cpus:.0} CPU(s), required {min_ratio:.2}x",
        singles.len(),
        shardeds.len()
    );
    if ratio < min_ratio {
        if cpus < 4.0 {
            // A 1–2 core host cannot express the parallelism; surface
            // the miss loudly but do not fail the build over hardware.
            println!(
                "::warning::sharded speedup {ratio:.2}x below the {min_ratio:.2}x target, but \
                 the samples were taken on {cpus:.0} CPU(s) — rerun on a multi-core runner"
            );
            return Ok(ExitCode::SUCCESS);
        }
        println!("::error::sharded speedup {ratio:.2}x below the required {min_ratio:.2}x");
        return Ok(ExitCode::FAILURE);
    }
    Ok(ExitCode::SUCCESS)
}

/// `alloc --budget N SAMPLE.json...`: the zero-allocation steady-state
/// gate. Fails when the median `allocs_per_round` across the samples
/// exceeds the budget, and when any sample lacks the field (the probe
/// was built without `--features count-allocs` — a misconfigured gate
/// must not silently pass).
fn run_alloc(args: &[String]) -> Result<ExitCode, String> {
    let mut budget: Option<f64> = None;
    let mut samples = Vec::new();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--budget" => budget = Some(flag_number(&mut iter, "--budget")?),
            other => samples.push(sample_path("alloc", other)?),
        }
    }
    let budget = budget.ok_or("alloc needs --budget N")?;
    if samples.is_empty() {
        return Err("alloc needs at least one sample JSON".into());
    }
    let rate = median_field(&samples, "allocs_per_round")
        .map_err(|e| format!("{e} (was the probe built with --features count-allocs?)"))?;
    println!(
        "perf_gate: steady-state median {rate:.1} allocs/round over {} sample(s), budget {budget:.1}",
        samples.len()
    );
    if rate > budget {
        println!(
            "::error::allocation regression: steady-state rounds allocate {rate:.1} times \
             per round, above the {budget:.1} budget — a recycled arena or pool path is \
             allocating again"
        );
        return Ok(ExitCode::FAILURE);
    }
    Ok(ExitCode::SUCCESS)
}

/// Prints the median per-component peer-table layout across samples,
/// so a memory failure names the collection that grew.
fn print_mem_layout(samples: &[String], footprint: f64) -> Result<(), String> {
    const COMPONENTS: [(&str, &str); 5] = [
        ("bytes_peer_table", "peer table"),
        ("bytes_online_index", "online index"),
        ("bytes_hosted_ledgers", "hosted ledgers"),
        ("bytes_archive_states", "archive states"),
        ("bytes_partner_lists", "partner lists"),
    ];
    let mut printed_header = false;
    for (key, label) in COMPONENTS {
        let mut values = Vec::new();
        for p in samples {
            if let Some(v) = read_optional_field(p, key)? {
                values.push(v);
            }
        }
        if values.is_empty() {
            continue; // stale probe binary: no breakdown recorded
        }
        if !printed_header {
            println!("perf_gate: measured per-peer layout (median over samples):");
            printed_header = true;
        }
        let v = median(values);
        println!(
            "perf_gate:   {label:<15} {v:>8.0} bytes/peer ({:>5.1}%)",
            100.0 * v / footprint.max(f64::MIN_POSITIVE)
        );
    }
    Ok(())
}

/// Prints the median `peak_rss_bytes / peers` of the samples that
/// record it and compares it with the optional budget. Returns whether
/// the gate passed.
fn check_peak_rss(samples: &[String], budget: Option<f64>) -> Result<bool, String> {
    let mut per_peer = Vec::new();
    for p in samples {
        let rss = read_optional_field(p, "peak_rss_bytes")?;
        let peers = read_optional_field(p, "peers")?;
        match (rss, peers) {
            (Some(rss), Some(peers)) if peers > 0.0 => per_peer.push(rss / peers),
            _ if budget.is_some() => {
                return Err(format!(
                    "{p} records no peak_rss_bytes (stale probe binary or --stable-json \
                     sample?) — the peak-RSS budget cannot be checked"
                ));
            }
            _ => return Ok(true), // nothing recorded, nothing armed
        }
    }
    let rss = median(per_peer);
    if rss == 0.0 {
        if budget.is_some() {
            println!("::warning::this host reports no VmHWM — skipping the peak-RSS budget");
        }
        return Ok(true);
    }
    println!(
        "perf_gate: peak_rss_per_peer {rss:.0} bytes (median over {} sample(s)){}",
        samples.len(),
        budget.map_or(String::new(), |b| format!(", budget {b:.0}"))
    );
    if let Some(b) = budget.filter(|&b| rss > b) {
        println!(
            "::error::join-transient regression: the run peaked at {rss:.0} bytes of resident \
             memory per peer, above the {b:.0}-byte budget — a round buffer (candidate pools, \
             message inboxes, staged claims) grew or stopped being recycled."
        );
        return Ok(false);
    }
    Ok(true)
}

/// `mem [--fail-above N] [--rss-fail-above N] SAMPLE.json...`: the
/// memory budget gate over `perf_probe --json` samples. At least one
/// of the two budgets is required.
///
/// `--rss-fail-above` gates the run's *transient*: the median
/// `peak_rss_bytes / peers` (printed as `peak_rss_per_peer` whenever
/// the samples record it) above it fails the build. The table
/// footprint below is exact; this one is the process high-water mark —
/// join-wave pools, message buffers and allocator slack included — so
/// its budget carries headroom. A sample without the field fails an
/// armed gate; a host that cannot report it (the probe writes 0) skips
/// it with a warning.
///
/// `--fail-above` is the hard budget: the median `bytes_per_peer` above
/// it fails the build (`::error::`) and prints the per-component layout
/// so the collection that grew is named in the log. A sample missing
/// `bytes_per_peer` is an error (a misconfigured gate must not pass
/// silently).
fn run_mem(args: &[String]) -> Result<ExitCode, String> {
    let mut fail_above: Option<f64> = None;
    let mut rss_fail_above: Option<f64> = None;
    let mut samples = Vec::new();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--fail-above" => fail_above = Some(flag_number(&mut iter, "--fail-above")?),
            "--rss-fail-above" => {
                rss_fail_above = Some(flag_number(&mut iter, "--rss-fail-above")?);
            }
            other => samples.push(sample_path("mem", other)?),
        }
    }
    if fail_above.is_none() && rss_fail_above.is_none() {
        return Err("mem needs --fail-above N and/or --rss-fail-above N".into());
    }
    if samples.is_empty() {
        return Err("mem needs at least one sample JSON".into());
    }
    if !check_peak_rss(&samples, rss_fail_above)? {
        return Ok(ExitCode::FAILURE);
    }
    let Some(budget) = fail_above else {
        return Ok(ExitCode::SUCCESS);
    };
    let footprint = median_field(&samples, "bytes_per_peer").map_err(|e| {
        format!(
            "{e} (stale probe binary or --stable-json sample?) — the hard memory budget cannot \
             be checked"
        )
    })?;
    println!(
        "perf_gate: median {footprint:.0} bytes/peer over {} sample(s), budget {budget:.0}",
        samples.len()
    );
    if footprint > budget {
        println!(
            "::error::peer-table footprint regression: {footprint:.0} bytes per peer slot is \
             above the {budget:.0}-byte budget — a per-peer column or slab grew. The layout \
             below names the collection; if the growth is intentional, raise the budget where \
             the gate is invoked and state the new measurement in the commit."
        );
        print_mem_layout(&samples, footprint)?;
        return Ok(ExitCode::FAILURE);
    }
    Ok(ExitCode::SUCCESS)
}

/// `rs [--min-ratio R] SAMPLE.json...`: the SIMD Reed–Solomon gate over
/// `rs_probe --json` samples. The best backend's median `speedup` over
/// scalar — two measurements from one run on one host — must reach
/// `--min-ratio` (default 4.0), the SIMD kernels' acceptance floor.
/// Hosts whose best backend *is* scalar (no SIMD) warn and pass:
/// hardware, not a regression.
fn run_rs(args: &[String]) -> Result<ExitCode, String> {
    let mut min_ratio = 4.0f64;
    let mut samples = Vec::new();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--min-ratio" => min_ratio = flag_number(&mut iter, "--min-ratio")?,
            other => samples.push(sample_path("rs", other)?),
        }
    }
    if samples.is_empty() {
        return Err("rs needs at least one rs_probe sample JSON".into());
    }

    let first =
        std::fs::read_to_string(&samples[0]).map_err(|e| format!("reading {}: {e}", samples[0]))?;
    let best_backend =
        extract_str(&first, "best_backend").ok_or("sample has no best_backend field")?;
    let speedup = median_field(&samples, "speedup")?;
    println!(
        "perf_gate: rs encode best backend {best_backend}, median speedup {speedup:.2}x over \
         scalar (required {min_ratio:.2}x)"
    );
    if best_backend == "scalar" {
        println!(
            "::warning::no SIMD gf256 backend is available on this host — the {min_ratio:.2}x \
             speedup floor cannot be checked"
        );
        return Ok(ExitCode::SUCCESS);
    }
    if speedup < min_ratio {
        println!(
            "::error::SIMD encode speedup {speedup:.2}x is below the required {min_ratio:.2}x \
             over scalar — a vectorized gf256 kernel regressed"
        );
        return Ok(ExitCode::FAILURE);
    }
    Ok(ExitCode::SUCCESS)
}

const USAGE: &str = "\
usage: perf_gate <subcommand> [options]
  speedup [--min-ratio R] --single FILE... --sharded FILE...
          require median(single elapsed_secs) / median(sharded
          elapsed_secs) >= R (default 2.0). All samples must record the
          same host_cpus; below 4 a miss warns instead of failing
  alloc   --budget N SAMPLE.json...
          require median(allocs_per_round) <= N (samples must come from
          a probe built with --features count-allocs; a missing field
          fails the gate rather than passing silently)
  mem     [--fail-above N] [--rss-fail-above N] SAMPLE.json...
          hard memory budgets, at least one required: non-zero exit
          (::error:: plus the per-component layout) when
          median(bytes_per_peer) exceeds --fail-above, or when
          median(peak_rss_bytes / peers) exceeds --rss-fail-above
  rs      [--min-ratio R] SAMPLE.json...
          require median(rs_probe speedup) >= R (default 4.0), best
          backend over scalar; scalar-only hosts warn instead of failing";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("speedup") => run_speedup(&args[1..]),
        Some("alloc") => run_alloc(&args[1..]),
        Some("mem") => run_mem(&args[1..]),
        Some("rs") => run_rs(&args[1..]),
        Some("--help" | "-h") => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        other => Err(format!("unknown subcommand {other:?}\n{USAGE}")),
    };
    match result {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("perf_gate: {msg}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Writes `content` to `name` in this test's own temp directory
    /// (tests run in parallel and must not share files).
    fn sample(test: &str, name: &str, content: &str) -> String {
        let dir = std::env::temp_dir().join(format!("perf_gate_{test}_test"));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        std::fs::write(&path, content).unwrap();
        path.to_str().unwrap().to_string()
    }

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn extracts_fields_from_flat_json() {
        let j = r#"{"probe":"perf_probe","elapsed_secs":1.250000,"peers":100}"#;
        assert_eq!(extract_f64(j, "elapsed_secs"), Some(1.25));
        assert_eq!(extract_f64(j, "peers"), Some(100.0));
        assert_eq!(extract_f64(j, "missing"), None);
        assert_eq!(extract_f64(j, "probe"), None, "strings are not numbers");
    }

    #[test]
    fn extracts_string_fields() {
        let j = r#"{"probe":"rs_probe","best_backend":"avx2","speedup":5.25}"#;
        assert_eq!(extract_str(j, "best_backend").as_deref(), Some("avx2"));
        assert_eq!(extract_str(j, "probe").as_deref(), Some("rs_probe"));
        assert_eq!(extract_str(j, "speedup"), None, "numbers are not strings");
        assert_eq!(extract_str(j, "missing"), None);
    }

    #[test]
    fn median_of_odd_and_even_sets() {
        assert_eq!(median(vec![3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(vec![4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(vec![7.0]), 7.0);
    }

    #[test]
    fn unknown_flags_are_usage_errors_not_sample_paths() {
        for run in [run_speedup, run_alloc, run_mem, run_rs] {
            let err = run(&strings(&["--baseline", "1", "f.json"])).unwrap_err();
            assert!(err.contains("unknown argument \"--baseline\""), "{err}");
            assert!(err.contains("usage: perf_gate"), "{err}");
        }
    }

    #[test]
    fn speedup_gate_reads_the_cpu_count_from_the_samples() {
        let write = |name: &str, secs: f64, cpus: Option<u32>| {
            let cpus = cpus.map_or(String::new(), |n| format!(r#","host_cpus":{n}"#));
            let body = format!(r#"{{"elapsed_secs":{secs}{cpus}}}"#);
            sample("speedup", name, &body)
        };
        let single = write("single.json", 10.0, Some(8));
        let run =
            |sharded: &str| run_speedup(&strings(&["--single", &single, "--sharded", sharded]));
        // 2.5x on 8 CPUs passes the default 2x; 1.25x fails there.
        let fast = write("fast.json", 4.0, Some(8));
        let slow = write("slow.json", 8.0, Some(8));
        assert_eq!(run(&fast).unwrap(), ExitCode::SUCCESS);
        assert_eq!(run(&slow).unwrap(), ExitCode::FAILURE);
        // The same miss recorded on 2 CPUs warns and passes, whatever
        // machine runs the gate.
        let single2 = write("single2.json", 10.0, Some(2));
        let slow2 = write("slow2.json", 8.0, Some(2));
        let args = strings(&["--single", &single2, "--sharded", &slow2]);
        assert_eq!(run_speedup(&args).unwrap(), ExitCode::SUCCESS);
        // Samples from two hosts, or without host_cpus, have no speedup.
        assert!(run(&slow2).unwrap_err().contains("different hosts"));
        let bare = write("bare.json", 4.0, None);
        assert!(run(&bare).unwrap_err().contains("host_cpus"));
        // Both sets are required.
        assert!(run_speedup(&strings(&["--single", &single])).is_err());
        assert!(run_speedup(&strings(&["--sharded", &fast])).is_err());
    }

    #[test]
    fn alloc_gate_enforces_the_budget_and_the_field() {
        let args = |budget: &str, path: &str| strings(&["--budget", budget, path]);
        let s = sample("alloc", "alloc.json", r#"{"allocs_per_round":12.500000}"#);
        assert_eq!(run_alloc(&args("64", &s)).unwrap(), ExitCode::SUCCESS);
        assert_eq!(run_alloc(&args("10", &s)).unwrap(), ExitCode::FAILURE);
        // A sample without the field (probe built without the counting
        // allocator) must fail loudly, not pass silently.
        let s = sample("alloc", "plain.json", r#"{"elapsed_secs":1.0}"#);
        assert!(run_alloc(&args("64", &s)).is_err());
    }

    #[test]
    fn mem_gate_enforces_the_hard_budget() {
        let s = sample(
            "mem",
            "mem.json",
            r#"{"bytes_per_peer":4096.000000,"bytes_peer_table":2048.000000,"bytes_partner_lists":2048.000000}"#,
        );
        // Under the budget: pass.
        let args = strings(&["--fail-above", "8192", &s]);
        assert_eq!(run_mem(&args).unwrap(), ExitCode::SUCCESS);
        // Over the hard budget: the gate blocks (and prints the layout).
        let args = strings(&["--fail-above", "1024", &s]);
        assert_eq!(run_mem(&args).unwrap(), ExitCode::FAILURE);
        // No budget at all is a usage error.
        assert!(run_mem(&strings(&[&s])).is_err());
        // A sample without the field cannot pass an armed budget.
        let s = sample("mem", "plain.json", r#"{"elapsed_secs":1.0}"#);
        assert!(run_mem(&strings(&["--fail-above", "8192", &s])).is_err());
    }

    #[test]
    fn mem_gate_enforces_the_peak_rss_budget() {
        // 14 KiB of peak RSS per peer.
        let s = sample(
            "rss",
            "rss.json",
            r#"{"peers":1000,"bytes_per_peer":2668.000000,"peak_rss_bytes":14336000}"#,
        );
        let run = |flags: &[&str], path: &str| {
            let mut args = strings(flags);
            args.push(path.to_string());
            run_mem(&args)
        };
        let rss = |budget| run(&["--rss-fail-above", budget], &s).unwrap();
        assert_eq!(rss("20000"), ExitCode::SUCCESS);
        assert_eq!(rss("14000"), ExitCode::FAILURE);
        // Both budgets armed: either one blocks.
        let both = |table, rss| run(&["--fail-above", table, "--rss-fail-above", rss], &s).unwrap();
        assert_eq!(both("3330", "14000"), ExitCode::FAILURE);
        assert_eq!(both("2000", "20000"), ExitCode::FAILURE);
        assert_eq!(both("3330", "20000"), ExitCode::SUCCESS);
        // A host without /proc writes 0: warn and pass.
        let zero = sample("rss", "zero.json", r#"{"peers":1000,"peak_rss_bytes":0}"#);
        assert_eq!(
            run(&["--rss-fail-above", "14000"], &zero).unwrap(),
            ExitCode::SUCCESS
        );
        // A sample without the field cannot pass an armed gate, and is
        // simply not reported when the gate is not armed.
        let bare = sample(
            "rss",
            "bare.json",
            r#"{"peers":1000,"bytes_per_peer":2668.000000}"#,
        );
        assert!(run(&["--rss-fail-above", "14000"], &bare).is_err());
        assert_eq!(
            run(&["--fail-above", "3330"], &bare).unwrap(),
            ExitCode::SUCCESS
        );
    }

    #[test]
    fn rs_gate_enforces_the_simd_speedup_floor() {
        let write = |name: &str, backend: &str, speedup: Option<f64>| {
            let speedup = speedup.map_or(String::new(), |x| format!(r#","speedup":{x}"#));
            let body = format!(r#"{{"best_backend":"{backend}"{speedup}}}"#);
            sample("rs", name, &body)
        };
        let run = |path: &str| run_rs(&strings(&[path]));
        let fast = write("fast.json", "avx2", Some(9.69));
        assert_eq!(run(&fast).unwrap(), ExitCode::SUCCESS);
        let slow = write("slow.json", "avx2", Some(3.5));
        assert_eq!(run(&slow).unwrap(), ExitCode::FAILURE);
        assert_eq!(
            run_rs(&strings(&["--min-ratio", "3", &slow])).unwrap(),
            ExitCode::SUCCESS
        );
        // No SIMD on the host is hardware, not a regression.
        let scalar = write("scalar.json", "scalar", Some(1.0));
        assert_eq!(run(&scalar).unwrap(), ExitCode::SUCCESS);
        // A sample without the ratio cannot pass.
        let bare = write("bare.json", "avx2", None);
        assert!(run(&bare).is_err());
    }
}
