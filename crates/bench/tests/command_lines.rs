//! The command lines of the eight binaries: `HarnessArgs` is the only
//! flag parser, every binary declares what it reads, and anything else
//! is refused by name. The parser is tested through the public API; the
//! binaries' own declarations by running them — a refused command line
//! fails while parsing, before any simulation starts.

use std::process::Command;

use peerback_bench::{Cli, HarnessArgs, Scale};

/// A binary that reads the scale flags, `--json` (without
/// `--stable-json`) and `estimate_probe`'s gates.
const NARROW: Cli = Cli {
    binary: "narrow",
    synopsis: "[options]",
    groups: &["scale", "json", "estimate-gates"],
};

const EVERYTHING: Cli = Cli {
    binary: "everything",
    synopsis: "[options]",
    groups: &[
        "scale",
        "sweep",
        "output",
        "execution",
        "json",
        "stable-json",
        "world",
        "fabric",
        "estimate-gates",
        "adaptive-gates",
        "adversary-gates",
    ],
};

fn parse(cli: &Cli, args: &[&str]) -> HarnessArgs {
    HarnessArgs::parse_from(cli, args.iter().map(|s| s.to_string()))
}

/// The flags a usage text lists, with whether each takes a value (an
/// upper-case placeholder follows the flag).
fn listed_flags(usage: &str) -> Vec<(&str, bool)> {
    let entries = usage.lines().filter_map(|l| l.strip_prefix("  "));
    let flags = entries.filter(|entry| entry.starts_with("--"));
    flags
        .map(|entry| {
            let mut words = entry.split(' ');
            let flag = words.next().expect("a flag");
            let placeholder = words.next().unwrap_or("");
            let takes_value = placeholder.chars().next().is_some_and(char::is_uppercase);
            (flag, takes_value)
        })
        .collect()
}

#[test]
fn every_flag_the_usage_lists_parses() {
    let usage = EVERYTHING.usage();
    let flags = listed_flags(&usage);
    // 25 shared flags, 6 gate entries (`--max-loss-factor` twice).
    assert_eq!(flags.len(), 25 + 6, "{usage}");
    for (flag, takes_value) in flags {
        // An entry of the usage table without a parser arm would panic.
        let sample = match flag {
            "--strategy" => "random",
            "--adversary" => "free=0.1",
            _ => "1",
        };
        if takes_value {
            parse(&EVERYTHING, &[flag, sample]);
        } else {
            parse(&EVERYTHING, &[flag]);
        }
    }
}

#[test]
#[should_panic(expected = "flag --link-cap is not read by narrow")]
fn a_flag_the_binary_does_not_read_is_refused_by_name() {
    parse(&NARROW, &["--peers", "100", "--link-cap", "4096"]);
}

#[test]
#[should_panic(expected = "flag --stable-json is not read by narrow")]
fn json_does_not_admit_stable_json() {
    parse(&NARROW, &["--json", "--stable-json"]);
}

#[test]
#[should_panic(expected = "flag --max-upload-ratio is not read by narrow")]
fn another_probes_gate_is_refused() {
    parse(&NARROW, &["--max-upload-ratio", "0.9"]);
}

#[test]
#[should_panic(expected = "unknown flag \"--frobnicate\" for narrow")]
fn an_unknown_flag_names_the_binary_too() {
    parse(&NARROW, &["--frobnicate"]);
}

#[test]
fn usage_lists_only_what_the_binary_reads() {
    let usage = NARROW.usage();
    assert!(
        usage.starts_with("usage: narrow [options]\n  --smoke "),
        "{usage}"
    );
    let listed: Vec<&str> = listed_flags(&usage).into_iter().map(|(f, _)| f).collect();
    let reads = [
        "--smoke",
        "--paper-scale",
        "--peers",
        "--rounds",
        "--seed",
        "--json",
        "--max-loss-factor",
        "--require-beat-uniform",
    ];
    assert_eq!(listed, reads);
    // Group names are the table's keys, not part of the help.
    assert!(
        usage.lines().skip(1).all(|l| l.starts_with("  ")),
        "{usage}"
    );
    assert!(usage.contains("F x oracle losses") && !usage.contains("the clean run"));
}

/// `--smoke` was once documented as "800 peers, 8k rounds" while
/// `Scale::Smoke` was 2,000 x 6,000: the usage lines are pinned to the
/// presets here.
#[test]
fn scale_usage_lines_state_the_presets() {
    fn thousands(n: u64) -> String {
        match n {
            0..1000 => n.to_string(),
            _ => format!("{},{:03}", thousands(n / 1000), n % 1000),
        }
    }
    let usage = EVERYTHING.usage();
    for (flag, scale) in [("--smoke", Scale::Smoke), ("--paper-scale", Scale::Paper)] {
        let parsed = parse(&EVERYTHING, &[flag]);
        assert_eq!(
            (parsed.peers, parsed.rounds),
            (scale.peers(), scale.rounds())
        );
        let (peers, rounds) = (thousands(scale.peers() as u64), thousands(scale.rounds()));
        let line = format!("\n  {flag:<17} {peers} peers, {rounds} rounds (");
        assert!(usage.contains(&line), "{line:?} not in {usage}");
    }
    assert!(usage.contains("  --smoke           2,000 peers, 6,000 rounds (fast"));
}

#[test]
fn gate_flags_parse_through_the_shared_path() {
    let a = parse(&NARROW, &["--peers", "100", "--seed", "7"]);
    assert_eq!(a.max_loss_factor, None);
    assert!(!a.require_beat_uniform);
    let a = parse(
        &NARROW,
        &[
            "--peers",
            "100",
            "--max-loss-factor",
            "3",
            "--require-beat-uniform",
            "--seed",
            "7",
            "--max-loss-factor",
            "4.5",
        ],
    );
    assert_eq!((a.peers, a.seed), (100, 7));
    assert_eq!(a.max_loss_factor, Some(4.5));
    assert!(a.require_beat_uniform);
    let a = parse(
        &EVERYTHING,
        &["--max-upload-ratio", "0.9", "--require-no-extra-loss"],
    );
    assert_eq!(a.max_upload_ratio, Some(0.9));
    assert!(a.require_no_extra_loss);
    let a = parse(&EVERYTHING, &["--min-quarantine-rate", "0"]);
    assert_eq!(a.min_quarantine_rate, Some(0.0));
}

#[test]
#[should_panic(expected = "flag --max-loss-factor expects a number of at least 1, got \"0.5\"")]
fn gate_range_is_checked_at_parse_time() {
    parse(&NARROW, &["--max-loss-factor", "0.5"]);
}

#[test]
#[should_panic(expected = "flag --max-loss-factor expects a number of at least 1, got \"lots\"")]
fn gate_value_must_be_a_number() {
    parse(&NARROW, &["--max-loss-factor", "lots"]);
}

#[test]
#[should_panic(expected = "flag --max-loss-factor needs a value")]
fn gate_value_must_be_present() {
    parse(&NARROW, &["--max-loss-factor"]);
}

#[test]
#[should_panic(expected = "flag --adaptive-n expects a number of at most 65535, got \"65536\"")]
fn a_number_too_wide_for_its_field_is_refused() {
    parse(&EVERYTHING, &["--adaptive-n", "65536"]);
}

#[test]
fn numbers_parse_up_to_the_width_of_their_field() {
    let a = parse(
        &EVERYTHING,
        &[
            "--adaptive-n",
            "65535",
            "--quarantine-threshold",
            "255",
            "--domains",
            "4294967295",
        ],
    );
    assert_eq!(
        (
            a.adaptive_n,
            a.quarantine_threshold,
            a.failure_domains.domains
        ),
        (u16::MAX, u8::MAX, u32::MAX)
    );
}

#[test]
fn report_head_decides_what_the_stable_form_omits() {
    let elapsed = std::time::Duration::from_millis(1500);
    let telemetry = |o: peerback_bench::json::Object| o.num("dispatches", 1u64);
    let scale = ["--peers", "64", "--rounds", "50"];
    let stable = parse(&EVERYTHING, &[&scale[..], &["--stable-json"]].concat())
        .report_head("probe", "p", elapsed, telemetry)
        .num("losses", 3u64)
        .render();
    assert_eq!(
        stable,
        r#"{"probe":"p","peers":64,"rounds":50,"seed":42,"losses":3}"#
    );
    let full = parse(&EVERYTHING, &[&scale[..], &["--shards", "8"]].concat())
        .report_head("scenario", "s", elapsed, telemetry)
        .num("losses", 3u64)
        .render();
    let cpus = HarnessArgs::host_cpus();
    let head = r#"{"scenario":"s","peers":64,"rounds":50,"seed":42,"shards":8,"#;
    let tail = r#""elapsed_secs":1.500000,"dispatches":1,"losses":3}"#;
    assert_eq!(full, format!(r#"{head}"host_cpus":{cpus},{tail}"#));
}

#[test]
fn gated_churn_scenario_is_valid_at_every_strategy() {
    let args = parse(&EVERYTHING, &[]);
    for strategy in peerback_core::SelectionStrategy::ALL {
        let cfg = peerback_bench::gated_churn_config(&args, strategy);
        assert_eq!(cfg.strategy, strategy);
        assert_eq!((cfg.k, cfg.m, cfg.profiles.len()), (16, 16, 3));
        assert!(cfg.validate().is_ok());
    }
}

// ---------------------------------------------------------------------
// The binaries themselves.

/// Runs `binary` (a `CARGO_BIN_EXE_*` path) and returns whether it
/// succeeded, with everything it printed.
fn run(binary: &str, args: &[&str]) -> (bool, String) {
    let out = Command::new(binary).args(args).output().expect("spawn");
    let text = [out.stdout, out.stderr].concat();
    (
        out.status.success(),
        String::from_utf8_lossy(&text).into_owned(),
    )
}

#[test]
fn each_binary_refuses_the_shared_flags_it_would_ignore() {
    let refused = [
        (
            env!("CARGO_BIN_EXE_perf_probe"),
            "perf_probe",
            &["--link-cap", "4096"][..],
        ),
        (
            env!("CARGO_BIN_EXE_perf_probe"),
            "perf_probe",
            &["--threads", "2"],
        ),
        (
            env!("CARGO_BIN_EXE_paper_report"),
            "paper_report",
            &["fig3_observers", "--json"],
        ),
        (
            env!("CARGO_BIN_EXE_paper_report"),
            "paper_report",
            &["all", "--adversary", "free=0.1"],
        ),
        (
            env!("CARGO_BIN_EXE_rs_probe"),
            "rs_probe",
            &["--peers", "100"],
        ),
        (
            env!("CARGO_BIN_EXE_rs_probe"),
            "rs_probe",
            &["--json", "--stable-json"],
        ),
        (
            env!("CARGO_BIN_EXE_scenario_fabric"),
            "scenario_fabric",
            &["--out-dir", "x"],
        ),
        (
            env!("CARGO_BIN_EXE_adversary_probe"),
            "adversary_probe",
            &["--threads", "2"],
        ),
        (
            env!("CARGO_BIN_EXE_adaptive_probe"),
            "adaptive_probe",
            &["--flash-restore", "20"],
        ),
        (
            env!("CARGO_BIN_EXE_estimate_probe"),
            "estimate_probe",
            &["--link-cap", "4096"],
        ),
    ];
    for (binary, name, args) in refused {
        let flag = args.iter().rfind(|a| a.starts_with("--")).expect("a flag");
        let (ok, text) = run(binary, args);
        let message = format!("flag {flag} is not read by {name}\nusage: {name} ");
        assert!(!ok && text.contains(&message), "{name} {args:?}: {text}");
        assert!(
            !text.contains(&format!("\n  {flag} ")),
            "{name} lists {flag}: {text}"
        );
    }
}

#[test]
fn the_probes_gate_flags_keep_their_range_checks() {
    let refused = [
        (
            env!("CARGO_BIN_EXE_estimate_probe"),
            "--max-loss-factor",
            "0.5",
            "a number of at least 1",
        ),
        (
            env!("CARGO_BIN_EXE_adaptive_probe"),
            "--max-upload-ratio",
            "0",
            "a positive number",
        ),
        (
            env!("CARGO_BIN_EXE_adversary_probe"),
            "--min-quarantine-rate",
            "1.5",
            "a fraction in [0, 1]",
        ),
        (
            env!("CARGO_BIN_EXE_adversary_probe"),
            "--max-loss-factor",
            "0.99",
            "a number of at least 1",
        ),
        (
            env!("CARGO_BIN_EXE_adversary_probe"),
            "--max-loss-factor",
            "lots",
            "a number of at least 1",
        ),
    ];
    for (binary, flag, value, expects) in refused {
        let (ok, text) = run(binary, &[flag, value]);
        let message = format!("flag {flag} expects {expects}, got {value:?}");
        assert!(!ok && text.contains(&message), "{flag} {value}: {text}");
    }
}

#[test]
fn the_binaries_refuse_numbers_their_fields_would_wrap() {
    let refused = [
        ("--adaptive-n", "65536", "65535"),
        ("--quarantine-threshold", "256", "255"),
        ("--domains", "4294967297", "4294967295"),
    ];
    for (flag, value, max) in refused {
        let args = [
            "--peers",
            "200",
            "--rounds",
            "20",
            flag,
            value,
            "--json",
            "--stable-json",
        ];
        let (ok, text) = run(env!("CARGO_BIN_EXE_perf_probe"), &args);
        let message = format!("flag {flag} expects a number of at most {max}, got {value:?}");
        assert!(!ok && text.contains(&message), "{flag} {value}: {text}");
    }
}

#[test]
fn help_lists_what_each_binary_reads_and_its_own_flags() {
    let (ok, help) = run(env!("CARGO_BIN_EXE_adaptive_probe"), &["--help"]);
    assert!(
        ok && help.starts_with("usage: adaptive_probe [options]\n"),
        "{help}"
    );
    for listed in [
        "--threads N",
        "--stable-json",
        "--max-upload-ratio F",
        "--require-no-extra-loss",
    ] {
        assert!(help.contains(&format!("\n  {listed}")), "{listed}: {help}");
    }
    assert!(
        !help.contains("--link-cap") && !help.contains("--out-dir"),
        "{help}"
    );

    let (ok, listing) = run(env!("CARGO_BIN_EXE_paper_report"), &[]);
    assert!(
        !ok && listing.starts_with("name at least one report"),
        "{listing}"
    );
    for report in &peerback_bench::reports::ALL {
        assert!(
            listing.contains(report.slug),
            "{} not listed: {listing}",
            report.slug
        );
    }
    let (ok, unknown) = run(env!("CARGO_BIN_EXE_paper_report"), &["fig9", "--smoke"]);
    assert!(
        !ok && unknown.starts_with("no report named \"fig9\""),
        "{unknown}"
    );
    let (ok, mixed) = run(
        env!("CARGO_BIN_EXE_paper_report"),
        &["all", "fig3_observers"],
    );
    assert!(
        !ok && mixed.starts_with("no report named \"all\""),
        "{mixed}"
    );
}

#[test]
fn a_gated_probe_runs_with_its_gate_flags_beside_the_shared_ones() {
    let (ok, report) = run(
        env!("CARGO_BIN_EXE_adaptive_probe"),
        &[
            "--peers",
            "200",
            "--max-upload-ratio",
            "1000",
            "--rounds",
            "60",
            "--json",
            "--stable-json",
        ],
    );
    assert!(ok && report.starts_with(r#"{"probe":"adaptive_probe","peers":200,"rounds":60,"seed":42,"max_trim":8,"policies":["#), "{report}");
}
