//! The command lines of the six binaries: `HarnessArgs` is the only
//! flag parser, every binary declares what it reads, and anything else
//! is refused by name. The parser is tested through the public API; the
//! binaries' own declarations by running them — a refused command line
//! fails while parsing, before any simulation starts.

use std::process::Command;

use peerback_bench::{Cli, HarnessArgs, Scale};

/// A binary that reads the scale flags, `--json` (without
/// `--stable-json`) and `adversary_probe`'s gates.
const NARROW: Cli = Cli {
    binary: "narrow",
    synopsis: "[options]",
    groups: &["scale", "json", "adversary-gates"],
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
        "check",
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

/// Every flag parses, and every flag of the scenario groups (`world`,
/// `fabric`) writes the scenario: given a value other than its default,
/// it changes the parsed `SimConfig` or `FabricConfig`, the configs the
/// binaries run. A flag that is parsed and then kept aside fails here.
#[test]
fn every_flag_the_usage_lists_parses() {
    let usage = EVERYTHING.usage();
    let flags = listed_flags(&usage);
    // 25 shared flags, `--check`, and the adversary probe's two gates.
    assert_eq!(flags.len(), 25 + 1 + 2, "{usage}");
    let scenario = |a: HarnessArgs| format!("{:?}", (a.sim, a.fabric));
    let default = scenario(parse(&EVERYTHING, &[]));
    let scenario_usage = Cli {
        groups: &["world", "fabric"],
        ..EVERYTHING
    }
    .usage();
    let scenario_flags = listed_flags(&scenario_usage);
    assert_eq!(scenario_flags.len(), 15, "{scenario_usage}");
    for (flag, takes_value) in flags {
        // An entry of the usage table without a parser arm would panic.
        let sample = match flag {
            "--strategy" => "random",
            "--adversary" => "free=0.1",
            _ => "1",
        };
        let parsed = if takes_value {
            parse(&EVERYTHING, &[flag, sample])
        } else {
            parse(&EVERYTHING, &[flag])
        };
        if scenario_flags.contains(&(flag, takes_value)) {
            assert_ne!(scenario(parsed), default, "{flag} {sample} changes nothing");
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
#[should_panic(expected = "flag --check is not read by narrow")]
fn another_probes_gate_is_refused() {
    parse(&NARROW, &["--check"]);
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
        "--min-quarantine-rate",
        "--max-loss-factor",
    ];
    assert_eq!(listed, reads);
    // Group names are the table's keys, not part of the help.
    assert!(
        usage.lines().skip(1).all(|l| l.starts_with("  ")),
        "{usage}"
    );
    assert!(usage.contains("the clean run") && !usage.contains("--check"));
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
            (parsed.sim.n_peers, parsed.sim.rounds),
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
    assert_eq!((a.max_loss_factor, a.min_quarantine_rate), (None, None));
    let a = parse(
        &NARROW,
        &[
            "--peers",
            "100",
            "--max-loss-factor",
            "3",
            "--min-quarantine-rate",
            "0",
            "--seed",
            "7",
            "--max-loss-factor",
            "4.5",
        ],
    );
    assert_eq!((a.sim.n_peers, a.sim.seed), (100, 7));
    assert_eq!(a.max_loss_factor, Some(4.5));
    assert_eq!(a.min_quarantine_rate, Some(0.0));
    assert!(!parse(&EVERYTHING, &[]).check);
    assert!(parse(&EVERYTHING, &["--peers", "100", "--check"]).check);
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
            a.sim.adaptive_n.max_trim,
            a.sim.quarantine_threshold,
            a.sim.failure_domains.domains
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

/// The two checked reports run in one churn-rich 16+16 scenario, one
/// arm per strategy or width they compare (each report's own arms are
/// checked beside it in `reports.rs`).
#[test]
fn gated_churn_scenario_is_valid_at_every_strategy() {
    let args = parse(&EVERYTHING, &[]);
    let variants = |slug| {
        let report = peerback_bench::reports::ALL.iter().find(|r| r.slug == slug);
        (report.expect("a checked report").variants)(&args.sim)
    };
    let (learned, width) = (variants("ablation_learned"), variants("ablation_width"));
    for (label, cfg) in learned.iter().chain(&width) {
        assert_eq!((cfg.k, cfg.m, cfg.profiles.len()), (16, 16, 3), "{label}");
        assert!(cfg.validate().is_ok(), "{label}");
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
            env!("CARGO_BIN_EXE_paper_report"),
            "paper_report",
            &["ablation_learned", "--max-loss-factor", "3"],
        ),
        (
            env!("CARGO_BIN_EXE_adversary_probe"),
            "adversary_probe",
            &["--threads", "2"],
        ),
        (
            env!("CARGO_BIN_EXE_adversary_probe"),
            "adversary_probe",
            &["--check"],
        ),
        (env!("CARGO_BIN_EXE_perf_probe"), "perf_probe", &["--check"]),
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

/// `scenario_fabric --paper-scale` once built its own fabric and
/// dropped `--adversary`: the attacked run printed the clean run's
/// report byte for byte.
#[test]
fn paper_scale_runs_the_adversary_it_is_given() {
    let scale = [
        "--paper-scale",
        "--peers",
        "256",
        "--rounds",
        "60",
        "--seed",
        "5",
        "--json",
        "--stable-json",
    ];
    let attack = ["--adversary", "free=0.3,challenge=4,sample=1"];
    let binary = env!("CARGO_BIN_EXE_scenario_fabric");
    let (clean_ok, clean) = run(binary, &scale);
    let (attacked_ok, attacked) = run(binary, &[&scale[..], &attack].concat());
    assert!(clean_ok && attacked_ok, "{clean}\n{attacked}");
    assert!(
        clean.starts_with(r#"{"scenario":"fabric-paper-scale","peers":256,"#),
        "{clean}"
    );
    assert_ne!(clean, attacked, "--adversary changed nothing");
}

/// Outage and partition flags act only on failure domains; without
/// `--domains` the run is refused instead of silently ignoring them.
#[test]
fn outage_flags_without_domains_are_refused() {
    let args = [
        "--peers",
        "300",
        "--rounds",
        "10",
        "--outage-rate",
        "0.5",
        "--outage-rounds",
        "5",
    ];
    let (ok, text) = run(env!("CARGO_BIN_EXE_perf_probe"), &args);
    assert!(!ok && text.contains("failure domain"), "{text}");
}

#[test]
fn the_probes_gate_flags_keep_their_range_checks() {
    let refused = [
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
    let (ok, help) = run(env!("CARGO_BIN_EXE_adversary_probe"), &["--help"]);
    assert!(
        ok && help.starts_with("usage: adversary_probe [options]\n"),
        "{help}"
    );
    for listed in [
        "--link-cap N",
        "--stable-json",
        "--min-quarantine-rate F",
        "--max-loss-factor F",
    ] {
        assert!(help.contains(&format!("\n  {listed}")), "{listed}: {help}");
    }
    assert!(
        !help.contains("--threads") && !help.contains("--check"),
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
        env!("CARGO_BIN_EXE_adversary_probe"),
        &[
            "--peers",
            "64",
            "--min-quarantine-rate",
            "0",
            "--rounds",
            "40",
            "--max-loss-factor",
            "1000000",
            "--json",
            "--stable-json",
        ],
    );
    let head = r#"{"probe":"adversary_probe","peers":64,"rounds":40,"seed":42,"#;
    assert!(ok && report.starts_with(head), "{report}");
}

/// At 200 peers x 60 rounds the learned model never activates and
/// nothing is lost: learned ties uniform at 0 losses and adaptive width
/// saves no uploads, so both checks fail — and only `--check` turns
/// that into the exit status.
#[test]
fn check_fails_paper_report_and_names_each_violated_report() {
    let out_dir = std::env::temp_dir().join(format!("peerback-check-{}", std::process::id()));
    let out_dir = out_dir.to_str().expect("a UTF-8 temp dir");
    let reports = ["ablation_learned", "ablation_width"];
    let scale = ["--peers", "200", "--rounds", "60", "--out-dir", out_dir];
    let args = [&reports[..], &scale].concat();
    let (ok, text) = run(env!("CARGO_BIN_EXE_paper_report"), &args);
    assert!(ok && !text.contains("FAIL"), "{text}");
    let (ok, text) = run(
        env!("CARGO_BIN_EXE_paper_report"),
        &[&args[..], &["--check"]].concat(),
    );
    assert!(!ok, "{text}");
    for violation in [
        "FAIL ablation_learned: learned losses (0) do not beat uniform selection (0)",
        "FAIL ablation_width: adaptive uploads",
    ] {
        assert!(text.contains(violation), "{violation}: {text}");
    }
    std::fs::remove_dir_all(out_dir).expect("remove the report directory");
}
