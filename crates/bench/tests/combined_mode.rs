//! Pins combined mode: `scenario_fabric --json --stable-json` stdout,
//! byte for byte, against the files committed under `tests/golden/`.
//! The stable report is a pure function of the command line (it is
//! identical at every `--shards` value), so any drift in a counter of
//! the lane replay — a retry drawn in another order, a transfer
//! completing a round later — is a diff here.
//!
//! Two commands, one per shipping path of the fabric:
//!
//! * **instant** — no scheduler, so every shipment completes the round
//!   it is decided; the sweep's 2% and 8% fault cells damage frames,
//!   so retries and scrub re-ships run;
//! * **queued** — a 256-byte link cap, so shipments queue, carry across
//!   rounds and are cancelled mid-stream, with a flash-restore wave,
//!   loss-deadline escalation, failure domains with an outage,
//!   quarantine and the adversary plane all on.
//!
//! Each runs in about 0.2 s in a release build and 3 s in the debug
//! test build. After an intended change to combined mode, from the
//! repository root:
//!
//! ```sh
//! golden=crates/bench/tests/golden
//! fabric="cargo run --release -q -p peerback-bench --bin scenario_fabric --"
//! $fabric --peers 64 --rounds 50 --seed 5 --json --stable-json \
//!     > $golden/scenario_fabric_instant.json
//! $fabric --peers 64 --rounds 50 --seed 5 --link-cap 256 --flash-restore 30 \
//!     --escalate-margin 1 --domains 4 --outage-at 20 --quarantine-threshold 2 \
//!     --adversary free=0.05,rot=0.02,challenge=5,sample=2 --json --stable-json \
//!     > $golden/scenario_fabric_queued.json
//! ```
//!
//! and review the diff of the goldens like any other change.

use std::path::Path;
use std::process::Command;

const INSTANT: &[&str] = &["--peers", "64", "--rounds", "50", "--seed", "5"];

const QUEUED: &[&str] = &[
    "--peers",
    "64",
    "--rounds",
    "50",
    "--seed",
    "5",
    "--link-cap",
    "256",
    "--flash-restore",
    "30",
    "--escalate-margin",
    "1",
    "--domains",
    "4",
    "--outage-at",
    "20",
    "--quarantine-threshold",
    "2",
    "--adversary",
    "free=0.05,rot=0.02,challenge=5,sample=2",
];

fn golden(file: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(file);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// `scenario_fabric <args> --json --stable-json`'s stdout; the run
/// must exit 0 (a clean audit).
fn stable_json(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_scenario_fabric"))
        .args(args)
        .args(["--json", "--stable-json"])
        .output()
        .expect("spawn scenario_fabric");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{args:?} failed:\n{stderr}");
    String::from_utf8(out.stdout).expect("utf-8 report")
}

/// The sum of every `"key":<integer>` in `json` (one per cell).
fn summed(json: &str, key: &str) -> u64 {
    let needle = format!("\"{key}\":");
    json.match_indices(&needle)
        .map(|(at, _)| {
            let rest = &json[at + needle.len()..];
            let digits = rest.split(|c: char| !c.is_ascii_digit()).next();
            digits
                .and_then(|d| d.parse::<u64>().ok())
                .expect("an integer")
        })
        .sum()
}

/// Asserts that the summed counters in `keys` are non-zero, so the
/// golden pins the paths those counters count.
fn assert_reached(json: &str, keys: &[&str]) {
    for key in keys {
        assert!(summed(json, key) > 0, "{key} is 0 over every cell");
    }
}

#[test]
fn instant_path_matches_its_golden() {
    let report = stable_json(INSTANT);
    assert!(
        report == golden("scenario_fabric_instant.json"),
        "differs from tests/golden/scenario_fabric_instant.json:\n{report}"
    );
    assert_reached(
        &report,
        &["transfers_retried", "retry_deliveries", "scrub_repaired"],
    );
    // No scheduler: nothing ever queues.
    assert_eq!(summed(&report, "transfers_queued"), 0);
}

#[test]
fn queued_path_with_every_plane_matches_its_golden() {
    let report = stable_json(QUEUED);
    assert!(
        report == golden("scenario_fabric_queued.json"),
        "differs from tests/golden/scenario_fabric_queued.json:\n{report}"
    );
    assert_reached(
        &report,
        &[
            "transfers_retried",
            "retry_deliveries",
            "scrub_repaired",
            "scrub_obsolete",
            "transfers_queued",
            "transfers_carried",
            "transfers_cancelled",
            "flash_restores",
            "audit_skipped_in_flight",
        ],
    );
}
