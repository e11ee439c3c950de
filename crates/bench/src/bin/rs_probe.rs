//! Reed–Solomon throughput probe: one sample per available gf256
//! backend, as JSON for the `perf_gate rs` CI gate.
//!
//! Measures, at the paper-default geometry and under every backend the
//! host CPU can execute (forced via [`peerback_gf256::set_backend`]):
//! streaming `encode_into` throughput and reconstruction throughput
//! (MiB of data per second; the survivors are half data, half parity
//! shards), and the µs one 128×128 decode plan takes. The report's
//! `speedup` — best backend's encode over scalar's — is what the gate
//! compares against the ≥4× acceptance floor; `best_mib_s` and the
//! per-backend rows are for reading, not gated.
//!
//! ```text
//! cargo run --release -p peerback-bench --bin rs_probe -- --json
//! ```

use peerback_bench::{json, rs_bench, Cli, HarnessArgs};
use peerback_gf256::Backend;

/// The probe measures the codec on this host; no simulated world, so
/// nothing but the output mode is configurable.
const CLI: Cli = Cli {
    binary: "rs_probe",
    synopsis: "[--json]",
    groups: &["json"],
};

/// One backend's measurements.
struct Row {
    backend: Backend,
    encode_mib_s: f64,
    reconstruct_mib_s: f64,
    decode_plan_us: f64,
}

fn main() {
    let args = HarnessArgs::parse(&CLI);

    let mut rows: Vec<Row> = Vec::new();
    for backend in Backend::ALL {
        if !backend.available() {
            continue;
        }
        peerback_gf256::set_backend(backend);
        let encode_mib_s = rs_bench::encode_mib_s();
        let (reconstruct_mib_s, decode_plan_us) = rs_bench::reconstruct_mib_s_and_plan_us();
        if !args.json {
            println!(
                "{:<8} encode {encode_mib_s:>8.1} MiB/s  reconstruct {reconstruct_mib_s:>8.1} \
                 MiB/s  decode plan {decode_plan_us:>8.1} us",
                backend.name()
            );
        }
        rows.push(Row {
            backend,
            encode_mib_s,
            reconstruct_mib_s,
            decode_plan_us,
        });
    }
    // Leave the process-wide selection back at the detected default.
    peerback_gf256::set_backend(Backend::detect());

    let scalar_mib_s = rows[0].encode_mib_s;
    let best = rows
        .iter()
        .max_by(|a, b| a.encode_mib_s.total_cmp(&b.encode_mib_s))
        .expect("the scalar backend is always available");
    let speedup = if scalar_mib_s > 0.0 {
        best.encode_mib_s / scalar_mib_s
    } else {
        1.0
    };
    if args.json {
        let report = json::Object::new()
            .str("probe", "rs_probe")
            .num("host_cpus", HarnessArgs::host_cpus())
            .num("shard_bytes", rs_bench::SHARD_BYTES as u64)
            .raw(
                "backends",
                json::array(rows.iter().map(|row| {
                    json::Object::new()
                        .str("name", row.backend.name())
                        .float("encode_mib_s", row.encode_mib_s)
                        .float("reconstruct_mib_s", row.reconstruct_mib_s)
                        .float("decode_plan_us", row.decode_plan_us)
                        .render()
                })),
            )
            .float("scalar_mib_s", scalar_mib_s)
            .str("best_backend", best.backend.name())
            .float("best_mib_s", best.encode_mib_s)
            .float("speedup", speedup)
            .render();
        println!("{report}");
    } else {
        println!(
            "best: {} at {:.1} MiB/s ({speedup:.2}x over scalar)",
            best.backend.name(),
            best.encode_mib_s
        );
    }
}
