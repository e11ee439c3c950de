//! Reed–Solomon encode-throughput probe: one sample per available
//! gf256 backend, as JSON for the `perf_gate rs` CI gate.
//!
//! Measures the paper-default geometry's streaming `encode_into`
//! throughput (MiB of source data per second) under every backend the
//! host CPU can execute, forced via [`peerback_gf256::set_backend`].
//! The report's `speedup` — best SIMD backend over scalar — is what
//! the gate compares against the ≥4× acceptance floor; `best_mib_s`
//! and the per-backend rows are for reading, not gated.
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

fn main() {
    let args = HarnessArgs::parse(&CLI);

    let mut rows = Vec::new();
    let mut scalar_mib_s = 0.0f64;
    let mut best = (Backend::Scalar, 0.0f64);
    for backend in Backend::ALL {
        if !backend.available() {
            continue;
        }
        peerback_gf256::set_backend(backend);
        let mib_s = rs_bench::encode_mib_s();
        if backend == Backend::Scalar {
            scalar_mib_s = mib_s;
        }
        if mib_s > best.1 {
            best = (backend, mib_s);
        }
        rows.push((backend, mib_s));
        if !args.json {
            println!("{:<8} {:>10.1} MiB/s", backend.name(), mib_s);
        }
    }
    // Leave the process-wide selection back at the detected default.
    peerback_gf256::set_backend(Backend::detect());

    let speedup = if scalar_mib_s > 0.0 {
        best.1 / scalar_mib_s
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
                json::array(rows.iter().map(|&(backend, mib_s)| {
                    json::Object::new()
                        .str("name", backend.name())
                        .float("encode_mib_s", mib_s)
                        .render()
                })),
            )
            .float("scalar_mib_s", scalar_mib_s)
            .str("best_backend", best.0.name())
            .float("best_mib_s", best.1)
            .float("speedup", speedup)
            .render();
        println!("{report}");
    } else {
        println!(
            "best: {} at {:.1} MiB/s ({speedup:.2}x over scalar)",
            best.0.name(),
            best.1
        );
    }
}
