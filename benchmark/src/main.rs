//! The peerback repo benchmark. See `README.md` beside `Cargo.toml`.
//!
//! ```text
//! peerback-benchmark measure --workload NAME --seed N --seconds S --trace 0|1
//! peerback-benchmark run [--seed 42] [--workload NAME] [--repeats N] [--traced] [--out FILE]
//! peerback-benchmark compare A.json B.json
//! ```

mod compare;
mod digest;
mod host;
mod json;
mod layers;
mod measure;
mod run;
mod span;
mod spec;
mod stats;
mod workloads;

use std::process::ExitCode;

use workloads::Workload;

const USAGE: &str = "usage:
  measure --workload NAME --seed N --seconds S --trace 0|1
  run [--seed N] [--workload NAME] [--repeats N] [--traced] [--out FILE]
  compare A.json B.json
workloads: join_wave steady_churn learned_adaptive combined_bytes byte_plane";

/// The `--flag value` pairs of one subcommand.
struct Flags(Vec<(String, String)>);

impl Flags {
    /// Splits `args` into flags that take a value (`valued`) and flags
    /// that do not (`switches`); anything else is an error.
    fn parse(args: &[String], valued: &[&str], switches: &[&str]) -> Result<Flags, String> {
        let mut pairs = Vec::new();
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            if switches.contains(&arg.as_str()) {
                pairs.push((arg.clone(), String::new()));
            } else if valued.contains(&arg.as_str()) {
                let value = it.next().ok_or(format!("flag {arg} needs a value"))?;
                pairs.push((arg.clone(), value.clone()));
            } else {
                return Err(format!("unknown argument {arg:?}"));
            }
        }
        Ok(Flags(pairs))
    }

    fn get(&self, flag: &str) -> Option<&str> {
        self.0
            .iter()
            .rev()
            .find(|(f, _)| f == flag)
            .map(|(_, v)| v.as_str())
    }

    fn parsed<T: std::str::FromStr>(&self, flag: &str) -> Result<Option<T>, String> {
        self.get(flag)
            .map(|v| {
                v.parse()
                    .map_err(|_| format!("bad value for {flag}: {v:?}"))
            })
            .transpose()
    }

    fn workload(&self) -> Result<Option<Workload>, String> {
        self.get("--workload")
            .map(|name| Workload::from_name(name).ok_or(format!("unknown workload {name:?}")))
            .transpose()
    }
}

fn dispatch(args: &[String]) -> Result<bool, String> {
    let (command, rest) = args.split_first().ok_or("no subcommand")?;
    match command.as_str() {
        "measure" => {
            let flags = Flags::parse(rest, &["--workload", "--seed", "--seconds", "--trace"], &[])?;
            let trace = match flags.get("--trace") {
                None | Some("0") => false,
                Some("1") => true,
                Some(other) => return Err(format!("--trace takes 0 or 1, got {other:?}")),
            };
            let seconds: f64 = flags
                .parsed("--seconds")?
                .unwrap_or(spec::RUN_SECONDS as f64);
            if !(seconds.is_finite() && seconds > 0.0) {
                return Err(format!("--seconds must be positive, got {seconds}"));
            }
            measure::measure(&measure::Args {
                workload: flags.workload()?.ok_or("measure needs --workload")?,
                seed: flags.parsed("--seed")?.unwrap_or(42),
                seconds,
                trace,
            })
        }
        "run" => {
            let flags = Flags::parse(
                rest,
                &["--workload", "--seed", "--repeats", "--out"],
                &["--traced"],
            )?;
            run::run(&run::Args {
                workloads: flags
                    .workload()?
                    .map_or_else(|| Workload::ALL.to_vec(), |w| vec![w]),
                seed: flags.parsed("--seed")?.unwrap_or(42),
                repeats: flags.parsed("--repeats")?.unwrap_or(5),
                traced: flags.get("--traced").is_some(),
                out: flags.get("--out").map(Into::into),
            })
        }
        "compare" => match rest {
            [a, b] => compare::compare(a.as_ref(), b.as_ref()),
            _ => Err("compare takes exactly two result files".into()),
        },
        other => Err(format!("unknown subcommand {other:?}")),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("error: {message}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
