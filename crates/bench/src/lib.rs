//! The evaluation harness: one command line, one report runner, and the
//! pieces the probes share.
//!
//! * [`reports`] — every figure, table and ablation of the evaluation
//!   as data (slug, variants, renderer, check), run by the one
//!   `paper_report` binary; README "Reproducing the paper's figures and
//!   tables" is the index.
//! * [`HarnessArgs`] — the only flag parser. Its usage text lists every
//!   flag under a group name; each binary declares, in a [`Cli`], which
//!   groups it reads, and anything else on its command line is an error
//!   naming the flag and the binary.
//! * [`Scale`] — the population/duration presets.
//! * [`HarnessArgs::report_head`] — the opening of every `--json`
//!   report, and the one place that decides what `--stable-json` omits.
//! * [`json`], [`rs_bench`], [`alloc_probe`], [`peak_rss_bytes`] — the
//!   probes' report writer and measurements.

use std::path::PathBuf;
use std::time::Duration;

use peerback_core::{AdaptiveRedundancy, SelectionStrategy, SimConfig};
use peerback_fabric::{AdversaryConfig, FabricConfig, ScheduleConfig};

pub mod reports;

/// Allocation counting for the zero-allocation steady-state gate.
///
/// With the `count-allocs` feature a counting wrapper around the system
/// allocator is installed as the global allocator; [`alloc_probe::allocations`]
/// then reports the process-wide number of heap allocations (allocs +
/// reallocs) so far, and `perf_probe --json` derives `allocs_per_round`
/// from the delta across the steady-state window. Without the feature
/// the module compiles to a stub reporting zero with
/// [`alloc_probe::ENABLED`] false, so callers can emit the field only
/// when it means something.
#[cfg(feature = "count-allocs")]
pub mod alloc_probe {
    #![allow(unsafe_code)] // a GlobalAlloc impl is unavoidably unsafe

    use std::alloc::{GlobalAlloc, Layout, System};
    use std::sync::atomic::{AtomicU64, Ordering};

    /// Whether allocation counting is compiled in.
    pub const ENABLED: bool = true;

    static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

    /// The system allocator with an allocation counter bolted on.
    struct CountingAlloc;

    // SAFETY: every method delegates directly to `System`, which
    // upholds the `GlobalAlloc` contract; the only addition is a
    // relaxed atomic increment, which cannot affect the returned
    // memory.
    unsafe impl GlobalAlloc for CountingAlloc {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
            // SAFETY: forwarded verbatim; the caller's obligations are
            // exactly `System::alloc`'s.
            unsafe { System.alloc(layout) }
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            // SAFETY: forwarded verbatim.
            unsafe { System.dealloc(ptr, layout) }
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
            // SAFETY: forwarded verbatim.
            unsafe { System.realloc(ptr, layout, new_size) }
        }
    }

    #[global_allocator]
    static GLOBAL: CountingAlloc = CountingAlloc;

    /// Heap allocations (allocs + reallocs) performed by the process so
    /// far.
    pub fn allocations() -> u64 {
        ALLOCATIONS.load(Ordering::Relaxed)
    }
}

/// Stub when the `count-allocs` feature is off (see the feature-gated
/// module of the same name).
#[cfg(not(feature = "count-allocs"))]
pub mod alloc_probe {
    /// Whether allocation counting is compiled in.
    pub const ENABLED: bool = false;

    /// Always zero without the `count-allocs` feature.
    pub fn allocations() -> u64 {
        0
    }
}

/// Experiment scale presets.
///
/// All reported metrics are normalised (per 1000 peers, per round), so
/// the *shape* of every figure is scale-invariant; the paper scale
/// mainly shrinks error bars. See `tests/scale_invariance.rs`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// 2,000 peers, 6,000 rounds. Seconds per run — CI-friendly, but too
    /// short for Elder peers to exist (they need 18 simulated months).
    Smoke,
    /// 8,000 peers, 25,000 rounds (~2.9 years). The default: the
    /// smallest population whose under-90-day cohort can still supply
    /// `n = 256` distinct partners to the youngest owners.
    Default,
    /// The paper's 25,000 peers and 50,000 rounds (~5.7 years).
    Paper,
}

impl Scale {
    /// Population for this scale.
    pub fn peers(self) -> usize {
        match self {
            Scale::Smoke => 2_000,
            Scale::Default => 8_000,
            Scale::Paper => 25_000,
        }
    }

    /// Rounds for this scale.
    pub fn rounds(self) -> u64 {
        match self {
            Scale::Smoke => 6_000,
            Scale::Default => 25_000,
            Scale::Paper => 50_000,
        }
    }
}

/// Every flag, under the name of its group: the usage text and, through
/// [`groups_listing`], the table of which flag belongs to which group.
/// A binary's [`Cli`] names the groups it reads; `check` belongs to
/// `paper_report`, `adversary-gates` to `adversary_probe`.
/// (`tests/command_lines.rs` pins the two scale lines to [`Scale`].)
const USAGE: &str = "\
scale
  --smoke           2,000 peers, 6,000 rounds (fast sanity check)
  --paper-scale     25,000 peers, 50,000 rounds (the paper's §4.1 scale)
  --peers N         population override
  --rounds N        duration override
  --seed N          master seed (default 42)
sweep
  --threads N       sweep workers (default: all cores)
output
  --out-dir DIR     where TSV output lands (default: results/)
execution
  --shards N        intra-run worker threads (default 1; results are
                    bit-identical at every value)
json
  --json            emit a machine-readable JSON report on stdout
stable-json
  --stable-json     with --json: omit timing/host fields so same-seed
                    runs diff byte-for-byte (the CI determinism gate)
world
  --strategy NAME   partner-selection strategy override (age-based,
                    random, youngest, uptime-weighted, oracle-lifetime,
                    learned-age; default: the config's age-based rule)
  --misreport F     fraction of peers that inflate their claimed age
                    during negotiation (default 0: off)
  --shift-round N   from round N on, newly spawned peers draw from the
                    mirrored churn-profile mix (default 0: off)
  --adaptive-n N    adaptive per-archive redundancy, trimming targets
                    up to N blocks below n (default 0: static widths)
  --domains N       hash peers into N correlated failure domains
                    (default 0: axis off)
  --outage-rate F   per-domain per-round regional outage probability
  --outage-rounds N rounds an outage keeps its domain offline
  --outage-at N     force one outage of domain 0 at round N
  --partition-rate F per-domain per-round partition probability
  --partition-rounds N rounds a partition blocks new placements
  --quarantine-threshold N integrity strikes before a host is
                    quarantined and its hosted blocks written off
                    (default 0: never)
fabric
  --link-cap N      per-peer per-round transfer budget in bytes for the
                    fabric's bandwidth-aware scheduler (default 0:
                    instant shipping)
  --flash-restore N at round N every joined archive's owner starts a
                    full restore through the scheduler (default 0: off)
  --escalate-margin N repair transfers of archives under k+N placed
                    blocks jump the scheduler's priority queue
                    (default 0: off)
  --adversary SPEC  adversarial fabric hosts, e.g.
                    free=0.1,rot=0.02,challenge=16,sample=4
                    (free-rider fraction, rotter fraction, challenge
                    sweep interval, challenge coverage divisor;
                    default: all off)
check
  --check           print every failed report check and exit 1 if any
                    failed (ablation_learned, ablation_width)
adversary-gates
  --min-quarantine-rate F
                    fail unless this share of the targeted free riders
                    is quarantined before half the run (default 0.9)
  --max-loss-factor F
                    fail if attacked losses exceed F x the clean run's
                    (floored at one loss; default 2)";

/// The groups of [`USAGE`] that list `flag`.
fn groups_listing(flag: &str) -> impl Iterator<Item = &'static str> + '_ {
    let mut group = "";
    USAGE.lines().filter_map(move |line| {
        if !line.starts_with(' ') {
            group = line;
        }
        let entry = line.strip_prefix("  ")?;
        (entry.split(' ').next() == Some(flag)).then_some(group)
    })
}

/// What one binary's command line reads. Any other flag is an error
/// naming the flag and the binary — including the flags of a group the
/// binary does not consume, which would otherwise parse and then
/// change nothing.
#[derive(Debug, Clone, Copy)]
pub struct Cli {
    /// The binary's name, for usage and errors.
    pub binary: &'static str,
    /// What follows the name on the usage line, e.g. `"[options]"`.
    pub synopsis: &'static str,
    /// The groups of flags it reads: `"scale"`, `"sweep"` (`--threads`),
    /// `"output"` (`--out-dir`), `"execution"`, `"json"`,
    /// `"stable-json"`, `"world"`, `"fabric"`, `"check"` and
    /// `"adversary-gates"`.
    pub groups: &'static [&'static str],
}

impl Cli {
    /// The usage text: only what this binary reads.
    pub fn usage(&self) -> String {
        let mut out = format!("usage: {} {}", self.binary, self.synopsis);
        let mut reading = false;
        for line in USAGE.lines() {
            if !line.starts_with(' ') {
                reading = self.groups.contains(&line);
            } else if reading {
                out.push('\n');
                out.push_str(line);
            }
        }
        out
    }
}

/// Parsed command line of a harness binary: the scenario its flags
/// wrote, and the flags that are not part of a scenario. A binary's
/// [`Cli`] decides which flags it reads; the rest leave their fields at
/// the defaults.
#[derive(Debug, Clone)]
pub struct HarnessArgs {
    /// The simulation the scale, seed, `--shards` and world flags
    /// describe: [`SimConfig::paper`] with every given flag written
    /// into its field. Not validated here — `BackupWorld::new` and
    /// `Fabric::new` do that, so a flag the run could not honour (an
    /// outage rate without `--domains`) fails there with its reason.
    pub sim: SimConfig,
    /// The byte plane the fabric flags describe: the default
    /// [`FabricConfig`] with `--adversary` and, when any of
    /// `--link-cap`, `--flash-restore` or `--escalate-margin` is
    /// non-zero, a schedule. The fabric binaries set their own
    /// intervals and faults over it.
    pub fabric: FabricConfig,
    /// Output directory for TSVs.
    pub out_dir: PathBuf,
    /// Worker threads for sweeps (0 = all cores).
    pub threads: usize,
    /// Emit machine-readable JSON on stdout instead of (or alongside)
    /// the human-readable report, so perf and audit trajectories can be
    /// tracked across runs and PRs.
    pub json: bool,
    /// With `--json`: omit timing fields (elapsed seconds, throughput)
    /// and host facts (CPU count, worker knobs) so two runs of the same
    /// seed diff byte-for-byte — the CI determinism gate compares
    /// `--shards 1` against `--shards 8` this way.
    pub stable_json: bool,
    /// Whether `--paper-scale` was passed: `scenario_fabric` then runs
    /// its one paper-scale cell instead of the sweep, whatever
    /// `--peers`/`--rounds` say.
    pub paper_scale: bool,
    /// `paper_report`: exit 1 if a selected report's check fails.
    pub check: bool,
    /// `adversary_probe` gate: the loss factor the attacked arm may
    /// reach over the clean one (at least 1).
    pub max_loss_factor: Option<f64>,
    /// `adversary_probe` gate: the share of targeted free riders to be
    /// quarantined before half the run (a fraction).
    pub min_quarantine_rate: Option<f64>,
}

/// Parses an `--adversary` spec: comma-separated `key=value` pairs with
/// keys `free` (free-rider fraction), `rot` (rotter fraction),
/// `challenge` (challenge-sweep interval in rounds), `sample`
/// (challenge coverage divisor, 1 = every placement). Panics on
/// malformed or unknown keys, and on values
/// [`AdversaryConfig::validate`] rejects.
fn parse_adversary_spec(spec: &str, usage: &str) -> AdversaryConfig {
    let mut cfg = AdversaryConfig::default();
    for pair in spec.split(',').filter(|p| !p.is_empty()) {
        let (key, value) = pair.split_once('=').unwrap_or_else(|| {
            panic!("--adversary expects key=value pairs, got {pair:?}\n{usage}")
        });
        match key {
            "free" => {
                cfg.free_rider_fraction = parse_float(value, "--adversary free", FRACTION, usage)
            }
            "rot" => cfg.rot_fraction = parse_float(value, "--adversary rot", FRACTION, usage),
            "challenge" => {
                cfg.challenge_interval = parse_num(value, "--adversary challenge", usage);
            }
            "sample" => {
                cfg.challenge_sample_period = parse_num(value, "--adversary sample", usage);
            }
            other => panic!("unknown --adversary key {other:?} in {spec:?}\n{usage}"),
        }
    }
    if let Err(e) = cfg.validate() {
        panic!("invalid --adversary spec {spec:?}: {e}\n{usage}");
    }
    cfg
}

impl HarnessArgs {
    /// Parses `std::env::args` as `cli` allows.
    pub fn parse(cli: &Cli) -> Self {
        Self::parse_from(cli, std::env::args().skip(1))
    }

    /// Parses from an explicit iterator (testable).
    ///
    /// # Panics
    ///
    /// Panics with a message and `cli`'s usage on malformed arguments,
    /// on a flag nobody knows, and on a shared flag `cli` does not read.
    pub fn parse_from(cli: &Cli, args: impl IntoIterator<Item = String>) -> Self {
        let usage = cli.usage();
        let mut scale = Scale::Default;
        let (mut peers, mut rounds) = (None, None);
        let mut a = HarnessArgs {
            sim: SimConfig::paper(0, 0, 42),
            fabric: FabricConfig::default(),
            out_dir: PathBuf::from("results"),
            threads: 0,
            json: false,
            stable_json: false,
            paper_scale: false,
            check: false,
            max_loss_factor: None,
            min_quarantine_rate: None,
        };

        let mut iter = args.into_iter();
        while let Some(arg) = iter.next() {
            let flag = arg.as_str();
            if flag == "--help" || flag == "-h" {
                println!("{usage}");
                std::process::exit(0);
            }
            let mut value = || {
                iter.next()
                    .unwrap_or_else(|| panic!("flag {flag} needs a value\n{usage}"))
            };
            if !groups_listing(flag).any(|group| cli.groups.contains(&group)) {
                match groups_listing(flag).next() {
                    Some(_) => panic!("flag {flag} is not read by {}\n{usage}", cli.binary),
                    None => panic!("unknown flag {flag:?} for {}\n{usage}", cli.binary),
                }
            }
            let number = |s: String, range| parse_float(&s, flag, range, &usage);
            let sim = &mut a.sim;
            let schedule = &mut a.fabric.schedule;
            match flag {
                "--smoke" => scale = Scale::Smoke,
                "--paper-scale" => scale = Scale::Paper,
                "--peers" => peers = Some(parse_num(&value(), flag, &usage)),
                "--rounds" => rounds = Some(parse_num(&value(), flag, &usage)),
                "--seed" => sim.seed = parse_num(&value(), flag, &usage),
                "--out-dir" => a.out_dir = PathBuf::from(value()),
                "--threads" => a.threads = parse_num(&value(), flag, &usage),
                "--shards" => sim.shards = parse_num(&value(), flag, &usage),
                "--json" => a.json = true,
                "--stable-json" => a.stable_json = true,
                "--strategy" => {
                    let name = value();
                    sim.strategy = SelectionStrategy::from_name(&name).unwrap_or_else(|| {
                        let known: Vec<&str> =
                            SelectionStrategy::ALL.iter().map(|s| s.name()).collect();
                        panic!(
                            "unknown strategy {name:?}; expected one of {}\n{usage}",
                            known.join(", ")
                        )
                    });
                }
                "--misreport" => sim.misreport_fraction = number(value(), FRACTION),
                "--shift-round" => sim.shift_profiles_at = parse_num(&value(), flag, &usage),
                "--adaptive-n" => {
                    sim.adaptive_n = match parse_num(&value(), flag, &usage) {
                        0 => AdaptiveRedundancy::default(),
                        max_trim => AdaptiveRedundancy::tuned(max_trim),
                    }
                }
                "--domains" => sim.failure_domains.domains = parse_num(&value(), flag, &usage),
                "--outage-rate" => sim.failure_domains.outage_rate = number(value(), FRACTION),
                "--outage-rounds" => {
                    sim.failure_domains.outage_rounds = parse_num(&value(), flag, &usage)
                }
                "--outage-at" => sim.failure_domains.outage_at = parse_num(&value(), flag, &usage),
                "--partition-rate" => {
                    sim.failure_domains.partition_rate = number(value(), FRACTION)
                }
                "--partition-rounds" => {
                    sim.failure_domains.partition_rounds = parse_num(&value(), flag, &usage)
                }
                "--quarantine-threshold" => {
                    sim.quarantine_threshold = parse_num(&value(), flag, &usage)
                }
                "--link-cap" => {
                    let cap = parse_num(&value(), flag, &usage);
                    schedule.get_or_insert_default().link_cap = (cap > 0).then_some(cap);
                }
                "--flash-restore" => {
                    let round = parse_num(&value(), flag, &usage);
                    schedule.get_or_insert_default().flash_restore = (round > 0).then_some(round);
                }
                "--escalate-margin" => {
                    schedule.get_or_insert_default().escalate_margin =
                        parse_num(&value(), flag, &usage)
                }
                "--adversary" => a.fabric.adversary = parse_adversary_spec(&value(), &usage),
                "--check" => a.check = true,
                "--max-loss-factor" => a.max_loss_factor = Some(number(value(), AT_LEAST_ONE)),
                "--min-quarantine-rate" => a.min_quarantine_rate = Some(number(value(), FRACTION)),
                other => unreachable!("{other} is in the usage table but not parsed"),
            }
        }
        a.sim.n_peers = peers.unwrap_or(scale.peers());
        a.sim.rounds = rounds.unwrap_or(scale.rounds());
        a.paper_scale = scale == Scale::Paper;
        // The three schedule flags all at 0 mean the instant path.
        if a.fabric.schedule == Some(ScheduleConfig::default()) {
            a.fabric.schedule = None;
        }
        a
    }

    /// CPUs visible to this process. Recorded in perf reports:
    /// `perf_gate speedup` reads it from the samples to decide whether
    /// the host that took them could express the parallelism.
    pub fn host_cpus() -> u64 {
        std::thread::available_parallelism().map_or(1, |n| n.get() as u64)
    }

    /// Resolved worker-thread count.
    pub fn thread_count(&self) -> usize {
        match self.threads {
            0 => Self::host_cpus() as usize,
            n => n,
        }
    }

    /// Creates the output directory and returns the path for `name`.
    ///
    /// # Panics
    ///
    /// Panics if the directory cannot be created.
    pub fn out_path(&self, name: &str) -> PathBuf {
        std::fs::create_dir_all(&self.out_dir).expect("create output directory");
        self.out_dir.join(name)
    }

    /// Opens a `--json` report: `key` (`"probe"` or `"scenario"`)
    /// naming the binary's report, then `peers` / `rounds` / `seed`.
    /// Unless `--stable-json` was given, `shards`, `host_cpus` and
    /// `elapsed_secs` follow, then whatever `telemetry` appends — the
    /// one place that decides what the stable form leaves out, so
    /// anything that varies with the host or the execution knobs
    /// (timings, worker counts, work counters) belongs in `telemetry`
    /// and everything the caller chains on afterwards must be a pure
    /// function of the seed.
    pub fn report_head(
        &self,
        key: &str,
        name: &str,
        elapsed: Duration,
        telemetry: impl FnOnce(json::Object) -> json::Object,
    ) -> json::Object {
        let head = json::Object::new()
            .str(key, name)
            .num("peers", self.sim.n_peers as u64)
            .num("rounds", self.sim.rounds)
            .num("seed", self.sim.seed);
        if self.stable_json {
            return head;
        }
        telemetry(
            head.num("shards", self.sim.shards as u64)
                .num("host_cpus", Self::host_cpus())
                .float("elapsed_secs", elapsed.as_secs_f64()),
        )
    }
}

/// The unsigned integer types a numeric flag sets.
trait FlagInt: TryFrom<u64> {
    const MAX: u64;
}

macro_rules! flag_int {
    ($($t:ty),*) => {$(
        impl FlagInt for $t {
            const MAX: u64 = <$t>::MAX as u64;
        }
    )*};
}

flag_int!(u8, u16, u32, u64, usize);

/// Parses a numeric flag value (`_` separators allowed) into the type
/// of the field it sets, refusing a value that type cannot hold rather
/// than wrapping it.
fn parse_num<T: FlagInt>(s: &str, flag: &str, usage: &str) -> T {
    let n: u64 = s
        .replace('_', "")
        .parse()
        .unwrap_or_else(|_| panic!("flag {flag} expects a number, got {s:?}\n{usage}"));
    T::try_from(n).unwrap_or_else(|_| {
        panic!(
            "flag {flag} expects a number of at most {}, got {s:?}\n{usage}",
            T::MAX
        )
    })
}

/// What a flag's number must satisfy: the wording for errors, and the
/// check.
type Range = (&'static str, fn(f64) -> bool);

const FRACTION: Range = ("a fraction in [0, 1]", |f| (0.0..=1.0).contains(&f));
const AT_LEAST_ONE: Range = ("a number of at least 1", |f| f >= 1.0);

fn parse_float(s: &str, flag: &str, (expects, accepts): Range, usage: &str) -> f64 {
    let valid = s.parse().ok().filter(|&v| accepts(v));
    valid.unwrap_or_else(|| panic!("flag {flag} expects {expects}, got {s:?}\n{usage}"))
}

/// Peak resident set size of this process in bytes: `VmHWM` from
/// `/proc/self/status`, 0 where that is unavailable. Execution
/// telemetry for the perf reports — the join wave's transient buffers
/// show here, not in the per-peer table footprint.
pub fn peak_rss_bytes() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
            line.trim().strip_suffix("kB")?.trim().parse::<u64>().ok()
        })
        .map_or(0, |kib| kib * 1024)
}

/// Formats a float with sensible precision for tables.
pub fn fmt_rate(v: Option<f64>) -> String {
    match v {
        Some(v) if v > 0.0 && v < 0.001 => format!("{v:.2e}"),
        Some(v) => format!("{v:.4}"),
        None => "n/a".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A binary that reads every shared flag.
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
        ],
    };

    fn parse(args: &[&str]) -> HarnessArgs {
        HarnessArgs::parse_from(&EVERYTHING, args.iter().map(|s| s.to_string()))
    }

    #[test]
    #[cfg(target_os = "linux")]
    fn peak_rss_is_read_from_proc() {
        // The test binary alone is resident with more than a page.
        assert!(peak_rss_bytes() > 4096);
    }

    #[test]
    fn defaults_are_the_default_scale() {
        let a = parse(&[]);
        assert_eq!(a.sim.n_peers, 8_000);
        assert_eq!(a.sim.rounds, 25_000);
        assert_eq!(a.sim.seed, 42);
        assert_eq!(a.out_dir, PathBuf::from("results"));
    }

    #[test]
    fn paper_scale_flag() {
        let a = parse(&["--paper-scale"]);
        assert_eq!(a.sim.n_peers, 25_000);
        assert_eq!(a.sim.rounds, 50_000);
    }

    #[test]
    fn json_flag() {
        assert!(!parse(&[]).json);
        assert!(parse(&["--json"]).json);
    }

    #[test]
    fn shards_flag_reaches_the_config() {
        assert_eq!(parse(&[]).sim.shards, 1);
        assert_eq!(parse(&["--shards", "8"]).sim.shards, 8);
    }

    #[test]
    fn stable_json_flag() {
        assert!(!parse(&[]).stable_json);
        assert!(parse(&["--stable-json"]).stable_json);
    }

    #[test]
    fn explicit_overrides_win() {
        let a = parse(&[
            "--paper-scale",
            "--peers",
            "1000",
            "--rounds",
            "5_000",
            "--seed",
            "7",
        ]);
        assert_eq!(a.sim.n_peers, 1000);
        assert_eq!(a.sim.rounds, 5000);
        assert_eq!(a.sim.seed, 7);
    }

    #[test]
    fn scenario_axis_flags_reach_the_config() {
        let cfg = parse(&[]).sim;
        assert_eq!(cfg.strategy, SelectionStrategy::AgeBased);
        assert_eq!(cfg.misreport_fraction, 0.0);
        assert_eq!(cfg.shift_profiles_at, 0);
        let cfg = parse(&[
            "--strategy",
            "learned-age",
            "--misreport",
            "0.25",
            "--shift-round",
            "1200",
        ])
        .sim;
        assert_eq!(cfg.strategy, SelectionStrategy::LearnedAge);
        assert_eq!(cfg.misreport_fraction, 0.25);
        assert_eq!(cfg.shift_profiles_at, 1200);
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn adaptive_and_scheduler_flags_resolve() {
        let a = parse(&[]);
        assert!(!a.sim.adaptive_n.enabled);
        assert!(a.fabric.schedule.is_none());

        let a = parse(&[
            "--adaptive-n",
            "8",
            "--link-cap",
            "4096",
            "--flash-restore",
            "900",
        ]);
        assert!(a.sim.adaptive_n.enabled);
        assert_eq!(a.sim.adaptive_n.max_trim, 8);
        assert!(a.sim.validate().is_ok());
        let sched = a.fabric.schedule.expect("link cap engages the scheduler");
        assert_eq!(sched.link_cap, Some(4096));
        assert_eq!(sched.flash_restore, Some(900));

        // A flash wave alone still builds a schedule (link-derived
        // budgets, no explicit cap).
        let a = parse(&["--flash-restore", "900"]);
        let sched = a.fabric.schedule.expect("wave engages the scheduler");
        assert_eq!(sched.link_cap, None);

        // 0 keeps meaning "off".
        let a = parse(&[
            "--adaptive-n",
            "0",
            "--link-cap",
            "0",
            "--flash-restore",
            "0",
        ]);
        assert!(!a.sim.adaptive_n.enabled && a.fabric.schedule.is_none());
    }

    #[test]
    fn adversary_and_failure_domain_flags_resolve() {
        let a = parse(&[]);
        assert!(!a.fabric.adversary.any_hostile());
        assert_eq!(a.sim.failure_domains.domains, 0);
        assert_eq!(a.sim.quarantine_threshold, 0);

        let a = parse(&[
            "--adversary",
            "free=0.1,rot=0.02,challenge=16,sample=4",
            "--domains",
            "12",
            "--outage-rate",
            "0.001",
            "--outage-rounds",
            "40",
            "--outage-at",
            "500",
            "--partition-rate",
            "0.002",
            "--partition-rounds",
            "25",
            "--quarantine-threshold",
            "2",
            "--escalate-margin",
            "3",
        ]);
        let adversary = a.fabric.adversary;
        assert_eq!(adversary.free_rider_fraction, 0.1);
        assert_eq!(adversary.rot_fraction, 0.02);
        assert_eq!(adversary.challenge_interval, 16);
        assert_eq!(adversary.challenge_sample_period, 4);
        let cfg = a.sim;
        assert_eq!(cfg.failure_domains.domains, 12);
        assert_eq!(cfg.failure_domains.outage_rate, 0.001);
        assert_eq!(cfg.failure_domains.outage_rounds, 40);
        assert_eq!(cfg.failure_domains.outage_at, 500);
        assert_eq!(cfg.failure_domains.partition_rate, 0.002);
        assert_eq!(cfg.failure_domains.partition_rounds, 25);
        assert_eq!(cfg.quarantine_threshold, 2);
        assert!(cfg.validate().is_ok());
        assert_eq!(a.fabric.schedule.map(|s| s.escalate_margin), Some(3));
        // An escalation margin alone engages the scheduler.
        let a = parse(&["--escalate-margin", "2"]);
        let sched = a.fabric.schedule.expect("margin engages the scheduler");
        assert_eq!(sched.link_cap, None);
        assert_eq!(sched.escalate_margin, 2);
    }

    /// An outage flag without `--domains` reaches the config, whose
    /// validation refuses it, instead of vanishing.
    #[test]
    fn outage_flags_without_domains_fail_validation() {
        let a = parse(&["--outage-rate", "0.5", "--outage-rounds", "5"]);
        assert_eq!(a.sim.failure_domains.outage_rate, 0.5);
        let e = a.sim.validate().expect_err("no domain to black out");
        assert!(e.contains("failure domain"), "{e}");
    }

    #[test]
    #[should_panic(expected = "unknown --adversary key")]
    fn unknown_adversary_key_panics() {
        let _ = parse(&["--adversary", "free=0.1,evil=1"]);
    }

    #[test]
    #[should_panic(expected = "key=value")]
    fn malformed_adversary_pair_panics() {
        let _ = parse(&["--adversary", "free"]);
    }

    #[test]
    #[should_panic(expected = "invalid --adversary spec")]
    fn out_of_range_adversary_fraction_panics() {
        let _ = parse(&["--adversary", "rot=0.2,sample=0"]);
    }

    #[test]
    #[should_panic(expected = "unknown strategy")]
    fn unknown_strategy_panics() {
        let _ = parse(&["--strategy", "astrology"]);
    }

    #[test]
    #[should_panic(expected = "fraction in [0, 1]")]
    fn out_of_range_misreport_panics() {
        let _ = parse(&["--misreport", "1.5"]);
    }

    #[test]
    #[should_panic(expected = "unknown flag")]
    fn unknown_flag_panics() {
        let _ = parse(&["--frobnicate"]);
    }

    #[test]
    #[should_panic(expected = "expects a number")]
    fn bad_number_panics() {
        let _ = parse(&["--peers", "many"]);
    }

    #[test]
    fn rate_formatting() {
        assert_eq!(fmt_rate(None), "n/a");
        assert_eq!(fmt_rate(Some(1.5)), "1.5000");
        assert_eq!(fmt_rate(Some(0.0005)), "5.00e-4");
        assert_eq!(fmt_rate(Some(0.0)), "0.0000");
    }

    #[test]
    fn base_config_is_valid() {
        assert!(parse(&["--smoke"]).sim.validate().is_ok());
    }
}

/// Reed–Solomon throughput measurements at the paper geometry, shared
/// by `rs_probe` (the per-backend CI gate sample) and `scenario_fabric
/// --paper-scale` (the `encode_mib_s` report field).
pub mod rs_bench {
    use std::time::{Duration, Instant};

    use peerback_erasure::ReedSolomon;

    /// Data-shard payload used for throughput runs: large enough that
    /// table setup and loop overhead vanish, small enough to stay in
    /// cache-friendly territory.
    pub const SHARD_BYTES: usize = 64 * 1024;

    /// Seconds per call of `op`, over a ≈300 ms window after one
    /// warm-up call (which also sizes any recycled buffers).
    fn seconds_per_call(mut op: impl FnMut()) -> f64 {
        op();
        let target = Duration::from_millis(300);
        let mut iters: u64 = 0;
        let start = Instant::now();
        loop {
            op();
            iters += 1;
            if start.elapsed() >= target {
                break;
            }
        }
        start.elapsed().as_secs_f64() / iters as f64
    }

    /// The paper-default codec and `k` deterministic data shards.
    fn codec_and_data() -> (ReedSolomon, Vec<Vec<u8>>) {
        let rs = ReedSolomon::paper_default();
        let data = (0..rs.data_shards())
            .map(|s| {
                (0..SHARD_BYTES)
                    .map(|i| {
                        let x = (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ (s as u64);
                        (x >> 32) as u8
                    })
                    .collect()
            })
            .collect();
        (rs, data)
    }

    /// MiB of source data per second over `seconds` for one code word.
    fn mib_s(rs: &ReedSolomon, seconds: f64) -> f64 {
        (rs.data_shards() * SHARD_BYTES) as f64 / seconds / (1024.0 * 1024.0)
    }

    /// Measures streaming encode throughput of the paper-default RS
    /// geometry with the **currently active** gf256 backend, in MiB of
    /// source data per second. Deterministic input; the measured region
    /// reuses one parity arena, so steady-state encode speed is what is
    /// timed, not allocation.
    pub fn encode_mib_s() -> f64 {
        let (rs, data) = codec_and_data();
        let mut parity: Vec<Vec<u8>> = vec![Vec::new(); rs.parity_shards()];
        let seconds = seconds_per_call(|| {
            rs.encode_into(&data, &mut parity).expect("valid geometry");
        });
        mib_s(&rs, seconds)
    }

    /// Reconstruction at the paper geometry with the active backend: the
    /// `byte_plane` survivor pattern (every other data shard and every
    /// other parity shard, 128 in all) decoded into a recycled arena,
    /// plan included. Returns (MiB of data per second, µs per decode
    /// plan alone).
    pub fn reconstruct_mib_s_and_plan_us() -> (f64, f64) {
        let (rs, data) = codec_and_data();
        let (k, n) = (rs.data_shards(), rs.total_shards());
        let mut all = data.clone();
        all.extend(rs.encode(&data).expect("valid geometry"));
        let survivors: Vec<(usize, &[u8])> = (0..k)
            .step_by(2)
            .chain((k..n).step_by(2))
            .map(|i| (i, all[i].as_slice()))
            .collect();
        let indices: Vec<usize> = survivors.iter().map(|(i, _)| *i).collect();
        let mut out = Vec::new();
        let decode = seconds_per_call(|| {
            rs.reconstruct_data_into(&survivors, SHARD_BYTES, &mut out)
                .expect("k survivors");
        });
        assert_eq!(out, data, "reconstruction returns the data shards");
        let plan = seconds_per_call(|| {
            std::hint::black_box(rs.decode_plan(&indices).expect("valid survivors"));
        });
        (mib_s(&rs, decode), plan * 1e6)
    }
}

/// A minimal JSON object/array writer for the `--json` report mode.
///
/// The offline dependency set has no serde; the harness binaries emit
/// flat reports (numbers, strings, arrays of numbers, nested objects),
/// which this covers in a few lines. Keys and strings are escaped,
/// numbers are rendered with enough precision to round-trip.
pub mod json {
    /// Escapes a string for use inside JSON quotes.
    pub fn escape(s: &str) -> String {
        let mut out = String::with_capacity(s.len());
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out
    }

    /// Builds one JSON object, insertion-ordered.
    #[derive(Debug, Default)]
    pub struct Object {
        fields: Vec<(String, String)>,
    }

    impl Object {
        /// An empty object.
        pub fn new() -> Self {
            Object::default()
        }

        /// Adds a pre-rendered JSON value.
        pub fn raw(mut self, key: &str, value: impl Into<String>) -> Self {
            self.fields.push((key.to_string(), value.into()));
            self
        }

        /// Adds an integer field.
        pub fn num(self, key: &str, value: impl Into<u64>) -> Self {
            let v: u64 = value.into();
            self.raw(key, v.to_string())
        }

        /// Adds a float field (NaN/inf render as null).
        pub fn float(self, key: &str, value: f64) -> Self {
            let rendered = if value.is_finite() {
                format!("{value:.6}")
            } else {
                "null".to_string()
            };
            self.raw(key, rendered)
        }

        /// Adds a string field.
        pub fn str(self, key: &str, value: &str) -> Self {
            self.raw(key, format!("\"{}\"", escape(value)))
        }

        /// Adds an array of integers.
        pub fn nums<I: IntoIterator<Item = u64>>(self, key: &str, values: I) -> Self {
            let inner: Vec<String> = values.into_iter().map(|v| v.to_string()).collect();
            self.raw(key, format!("[{}]", inner.join(",")))
        }

        /// Adds one `{items, busy_s, inline, wide}` object per
        /// dispatched stage, keyed by the stage's name: `perf_probe`'s
        /// `stage_work` rows and `scenario_fabric`'s replay rows.
        pub fn stage_work<'a>(
            self,
            rows: impl IntoIterator<Item = (&'a str, peerback_core::StageWork)>,
        ) -> Self {
            rows.into_iter().fold(self, |obj, (name, work)| {
                let row = Object::new()
                    .num("items", work.items)
                    .float("busy_s", work.busy.as_secs_f64())
                    .num("inline", work.inline)
                    .num("wide", work.wide);
                obj.raw(name, row.render())
            })
        }

        /// Renders the object.
        pub fn render(&self) -> String {
            let inner: Vec<String> = self
                .fields
                .iter()
                .map(|(k, v)| format!("\"{}\":{v}", escape(k)))
                .collect();
            format!("{{{}}}", inner.join(","))
        }
    }

    /// Renders an array from pre-rendered values.
    pub fn array<I: IntoIterator<Item = String>>(values: I) -> String {
        let inner: Vec<String> = values.into_iter().collect();
        format!("[{}]", inner.join(","))
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn renders_flat_and_nested() {
            let nested = Object::new().num("a", 1u64).render();
            let obj = Object::new()
                .str("name", "x\"y")
                .float("rate", 0.5)
                .nums("counts", [1u64, 2, 3])
                .raw("inner", nested)
                .render();
            assert_eq!(
                obj,
                "{\"name\":\"x\\\"y\",\"rate\":0.500000,\"counts\":[1,2,3],\"inner\":{\"a\":1}}"
            );
        }

        #[test]
        fn non_finite_floats_become_null() {
            assert_eq!(Object::new().float("v", f64::NAN).render(), "{\"v\":null}");
        }

        #[test]
        fn array_of_objects() {
            let parts = vec![
                Object::new().num("i", 0u64).render(),
                Object::new().num("i", 1u64).render(),
            ];
            assert_eq!(array(parts), "[{\"i\":0},{\"i\":1}]");
        }
    }
}
