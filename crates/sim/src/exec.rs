//! A deterministic work-stealing task executor with a persistent
//! worker pool.
//!
//! The sharded simulation (and the fabric's sharded replay) decomposes
//! each phase of a round into one **task per logical shard**. Tasks are
//! independent by construction — a task mutates only its own shard's
//! state — so they can run on any worker in any order, and the caller
//! merges the per-task results **in task-key order** afterwards. That
//! merge is what keeps same-seed runs bit-identical at every worker
//! count: scheduling decides *when* a task runs, never *what it
//! computes or where its output lands*.
//!
//! ## Scheduling
//!
//! Each worker owns a contiguous range of task indices (the same fixed
//! ownership the pre-stealing executor used) and shares a claim table.
//! A worker drains its own range front to back, then **steals**: it
//! scans the other ranges and claims unstarted tasks from their tails.
//! Claiming is one atomic flag swap per task — a unique winner however
//! many workers race for it — against a claim table the pool recycles
//! across stages (no per-dispatch slot vector).
//!
//! [`ExecPolicy`] always passes `steal = true`. The parameter
//! stays on [`WorkerPool::run_tasks`] and [`WorkerPool::run_tasks_with`]
//! because the repository's benchmark harness (`benchmark/`) calls
//! `run_tasks` with it; with `steal` disabled the executor degrades to
//! the fixed ownership model, where a hot range idles the other
//! workers.
//!
//! ## The persistent pool
//!
//! [`WorkerPool`] spawns its helper threads on the first stage that
//! needs them and keeps them alive for the lifetime of the simulation,
//! parked on a stage barrier. Dispatching a stage is an **epoch bump**
//! — publish the job, wake the sleepers, participate as worker 0, wait
//! for the barrier — not a `thread::scope` spawn, so a steady-state
//! round performs *zero* thread spawns however many stages it runs.
//! Single-worker stages bypass the pool entirely and run inline on the
//! caller, so a world that never runs a wide stage never owns a thread.
//! [`WorkerPool::dispatches`] counts the real wake-ups, which the bench
//! layer reports as `stage_dispatches_per_round`, and
//! [`WorkerPool::busy`] sums the time workers spent inside stages: two
//! clock reads per worker per stage, inline stages included.
//!
//! On its first stage each helper moves itself off the dispatcher's CPU
//! once (see the crate-private `place` module): left to the kernel's
//! wake-up placement, a small guest can run a whole pool on one CPU for
//! the first second or two of a process, so how fast a run goes would
//! depend on what the machine did before it.
//!
//! ## The width rule
//!
//! [`ExecPolicy`] sizes every stage of the world's round and of the
//! fabric's lane replay. A stage is priced ([`ExecPolicy::narrowed`])
//! at its items times the serial cost of one item of its kind, which
//! each crate measures as a [`StageWork`] row's busy time ÷ items at
//! `--shards 1`. Above [`BREAK_EVEN_NS`] it goes as wide as its
//! non-empty tasks allow; otherwise it runs inline on the caller. The
//! one exception ([`ExecPolicy::full_width`]): a stage whose work is
//! only known inside its tasks goes full width — the world's local
//! events, known once the wheels fire, and a fabric round with an
//! audit, scrub, challenge or flash-restore wave due. Width is
//! scheduling only: no result depends on it.
//!
//! ## Testing interleavings
//!
//! Under a fuzz seed ([`ExecPolicy::set_fuzz`]) every dispatch
//! executes its task set sequentially in a seeded random order instead.
//! Because tasks share no mutable state, any parallel interleaving is
//! observationally equivalent to *some* sequential permutation — so
//! driving random permutations through the full pipeline and asserting
//! unchanged results is an effective (and deterministic) test of the
//! independence contract.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use rand::Rng;

use crate::rng::{derive_seed, sim_rng};

/// The claim table: one flag per task, flipped exactly once. A claim is
/// a single relaxed swap — atomicity alone guarantees a unique winner,
/// and the stage's end-of-dispatch barrier publishes every task's
/// results to the caller. The pool keeps one table for the life of the
/// run (under the dispatch gate), so the steady state resets flags in
/// place instead of allocating a slot vector per stage.
#[derive(Default)]
struct ClaimTable {
    flags: Vec<AtomicBool>,
}

impl ClaimTable {
    /// Resets to `len` unclaimed flags, reusing the allocation.
    fn reset(&mut self, len: usize) {
        self.flags.clear();
        self.flags.resize_with(len, AtomicBool::default);
    }

    /// True exactly once per index per stage.
    fn claim(&self, i: usize) -> bool {
        !self.flags[i].swap(true, Ordering::Relaxed)
    }
}

/// A thread-shareable base pointer to a `&mut` slice of per-task (or
/// per-worker) state. Exclusive access to an element is granted by the
/// execution protocol — the claim table for task states, the worker
/// index for worker scratch — never by the type system; see the
/// `# Safety` contract on [`TaskBase::get`].
struct TaskBase<S> {
    ptr: *mut S,
    len: usize,
}

#[allow(unsafe_code)]
// SAFETY: a TaskBase only ever yields access to disjoint elements, each
// claimed by (and then mutated on) one thread at a time; `S: Send`
// makes that hand-off across threads sound.
unsafe impl<S: Send> Send for TaskBase<S> {}
#[allow(unsafe_code)]
// SAFETY: as for Send — a shared `&TaskBase` grants `&mut` only to
// elements the calling worker holds the unique claim on.
unsafe impl<S: Send> Sync for TaskBase<S> {}

impl<S> TaskBase<S> {
    fn new(states: &mut [S]) -> Self {
        TaskBase {
            ptr: states.as_mut_ptr(),
            len: states.len(),
        }
    }

    /// Exclusive access to element `i`.
    ///
    /// # Safety
    ///
    /// The caller must hold the unique claim on `i` for the duration of
    /// the returned borrow (no other worker may reach `i` in this
    /// stage), and the slice behind the base must outlive the borrow —
    /// both are upheld by the claim-table/worker-index protocol plus
    /// the stage barrier.
    // `&self -> &mut S` is intentional: `TaskBase` is a shared handle
    // (like a cell) and the claim table guarantees at most one worker
    // ever reaches a given `i` per stage, so the borrows never alias.
    #[allow(unsafe_code, clippy::mut_from_ref)]
    unsafe fn get(&self, i: usize) -> &mut S {
        debug_assert!(i < self.len, "task index out of bounds");
        // SAFETY: `i` is in bounds and exclusively claimed per the
        // function contract.
        unsafe { &mut *self.ptr.add(i) }
    }
}

/// The contiguous task range initially owned by worker `w` of `workers`.
fn own_range(len: usize, workers: usize, w: usize) -> (usize, usize) {
    let per = len.div_ceil(workers);
    let start = (w * per).min(len);
    (start, (start + per).min(len))
}

/// The claim-drain loop one worker runs over a stage: own range front
/// to back, then (optionally) steal the other ranges from their tails,
/// nearest victim first.
fn drain_worker<S>(
    claims: &ClaimTable,
    states: &TaskBase<S>,
    len: usize,
    workers: usize,
    w: usize,
    steal: bool,
    mut f: impl FnMut(usize, &mut S),
) {
    let (start, end) = own_range(len, workers, w);
    for i in start..end {
        if claims.claim(i) {
            // SAFETY: the claim succeeded, so this worker is the only
            // one to ever reach element `i` this stage.
            #[allow(unsafe_code)]
            f(i, unsafe { states.get(i) });
        }
    }
    if !steal {
        return;
    }
    for step in 1..workers {
        let victim = (w + step) % workers;
        let (vs, ve) = own_range(len, workers, victim);
        for i in (vs..ve).rev() {
            if claims.claim(i) {
                // SAFETY: as above — the unique claim on `i` was just
                // won by this worker.
                #[allow(unsafe_code)]
                f(i, unsafe { states.get(i) });
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The persistent pool.

/// A stage job, lifetime-erased so parked threads (whose loop cannot
/// name the caller's stack lifetime) can run it. Soundness is purely a
/// matter of the barrier protocol; see the `SAFETY` comment at the one
/// erasure site in [`WorkerPool::dispatch`].
type Job = &'static (dyn Fn(usize) + Sync);

/// Barrier state shared between the dispatching caller and the parked
/// workers.
struct PoolState {
    /// Bumped once per dispatched stage; workers wake on a change.
    epoch: u64,
    /// The published job for the current epoch.
    job: Option<Job>,
    /// Worker indices `< width` run the job and check in; helpers
    /// beyond the width skip the epoch entirely (no job access, no
    /// check-in), so narrow stages on a wide pool don't barrier on
    /// every parked thread.
    width: usize,
    /// Participating helpers (`width − 1`) that have not yet checked
    /// in for this epoch.
    remaining: usize,
    /// The CPU the dispatching caller published this epoch from, where
    /// the platform tells: a helper's first stage hops away from it
    /// (see [`crate::place`]).
    caller_cpu: Option<usize>,
    /// First panic payload raised by a helper's share of the job
    /// (resumed on the dispatching caller).
    panic_payload: Option<Box<dyn std::any::Any + Send>>,
    /// Tells the helpers to exit their loop.
    shutdown: bool,
}

struct PoolShared {
    state: Mutex<PoolState>,
    /// Nanoseconds workers spent inside stages, summed over workers and
    /// stages (a statistic: it publishes no other data).
    busy_ns: AtomicU64,
    /// Wakes helpers on a new epoch (or shutdown).
    work: Condvar,
    /// Wakes the dispatching caller once every helper checked in.
    done: Condvar,
}

impl PoolShared {
    /// Runs one worker's share of a stage, adding its duration to the
    /// pool's busy time.
    fn timed(&self, share: impl FnOnce()) {
        let start = Instant::now();
        share();
        let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.busy_ns.fetch_add(ns, Ordering::Relaxed);
    }
}

/// What the dispatch gate guards: one stage in flight means one claim
/// table suffices (resetting it in place keeps the steady-state
/// dispatch path allocation-free), and the same lock makes the
/// first-stage helper spawn happen exactly once.
#[derive(Default)]
struct Gate {
    claims: ClaimTable,
    /// The parked helpers; empty until the first wide stage.
    handles: Vec<JoinHandle<()>>,
}

/// A persistent, parked worker pool for stage dispatch.
///
/// A pool of width `w` runs stages on `w − 1` helper threads plus the
/// dispatching caller, which acts as worker 0. The helpers are spawned
/// by the first stage that runs on two or more workers — never by
/// [`WorkerPool::new`] — so a pool of width 1, or one that only ever
/// sees single-worker stages, owns no threads at all. Threads park on a
/// condition variable between stages and are joined on drop.
pub struct WorkerPool {
    shared: Arc<PoolShared>,
    /// Configured total width (helpers + the caller), at least 1.
    width: usize,
    /// Serializes whole dispatches: the barrier protocol (epoch, job,
    /// remaining) supports exactly one stage in flight, and the erased
    /// job reference must stay alive until *its own* barrier clears —
    /// a second concurrent dispatcher would corrupt both. Held across
    /// the entire dispatch; a concurrent caller simply waits its turn.
    gate: Mutex<Gate>,
    /// Pool wake-ups performed (stages that actually used ≥2 workers).
    dispatches: AtomicU64,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("width", &self.width())
            .field("dispatches", &self.dispatches())
            .finish()
    }
}

impl WorkerPool {
    /// Builds a pool of total width `workers` (including the caller).
    /// Spawns nothing: see the type docs.
    pub fn new(workers: usize) -> Self {
        WorkerPool {
            shared: Arc::new(PoolShared {
                state: Mutex::new(PoolState {
                    epoch: 0,
                    job: None,
                    width: 0,
                    remaining: 0,
                    caller_cpu: None,
                    panic_payload: None,
                    shutdown: false,
                }),
                busy_ns: AtomicU64::new(0),
                work: Condvar::new(),
                done: Condvar::new(),
            }),
            width: workers.max(1),
            gate: Mutex::new(Gate::default()),
            dispatches: AtomicU64::new(0),
        }
    }

    /// Total parallel width (helper threads + the dispatching caller).
    pub fn width(&self) -> usize {
        self.width
    }

    /// Stage dispatches that woke the pool so far (inline single-worker
    /// stages are not counted — they cost no wake-up).
    pub fn dispatches(&self) -> u64 {
        self.dispatches.load(Ordering::Relaxed)
    }

    /// Time workers spent inside stages so far, summed over workers:
    /// each worker's share of every wide stage, plus the whole of every
    /// inline stage. Over one stage, busy time divided by the stage's
    /// task count is its measured cost per task, and busy time divided
    /// by wall time × width is how busy its workers were.
    pub fn busy(&self) -> Duration {
        Duration::from_nanos(self.shared.busy_ns.load(Ordering::Relaxed))
    }

    /// Claims the dispatch gate (serializing whole stages) for a stage
    /// of two or more workers: resets the recycled claim table to `len`
    /// unclaimed flags and, on the pool's first such stage, spawns the
    /// helpers — at epoch 0, before the stage's job is published, so a
    /// helper's start state is right whether it first looks before the
    /// bump or after. Poisoning is ignored: a panicked dispatch restores the
    /// barrier invariants (remaining == 0, job cleared) before
    /// unwinding through the guard, so the pool stays usable.
    fn claim_gate(&self, len: usize) -> MutexGuard<'_, Gate> {
        let mut gate = self.gate.lock().unwrap_or_else(PoisonError::into_inner);
        gate.claims.reset(len);
        if gate.handles.is_empty() {
            gate.handles = (1..self.width)
                .map(|index| {
                    let shared = Arc::clone(&self.shared);
                    std::thread::Builder::new()
                        .name(format!("peerback-worker-{index}"))
                        .spawn(move || helper_loop(&shared, index))
                        .expect("spawn pool worker")
                })
                .collect();
        }
        gate
    }

    /// Publishes `f` as the current stage, wakes the helpers, runs the
    /// caller's share as worker 0 and waits for every helper to check
    /// in. Panics in any worker propagate to the caller after the
    /// barrier completes (so the job never dangles). The caller must
    /// hold the dispatch gate (via [`WorkerPool::claim_gate`]) for the
    /// whole call — concurrent dispatchers serialize there, blocking
    /// until the in-flight stage's barrier clears.
    fn dispatch(&self, width: usize, f: &(dyn Fn(usize) + Sync)) {
        debug_assert!(width >= 2, "width-1 stages run inline");
        self.dispatches.fetch_add(1, Ordering::Relaxed);
        // SAFETY-ADJACENT LIFETIME ERASURE (no unsafe keyword, but the
        // contract matters): `job` borrows the caller's stack frame.
        // The erased reference is only ever dereferenced by helper
        // threads between the epoch bump below and their `remaining`
        // check-in, and this function does not return until
        // `remaining == 0` — so the referent strictly outlives every
        // use. The erasure itself is a transmute of lifetimes only.
        #[allow(unsafe_code)]
        // SAFETY: lifetime erasure of a shared reference; the barrier
        // below keeps the referent alive for the full borrow (this
        // function blocks until every helper has checked in, even when
        // the caller's own share panics).
        let job: Job = unsafe {
            std::mem::transmute::<&(dyn Fn(usize) + Sync), &'static (dyn Fn(usize) + Sync)>(f)
        };
        {
            let mut g = self.shared.state.lock().expect("pool state poisoned");
            g.job = Some(job);
            g.width = width;
            // Only participating helpers (indices 1..width) check in;
            // the rest skip the epoch without touching the job.
            g.remaining = width - 1;
            g.caller_cpu = crate::place::current_cpu();
            g.panic_payload = None;
            g.epoch += 1;
            self.shared.work.notify_all();
        }
        // The caller is worker 0. Catch its panic so the barrier wait
        // below always happens — otherwise the erased job could dangle
        // while a helper still runs it.
        let caller = catch_unwind(AssertUnwindSafe(|| self.shared.timed(|| f(0))));
        let helper_panic = {
            let mut g = self.shared.state.lock().expect("pool state poisoned");
            while g.remaining != 0 {
                g = self.shared.done.wait(g).expect("pool state poisoned");
            }
            g.job = None;
            g.panic_payload.take()
        };
        if let Err(payload) = caller {
            resume_unwind(payload);
        }
        if let Some(payload) = helper_panic {
            // Re-raise the helper's original panic (message, location
            // payload and all) on the dispatching thread.
            resume_unwind(payload);
        }
    }

    /// Runs `f(i, &mut states[i])` exactly once for every `i` on up to
    /// `workers` workers (clamped to the pool width and the task
    /// count), with or without stealing. Single-worker stages run
    /// inline without waking the pool.
    pub fn run_tasks<S, F>(&self, workers: usize, steal: bool, states: &mut [S], f: F)
    where
        S: Send,
        F: Fn(usize, &mut S) + Sync,
    {
        let mut no_scratch = vec![(); workers.max(1)];
        self.run_tasks_with(steal, &mut no_scratch, states, |_, i, s| f(i, s));
    }

    /// As [`WorkerPool::run_tasks`], with one mutable **worker-local**
    /// state per worker (`worker_states.len()` bounds the width): each
    /// call of `f` receives the state of the worker executing it
    /// alongside the claimed task. Worker state is for reusable scratch
    /// only — anything whose contents influence results belongs in the
    /// per-task state, or the execution schedule becomes observable.
    pub fn run_tasks_with<W, S, F>(
        &self,
        steal: bool,
        worker_states: &mut [W],
        states: &mut [S],
        f: F,
    ) where
        W: Send,
        S: Send,
        F: Fn(&mut W, usize, &mut S) + Sync,
    {
        let len = states.len();
        if len == 0 {
            return;
        }
        let width = worker_states.len().min(len).min(self.width()).max(1);
        if width == 1 {
            let scratch = worker_states
                .first_mut()
                .expect("at least one worker state");
            self.shared.timed(|| {
                for (i, state) in states.iter_mut().enumerate() {
                    f(scratch, i, state);
                }
            });
            return;
        }
        let gate = self.claim_gate(len);
        let claims = &gate.claims;
        let base = TaskBase::new(states);
        let base = &base;
        let wbase = TaskBase::new(worker_states);
        let wbase = &wbase;
        let f = &f;
        self.dispatch(width, &move |w| {
            // SAFETY: worker index `w < width` is run by exactly one
            // thread per stage (the barrier protocol), so element `w`
            // of the worker-scratch slice is exclusively this
            // worker's.
            #[allow(unsafe_code)]
            let scratch = unsafe { wbase.get(w) };
            drain_worker(claims, base, len, width, w, steal, |i, s: &mut S| {
                f(scratch, i, s);
            });
        });
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut g = self
                .shared
                .state
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            g.shutdown = true;
            self.shared.work.notify_all();
        }
        let gate = self.gate.get_mut().unwrap_or_else(PoisonError::into_inner);
        for handle in gate.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

/// The parked helper loop: wait for an epoch bump; if this worker is
/// within the stage's width, run the published job and check in — and
/// otherwise skip the epoch without touching the job (its lifetime is
/// guaranteed by the participating workers' barrier alone).
fn helper_loop(shared: &PoolShared, index: usize) {
    let mut seen = 0u64;
    // Whether this helper still sits where the kernel first queued it —
    // as a rule the dispatcher's own CPU.
    let mut unplaced = true;
    loop {
        let (job, caller_cpu) = {
            let mut g = shared.state.lock().expect("pool state poisoned");
            loop {
                if g.shutdown {
                    return;
                }
                if g.epoch != seen {
                    break;
                }
                g = shared.work.wait(g).expect("pool state poisoned");
            }
            seen = g.epoch;
            if index >= g.width {
                // Not part of this stage: no job access, no check-in.
                // (The job may already be cleared — the dispatcher only
                // waits for the *participating* helpers — which is fine
                // because a non-participant never reads it.)
                continue;
            }
            // A participant can always observe the job: the dispatcher
            // cannot clear it before this helper's check-in.
            (g.job.expect("job published with the epoch"), g.caller_cpu)
        };
        if unplaced {
            unplaced = false;
            if let Some(cpu) = caller_cpu {
                crate::place::hop_from(cpu, index);
            }
        }
        let result = catch_unwind(AssertUnwindSafe(|| shared.timed(|| job(index))));
        let mut g = shared.state.lock().expect("pool state poisoned");
        if let Err(payload) = result {
            // Keep the first payload; the dispatcher re-raises it.
            g.panic_payload.get_or_insert(payload);
        }
        g.remaining -= 1;
        if g.remaining == 0 {
            shared.done.notify_one();
        }
    }
}

/// Executes the same task set sequentially in a seeded random order — a
/// deterministic stand-in for an arbitrary steal interleaving (see the
/// module docs).
fn run_tasks_fuzzed<S, F>(seed: u64, states: &mut [S], mut f: F)
where
    F: FnMut(usize, &mut S),
{
    let len = states.len();
    let mut order: Vec<usize> = (0..len).collect();
    // Fisher–Yates with the simulation RNG.
    let mut rng = sim_rng(seed);
    for i in (1..len).rev() {
        let j = rng.gen_range(0..=i);
        order.swap(i, j);
    }
    for i in order {
        f(i, &mut states[i]);
    }
}

/// A priced stage whose estimated serial time is at most this runs
/// inline: about four times the ≈ 47 µs a wide dispatch costs between
/// real stages (16 µs back to back, `sim.exec.dispatch.us`). Split over
/// two workers each item runs ≈ 1.5× slower (cross-core cache traffic:
/// a world message's 313 ns inline becomes 474 ns of busy time wide),
/// so a stage of serial time `t` finishes in ≈ `0.75 t` plus the
/// dispatch, which pays once `t / 4` exceeds the dispatch.
pub const BREAK_EVEN_NS: u64 = 200_000;

/// One kind of dispatched stage, summed over a run: its items, its
/// workers' time and its dispatches.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageWork {
    /// Items the stage's width rule was priced on (none for a
    /// full-width stage).
    pub items: u64,
    /// Time the stage's workers spent inside it, summed over workers
    /// ([`WorkerPool::busy`]).
    pub busy: Duration,
    /// Dispatches run on the calling thread alone.
    pub inline: u64,
    /// Dispatches that woke the worker pool.
    pub wide: u64,
}

impl std::ops::AddAssign for StageWork {
    fn add_assign(&mut self, other: StageWork) {
        self.items += other.items;
        self.busy += other.busy;
        self.inline += other.inline;
        self.wide += other.wide;
    }
}

/// The time since `*clock`, restarting the clock at now: one lap of a
/// stage profile.
pub fn lap(clock: &mut Instant) -> Duration {
    let now = Instant::now();
    let elapsed = now - *clock;
    *clock = now;
    elapsed
}

/// How a stage is dispatched: its width (the module docs' width rule),
/// the persistent pool it runs on, and the test hook's fuzz seed.
#[derive(Debug, Clone)]
pub struct ExecPolicy {
    workers: usize,
    fuzz: Option<u64>,
    pool: Arc<WorkerPool>,
    /// The items the policy was priced on, for [`StageWork::items`].
    items: u64,
}

impl ExecPolicy {
    /// A policy over a fresh pool of `workers` workers.
    pub fn new(workers: usize) -> ExecPolicy {
        ExecPolicy {
            workers,
            fuzz: None,
            pool: Arc::new(WorkerPool::new(workers)),
            items: 0,
        }
    }

    /// Workers a dispatch under this policy may use.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The pool every policy narrowed from this one dispatches on.
    pub fn pool(&self) -> &WorkerPool {
        &self.pool
    }

    /// Test hook: with a seed, every dispatch executes its tasks
    /// sequentially in a seeded random order (see the module docs).
    pub fn set_fuzz(&mut self, seed: Option<u64>) {
        self.fuzz = seed;
    }

    /// Prices a stage of `items` items at `ns_per_item` serial
    /// nanoseconds each over `busy` non-empty tasks: it goes as wide as
    /// [`ExecPolicy::full_width`] allows when its estimated serial time
    /// exceeds [`BREAK_EVEN_NS`], and runs inline otherwise.
    pub fn narrowed(&self, ns_per_item: u64, busy: usize, items: usize) -> ExecPolicy {
        let mut policy = self.full_width(busy);
        if (items as u64).saturating_mul(ns_per_item) <= BREAK_EVEN_NS {
            policy.workers = 1;
        }
        policy.items = items as u64;
        policy
    }

    /// The rule's one exception, for a stage whose work is only known
    /// inside its tasks: as wide as the pool, but no wider than `busy`
    /// non-empty tasks. Priced on no items.
    pub fn full_width(&self, busy: usize) -> ExecPolicy {
        ExecPolicy {
            workers: self.workers.min(busy.max(1)),
            items: 0,
            ..self.clone()
        }
    }

    /// Runs one stage: `f(i, &mut states[i])` exactly once per task.
    /// `salt` decorrelates fuzzed interleavings across stages and
    /// rounds.
    pub fn dispatch<S, F>(&self, salt: u64, states: &mut [S], f: F) -> StageWork
    where
        S: Send,
        F: Fn(usize, &mut S) + Sync,
    {
        let mut no_scratch = vec![(); self.workers.max(1)];
        self.dispatch_with(salt, &mut no_scratch, states, |_, i, s| f(i, s))
    }

    /// As [`ExecPolicy::dispatch`] with per-worker scratch state
    /// ([`WorkerPool::run_tasks_with`]). The cost is read off the pool's
    /// counters, so a fuzzed dispatch records no busy time.
    pub fn dispatch_with<W, S, F>(
        &self,
        salt: u64,
        worker_states: &mut [W],
        states: &mut [S],
        f: F,
    ) -> StageWork
    where
        W: Send,
        S: Send,
        F: Fn(&mut W, usize, &mut S) + Sync,
    {
        let (busy, dispatches) = (self.pool.busy(), self.pool.dispatches());
        match self.fuzz {
            Some(seed) => {
                let scratch = worker_states.first_mut().expect("one worker state");
                run_tasks_fuzzed(derive_seed(seed, salt), states, |i, s| f(scratch, i, s));
            }
            None => {
                // Honour the (possibly narrowed) worker count: the pool
                // derives the stage width from the scratch slice.
                let take = self.workers.clamp(1, worker_states.len());
                self.pool
                    .run_tasks_with(true, &mut worker_states[..take], states, f);
            }
        }
        let wide = self.pool.dispatches() > dispatches;
        StageWork {
            items: self.items,
            busy: self.pool.busy() - busy,
            inline: u64::from(!wide),
            wide: u64::from(wide),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn every_task_runs_exactly_once() {
        for workers in [1, 2, 3, 8, 17] {
            let pool = WorkerPool::new(workers);
            for steal in [false, true] {
                let mut states = vec![0u32; 37];
                pool.run_tasks(workers, steal, &mut states, |i, s| {
                    *s += 1 + i as u32;
                });
                for (i, s) in states.iter().enumerate() {
                    assert_eq!(*s, 1 + i as u32, "task {i} ran {workers}w steal={steal}");
                }
            }
        }
    }

    #[test]
    fn results_are_independent_of_worker_count() {
        let compute = |workers: usize, steal: bool| {
            let mut states = vec![0u64; 64];
            WorkerPool::new(workers).run_tasks(workers, steal, &mut states, |i, s| {
                // A tiny per-task computation with no shared state.
                let mut acc = i as u64;
                for k in 0..100u64 {
                    acc = acc.wrapping_mul(6364136223846793005).wrapping_add(k);
                }
                *s = acc;
            });
            states
        };
        let base = compute(1, false);
        for workers in [2, 4, 8] {
            assert_eq!(compute(workers, true), base);
            assert_eq!(compute(workers, false), base);
        }
    }

    #[test]
    fn stealing_covers_a_skewed_workload() {
        // One hot task must not prevent the others from completing;
        // with stealing on, total wall-clock is bounded by the hot task
        // (we only assert completion + exactly-once here).
        let counter = AtomicUsize::new(0);
        let mut states = vec![(); 16];
        WorkerPool::new(4).run_tasks(4, true, &mut states, |i, _| {
            if i == 0 {
                std::thread::sleep(std::time::Duration::from_millis(20));
            }
            counter.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(counter.load(Ordering::Relaxed), 16);
    }

    #[test]
    fn pool_runs_every_task_exactly_once_across_stages() {
        // One pool, many dispatches: the steady-state shape. No stage
        // may lose or duplicate a task, whatever the width asked for.
        let pool = WorkerPool::new(4);
        for stage in 0..50u32 {
            for &workers in &[1usize, 2, 3, 4, 9] {
                for steal in [false, true] {
                    let mut states = vec![0u32; 23];
                    pool.run_tasks(workers, steal, &mut states, |i, s| {
                        *s += stage + i as u32;
                    });
                    for (i, s) in states.iter().enumerate() {
                        assert_eq!(*s, stage + i as u32);
                    }
                }
            }
        }
    }

    #[test]
    fn pool_matches_the_scoped_executor_bit_for_bit() {
        // The reference is the same computation as a plain loop.
        let task = |i: usize| {
            let mut acc = i as u64;
            for k in 0..100u64 {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(k);
            }
            acc
        };
        let base: Vec<u64> = (0..64).map(task).collect();
        let pool = WorkerPool::new(8);
        for workers in [1, 2, 4, 8] {
            let mut states = vec![0u64; 64];
            pool.run_tasks(workers, true, &mut states, |i, s| *s = task(i));
            assert_eq!(states, base);
        }
    }

    #[test]
    fn pool_counts_only_real_wakeups() {
        let pool = WorkerPool::new(4);
        let mut states = vec![0u8; 8];
        pool.run_tasks(1, true, &mut states, |_, s| *s += 1);
        assert_eq!(pool.dispatches(), 0, "inline stages must not wake the pool");
        pool.run_tasks(4, true, &mut states, |_, s| *s += 1);
        assert_eq!(pool.dispatches(), 1);
        assert!(states.iter().all(|&s| s == 2));
    }

    #[test]
    fn pool_sums_busy_time_over_workers_and_stages() {
        let pool = WorkerPool::new(2);
        let nap = std::time::Duration::from_millis(3);
        let mut states = vec![(); 4];
        pool.run_tasks(1, true, &mut states, |_, _| std::thread::sleep(nap));
        let inline = pool.busy();
        assert!(inline >= 4 * nap, "inline stage: {inline:?}");
        // Both workers hold a task at once, so both shares are timed.
        let rendezvous = std::sync::Barrier::new(2);
        let mut states = vec![(); 2];
        pool.run_tasks(2, true, &mut states, |_, _| {
            rendezvous.wait();
            std::thread::sleep(nap);
        });
        assert_eq!(pool.dispatches(), 1);
        assert!(
            pool.busy() - inline >= 2 * nap,
            "wide stage: {:?}",
            pool.busy()
        );
    }

    #[test]
    fn pool_worker_scratch_is_exclusive_per_worker() {
        let pool = WorkerPool::new(3);
        let mut scratch = vec![0u32; 3];
        let mut states = vec![0u32; 64];
        pool.run_tasks_with(true, &mut scratch, &mut states, |scr, _, s| {
            *scr += 1;
            *s = 1;
        });
        assert!(states.iter().all(|&s| s == 1));
        // Every task was counted exactly once across the workers.
        assert_eq!(scratch.iter().sum::<u32>(), 64);
    }

    #[test]
    fn pool_of_width_one_owns_no_threads() {
        let pool = WorkerPool::new(1);
        assert_eq!(pool.width(), 1);
        let mut states = vec![0u8; 4];
        pool.run_tasks(8, true, &mut states, |_, s| *s += 1);
        assert!(states.iter().all(|&s| s == 1));
        assert_eq!(pool.dispatches(), 0);
    }

    /// Helper threads the pool owns right now.
    fn spawned(pool: &WorkerPool) -> usize {
        pool.gate.lock().expect("gate").handles.len()
    }

    #[test]
    fn pool_without_a_parallel_dispatch_spawns_nothing() {
        let pool = WorkerPool::new(4);
        assert_eq!(pool.width(), 4, "width is the configured one");
        assert_eq!(spawned(&pool), 0);
        // Inline stages — one worker asked for, one task, no tasks —
        // never reach the gate.
        pool.run_tasks(1, true, &mut [0u8; 8], |_, s| *s += 1);
        pool.run_tasks(4, true, &mut [0u8; 1], |_, s| *s += 1);
        pool.run_tasks(4, true, &mut [0u8; 0], |_, s| *s += 1);
        pool.run_tasks_with(true, &mut [(); 1], &mut [0u8; 8], |_, _, s| *s += 1);
        assert_eq!(spawned(&pool), 0);
        assert_eq!(pool.dispatches(), 0);
    }

    #[test]
    fn first_wide_stage_runs_on_every_worker() {
        let pool = WorkerPool::new(4);
        // Each task waits for the other three, so the stage can only
        // finish if four distinct threads hold one task each — the
        // helpers spawned by this very dispatch included.
        let rendezvous = std::sync::Barrier::new(4);
        let mut ran_on = vec![None; 4];
        pool.run_tasks(4, true, &mut ran_on, |_, slot| {
            rendezvous.wait();
            *slot = Some(std::thread::current().id());
        });
        let distinct: std::collections::HashSet<_> = ran_on.iter().flatten().collect();
        assert_eq!(distinct.len(), 4);
        assert_eq!(spawned(&pool), 3);
        // A second stage reuses them.
        pool.run_tasks(2, true, &mut [0u8; 8], |_, s| *s += 1);
        assert_eq!(spawned(&pool), 3);
    }

    #[test]
    fn concurrent_dispatches_serialize_safely() {
        // The pool is Sync and shared by Arc, so two threads may
        // legitimately dispatch at once; the gate must serialize the
        // stages (one barrier in flight) with no lost or duplicated
        // tasks on either side.
        let pool = std::sync::Arc::new(WorkerPool::new(4));
        let mut joins = Vec::new();
        for t in 0..3u64 {
            let pool = std::sync::Arc::clone(&pool);
            joins.push(std::thread::spawn(move || {
                for _ in 0..50 {
                    let mut states = vec![0u64; 17];
                    pool.run_tasks(4, true, &mut states, |i, s| {
                        *s = t * 1000 + i as u64;
                    });
                    for (i, s) in states.iter().enumerate() {
                        assert_eq!(*s, t * 1000 + i as u64);
                    }
                }
            }));
        }
        for j in joins {
            j.join().expect("dispatcher thread panicked");
        }
    }

    #[test]
    fn pool_propagates_worker_panics() {
        let pool = WorkerPool::new(4);
        let result = catch_unwind(AssertUnwindSafe(|| {
            let mut states = vec![0u8; 16];
            pool.run_tasks(4, true, &mut states, |i, _| {
                assert!(i != 11, "boom at task {i}");
            });
        }));
        // The panic reaches the dispatcher with its original payload
        // (not a generic "a task panicked" wrapper), whichever worker
        // hit it.
        let payload = result.expect_err("the panic must reach the dispatcher");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .expect("panic payload is a message");
        assert!(msg.contains("boom at task 11"), "lost payload: {msg}");
        // The pool must still be usable after a panicked stage.
        let mut states = vec![0u8; 16];
        pool.run_tasks(4, true, &mut states, |_, s| *s += 1);
        assert!(states.iter().all(|&s| s == 1));
    }

    #[test]
    fn fuzzed_order_visits_every_task_once() {
        for seed in 0..20u64 {
            let mut states = vec![0u32; 23];
            run_tasks_fuzzed(seed, &mut states, |_, s| *s += 1);
            assert!(states.iter().all(|&s| s == 1), "seed {seed}");
        }
    }

    #[test]
    fn fuzzed_orders_differ_across_seeds() {
        let order_of = |seed: u64| {
            let mut order = Vec::new();
            let mut states = vec![(); 23];
            run_tasks_fuzzed(seed, &mut states, |i, _| order.push(i));
            order
        };
        assert_eq!(order_of(5), order_of(5));
        assert_ne!(order_of(5), order_of(6));
    }

    #[test]
    fn stages_go_wide_past_the_break_even() {
        let exec = ExecPolicy::new(4);
        // At 300 ns an item, 666 items are the most within the break-even.
        let width = |busy, items| exec.narrowed(300, busy, items).workers();
        assert_eq!((width(8, 666), width(8, 667)), (1, 4));
        assert_eq!(exec.narrowed(300, 8, 667).items, 667);
        // Never wider than the non-empty tasks.
        assert_eq!((width(3, 667), width(1, 667)), (3, 1));
        // The exception: full width whatever the items, capped likewise.
        let full = exec.full_width(8);
        assert_eq!((full.workers(), full.items), (4, 0));
        assert_eq!(exec.full_width(3).workers(), 3);
    }

    #[test]
    fn own_ranges_partition_the_task_space() {
        for len in [1usize, 7, 64, 100] {
            for workers in [1usize, 2, 5, 8] {
                let mut covered = vec![false; len];
                for w in 0..workers {
                    let (s, e) = own_range(len, workers, w);
                    for slot in covered.iter_mut().take(e).skip(s) {
                        assert!(!*slot, "overlap at len={len} workers={workers}");
                        *slot = true;
                    }
                }
                assert!(covered.iter().all(|&c| c), "gap at len={len} w={workers}");
            }
        }
    }
}
