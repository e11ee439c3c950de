//! In-memory spans recorded from outside the program, around calls
//! into its public functions.

use std::time::Instant;

use peerback_sim::{Round, SimRng, World};

/// One timed call: `[start_ns, end_ns)` since the tracer's epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name (`core.world.round_start`, …).
    pub name: &'static str,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the span that was open when this one started.
    pub parent: Option<usize>,
    /// Simulated round the call belongs to, when it has one.
    pub round: Option<u64>,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

/// Records spans in memory; nothing is written until the run is over.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str, round: Option<u64>) {
        let start_ns = self.now_ns();
        self.open.push(self.spans.len());
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.iter().rev().nth(1).copied(),
            round,
        });
    }

    /// Closes the innermost open span.
    ///
    /// # Panics
    ///
    /// Panics when no span is open (unbalanced instrumentation).
    pub fn exit(&mut self) {
        let end_ns = self.now_ns();
        let index = self.open.pop().expect("exit without a matching enter");
        self.spans[index].end_ns = end_ns;
    }

    /// Times `f` as one span.
    pub fn span<T>(&mut self, name: &'static str, round: Option<u64>, f: impl FnOnce() -> T) -> T {
        self.enter(name, round);
        let out = f();
        self.exit();
        out
    }

    /// Everything recorded so far, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Seconds spent, in total, in the spans called `name`.
    pub fn total_secs(&self, name: &str) -> f64 {
        self.named(name).map(Span::secs).sum()
    }

    /// Every span called `name`, in start order.
    pub fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }
}

/// Self time of every span, in nanoseconds: its duration minus the part
/// of that interval its direct children cover (children of one parent
/// never overlap: the tracer is single-threaded and strictly nested).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    for span in spans {
        if let Some(p) = span.parent {
            own[p] = own[p].saturating_sub(span.end_ns - span.start_ns);
        }
    }
    own
}

/// A [`World`] whose `round_start` / `round_end` calls are recorded as
/// spans — the outside-in view of one simulated round. `Engine::step`
/// drives it exactly as it drives the bare world.
pub struct Spanned<'a, W: World> {
    /// The wrapped world.
    pub inner: &'a mut W,
    /// Where the spans go.
    pub tracer: &'a mut Tracer,
    start_name: &'static str,
    end_name: &'static str,
}

impl<'a, W: World> Spanned<'a, W> {
    /// Wraps `inner`, naming its two per-round spans.
    pub fn new(
        inner: &'a mut W,
        tracer: &'a mut Tracer,
        start_name: &'static str,
        end_name: &'static str,
    ) -> Self {
        Spanned {
            inner,
            tracer,
            start_name,
            end_name,
        }
    }
}

impl<W: World> World for Spanned<'_, W> {
    fn round_start(&mut self, round: Round, rng: &mut SimRng) {
        self.tracer.enter(self.start_name, Some(round.index()));
        self.inner.round_start(round, rng);
        self.tracer.exit();
    }

    fn collect_actors(&mut self, round: Round, buf: &mut Vec<usize>) {
        self.inner.collect_actors(round, buf);
    }

    fn activate(&mut self, round: Round, actor: usize, rng: &mut SimRng) {
        self.inner.activate(round, actor, rng);
    }

    fn round_end(&mut self, round: Round, rng: &mut SimRng) {
        self.tracer.enter(self.end_name, Some(round.index()));
        self.inner.round_end(round, rng);
        self.tracer.exit();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: "t",
            start_ns,
            end_ns,
            parent,
            round: None,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_adjacent_children() {
        let spans = vec![
            span(0, 100, None),    // root
            span(10, 40, Some(0)), // child a
            span(40, 70, Some(0)), // child b, adjacent to a
            span(45, 60, Some(2)), // grandchild, nested in b
            span(200, 250, None),  // second root, no children
        ];
        assert_eq!(self_times_ns(&spans), vec![40, 30, 15, 15, 50]);
    }

    #[test]
    fn tracer_nests_spans_under_the_open_one() {
        let mut t = Tracer::new();
        t.enter("outer", Some(3));
        t.span("inner", None, || ());
        t.span("inner", None, || ());
        t.exit();
        t.span("next", None, || ());
        let parents: Vec<_> = t.spans().iter().map(|s| s.parent).collect();
        assert_eq!(parents, vec![None, Some(0), Some(0), None]);
        assert_eq!(t.spans()[0].round, Some(3));
        assert_eq!(t.named("inner").count(), 2);
        assert!(t.spans().iter().all(|s| s.end_ns >= s.start_ns));
        // A parent covers its children.
        let own = self_times_ns(t.spans());
        assert!(own[0] <= t.spans()[0].end_ns - t.spans()[0].start_ns);
    }

    #[test]
    fn spanned_world_records_two_spans_per_round() {
        let mut tracer = Tracer::new();
        let mut idle = crate::layers::Idle;
        let mut world = Spanned::new(&mut idle, &mut tracer, "start", "end");
        let mut engine = peerback_sim::Engine::new(1);
        for r in 0..3 {
            world.tracer.enter("round", Some(r));
            engine.step(&mut world);
            world.tracer.exit();
        }
        let names: Vec<_> = tracer.spans().iter().map(|s| s.name).collect();
        assert_eq!(
            names,
            ["round", "start", "end", "round", "start", "end", "round", "start", "end"]
        );
        assert_eq!(tracer.spans()[4].parent, Some(3));
        assert_eq!(tracer.spans()[5].round, Some(1));
    }
}
