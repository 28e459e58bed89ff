//! In-memory spans recorded around calls into the library.
//!
//! A span is `{name, start_ns, end_ns, parent, study}`: the name carries
//! its layer as a prefix (`sim.step`, `core.on_iteration_finish`), the
//! parent is the span that was open when it started, and all spans of one
//! timed unit share a `study` id. Spans stay in memory while a unit runs
//! and are folded into per-name totals afterwards; a layer's *self* time
//! is its span minus the part its children cover.

use std::collections::BTreeMap;
use std::time::Instant;

/// `parent` of a span that has none.
pub const NO_PARENT: u32 = u32::MAX;

/// One recorded interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer-prefixed name.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span in the same unit, or [`NO_PARENT`].
    pub parent: u32,
    /// The timed unit (study / repetition) this span belongs to.
    pub study: u32,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records the spans of one timed unit.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    study: u32,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    /// A tracer for unit `study` whose clock starts now.
    pub fn new(study: u32) -> Self {
        Self::starting_at(Instant::now(), study)
    }

    /// A tracer whose clock started at `origin`, so that tracers on
    /// several threads share one time axis.
    pub fn starting_at(origin: Instant, study: u32) -> Self {
        Tracer { origin, study, spans: Vec::new(), open: Vec::new() }
    }

    /// Moves on to unit `study`; spans opened from now on carry its id.
    pub fn set_study(&mut self, study: u32) {
        self.study = study;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under whichever span is currently open.
    pub fn enter(&mut self, name: &'static str) -> u32 {
        let id = self.spans.len() as u32;
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        let start_ns = self.now_ns();
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, study: self.study });
        self.open.push(id);
        id
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn exit(&mut self, id: u32) {
        let end_ns = self.now_ns();
        assert_eq!(self.open.pop(), Some(id), "spans close innermost-first");
        self.spans[id as usize].end_ns = end_ns;
    }

    /// Renames a span once the caller knows what the call turned out to be
    /// (a step is only known to be a boundary decision after it returns).
    pub fn rename(&mut self, id: u32, name: &'static str) {
        self.spans[id as usize].name = name;
    }

    /// Hands over the finished unit's spans.
    pub fn take(&mut self) -> Vec<Span> {
        assert!(self.open.is_empty(), "a unit ends with every span closed");
        std::mem::take(&mut self.spans)
    }
}

/// Self time of every span of one unit: its duration minus the summed
/// durations of its direct children.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
    for s in spans {
        if s.parent != NO_PARENT {
            let p = s.parent as usize;
            own[p] = own[p].saturating_sub(s.dur_ns());
        }
    }
    own
}

/// Per-name aggregate over any number of units.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NameTotal {
    /// Spans recorded under the name.
    pub count: u64,
    /// Summed durations.
    pub total_ns: u64,
    /// Summed self times.
    pub self_ns: u64,
}

/// Totals by span name, in name order.
#[derive(Debug, Clone, Default)]
pub struct Totals {
    by_name: BTreeMap<&'static str, NameTotal>,
}

impl Totals {
    /// Folds one unit's spans in.
    pub fn add_unit(&mut self, spans: &[Span]) {
        for (s, own) in spans.iter().zip(self_times(spans)) {
            let t = self.by_name.entry(s.name).or_default();
            t.count += 1;
            t.total_ns += s.dur_ns();
            t.self_ns += own;
        }
    }

    /// The summed totals of every name starting with `prefix`.
    pub fn prefixed(&self, prefix: &str) -> NameTotal {
        self.by_name.iter().filter(|(n, _)| n.starts_with(prefix)).fold(
            NameTotal::default(),
            |a, (_, t)| NameTotal {
                count: a.count + t.count,
                total_ns: a.total_ns + t.total_ns,
                self_ns: a.self_ns + t.self_ns,
            },
        )
    }

    /// All `(name, total)` pairs in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, NameTotal)> + '_ {
        self.by_name.iter().map(|(n, t)| (*n, *t))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: u32) -> Span {
        Span { name, start_ns, end_ns, parent, study: 0 }
    }

    #[test]
    fn self_time_is_span_minus_direct_children() {
        // step [0,100) > upcall [10,70) > fit [20,50); step also > alloc [80,90).
        let spans = [
            span("sim.step", 0, 100, NO_PARENT),
            span("core.upcall", 10, 70, 0),
            span("curve.fit", 20, 50, 1),
            span("core.alloc", 80, 90, 0),
        ];
        assert_eq!(self_times(&spans), vec![30, 30, 30, 10]);
        // Self times of a tree sum to the root's duration.
        assert_eq!(self_times(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn totals_accumulate_by_name_and_prefix() {
        let unit = [
            span("sim.step", 0, 100, NO_PARENT),
            span("core.a", 10, 40, 0),
            span("core.b", 50, 70, 0),
        ];
        let mut totals = Totals::default();
        totals.add_unit(&unit);
        totals.add_unit(&unit);
        assert_eq!(totals.prefixed("sim."), NameTotal { count: 2, total_ns: 200, self_ns: 100 });
        assert_eq!(totals.prefixed("core."), NameTotal { count: 4, total_ns: 100, self_ns: 100 });
        assert_eq!(totals.prefixed("curve."), NameTotal::default());
        assert_eq!(
            totals.iter().map(|(n, _)| n).collect::<Vec<_>>(),
            ["core.a", "core.b", "sim.step"]
        );
    }

    #[test]
    fn tracer_nests_and_hands_the_unit_over() {
        let mut t = Tracer::new(7);
        let step = t.enter("sim.step");
        let up = t.enter("core.upcall");
        t.exit(up);
        t.rename(step, "sim.step.decision");
        t.exit(step);
        let unit = t.take();
        assert_eq!(unit.len(), 2);
        assert_eq!((unit[0].name, unit[0].parent), ("sim.step.decision", NO_PARENT));
        assert_eq!((unit[1].name, unit[1].parent), ("core.upcall", 0));
        assert!(unit[0].start_ns <= unit[1].start_ns && unit[1].end_ns <= unit[0].end_ns);
        assert!(unit.iter().all(|s| s.study == 7));
        t.set_study(8);
        let next = t.enter("sim.step");
        t.exit(next);
        assert_eq!(t.take()[0].study, 8);
    }
}
