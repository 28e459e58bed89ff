//! The future-event queue against a model, at the tier-1 level.
//!
//! `EventQueue` is a 4-ary heap over `(time bits, seq)` keys whose `pop`
//! leaves the root vacant for the next `schedule` to fill. The model is the
//! obvious thing it must be indistinguishable from: a
//! `BTreeMap<(time bits, seq), event>`. Every operation is applied to both
//! and everything observable — the popped pair, `len`, `is_empty`,
//! `peek_time` — is compared after each one. Times come from a handful of
//! values so that most entries tie with another and the FIFO tie-break
//! decides most pops.

use std::collections::BTreeMap;

use hyperdrive::sim::EventQueue;
use hyperdrive::SimTime;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Few enough that collisions dominate; both zeros, and `+inf`.
const TIMES: [f64; 8] = [0.0, -0.0, 0.5, 1.0, 1.0 + f64::EPSILON, 60.0, 3600.0, f64::INFINITY];

/// The states the vacant root introduces; a run counts how often it was
/// in each.
const STATES: [&str; 8] = [
    "pop · pop",
    "pop · schedule · schedule",
    "pop · peek",
    "pop · schedule earlier than every pending entry",
    "pop · schedule at the earliest pending time",
    "pop · schedule later than the earliest pending entry",
    "drain to empty, then refill",
    "growth past with_capacity",
];

type Seen = BTreeMap<&'static str, u32>;

/// The queue and its model, driven in lockstep.
struct Lockstep {
    queue: EventQueue<u64>,
    model: BTreeMap<(u64, u64), u64>,
    scheduled: u64,
    /// Schedules since the last `pop` that returned an entry: at `Some(0)`
    /// the queue's root is vacant.
    since_pop: Option<u32>,
    seen: Seen,
}

impl Lockstep {
    fn with_capacity(capacity: usize, seen: Seen) -> Self {
        Lockstep {
            queue: EventQueue::with_capacity(capacity),
            model: BTreeMap::new(),
            scheduled: 0,
            since_pop: None,
            seen,
        }
    }

    fn saw(&mut self, state: &'static str) {
        assert!(STATES.contains(&state));
        *self.seen.entry(state).or_default() += 1;
    }

    fn model_peek(&self) -> Option<SimTime> {
        self.model.keys().next().map(|&(bits, _)| SimTime::from_secs(f64::from_bits(bits)))
    }

    /// `len`, `is_empty` and `peek_time` agree with the model.
    fn check(&self, after: &str) {
        assert_eq!(self.queue.len(), self.model.len(), "len after {after}");
        assert_eq!(self.queue.is_empty(), self.model.is_empty(), "is_empty after {after}");
        assert_eq!(self.queue.peek_time(), self.model_peek(), "peek_time after {after}");
        assert!(self.queue.capacity() >= self.queue.len(), "capacity after {after}");
    }

    fn schedule(&mut self, secs: f64) {
        let at = SimTime::from_secs(secs);
        if self.since_pop == Some(0) {
            self.saw(match self.model_peek() {
                Some(min) if at < min => "pop · schedule earlier than every pending entry",
                Some(min) if at == min => "pop · schedule at the earliest pending time",
                Some(_) => "pop · schedule later than the earliest pending entry",
                None => "drain to empty, then refill",
            });
        }
        let capacity = self.queue.capacity();
        // The payload is the sequence number, so a pop that returns the
        // right time but the wrong one of several tied entries shows.
        self.queue.schedule(at, self.scheduled);
        // `+ 0.0` folds `-0.0` into `+0.0`, the one admitted time whose
        // bits do not order as its value does.
        self.model.insert(((secs + 0.0).to_bits(), self.scheduled), self.scheduled);
        self.scheduled += 1;
        if self.queue.capacity() > capacity {
            self.saw("growth past with_capacity");
        }
        self.since_pop = self.since_pop.map(|n| n + 1);
        if self.since_pop == Some(2) {
            self.saw("pop · schedule · schedule");
        }
        self.check("schedule");
    }

    fn pop(&mut self) -> Option<(SimTime, u64)> {
        let expected = self
            .model
            .pop_first()
            .map(|((bits, _), event)| (SimTime::from_secs(f64::from_bits(bits)), event));
        let popped = self.queue.pop();
        assert_eq!(popped, expected, "pop");
        if self.since_pop == Some(0) && popped.is_some() {
            self.saw("pop · pop");
        }
        self.since_pop = popped.map(|_| 0);
        self.check("pop");
        popped
    }

    fn peek(&mut self) {
        if self.since_pop == Some(0) && !self.model.is_empty() {
            self.saw("pop · peek");
        }
        self.check("peek");
    }
}

#[test]
fn random_interleavings_match_the_model() {
    let mut seen = Seen::new();
    for seed in 0..200u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        // Small pre-sizes, so most runs grow past theirs.
        let mut both = Lockstep::with_capacity(rng.gen_range(0..12), seen);
        // Lean toward filling, then toward draining, so every run both
        // builds a heap several levels deep and empties it again.
        let ops = rng.gen_range(50..400);
        for op in 0..ops {
            let fill_bias = if op < ops / 2 { 6 } else { 3 };
            match rng.gen_range(0..10) {
                k if k < fill_bias => both.schedule(TIMES[rng.gen_range(0..TIMES.len())]),
                9 => both.peek(),
                _ => _ = both.pop(),
            }
        }
        // Drain: the whole remaining order, ties included.
        let mut last = SimTime::ZERO;
        while let Some((time, _)) = both.pop() {
            assert!(time >= last, "seed {seed}: time went backwards");
            last = time;
        }
        assert!(both.queue.is_empty());
        seen = both.seen;
    }
    // The interleavings are only worth their name if they reached every
    // state the vacant root introduces.
    for state in STATES {
        let count = seen.get(state).copied().unwrap_or(0);
        assert!(count >= 20, "{state}: reached {count} times in 200 runs ({seen:?})");
    }
}

/// The simulator's own rhythm at a steady depth: pop one, schedule its
/// successor a little later, on a queue pre-sized to never grow.
#[test]
fn steady_state_cycle_matches_the_model_and_never_grows() {
    let pending = 341; // 1 + 4 + 16 + 64 + 256: a last level exactly full
    let mut rng = StdRng::seed_from_u64(23);
    let mut both = Lockstep::with_capacity(pending, Seen::new());
    let capacity = both.queue.capacity();
    for _ in 0..pending {
        both.schedule(f64::from(rng.gen_range(0u32..60)));
    }
    for _ in 0..5_000 {
        let (at, _) = both.pop().expect("the queue stays full");
        both.schedule(at.as_secs() + f64::from(rng.gen_range(30u32..90)));
    }
    assert_eq!(both.queue.capacity(), capacity);
}

#[test]
#[should_panic(expected = "negative time")]
fn a_negative_time_is_still_refused_into_a_vacant_root() {
    let mut queue = EventQueue::new();
    queue.schedule(SimTime::from_secs(1.0), 0u64);
    queue.schedule(SimTime::from_secs(2.0), 1);
    queue.pop();
    queue.schedule(SimTime::from_secs(-f64::MIN_POSITIVE), 2);
}
