//! A deterministic future-event queue.
//!
//! Events are ordered by time, with a monotonically increasing sequence
//! number breaking ties — so two events scheduled for the same instant pop
//! in scheduling order, and simulator runs are bit-for-bit reproducible.
//!
//! # The key
//!
//! An entry is ordered by one `u128`: the bit pattern of its time in
//! seconds in the high 64 bits, its sequence number in the low 64. A
//! non-negative, non-NaN `f64` orders exactly as its bit pattern does
//! (sign bit clear, then exponent, then mantissa, `+inf` above every finite
//! value), and [`schedule`](EventQueue::schedule) admits nothing else:
//! negative and NaN times panic, and `-0.0` — which passes `>= 0` but has
//! the sign bit set — is normalised to `+0.0` first. So comparing two keys
//! is comparing `(time, seq)`, in one integer compare instead of a float
//! compare, an unordered check and a tie-break. `seq` is unique, so the
//! order is *strict*: every correct heap pops the exact same sequence, and
//! no choice of arity, layout or sift can change a trace.
//!
//! # The heap
//!
//! A hand-rolled 4-ary min-heap rather than `std::collections::BinaryHeap`:
//! at 10k+ machines the queue holds one pending event per running job and
//! sift paths dominate the simulator's per-event cost. Four children per
//! node halve the depth of a binary heap. The keys and the payloads live in
//! two parallel arrays, so the four sibling keys a sift-down scans are 64
//! contiguous bytes whatever the payload's size, and a payload is touched
//! only when its entry moves. Contiguous is not aligned, though: the
//! children of node `p` start at index `4p + 1` of a `Vec<u128>` that is
//! only 16-byte aligned, so on every level the four keys straddle two
//! cache lines (they would share one only if the allocation happened to
//! sit 48 bytes past a line boundary). Shifting the layout so sibling
//! groups start on a line is an unmeasured lead, not built. Sifts move
//! entries into a *hole* and write the travelling entry once, where it
//! lands, instead of swapping per level.
//!
//! # The vacant root
//!
//! The simulator's rhythm is pop one event, deliver it, schedule its
//! successor. [`pop`](EventQueue::pop) therefore returns the root and
//! leaves it *vacant*; the next `schedule` drops its entry into the vacancy
//! and sifts it down once. (A textbook pop moves the last leaf to the root
//! and sifts it the full depth, and the push that follows sifts up again.)
//! Only a second `pop` with the root still vacant refills it from the last
//! leaf. The vacancy is invisible from outside: `len`, `is_empty`,
//! `peek_time` and `capacity` are exact in both states — below a vacant
//! root the heap order still holds, so the earliest pending entry is the
//! smallest of the root's children.

use hyperdrive_types::SimTime;

/// Children per node. Four halves tree depth vs a binary heap, and four
/// sibling keys are 64 contiguous bytes (across two cache lines — see the
/// module docs).
const ARITY: usize = 4;

/// A time-ordered queue of future events.
#[derive(Debug)]
pub struct EventQueue<E> {
    /// `(time bits << 64) | seq` per entry, in heap order.
    keys: Vec<u128>,
    /// The payload of `keys[i]` at `events[i]`.
    events: Vec<E>,
    seq: u64,
    /// True between a `pop` and the `schedule` or `pop` that follows it:
    /// slot 0 of both arrays then holds the entry already returned, and
    /// the heap order holds everywhere below it.
    root_vacant: bool,
}

/// The ordering key of an entry scheduled `seq`-th at `at`.
///
/// # Panics
///
/// Panics if `at` is negative or NaN (a `SimTime` is built NaN-free, but
/// `inf - inf` on two of them is not).
#[inline]
fn key(at: SimTime, seq: u64) -> u128 {
    // `-0.0 + 0.0` is `+0.0`; every other value is unchanged.
    let secs = at.as_secs() + 0.0;
    assert!(secs >= 0.0, "cannot schedule in negative time or at NaN");
    (u128::from(secs.to_bits()) << 64) | u128::from(seq)
}

/// The time a key was built from.
#[inline]
fn time_of(key: u128) -> SimTime {
    SimTime::from_secs(f64::from_bits((key >> 64) as u64))
}

impl<E: Copy> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Creates an empty queue with room for `capacity` pending events
    /// before either backing array reallocates. The stepper sizes its
    /// queue from the job count up front so steady-state scheduling never
    /// grows the heap.
    pub fn with_capacity(capacity: usize) -> Self {
        EventQueue {
            keys: Vec::with_capacity(capacity),
            events: Vec::with_capacity(capacity),
            seq: 0,
            root_vacant: false,
        }
    }

    /// Number of events the queue can hold without reallocating.
    pub fn capacity(&self) -> usize {
        self.keys.capacity().min(self.events.capacity())
    }

    /// Schedules `event` at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is negative or NaN.
    pub fn schedule(&mut self, at: SimTime, event: E) {
        let key = key(at, self.seq);
        self.seq += 1;
        if self.root_vacant {
            self.root_vacant = false;
            self.sift_down_from_root(key, event);
        } else {
            self.keys.push(key);
            self.events.push(event);
            self.sift_up_from_last(key, event);
        }
    }

    /// Removes and returns the earliest event with its time.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        if self.root_vacant {
            self.root_vacant = false;
            // The last leaf takes the root's place. If the last leaf *is*
            // the vacant root, the queue has drained.
            let key = self.keys.pop().expect("a vacant root is still a slot");
            let event = self.events.pop().expect("the arrays are parallel");
            if self.keys.is_empty() {
                return None;
            }
            self.sift_down_from_root(key, event);
        }
        let (&key, &event) = self.keys.first().zip(self.events.first())?;
        self.root_vacant = true;
        Some((time_of(key), event))
    }

    /// The time of the earliest pending event.
    pub fn peek_time(&self) -> Option<SimTime> {
        // Below a vacant root the earliest entry is one of its children.
        let (first, candidates) = if self.root_vacant { (1, ARITY) } else { (0, 1) };
        self.keys.iter().skip(first).take(candidates).min().map(|&key| time_of(key))
    }

    /// Places `(key, event)`, already pushed as the last leaf, by moving
    /// larger ancestors down into the hole it leaves.
    fn sift_up_from_last(&mut self, key: u128, event: E) {
        let mut hole = self.keys.len() - 1;
        while hole > 0 {
            let parent = (hole - 1) / ARITY;
            let parent_key = self.keys[parent];
            if parent_key < key {
                break;
            }
            self.keys[hole] = parent_key;
            self.events[hole] = self.events[parent];
            hole = parent;
        }
        self.keys[hole] = key;
        self.events[hole] = event;
    }

    /// Places `(key, event)` into the hole at the root by moving the
    /// smallest child up while one orders before it.
    fn sift_down_from_root(&mut self, key: u128, event: E) {
        let keys = &mut self.keys[..];
        let events = &mut self.events[..keys.len()];
        let mut hole = 0;
        while let Some((min, min_key)) = min_child(keys, hole) {
            if key < min_key {
                break;
            }
            keys[hole] = min_key;
            events[hole] = events[min];
            hole = min;
        }
        keys[hole] = key;
        events[hole] = event;
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.keys.len() - usize::from(self.root_vacant)
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The index and key of the smallest child of `parent`, if it has one.
#[inline]
fn min_child(keys: &[u128], parent: usize) -> Option<(usize, u128)> {
    let first = parent * ARITY + 1;
    if let Some(&[a, b, c, d]) = keys.get(first..first + ARITY) {
        // A full node, as every node above the last level's parent is: a
        // two-round tournament of selects, no data-dependent branch.
        let (lo, lo_key) = if b < a { (first + 1, b) } else { (first, a) };
        let (hi, hi_key) = if d < c { (first + 3, d) } else { (first + 2, c) };
        return Some(if hi_key < lo_key { (hi, hi_key) } else { (lo, lo_key) });
    }
    let siblings = keys.get(first..)?;
    siblings.iter().enumerate().min_by_key(|&(_, &key)| key).map(|(i, &key)| (first + i, key))
}

impl<E: Copy> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(5.0), "b");
        q.schedule(SimTime::from_secs(1.0), "a");
        q.schedule(SimTime::from_secs(9.0), "c");
        assert_eq!(q.pop(), Some((SimTime::from_secs(1.0), "a")));
        assert_eq!(q.pop(), Some((SimTime::from_secs(5.0), "b")));
        assert_eq!(q.pop(), Some((SimTime::from_secs(9.0), "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(3.0);
        for i in 0..10 {
            q.schedule(t, i);
        }
        for i in 0..10 {
            assert_eq!(q.pop(), Some((t, i)));
        }
    }

    #[test]
    fn peek_does_not_remove() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(2.0), ());
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(2.0)));
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
        q.pop();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn with_capacity_preallocates() {
        let q: EventQueue<u64> = EventQueue::with_capacity(64);
        assert!(q.keys.capacity() >= 64 && q.events.capacity() >= 64, "both arrays are sized");
        assert!(q.capacity() >= 64);
        assert!(q.capacity() <= q.keys.capacity() && q.capacity() <= q.events.capacity());
        assert!(q.is_empty());
        let fresh: EventQueue<()> = EventQueue::new();
        assert!(fresh.is_empty());
    }

    #[test]
    fn a_vacant_root_is_invisible() {
        let mut q = EventQueue::new();
        for t in [4.0, 2.0, 7.0, 3.0, 9.0, 5.0, 8.0] {
            q.schedule(SimTime::from_secs(t), t as u32);
        }
        assert_eq!(q.pop(), Some((SimTime::from_secs(2.0), 2)));
        // The root is vacant now: everything still reads as a 6-entry queue.
        assert_eq!(q.len(), 6);
        assert!(!q.is_empty());
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(3.0)));
        // pop · pop refills the root from the last leaf.
        assert_eq!(q.pop(), Some((SimTime::from_secs(3.0), 3)));
        assert_eq!(q.len(), 5);
        // pop · schedule fills the vacancy, here with the new minimum...
        q.schedule(SimTime::from_secs(1.0), 1);
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(1.0)));
        assert_eq!(q.len(), 6);
        assert_eq!(q.pop(), Some((SimTime::from_secs(1.0), 1)));
        // ...and here with a tie, which pops after the entry it ties with.
        q.schedule(SimTime::from_secs(4.0), 40);
        q.schedule(SimTime::from_secs(4.0), 41);
        let rest: Vec<u32> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(rest, [4, 40, 41, 5, 7, 8, 9]);
        // Drained through a vacant root: empty, and usable again.
        assert!(q.is_empty());
        assert_eq!((q.len(), q.peek_time(), q.pop()), (0, None, None));
        q.schedule(SimTime::from_secs(6.0), 6);
        assert_eq!((q.len(), q.peek_time()), (1, Some(SimTime::from_secs(6.0))));
    }

    #[test]
    #[should_panic(expected = "negative time")]
    fn negative_time_panics() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(-1.0), ());
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_time_panics() {
        let inf = SimTime::from_secs(f64::INFINITY);
        EventQueue::new().schedule(inf - inf, ());
    }

    /// `-0.0 >= 0` holds, but its sign bit would sort it after every
    /// finite time if it were keyed raw.
    #[test]
    fn negative_zero_pops_with_zero_in_schedule_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(1.0), 'c');
        q.schedule(SimTime::from_secs(0.0), 'a');
        q.schedule(SimTime::from_secs(-0.0), 'b');
        q.schedule(SimTime::from_secs(0.0), 'd');
        assert_eq!(q.peek_time(), Some(SimTime::ZERO));
        let order: Vec<(SimTime, char)> = std::iter::from_fn(|| q.pop()).collect();
        let zero = SimTime::ZERO;
        assert_eq!(order, [(zero, 'a'), (zero, 'b'), (zero, 'd'), (SimTime::from_secs(1.0), 'c')]);
    }

    #[test]
    fn infinity_pops_last() {
        let mut q = EventQueue::new();
        let inf = SimTime::from_secs(f64::INFINITY);
        q.schedule(inf, "never");
        q.schedule(SimTime::from_secs(f64::MAX), "late");
        q.schedule(SimTime::from_secs(f64::MIN_POSITIVE), "early");
        q.schedule(SimTime::ZERO, "first");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, ["first", "early", "late", "never"]);
    }

    #[cfg(test)]
    mod properties {
        use super::*;
        use proptest::prelude::*;

        /// Bit patterns of the non-negative, non-NaN `f64`s: `+0.0` through
        /// the subnormals and every finite value up to `+inf`, uniform over
        /// patterns so every exponent is drawn.
        const MAX_TIME_BITS: u64 = 0x7FF0_0000_0000_0000;

        /// A time `schedule` admits; the zeros and `+inf` get a share of
        /// their own, since a uniform draw would never land on them.
        fn admitted(kind: u8, bits: u64) -> f64 {
            match kind {
                0 => 0.0,
                1 => -0.0,
                2 => f64::INFINITY,
                _ => f64::from_bits(bits),
            }
        }

        proptest! {
            /// What lets a `u128` stand in for `(SimTime, seq)`: on the
            /// times `schedule` admits, `f64` order and equality are the
            /// order and equality of the normalised bit patterns.
            #[test]
            fn admitted_times_order_as_their_bits(
                a_kind in 0u8..6,
                b_kind in 0u8..7,
                a_bits in 0..=MAX_TIME_BITS,
                b_bits in 0..=MAX_TIME_BITS,
            ) {
                let a = admitted(a_kind, a_bits);
                let b = if b_kind == 6 { a } else { admitted(b_kind, b_bits) };
                let (a_norm, b_norm) = ((a + 0.0).to_bits(), (b + 0.0).to_bits());
                prop_assert_eq!(a < b, a_norm < b_norm, "{} < {}", a, b);
                prop_assert_eq!(a == b, a_norm == b_norm, "{} == {}", a, b);
                // `key` keys by exactly those bits, and gives the time back.
                let a_key = key(SimTime::from_secs(a), 7);
                prop_assert_eq!(a_key, (u128::from(a_norm) << 64) | 7);
                prop_assert_eq!(time_of(a_key), SimTime::from_secs(a));
            }

            #[test]
            fn popped_times_are_nondecreasing(times in proptest::collection::vec(0.0f64..1e6, 1..200)) {
                let mut q = EventQueue::new();
                for (i, t) in times.iter().enumerate() {
                    q.schedule(SimTime::from_secs(*t), i);
                }
                let mut last = SimTime::ZERO;
                let mut count = 0;
                while let Some((t, _)) = q.pop() {
                    prop_assert!(t >= last);
                    last = t;
                    count += 1;
                }
                prop_assert_eq!(count, times.len());
            }

            /// The determinism pin the golden traces rely on, stated
            /// directly: pops are time-ordered, and events scheduled for
            /// the *same* instant come out in scheduling (FIFO) order.
            /// Coarse discrete times force heavy timestamp collisions, so
            /// every run exercises the tie-break, not just the ordering.
            #[test]
            fn equal_timestamps_pop_in_stable_fifo_order(
                times in proptest::collection::vec(0u8..8, 1..300),
            ) {
                let mut q = EventQueue::new();
                for (i, t) in times.iter().enumerate() {
                    q.schedule(SimTime::from_secs(f64::from(*t)), i);
                }
                // Payloads are insertion indices, so within a timestamp
                // the indices must come out strictly increasing.
                let mut last: Option<(SimTime, usize)> = None;
                let mut popped = 0;
                while let Some((t, i)) = q.pop() {
                    if let Some((prev_t, prev_i)) = last {
                        prop_assert!(t >= prev_t, "time order broke: {t:?} after {prev_t:?}");
                        if t == prev_t {
                            prop_assert!(
                                i > prev_i,
                                "FIFO tie-break broke at {t:?}: {i} popped after {prev_i}"
                            );
                        }
                    }
                    prop_assert_eq!(times[i], (t.as_secs() as u8), "payload/time pairing held");
                    last = Some((t, i));
                    popped += 1;
                }
                prop_assert_eq!(popped, times.len());
            }
        }
    }
}
