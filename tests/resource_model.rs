//! The resource manager against its model: the free-set RM must be
//! op-for-op indistinguishable from the original per-call linear scans —
//! same reservations (ids and order), same errors, same counters — under
//! arbitrary interleavings of the whole public API. This is the
//! determinism pin that let the free-set replace the scan without touching
//! a single golden trace.

use proptest::prelude::*;
use proptest::strategy::TestRng;

use hyperdrive::framework::ResourceManager;
use hyperdrive::MachineId;

/// The oracle: the original O(n)-scan resource manager.
struct ReferenceRm {
    allocated: Vec<bool>,
    dead: Vec<bool>,
}

impl ReferenceRm {
    fn new(n: usize) -> Self {
        ReferenceRm { allocated: vec![false; n], dead: vec![false; n] }
    }

    fn idle_count(&self) -> usize {
        self.allocated.iter().zip(&self.dead).filter(|(a, d)| !**a && !**d).count()
    }

    fn reserve_idle_machine(&mut self) -> Option<MachineId> {
        let idx = self.allocated.iter().zip(&self.dead).position(|(a, d)| !*a && !*d)?;
        self.allocated[idx] = true;
        Some(MachineId::new(idx as u64))
    }

    fn release_machine(&mut self, machine: MachineId) -> bool {
        match self.allocated.get_mut(machine.raw() as usize) {
            Some(slot) if *slot => {
                *slot = false;
                true
            }
            _ => false,
        }
    }

    fn mark_dead(&mut self, machine: MachineId) -> bool {
        let idx = machine.raw() as usize;
        match self.dead.get_mut(idx) {
            Some(dead) if !*dead => {
                *dead = true;
                self.allocated[idx] = false;
                true
            }
            _ => false,
        }
    }

    fn mark_recovered(&mut self, machine: MachineId) -> bool {
        match self.dead.get_mut(machine.raw() as usize) {
            Some(dead) if *dead => {
                *dead = false;
                true
            }
            _ => false,
        }
    }
}

#[derive(Debug, Clone, Copy)]
enum Op {
    Reserve,
    Release(u64),
    MarkDead(u64),
    MarkRecovered(u64),
}

/// Strategy over op sequences (the vendored proptest has no
/// `prop_oneof`/`prop_map`, so this is a hand-rolled generator).
#[derive(Debug, Clone)]
struct OpsStrategy {
    max_universe: u64,
    max_len: usize,
}

impl Strategy for OpsStrategy {
    type Value = Vec<Op>;

    fn generate(&self, rng: &mut TestRng) -> Vec<Op> {
        use rand::Rng;
        let n = rng.gen_range(0..self.max_len);
        (0..n)
            .map(|_| {
                // Ids reach slightly past the cluster so unknown-machine
                // errors are exercised too.
                let id = rng.gen_range(0..self.max_universe + 2);
                match rng.gen_range(0u8..4) {
                    0 => Op::Reserve,
                    1 => Op::Release(id),
                    2 => Op::MarkDead(id),
                    _ => Op::MarkRecovered(id),
                }
            })
            .collect()
    }
}

fn check(fast: &ResourceManager, reference: &ReferenceRm, step: usize) {
    let count = |flags: &[bool]| flags.iter().filter(|f| **f).count();
    assert_eq!(fast.total(), reference.allocated.len());
    assert_eq!(fast.alive_count(), fast.total() - count(&reference.dead), "alive at step {step}");
    assert_eq!(fast.idle_count(), reference.idle_count(), "idle at step {step}");
    assert_eq!(fast.allocated_count(), count(&reference.allocated), "allocated at step {step}");
    assert_eq!(fast.dead_count(), count(&reference.dead), "dead at step {step}");
    for id in 0..fast.total() {
        let m = MachineId::new(id as u64);
        assert_eq!(fast.is_allocated(m), reference.allocated[id]);
        assert_eq!(fast.is_dead(m), reference.dead[id]);
    }
}

proptest! {
    #[test]
    fn free_set_rm_matches_the_linear_scan_model(
        n in 1usize..200,
        ops in (OpsStrategy { max_universe: 200, max_len: 400 }),
    ) {
        let mut fast = ResourceManager::new(n).unwrap();
        let mut reference = ReferenceRm::new(n);
        for (step, op) in ops.iter().enumerate() {
            match *op {
                Op::Reserve => {
                    prop_assert_eq!(
                        fast.reserve_idle_machine(),
                        reference.reserve_idle_machine(),
                        "reserve diverged at step {}", step
                    );
                }
                Op::Release(id) => {
                    let m = MachineId::new(id);
                    prop_assert_eq!(
                        fast.release_machine(m).is_ok(),
                        reference.release_machine(m),
                        "release({}) diverged at step {}", id, step
                    );
                }
                Op::MarkDead(id) => {
                    let m = MachineId::new(id);
                    prop_assert_eq!(
                        fast.mark_dead(m).is_ok(),
                        reference.mark_dead(m),
                        "mark_dead({}) diverged at step {}", id, step
                    );
                }
                Op::MarkRecovered(id) => {
                    let m = MachineId::new(id);
                    prop_assert_eq!(
                        fast.mark_recovered(m).is_ok(),
                        reference.mark_recovered(m),
                        "mark_recovered({}) diverged at step {}", id, step
                    );
                }
            }
            check(&fast, &reference, step);
        }
    }
}
