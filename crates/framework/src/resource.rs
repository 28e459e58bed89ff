//! The Resource Manager (RM).
//!
//! §4.2: "The Resource Management component is responsible for keeping
//! track of currently allocated and idle resources (e.g., machines, GPUs)"
//! with the API `reserveIdleMachine() → machineId` and
//! `releaseMachine(machineId)`. A slot may be a machine or a GPU; the
//! scheduler does not distinguish.
//!
//! The RM additionally tracks machine liveness for fault injection and
//! recovery: a dead machine is never handed out by
//! [`reserve_idle_machine`](ResourceManager::reserve_idle_machine) and does
//! not count as capacity until it recovers.
//!
//! # Complexity
//!
//! The engine queries the RM on every event (`idle_count` for the
//! `AllocateJobs` up-call, `reserve_idle_machine` per start attempt), so
//! per-call linear scans would make the whole event loop O(machines). The
//! RM keeps a hierarchical-bitset free-set (`IdleSet`) over idle machine
//! ids plus cached allocated/dead counters: reservation is min-extract over
//! the bitset — O(log₆₄ n) worst case — and every counter is O(1). No
//! allocation after construction.
//!
//! Determinism argument: `IdleSet::min` returns the smallest set id, and
//! the set contains exactly the ids with `!allocated && !dead` — the
//! machine a linear scan for the first idle slot finds. A proptest pins the
//! RM op-for-op against that scan (the `ReferenceRm` oracle of the root
//! `tests/resource_model.rs`), and debug builds re-verify the cached
//! counters and set membership against a fresh scan after every mutation.

use hyperdrive_types::{Error, MachineId, Result};

/// A fixed-universe ordered set of machine ids with O(log₆₄ n)
/// `min`/`insert`/`remove` and O(1) `contains`, backed by a hierarchy of
/// bitmask words: bit `j` of a word at level `k+1` summarizes whether word
/// `j` at level `k` is nonzero. The top level is always a single word, so
/// `min` walks at most ⌈log₆₄ n⌉ words. Never allocates after
/// construction.
#[derive(Debug, Clone)]
struct IdleSet {
    /// `levels[0]` holds one bit per id; each higher level summarizes the
    /// one below. The last level is a single word.
    levels: Vec<Vec<u64>>,
}

impl IdleSet {
    /// Creates the set over universe `0..n` with every id present.
    /// `n` must be nonzero.
    fn full(n: usize) -> Self {
        debug_assert!(n > 0);
        let mut levels = Vec::new();
        let mut count = n;
        loop {
            let words = count.div_ceil(64);
            let mut level = vec![!0u64; words];
            let rem = count % 64;
            if rem != 0 {
                level[words - 1] = (1u64 << rem) - 1;
            }
            levels.push(level);
            if words == 1 {
                break;
            }
            count = words;
        }
        IdleSet { levels }
    }

    /// True if `id` is in the set. Release builds only consult the set
    /// through `min`; membership is re-verified by the debug-build
    /// invariant checks.
    #[cfg_attr(not(debug_assertions), allow(dead_code))]
    fn contains(&self, id: usize) -> bool {
        (self.levels[0][id / 64] >> (id % 64)) & 1 == 1
    }

    /// Inserts `id` (no-op if present).
    fn insert(&mut self, id: usize) {
        let mut idx = id;
        for level in &mut self.levels {
            let word = &mut level[idx / 64];
            let bit = 1u64 << (idx % 64);
            if *word & bit != 0 {
                break; // this word (and every summary above) already set
            }
            *word |= bit;
            idx /= 64;
        }
    }

    /// Removes `id` (no-op if absent).
    fn remove(&mut self, id: usize) {
        let mut idx = id;
        for level in &mut self.levels {
            let word = &mut level[idx / 64];
            *word &= !(1u64 << (idx % 64));
            if *word != 0 {
                break; // word still nonzero: summaries above stay set
            }
            idx /= 64;
        }
    }

    /// The smallest id in the set, or `None` if empty.
    fn min(&self) -> Option<usize> {
        let top = self.levels.len() - 1;
        if self.levels[top][0] == 0 {
            return None;
        }
        let mut idx = 0usize;
        for level in self.levels.iter().rev() {
            let word = level[idx];
            debug_assert!(word != 0, "summary bit set over an empty word");
            idx = idx * 64 + word.trailing_zeros() as usize;
        }
        Some(idx)
    }
}

/// Tracks which machines (slots) are idle, allocated, or dead. All queries
/// O(1), all mutations O(log₆₄ n), zero allocation after construction.
#[derive(Debug, Clone)]
pub struct ResourceManager {
    /// Exactly the ids with `!allocated && !dead`.
    idle: IdleSet,
    /// `true` = allocated, indexed by machine id.
    allocated: Vec<bool>,
    /// `true` = crashed and not yet recovered, indexed by machine id.
    dead: Vec<bool>,
    /// Cached `allocated.iter().filter(|a| **a).count()`.
    n_allocated: usize,
    /// Cached `dead.iter().filter(|d| **d).count()`.
    n_dead: usize,
}

impl ResourceManager {
    /// Creates a manager over `n` machines, all idle and alive.
    ///
    /// # Errors
    ///
    /// Returns [`Error::EmptyCluster`] if `n` is zero.
    pub fn new(n: usize) -> Result<Self> {
        if n == 0 {
            return Err(Error::EmptyCluster);
        }
        Ok(ResourceManager {
            idle: IdleSet::full(n),
            allocated: vec![false; n],
            dead: vec![false; n],
            n_allocated: 0,
            n_dead: 0,
        })
    }

    /// Debug-build invariant check: the cached counters and the free-set
    /// must match a fresh scan of the raw state after every mutation.
    #[cfg(debug_assertions)]
    fn assert_counters(&self) {
        let scanned_alloc = self.allocated.iter().filter(|a| **a).count();
        let scanned_dead = self.dead.iter().filter(|d| **d).count();
        assert_eq!(self.n_allocated, scanned_alloc, "cached allocated count diverged from scan");
        assert_eq!(self.n_dead, scanned_dead, "cached dead count diverged from scan");
        for id in 0..self.allocated.len() {
            assert_eq!(
                self.idle.contains(id),
                !self.allocated[id] && !self.dead[id],
                "free-set membership diverged from scan at machine {id}"
            );
        }
    }

    #[cfg(not(debug_assertions))]
    fn assert_counters(&self) {}

    /// Total number of machines, dead or alive.
    pub fn total(&self) -> usize {
        self.allocated.len()
    }

    /// Number of machines currently alive (not crashed).
    pub fn alive_count(&self) -> usize {
        self.allocated.len() - self.n_dead
    }

    /// Number of idle machines (alive and unallocated). Allocated and dead
    /// are disjoint (a crash drops the allocation), so idle = total −
    /// allocated − dead.
    pub fn idle_count(&self) -> usize {
        self.allocated.len() - self.n_allocated - self.n_dead
    }

    /// Number of allocated machines.
    pub fn allocated_count(&self) -> usize {
        self.n_allocated
    }

    /// Number of machines currently dead (crashed, not yet recovered).
    pub fn dead_count(&self) -> usize {
        self.n_dead
    }

    /// Reserves the lowest-numbered idle machine, or `None` if every alive
    /// machine is busy. (`reserveIdleMachine` in the paper's API.)
    pub fn reserve_idle_machine(&mut self) -> Option<MachineId> {
        let idx = self.idle.min()?;
        self.idle.remove(idx);
        self.allocated[idx] = true;
        self.n_allocated += 1;
        self.assert_counters();
        Some(MachineId::new(idx as u64))
    }

    /// Releases a previously reserved machine. (`releaseMachine`.)
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownMachine`] for ids outside the cluster and
    /// [`Error::InvalidParameter`] when releasing an already-idle machine
    /// (a double release is always a framework bug worth surfacing).
    pub fn release_machine(&mut self, machine: MachineId) -> Result<()> {
        let idx = machine.raw() as usize;
        let slot = self.allocated.get_mut(idx).ok_or(Error::UnknownMachine(machine.raw()))?;
        if !*slot {
            return Err(Error::InvalidParameter(format!("machine {machine} released while idle")));
        }
        *slot = false;
        self.n_allocated -= 1;
        // An allocated machine is never dead, so it goes back idle.
        self.idle.insert(idx);
        self.assert_counters();
        Ok(())
    }

    /// True if the machine is currently reserved.
    pub fn is_allocated(&self, machine: MachineId) -> bool {
        self.allocated.get(machine.raw() as usize).copied().unwrap_or(false)
    }

    /// True if the machine has crashed and not yet recovered.
    pub fn is_dead(&self, machine: MachineId) -> bool {
        self.dead.get(machine.raw() as usize).copied().unwrap_or(false)
    }

    /// Marks a machine dead after a crash. Any allocation on it is dropped
    /// (the work is gone; the Job Manager handles the hosted job).
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownMachine`] for ids outside the cluster and
    /// [`Error::InvalidParameter`] if the machine is already dead.
    pub fn mark_dead(&mut self, machine: MachineId) -> Result<()> {
        let idx = machine.raw() as usize;
        let dead = self.dead.get_mut(idx).ok_or(Error::UnknownMachine(machine.raw()))?;
        if *dead {
            return Err(Error::InvalidParameter(format!(
                "machine {machine} crashed while already dead"
            )));
        }
        *dead = true;
        self.n_dead += 1;
        if self.allocated[idx] {
            self.allocated[idx] = false;
            self.n_allocated -= 1;
        }
        // Dead machines are never idle, whatever they were before.
        self.idle.remove(idx);
        self.assert_counters();
        Ok(())
    }

    /// Returns a recovered machine to service, idle.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownMachine`] for ids outside the cluster and
    /// [`Error::InvalidParameter`] if the machine was not dead.
    pub fn mark_recovered(&mut self, machine: MachineId) -> Result<()> {
        let idx = machine.raw() as usize;
        let dead = self.dead.get_mut(idx).ok_or(Error::UnknownMachine(machine.raw()))?;
        if !*dead {
            return Err(Error::InvalidParameter(format!(
                "machine {machine} recovered while alive"
            )));
        }
        *dead = false;
        self.n_dead -= 1;
        // A crash dropped any allocation, so a recovered machine is idle
        // by construction.
        self.idle.insert(idx);
        self.assert_counters();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rm(n: usize) -> ResourceManager {
        ResourceManager::new(n).unwrap()
    }

    #[test]
    fn reserve_and_release_cycle() {
        let mut rm = rm(2);
        assert_eq!(rm.idle_count(), 2);
        let a = rm.reserve_idle_machine().unwrap();
        let b = rm.reserve_idle_machine().unwrap();
        assert_ne!(a, b);
        assert_eq!(rm.idle_count(), 0);
        assert!(rm.reserve_idle_machine().is_none());
        rm.release_machine(a).unwrap();
        assert_eq!(rm.idle_count(), 1);
        let c = rm.reserve_idle_machine().unwrap();
        assert_eq!(c, a, "lowest-numbered idle machine is reused");
    }

    #[test]
    fn double_release_is_an_error() {
        let mut rm = rm(1);
        let m = rm.reserve_idle_machine().unwrap();
        rm.release_machine(m).unwrap();
        assert!(rm.release_machine(m).is_err());
    }

    #[test]
    fn unknown_machine_is_an_error() {
        let mut rm = rm(1);
        assert!(matches!(rm.release_machine(MachineId::new(9)), Err(Error::UnknownMachine(9))));
    }

    #[test]
    fn allocation_status_is_tracked() {
        let mut rm = rm(2);
        let m = rm.reserve_idle_machine().unwrap();
        assert!(rm.is_allocated(m));
        rm.release_machine(m).unwrap();
        assert!(!rm.is_allocated(m));
        assert!(!rm.is_allocated(MachineId::new(77)));
    }

    #[test]
    fn empty_cluster_is_an_error() {
        assert_eq!(ResourceManager::new(0).unwrap_err(), Error::EmptyCluster);
    }

    #[test]
    fn dead_machines_are_skipped_and_recover_idle() {
        let mut rm = rm(3);
        let m0 = rm.reserve_idle_machine().unwrap();
        assert_eq!(m0, MachineId::new(0));
        rm.mark_dead(m0).unwrap();
        assert!(rm.is_dead(m0));
        assert!(!rm.is_allocated(m0), "crash drops the allocation");
        assert_eq!(rm.alive_count(), 2);
        assert_eq!(rm.idle_count(), 2);
        // Reservation skips the dead machine.
        assert_eq!(rm.reserve_idle_machine(), Some(MachineId::new(1)));
        rm.mark_recovered(m0).unwrap();
        assert!(!rm.is_dead(m0));
        assert_eq!(rm.reserve_idle_machine(), Some(m0), "recovered machine is idle");
    }

    #[test]
    fn liveness_transitions_are_validated() {
        let mut rm = rm(1);
        let m = MachineId::new(0);
        assert!(rm.mark_recovered(m).is_err(), "recover while alive");
        rm.mark_dead(m).unwrap();
        assert!(rm.mark_dead(m).is_err(), "double crash");
        assert!(rm.mark_dead(MachineId::new(9)).is_err(), "unknown machine");
        assert!(rm.mark_recovered(MachineId::new(9)).is_err());
    }

    #[test]
    fn dead_count_tracks_crashes_and_recoveries() {
        let mut rm = rm(4);
        assert_eq!(rm.dead_count(), 0);
        rm.mark_dead(MachineId::new(1)).unwrap();
        rm.mark_dead(MachineId::new(3)).unwrap();
        assert_eq!(rm.dead_count(), 2);
        rm.mark_recovered(MachineId::new(1)).unwrap();
        assert_eq!(rm.dead_count(), 1);
    }

    #[test]
    fn idle_set_min_spans_word_boundaries() {
        // A universe big enough for three bitset levels (> 64² ids).
        let n = 64 * 64 + 17;
        let mut rm = rm(n);
        // Drain the first 130 machines; the min-extract must hand out
        // 0, 1, 2, ... in order across word boundaries.
        for want in 0..130u64 {
            assert_eq!(rm.reserve_idle_machine(), Some(MachineId::new(want)));
        }
        assert_eq!(rm.idle_count(), n - 130);
        // Releasing a low machine makes it the minimum again.
        rm.release_machine(MachineId::new(65)).unwrap();
        assert_eq!(rm.reserve_idle_machine(), Some(MachineId::new(65)));
        // Kill everything below 128: the minimum must skip all of it.
        for id in 0..128u64 {
            rm.mark_dead(MachineId::new(id)).unwrap();
        }
        assert_eq!(rm.reserve_idle_machine(), Some(MachineId::new(130)));
        assert_eq!(rm.dead_count(), 128);
        assert_eq!(rm.alive_count(), n - 128);
    }
}
