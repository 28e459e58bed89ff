//! A dense-keyed job map.
//!
//! Every hot per-event structure in the engine — job entries, retry
//! counts, stored snapshots — is keyed by [`JobId`], and the workload
//! builders hand out ids densely from zero. A hash map pays a SipHash plus
//! a bucket-probe cache miss on every event for keys that are really just
//! small indexes; this map is a plain `Vec<Option<T>>` indexed by the raw
//! id, so lookups are one bounds check and one predictable load.
//!
//! Sparse ids still work (the slot vector grows to the highest inserted
//! id), they just waste slots — the framework itself never produces them.
//! The only iteration offered, to tests, is `iter`, which walks ascending
//! id order: deterministic by construction, unlike hash-map iteration, so
//! it cannot leak scheduling nondeterminism.

use hyperdrive_types::JobId;

/// A map from [`JobId`] to `T` backed by a dense slot vector.
#[derive(Debug, Clone)]
pub(crate) struct DenseMap<T> {
    slots: Vec<Option<T>>,
    len: usize,
}

impl<T> Default for DenseMap<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> DenseMap<T> {
    /// Creates an empty map.
    pub fn new() -> Self {
        DenseMap { slots: Vec::new(), len: 0 }
    }

    /// Creates an empty map with slots preallocated for ids `0..n`.
    pub fn with_capacity(n: usize) -> Self {
        DenseMap { slots: Vec::with_capacity(n), len: 0 }
    }

    /// Number of present entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no entries are present.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn slot(&self, id: JobId) -> Option<&Option<T>> {
        self.slots.get(id.raw() as usize)
    }

    /// The value for `id`, if present.
    pub fn get(&self, id: JobId) -> Option<&T> {
        self.slot(id).and_then(Option::as_ref)
    }

    /// Mutable access to the value for `id`, if present.
    pub fn get_mut(&mut self, id: JobId) -> Option<&mut T> {
        self.slots.get_mut(id.raw() as usize).and_then(Option::as_mut)
    }

    /// Inserts a value, returning the previous one if any.
    pub fn insert(&mut self, id: JobId, value: T) -> Option<T> {
        let idx = id.raw() as usize;
        if idx >= self.slots.len() {
            self.slots.resize_with(idx + 1, || None);
        }
        let old = self.slots[idx].replace(value);
        if old.is_none() {
            self.len += 1;
        }
        old
    }

    /// Removes and returns the value for `id`, if present.
    pub fn remove(&mut self, id: JobId) -> Option<T> {
        let old = self.slots.get_mut(id.raw() as usize).and_then(Option::take);
        if old.is_some() {
            self.len -= 1;
        }
        old
    }

    /// The value for `id`, inserting `make()` first if absent.
    pub fn or_insert_with(&mut self, id: JobId, make: impl FnOnce() -> T) -> &mut T {
        let idx = id.raw() as usize;
        if idx >= self.slots.len() {
            self.slots.resize_with(idx + 1, || None);
        }
        let slot = &mut self.slots[idx];
        if slot.is_none() {
            *slot = Some(make());
            self.len += 1;
        }
        slot.as_mut().expect("slot just filled")
    }

    /// All present entries in ascending id order.
    #[cfg(test)]
    pub fn iter(&self) -> impl Iterator<Item = (JobId, &T)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, slot)| slot.as_ref().map(|v| (JobId::new(i as u64), v)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut m: DenseMap<u32> = DenseMap::with_capacity(2);
        assert_eq!(m.len(), 0);
        assert_eq!(m.insert(JobId::new(5), 50), None);
        assert_eq!(m.insert(JobId::new(0), 1), None);
        assert_eq!(m.len(), 2);
        assert_eq!(m.get(JobId::new(5)), Some(&50));
        assert_eq!(m.insert(JobId::new(5), 51), Some(50));
        assert_eq!(m.len(), 2);
        assert!(m.get(JobId::new(0)).is_some());
        assert!(m.get(JobId::new(3)).is_none());
        assert_eq!(m.remove(JobId::new(5)), Some(51));
        assert_eq!(m.remove(JobId::new(5)), None);
        assert_eq!(m.len(), 1);
        assert_eq!(m.get(JobId::new(5)), None);
    }

    #[test]
    fn or_insert_with_creates_once() {
        let mut m: DenseMap<Vec<u32>> = DenseMap::new();
        m.or_insert_with(JobId::new(2), Vec::new).push(7);
        m.or_insert_with(JobId::new(2), || panic!("already present")).push(8);
        assert_eq!(m.get(JobId::new(2)), Some(&vec![7, 8]));
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn iter_walks_ascending_ids() {
        let mut m: DenseMap<&str> = DenseMap::new();
        m.insert(JobId::new(4), "d");
        m.insert(JobId::new(1), "b");
        m.insert(JobId::new(9), "z");
        let got: Vec<(u64, &str)> = m.iter().map(|(id, v)| (id.raw(), *v)).collect();
        assert_eq!(got, [(1, "b"), (4, "d"), (9, "z")]);
        assert_eq!(m.get_mut(JobId::new(9)).map(|v| std::mem::replace(v, "y")), Some("z"));
        assert_eq!(m.get(JobId::new(9)), Some(&"y"));
    }
}
