//! Match-action tables (§2.1).
//!
//! A match-action unit matches a key extracted from the packet/metadata and
//! executes the bound action with the entry's parameters. Entries are
//! installed by the control plane at runtime; a miss falls through to the
//! table's default action. P4Update uses an exact-match table keyed on the
//! flow identifier to resolve a flow's register index and forwarding port.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};

/// A multiplicative hasher for the small integer keys tables match on.
/// The keys are the simulation's dense flow identifiers, which one
/// multiply by an odd constant spreads across buckets. SipHash's defence against chosen
/// keys buys nothing in a simulation, and a fixed hasher makes iteration
/// order the same in every process.
#[derive(Debug, Clone, Copy, Default)]
struct MulHasher(u64);

impl Hasher for MulHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.write_u64(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
}

/// Outcome of looking up a key in a table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TableHit<'a, A> {
    /// An entry matched; its action parameters are returned.
    Hit(&'a A),
    /// No entry matched; the default action applies.
    Miss,
}

impl<'a, A> TableHit<'a, A> {
    /// The matched parameters, if any.
    pub fn hit(self) -> Option<&'a A> {
        match self {
            TableHit::Hit(a) => Some(a),
            TableHit::Miss => None,
        }
    }
}

/// An exact-match table from key `K` to action parameters `A`, with an
/// optional capacity bound (hardware tables are finite; exceeding the bound
/// is a control-plane error surfaced as `Err`).
#[derive(Debug, Clone)]
pub struct ExactTable<K, A> {
    name: &'static str,
    entries: HashMap<K, A, BuildHasherDefault<MulHasher>>,
    capacity: Option<usize>,
}

/// Error inserting a table entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TableError {
    /// The table is at capacity.
    Full,
}

impl<K: Eq + Hash, A> ExactTable<K, A> {
    /// An unbounded table.
    pub fn new(name: &'static str) -> Self {
        ExactTable {
            name,
            entries: HashMap::default(),
            capacity: None,
        }
    }

    /// A table bounded to `capacity` entries.
    pub fn with_capacity_limit(name: &'static str, capacity: usize) -> Self {
        ExactTable {
            name,
            entries: HashMap::default(),
            capacity: Some(capacity),
        }
    }

    /// Declared name (for diagnostics).
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Number of installed entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no entries are installed.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Install or replace an entry. Replacement never fails; inserting a
    /// *new* entry into a full table returns [`TableError::Full`].
    pub fn insert(&mut self, key: K, params: A) -> Result<(), TableError> {
        if let Some(cap) = self.capacity {
            if self.entries.len() >= cap && !self.entries.contains_key(&key) {
                return Err(TableError::Full);
            }
        }
        self.entries.insert(key, params);
        Ok(())
    }

    /// Remove an entry, returning its parameters if present.
    pub fn remove(&mut self, key: &K) -> Option<A> {
        self.entries.remove(key)
    }

    /// Match a key.
    pub fn lookup(&self, key: &K) -> TableHit<'_, A> {
        match self.entries.get(key) {
            Some(a) => TableHit::Hit(a),
            None => TableHit::Miss,
        }
    }

    /// Mutable access to an entry's parameters (data-plane direct state
    /// update, as registers allow but tables normally do not — used only by
    /// the control-plane side of the simulation).
    pub fn lookup_mut(&mut self, key: &K) -> Option<&mut A> {
        self.entries.get_mut(key)
    }

    /// Iterate entries in unspecified order (control-plane dump).
    pub fn iter(&self) -> impl Iterator<Item = (&K, &A)> {
        self.entries.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_and_miss() {
        let mut t: ExactTable<u32, &str> = ExactTable::new("fwd");
        t.insert(1, "port3").unwrap();
        assert_eq!(t.lookup(&1).hit(), Some(&"port3"));
        assert_eq!(t.lookup(&2).hit(), None);
        assert_eq!(t.lookup(&2), TableHit::Miss);
        assert_eq!(t.name(), "fwd");
    }

    #[test]
    fn replacement_always_succeeds() {
        let mut t: ExactTable<u32, u8> = ExactTable::with_capacity_limit("small", 1);
        t.insert(1, 10).unwrap();
        t.insert(1, 20).unwrap();
        assert_eq!(t.lookup(&1).hit(), Some(&20));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn capacity_bound_is_enforced() {
        let mut t: ExactTable<u32, u8> = ExactTable::with_capacity_limit("small", 2);
        t.insert(1, 1).unwrap();
        t.insert(2, 2).unwrap();
        assert_eq!(t.insert(3, 3), Err(TableError::Full));
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn remove_frees_capacity() {
        let mut t: ExactTable<u32, u8> = ExactTable::with_capacity_limit("small", 1);
        t.insert(1, 1).unwrap();
        assert_eq!(t.remove(&1), Some(1));
        assert_eq!(t.remove(&1), None);
        assert!(t.is_empty());
        t.insert(2, 2).unwrap();
        assert_eq!(t.lookup(&2).hit(), Some(&2));
    }

    #[test]
    fn lookup_mut_edits_in_place() {
        let mut t: ExactTable<u32, u8> = ExactTable::new("m");
        t.insert(1, 1).unwrap();
        *t.lookup_mut(&1).unwrap() = 9;
        assert_eq!(t.lookup(&1).hit(), Some(&9));
        assert!(t.lookup_mut(&7).is_none());
    }

    #[test]
    fn iteration_sees_all_entries() {
        let mut t: ExactTable<u32, u8> = ExactTable::new("it");
        for i in 0..5 {
            t.insert(i, i as u8).unwrap();
        }
        let mut keys: Vec<u32> = t.iter().map(|(&k, _)| k).collect();
        keys.sort_unstable();
        assert_eq!(keys, vec![0, 1, 2, 3, 4]);
    }
}
