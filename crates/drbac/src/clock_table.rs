//! A bounded map with CLOCK (second-chance) eviction — the memory of the
//! [`AuthCache`](crate::AuthCache) proof table.
//!
//! Entries sit in a fixed ring of at most `cap` slots, each with a
//! reference bit that a hit sets. An insert into a full table moves the
//! hand round the ring, clearing set bits, and replaces the first entry
//! whose bit was already clear. An entry referenced since the hand last
//! passed it therefore survives a sweep: a hot working set smaller than
//! the table stays resident under any stream of one-off inserts, where
//! flushing the whole table at the cap made its hit ratio a sawtooth. A
//! hit allocates nothing, and nothing is kept per entry beyond the bit.

use std::collections::HashMap;
use std::hash::Hash;

struct Slot<K, V> {
    key: K,
    value: V,
    referenced: bool,
}

pub(crate) struct ClockTable<K, V> {
    index: HashMap<K, usize>,
    slots: Vec<Slot<K, V>>,
    hand: usize,
    cap: usize,
}

impl<K: Clone + Eq + Hash, V> ClockTable<K, V> {
    /// An empty table holding at most `cap` (≥ 1) entries.
    pub(crate) fn new(cap: usize) -> ClockTable<K, V> {
        assert!(cap > 0, "a table holds at least one entry");
        ClockTable {
            index: HashMap::new(),
            slots: Vec::new(),
            hand: 0,
            cap,
        }
    }

    /// The value under `key`, marked referenced.
    pub(crate) fn get(&mut self, key: &K) -> Option<&mut V> {
        let slot = &mut self.slots[*self.index.get(key)?];
        slot.referenced = true;
        Some(&mut slot.value)
    }

    /// Store `value` under `key`, replacing the entry there (its reference
    /// bit kept) or, in a full table, the entry the hand evicts.
    pub(crate) fn insert(&mut self, key: K, value: V) {
        if let Some(&i) = self.index.get(&key) {
            self.slots[i].value = value;
            return;
        }
        let slot = Slot {
            key: key.clone(),
            value,
            referenced: false,
        };
        if self.slots.len() < self.cap {
            self.index.insert(key, self.slots.len());
            self.slots.push(slot);
            return;
        }
        let victim = self.sweep();
        self.index.remove(&self.slots[victim].key);
        self.index.insert(key, victim);
        self.slots[victim] = slot;
    }

    /// Advance the hand to the first slot whose bit is clear, clearing the
    /// bits it passes. Terminates within one turn of a full ring.
    fn sweep(&mut self) -> usize {
        loop {
            let i = self.hand;
            self.hand = (i + 1) % self.slots.len();
            if !std::mem::take(&mut self.slots[i].referenced) {
                return i;
            }
        }
    }

    /// Drop the entry under `key`, if any.
    pub(crate) fn remove(&mut self, key: &K) {
        let Some(i) = self.index.remove(key) else {
            return;
        };
        self.slots.swap_remove(i);
        if let Some(moved) = self.slots.get(i) {
            self.index.insert(moved.key.clone(), i);
        }
        if self.hand >= self.slots.len() {
            self.hand = 0;
        }
    }

    /// Number of stored entries.
    pub(crate) fn len(&self) -> usize {
        self.slots.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn a_referenced_working_set_survives_a_stream_of_one_off_inserts() {
        let mut t = ClockTable::new(8);
        for hot in 0..4u32 {
            t.insert(hot, hot);
        }
        for cold in 100..10_000u32 {
            for hot in 0..4u32 {
                assert_eq!(t.get(&hot).copied(), Some(hot), "hot {hot} evicted");
            }
            t.insert(cold, cold);
            assert!(t.len() <= 8);
        }
        // One-off entries take turns in the other four slots.
        assert!(t.get(&9_999).is_some() && t.get(&9_995).is_none());
    }

    #[test]
    fn remove_keeps_the_index_consistent() {
        let mut t = ClockTable::new(4);
        for k in 0..4u32 {
            t.insert(k, k * 10);
        }
        t.remove(&0);
        t.remove(&0);
        assert_eq!(t.len(), 3);
        for k in 1..4u32 {
            assert_eq!(t.get(&k).copied(), Some(k * 10));
        }
        t.insert(7, 70);
        t.insert(8, 80);
        assert_eq!(t.len(), 4);
    }

    proptest! {
        /// Against a plain map of the last value stored per key: every
        /// entry the table reports carries it, the table never exceeds its
        /// cap, and index and ring agree after every step.
        #[test]
        fn agrees_with_a_map_of_what_it_holds(
            cap in 1usize..6,
            script in prop::collection::vec((0u8..3, 0u8..12), 1..200),
        ) {
            let mut t = ClockTable::new(cap);
            let mut last: HashMap<u8, u32> = HashMap::new();
            for (step, (op, k)) in script.into_iter().enumerate() {
                match op {
                    0 => {
                        t.insert(k, step as u32);
                        last.insert(k, step as u32);
                        prop_assert_eq!(t.get(&k).copied(), Some(step as u32));
                    }
                    1 => t.remove(&k),
                    _ => {
                        if let Some(v) = t.get(&k) {
                            prop_assert_eq!(Some(&*v), last.get(&k));
                        }
                    }
                }
                prop_assert!(t.len() <= cap);
                prop_assert_eq!(t.index.len(), t.slots.len());
                for (i, slot) in t.slots.iter().enumerate() {
                    prop_assert_eq!(t.index.get(&slot.key), Some(&i));
                }
            }
        }
    }
}
