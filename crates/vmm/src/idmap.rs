//! An id-keyed map stored as one `Vec` in key order.
//!
//! The host tracks every request in flight and every job in service on
//! its disk, CPU and network by id. Request ids come from a counter and
//! each resource issues its `JobId`s in ascending order, so a new key is
//! almost always the largest: [`IdMap::insert`] then appends, the layout
//! `PsResource` keeps its own jobs in. Lookups and removes binary-search.
//! Only the requests in flight and the jobs in service are live at once
//! (ten requests under the paper's httperf load), so a remove shifts a
//! handful of entries. Iteration runs in key order, as a `BTreeMap`'s
//! does, so replacing one by the other changes no output.

/// A map from ids to values, kept as one `Vec` sorted by key.
#[derive(Debug, Clone)]
pub(crate) struct IdMap<K, V> {
    /// Entries, strictly ascending by key.
    entries: Vec<(K, V)>,
}

impl<K: Ord + Copy, V> IdMap<K, V> {
    /// Creates an empty map.
    pub(crate) fn new() -> Self {
        IdMap {
            entries: Vec::new(),
        }
    }

    /// Index of `key` in `entries`, or where it would be inserted.
    fn position(&self, key: K) -> Result<usize, usize> {
        self.entries.binary_search_by(|(k, _)| k.cmp(&key))
    }

    /// Inserts `value` under `key`, returning the value it replaced.
    pub(crate) fn insert(&mut self, key: K, value: V) -> Option<V> {
        if self.entries.last().is_none_or(|&(last, _)| last < key) {
            self.entries.push((key, value));
            return None;
        }
        match self.position(key) {
            Ok(i) => Some(std::mem::replace(&mut self.entries[i].1, value)),
            Err(i) => {
                self.entries.insert(i, (key, value));
                None
            }
        }
    }

    /// The value under `key`, if any.
    pub(crate) fn get(&self, key: K) -> Option<&V> {
        self.position(key).ok().map(|i| &self.entries[i].1)
    }

    /// Removes and returns the value under `key`, if any.
    pub(crate) fn remove(&mut self, key: K) -> Option<V> {
        self.position(key).ok().map(|i| self.entries.remove(i).1)
    }

    /// Removes every entry.
    pub(crate) fn clear(&mut self) {
        self.entries.clear();
    }

    /// The entries in ascending key order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (K, &V)> {
        self.entries.iter().map(|(k, v)| (*k, v))
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use rh_sim::prop_ensure_eq;
    use rh_sim::testkit::{check, Config, Gen};

    use super::IdMap;

    /// The map's entries as a `BTreeMap` would list them.
    fn entries(map: &IdMap<u64, u32>) -> Vec<(u64, u32)> {
        map.iter().map(|(k, v)| (k, *v)).collect()
    }

    /// `IdMap` agrees with `BTreeMap`, the layout it replaced, on every
    /// operation the host uses. Each case drives both through a random
    /// script. Most inserts take the next id, as the host's counters
    /// issue them; the rest take any key, a present one included, so the
    /// out-of-order path and replacement are covered too. Removes and
    /// lookups draw present and absent keys. After every step both must
    /// return the same value and list the same entries in the same order.
    #[test]
    fn id_map_matches_btree_reference() {
        check(
            "id_map_matches_btree_reference",
            &Config::default(),
            |g: &mut Gen| {
                let mut map: IdMap<u64, u32> = IdMap::new();
                let mut model: BTreeMap<u64, u32> = BTreeMap::new();
                let mut next = g.u64_in(0, 4);
                for step in 0..g.usize_in(1, 300) {
                    // A present key half of the time, else any small one.
                    let key = match model.keys().nth(g.usize_in(0, model.len() + 1)) {
                        Some(&k) if g.any_bool() => k,
                        _ => g.u64_in(0, next + 4),
                    };
                    match g.u32_in(0, 10) {
                        0..=3 => {
                            let value = g.u32_in(0, 1_000);
                            let (a, b) = (map.insert(next, value), model.insert(next, value));
                            prop_ensure_eq!(a, b, "step {step}: ascending insert {next}");
                            next += g.u64_in(1, 3);
                        }
                        4 => {
                            let value = g.u32_in(0, 1_000);
                            let (a, b) = (map.insert(key, value), model.insert(key, value));
                            prop_ensure_eq!(a, b, "step {step}: insert {key}");
                            next = next.max(key + 1);
                        }
                        5..=6 => {
                            let (a, b) = (map.remove(key), model.remove(&key));
                            prop_ensure_eq!(a, b, "step {step}: remove {key}");
                        }
                        7..=8 => {
                            prop_ensure_eq!(
                                map.get(key),
                                model.get(&key),
                                "step {step}: get {key}"
                            );
                        }
                        _ if g.rng().chance(0.1) => {
                            map.clear();
                            model.clear();
                        }
                        _ => {}
                    }
                    let expected: Vec<(u64, u32)> = model.iter().map(|(&k, &v)| (k, v)).collect();
                    prop_ensure_eq!(entries(&map), expected, "step {step}: iteration order");
                }
                Ok(())
            },
        );
    }
}
