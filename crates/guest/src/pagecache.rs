//! The guest file cache (page cache).
//!
//! The paper's Fig. 8 result — a cold-VM reboot degrades file-read
//! throughput by 91 % and web throughput by 69 % — is entirely a page-cache
//! story: a reboot empties the cache, so first-touch reads go to the shared
//! disk. A warm-VM reboot preserves the memory image, cache included, so
//! post-reboot throughput is unchanged.
//!
//! [`PageCache`] is an LRU cache over `(file, chunk)` keys. Chunks (default
//! 256 KiB) bound bookkeeping while preserving the byte-level hit/miss
//! arithmetic the throughput model needs.
//!
//! # Layout
//!
//! Every httperf request reads its file through [`PageCache::access`], so a
//! hit is the hottest path of the paper's Fig. 7 workload. Cached chunks
//! live in a slab of nodes that form a doubly linked recency list (head =
//! least recently used). A dense slot table indexed by file, then chunk,
//! maps each key to its node: file ids and chunk indices are small dense
//! integers (a corpus numbers its files from 0, a file its chunks from 0),
//! so the table is a plain `Vec` of rows, grown on insert to the largest
//! key seen. A hit is two array loads plus an O(1) relink; an insert into
//! a full cache takes the head's slot for the new key. The table is not
//! hashed and nothing iterates it, so it stays within the workspace's
//! BTree-only rule (DESIGN.md §9). Its size follows the largest file id
//! and chunk index ever inserted, not the cache's capacity: about half a
//! megabyte for the 10,000-file Fig. 8(b) corpus.

/// A cache key: one chunk of one file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ChunkKey {
    /// File identifier.
    pub file: u32,
    /// Chunk index within the file.
    pub chunk: u32,
}

/// Default chunk granularity: 256 KiB.
const DEFAULT_CHUNK_BYTES: u64 = 256 * 1024;

/// End-of-list marker for [`Node`] links.
const NIL: usize = usize::MAX;

/// One cached chunk: its key and its neighbours in recency order.
#[derive(Debug, Clone)]
struct Node {
    key: ChunkKey,
    /// Next older node, or [`NIL`] at the head.
    prev: usize,
    /// Next newer node, or [`NIL`] at the tail.
    next: usize,
}

/// An LRU page cache with byte-accurate capacity accounting.
///
/// # Examples
///
/// ```
/// use rh_guest::pagecache::{ChunkKey, PageCache};
///
/// let mut cache = PageCache::new(1024 * 1024); // 1 MiB of cache
/// let key = ChunkKey { file: 1, chunk: 0 };
/// assert!(!cache.access(key)); // miss
/// cache.insert(key);
/// assert!(cache.access(key)); // hit
/// assert_eq!(cache.hits(), 1);
/// assert_eq!(cache.misses(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct PageCache {
    capacity_bytes: u64,
    chunk_bytes: u64,
    /// `index[file][chunk]`: the key's slot in `nodes`, or [`NIL`] when it
    /// is not cached. Rows grow on insert; a missing row or entry reads as
    /// not cached.
    index: Vec<Vec<usize>>,
    /// Slab of cached chunks; every slot is live (the cache never shrinks
    /// except by [`clear`](Self::clear)), so `nodes.len()` is the count.
    nodes: Vec<Node>,
    /// Least recently used slot, or [`NIL`] when empty.
    head: usize,
    /// Most recently used slot, or [`NIL`] when empty.
    tail: usize,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl PageCache {
    /// Creates a cache of `capacity_bytes` with the default chunk size.
    pub fn new(capacity_bytes: u64) -> Self {
        PageCache::with_chunk_size(capacity_bytes, DEFAULT_CHUNK_BYTES)
    }

    /// Creates a cache with an explicit chunk size.
    ///
    /// # Panics
    ///
    /// Panics if `chunk_bytes` is zero.
    pub fn with_chunk_size(capacity_bytes: u64, chunk_bytes: u64) -> Self {
        assert!(chunk_bytes > 0, "chunk size must be positive");
        PageCache {
            capacity_bytes,
            chunk_bytes,
            index: Vec::new(),
            nodes: Vec::new(),
            head: NIL,
            tail: NIL,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// Cache capacity in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        self.capacity_bytes
    }

    /// Chunk granularity in bytes.
    pub fn chunk_bytes(&self) -> u64 {
        self.chunk_bytes
    }

    /// Bytes currently cached.
    pub fn used_bytes(&self) -> u64 {
        self.nodes.len() as u64 * self.chunk_bytes
    }

    /// Cached chunk count.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Hits recorded by [`access`](Self::access).
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Misses recorded by [`access`](Self::access).
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Chunks evicted to make room.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// True if `key` is cached (no LRU update, no counters).
    pub fn contains(&self, key: ChunkKey) -> bool {
        self.slot(key).is_some()
    }

    /// Looks up `key`, updating LRU order and hit/miss counters. Returns
    /// `true` on a hit.
    pub fn access(&mut self, key: ChunkKey) -> bool {
        if let Some(slot) = self.slot(key) {
            self.touch(slot);
            self.hits += 1;
            true
        } else {
            self.misses += 1;
            false
        }
    }

    /// Inserts `key` as most-recently-used, evicting the LRU chunk if the
    /// cache is full. Inserting an existing key just refreshes it.
    pub fn insert(&mut self, key: ChunkKey) {
        if let Some(slot) = self.slot(key) {
            self.touch(slot);
            return;
        }
        let slot = if self.used_bytes() + self.chunk_bytes <= self.capacity_bytes {
            self.nodes.push(Node {
                key,
                prev: NIL,
                next: NIL,
            });
            self.nodes.len() - 1
        } else if self.head != NIL {
            // Full: at most one chunk leaves, since the cache never holds
            // more than fits. Its slot takes the new key.
            let slot = self.head;
            self.unlink(slot);
            let old = std::mem::replace(&mut self.nodes[slot].key, key);
            self.set_slot(old, NIL);
            self.evictions += 1;
            slot
        } else {
            return; // capacity smaller than one chunk
        };
        self.set_slot(key, slot);
        self.push_tail(slot);
    }

    /// Empties the cache — what a guest OS reboot does. Counters persist so
    /// experiments can report totals across a reboot.
    pub fn clear(&mut self) {
        self.index.clear();
        self.nodes.clear();
        self.head = NIL;
        self.tail = NIL;
    }

    /// The slot of a cached `key`, or `None` when it is not cached.
    fn slot(&self, key: ChunkKey) -> Option<usize> {
        let row = self.index.get(key.file as usize)?;
        row.get(key.chunk as usize)
            .copied()
            .filter(|&slot| slot != NIL)
    }

    /// Points `key`'s table entry at `slot`, growing the table to reach it.
    fn set_slot(&mut self, key: ChunkKey, slot: usize) {
        let (file, chunk) = (key.file as usize, key.chunk as usize);
        if file >= self.index.len() {
            self.index.resize_with(file + 1, Vec::new);
        }
        let row = &mut self.index[file];
        if chunk >= row.len() {
            row.resize(chunk + 1, NIL);
        }
        row[chunk] = slot;
    }

    /// Makes a linked `slot` the most recently used.
    fn touch(&mut self, slot: usize) {
        if slot != self.tail {
            self.unlink(slot);
            self.push_tail(slot);
        }
    }

    /// Detaches a linked `slot` from the recency list.
    fn unlink(&mut self, slot: usize) {
        let Node { prev, next, .. } = self.nodes[slot];
        match prev {
            NIL => self.head = next,
            p => self.nodes[p].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.nodes[n].prev = prev,
        }
    }

    /// Links a detached `slot` in as the most recently used.
    fn push_tail(&mut self, slot: usize) {
        self.nodes[slot].prev = self.tail;
        self.nodes[slot].next = NIL;
        match self.tail {
            NIL => self.head = slot,
            t => self.nodes[t].next = slot,
        }
        self.tail = slot;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(file: u32, chunk: u32) -> ChunkKey {
        ChunkKey { file, chunk }
    }

    /// The cached keys from least to most recently used, walking the
    /// recency list and checking its back links and the index on the way.
    fn lru_order(c: &PageCache) -> Vec<ChunkKey> {
        let mut keys = Vec::new();
        let (mut slot, mut prev) = (c.head, NIL);
        while slot != NIL {
            let node = &c.nodes[slot];
            assert_eq!(node.prev, prev, "broken back link at slot {slot}");
            assert_eq!(c.slot(node.key), Some(slot));
            keys.push(node.key);
            (prev, slot) = (slot, node.next);
        }
        assert_eq!(c.tail, prev);
        let indexed = c.index.iter().flatten().filter(|&&s| s != NIL).count();
        assert_eq!(keys.len(), indexed);
        keys
    }

    #[test]
    fn miss_then_hit() {
        let mut c = PageCache::new(1 << 20);
        assert!(!c.access(key(0, 0)));
        c.insert(key(0, 0));
        assert!(c.access(key(0, 0)));
        assert_eq!(c.hits(), 1);
        assert_eq!(c.misses(), 1);
    }

    #[test]
    fn lru_evicts_oldest() {
        // Room for exactly 2 chunks.
        let mut c = PageCache::with_chunk_size(2048, 1024);
        c.insert(key(0, 0));
        c.insert(key(0, 1));
        c.insert(key(0, 2)); // evicts (0,0)
        assert!(!c.contains(key(0, 0)));
        assert!(c.contains(key(0, 1)));
        assert!(c.contains(key(0, 2)));
        assert_eq!(c.evictions(), 1);
    }

    #[test]
    fn access_refreshes_lru_position() {
        let mut c = PageCache::with_chunk_size(2048, 1024);
        c.insert(key(0, 0));
        c.insert(key(0, 1));
        assert!(c.access(key(0, 0))); // (0,0) is now MRU
        c.insert(key(0, 2)); // evicts (0,1), not (0,0)
        assert!(c.contains(key(0, 0)));
        assert!(!c.contains(key(0, 1)));
    }

    #[test]
    fn reinsert_does_not_grow_usage() {
        let mut c = PageCache::with_chunk_size(4096, 1024);
        c.insert(key(1, 7));
        c.insert(key(1, 7));
        assert_eq!(c.len(), 1);
        assert_eq!(c.used_bytes(), 1024);
    }

    #[test]
    fn clear_models_reboot() {
        let mut c = PageCache::new(1 << 20);
        for i in 0..4 {
            c.insert(key(0, i));
        }
        assert!(!c.is_empty());
        c.clear();
        assert!(c.is_empty());
        assert_eq!(c.used_bytes(), 0);
        // First touch after reboot misses again — the Fig. 8 story.
        assert!(!c.access(key(0, 0)));
    }

    #[test]
    fn capacity_smaller_than_chunk_never_caches() {
        let mut c = PageCache::with_chunk_size(100, 1024);
        c.insert(key(0, 0));
        assert!(c.is_empty());
    }

    #[test]
    fn deterministic_under_identical_operations() {
        let run = || {
            let mut c = PageCache::with_chunk_size(8 * 1024, 1024);
            for i in 0..100u32 {
                let k = key(i % 7, i % 13);
                if !c.access(k) {
                    c.insert(k);
                }
            }
            (lru_order(&c), c.hits(), c.misses(), c.evictions())
        };
        assert_eq!(run(), run());
    }
}
