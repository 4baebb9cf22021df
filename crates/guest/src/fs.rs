//! The guest filesystem: files, and reads that split into cache hits and
//! disk misses.
//!
//! The Fig. 8 workloads live here: a single 512 MB file (8a) and an Apache
//! document root of 10 000 × 512 KB files (8b). A read is *planned* against
//! the page cache — how many bytes hit, how many must come from the shared
//! disk — and then *committed*, inserting the missed chunks.

use std::fmt;

use crate::pagecache::{ChunkKey, PageCache};

/// A set of identically sized files (an Apache document root, a benchmark
/// file, ...).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FileSet {
    /// Number of files.
    pub files: u32,
    /// Size of each file in bytes.
    pub file_bytes: u64,
}

impl FileSet {
    /// Creates a file set.
    ///
    /// # Panics
    ///
    /// Panics if `files` or `file_bytes` is zero.
    pub fn new(files: u32, file_bytes: u64) -> Self {
        assert!(files > 0 && file_bytes > 0, "file set must be non-empty");
        FileSet { files, file_bytes }
    }

    /// The paper's Fig. 8(b) web corpus: 10 000 files of 512 KB.
    pub fn apache_corpus() -> Self {
        FileSet::new(10_000, 512 * 1024)
    }

    /// The paper's Fig. 8(a) benchmark file: one 512 MB file.
    pub fn single_large_file() -> Self {
        FileSet::new(1, 512 * 1024 * 1024)
    }

    /// Total bytes across all files.
    pub fn total_bytes(&self) -> u64 {
        self.files as u64 * self.file_bytes
    }
}

impl fmt::Display for FileSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} files × {} B", self.files, self.file_bytes)
    }
}

/// The byte split of one planned read.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ReadPlan {
    /// Bytes served from the page cache (memory speed).
    pub hit_bytes: u64,
    /// Bytes that must be read from the disk.
    pub miss_bytes: u64,
}

impl ReadPlan {
    /// Total bytes of the read.
    pub fn total_bytes(&self) -> u64 {
        self.hit_bytes + self.miss_bytes
    }

    /// True if the read is fully cached.
    #[cfg(test)]
    fn is_all_hit(&self) -> bool {
        self.miss_bytes == 0
    }
}

/// A guest filesystem over one file set and one page cache.
#[derive(Debug, Clone)]
pub struct FileSystem {
    set: FileSet,
    chunk_bytes: u64,
}

impl FileSystem {
    /// Creates a filesystem for `set`, chunked like `cache`.
    pub fn new(set: FileSet, cache: &PageCache) -> Self {
        FileSystem {
            set,
            chunk_bytes: cache.chunk_bytes(),
        }
    }

    /// Number of chunks per file.
    fn chunks_per_file(&self) -> u32 {
        self.set.file_bytes.div_ceil(self.chunk_bytes) as u32
    }

    /// Plans a whole-file read of `file` against `cache`, updating LRU
    /// order and hit/miss counters but *not* inserting missed chunks.
    ///
    /// # Panics
    ///
    /// Panics if `file` is outside the file set.
    pub fn plan_read(&self, cache: &mut PageCache, file: u32) -> ReadPlan {
        assert!(
            file < self.set.files,
            "file {file} outside set {}",
            self.set
        );
        let chunks = self.chunks_per_file();
        let mut plan = ReadPlan::default();
        for chunk in 0..chunks {
            let bytes = self.chunk_len(chunk);
            if cache.access(ChunkKey { file, chunk }) {
                plan.hit_bytes += bytes;
            } else {
                plan.miss_bytes += bytes;
            }
        }
        plan
    }

    /// Inserts every chunk of `file` into `cache` — called when the disk
    /// reads of a planned read complete (or to pre-warm the cache).
    pub fn commit_read(&self, cache: &mut PageCache, file: u32) {
        assert!(
            file < self.set.files,
            "file {file} outside set {}",
            self.set
        );
        for chunk in 0..self.chunks_per_file() {
            cache.insert(ChunkKey { file, chunk });
        }
    }

    /// Pre-warms the cache with files `0..count` (in ascending order), as a
    /// long-running server naturally would have.
    pub fn warm(&self, cache: &mut PageCache, count: u32) {
        for file in 0..count.min(self.set.files) {
            self.commit_read(cache, file);
        }
    }

    fn chunk_len(&self, chunk: u32) -> u64 {
        let start = chunk as u64 * self.chunk_bytes;
        (self.set.file_bytes - start).min(self.chunk_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_fs() -> (FileSystem, PageCache) {
        let cache = PageCache::with_chunk_size(1 << 20, 1024);
        let set = FileSet::new(10, 4096); // 10 files × 4 chunks
        let fs = FileSystem::new(set, &cache);
        (fs, cache)
    }

    #[test]
    fn cold_read_is_all_miss() {
        let (fs, mut cache) = small_fs();
        let plan = fs.plan_read(&mut cache, 0);
        assert_eq!(plan.miss_bytes, 4096);
        assert_eq!(plan.hit_bytes, 0);
        assert!(!plan.is_all_hit());
    }

    #[test]
    fn committed_read_hits_next_time() {
        let (fs, mut cache) = small_fs();
        let _ = fs.plan_read(&mut cache, 0);
        fs.commit_read(&mut cache, 0);
        let plan = fs.plan_read(&mut cache, 0);
        assert!(plan.is_all_hit());
        assert_eq!(plan.total_bytes(), 4096);
    }

    #[test]
    fn partial_hit_after_eviction() {
        // Cache holds 2 chunks; a 4-chunk file can never fully hit.
        let cache = PageCache::with_chunk_size(2048, 1024);
        let set = FileSet::new(1, 4096);
        let fs = FileSystem::new(set, &cache);
        let mut cache = cache;
        fs.commit_read(&mut cache, 0); // only the last 2 chunks survive
        let plan = fs.plan_read(&mut cache, 0);
        assert_eq!(plan.hit_bytes, 2048, "the two surviving chunks hit");
        assert_eq!(plan.miss_bytes, 2048);
    }

    #[test]
    fn odd_file_size_last_chunk_is_short() {
        let cache = PageCache::with_chunk_size(1 << 20, 1024);
        let set = FileSet::new(1, 2500); // 2 full chunks + 452 bytes
        let fs = FileSystem::new(set, &cache);
        assert_eq!(fs.chunks_per_file(), 3);
        let mut cache = cache;
        let plan = fs.plan_read(&mut cache, 0);
        assert_eq!(plan.total_bytes(), 2500);
    }

    #[test]
    fn warm_preloads_prefix() {
        let (fs, mut cache) = small_fs();
        fs.warm(&mut cache, 3);
        for file in 0..3 {
            assert!(fs.plan_read(&mut cache, file).is_all_hit());
        }
        assert!(!fs.plan_read(&mut cache, 3).is_all_hit());
    }

    #[test]
    fn paper_corpora_dimensions() {
        let corpus = FileSet::apache_corpus();
        assert_eq!(corpus.total_bytes(), 10_000 * 512 * 1024);
        let big = FileSet::single_large_file();
        assert_eq!(big.total_bytes(), 512 * 1024 * 1024);
        assert_eq!(big.files, 1);
    }

    #[test]
    #[should_panic(expected = "outside set")]
    fn out_of_range_file_rejected() {
        let (fs, mut cache) = small_fs();
        let _ = fs.plan_read(&mut cache, 10);
    }

    #[test]
    fn clear_then_reread_misses_everything() {
        // The Fig. 8(a) scenario in miniature.
        let (fs, mut cache) = small_fs();
        fs.commit_read(&mut cache, 5);
        assert!(fs.plan_read(&mut cache, 5).is_all_hit());
        cache.clear(); // cold reboot
        let plan = fs.plan_read(&mut cache, 5);
        assert_eq!(plan.hit_bytes, 0);
        assert_eq!(plan.miss_bytes, 4096);
    }
}
