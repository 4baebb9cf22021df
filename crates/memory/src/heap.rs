//! The VMM's private heap, and the aging that afflicts it.
//!
//! Xen's hypervisor heap is only **16 MB by default** regardless of machine
//! memory (paper §2), which makes it the canonical victim of software
//! aging: the paper cites real Xen bugs where heap memory leaked on every
//! VM reboot (changeset 9392) and on error paths (changeset 11752), leading
//! to out-of-memory errors, performance degradation or a crash of the VMM.
//!
//! [`VmmHeap`] tracks ordinary allocations plus *leaked* bytes that no
//! free() will ever reclaim — only a VMM reboot (rejuvenation) resets them.

use std::fmt;

/// Default hypervisor heap size: 16 MB, as in Xen 3.0 (paper §2).
const DEFAULT_HEAP_BYTES: u64 = 16 * 1024 * 1024;

/// Error returned when the heap cannot satisfy a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HeapExhausted {
    /// Bytes requested.
    pub requested: u64,
    /// Bytes free at the time of the request.
    pub free: u64,
}

impl fmt::Display for HeapExhausted {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "vmm heap exhausted: requested {} bytes, {} free",
            self.requested, self.free
        )
    }
}

impl std::error::Error for HeapExhausted {}

/// A token for a live heap allocation; return it to
/// [`VmmHeap::free`] to release the bytes.
#[derive(Debug, PartialEq, Eq)]
#[must_use = "heap allocations must be freed (or deliberately leaked)"]
pub struct HeapAlloc {
    bytes: u64,
}

impl HeapAlloc {
    /// Size of this allocation.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }
}

/// The VMM's fixed-size private heap with leak accounting.
///
/// # Examples
///
/// ```
/// use rh_memory::heap::VmmHeap;
///
/// let mut heap = VmmHeap::new(1024);
/// let a = heap.alloc(512)?;
/// heap.leak(256); // a buggy error path loses 256 bytes
/// heap.free(a);
/// assert_eq!(heap.free_bytes(), 768);
/// heap.reset(); // rejuvenation!
/// assert_eq!(heap.free_bytes(), 1024);
/// # Ok::<(), rh_memory::heap::HeapExhausted>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VmmHeap {
    capacity: u64,
    used: u64,
    leaked: u64,
}

impl VmmHeap {
    /// Creates a heap of `capacity` bytes.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: u64) -> Self {
        assert!(capacity > 0, "heap capacity must be positive");
        VmmHeap {
            capacity,
            used: 0,
            leaked: 0,
        }
    }

    /// Creates the Xen-default 16 MB heap.
    pub fn xen_default() -> Self {
        VmmHeap::new(DEFAULT_HEAP_BYTES)
    }

    /// Heap capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Bytes in live allocations (excluding leaks).
    pub fn used_bytes(&self) -> u64 {
        self.used
    }

    /// Bytes lost to leaks since the last reset.
    pub fn leaked_bytes(&self) -> u64 {
        self.leaked
    }

    /// Bytes available for allocation.
    pub fn free_bytes(&self) -> u64 {
        self.capacity - self.used - self.leaked
    }

    /// Fraction of the heap unavailable (used + leaked), in `[0, 1]`.
    pub fn pressure(&self) -> f64 {
        (self.used + self.leaked) as f64 / self.capacity as f64
    }

    /// Allocates `bytes`.
    ///
    /// # Errors
    ///
    /// [`HeapExhausted`] when fewer than `bytes` are free — the aging
    /// failure mode the paper rejuvenates away.
    pub fn alloc(&mut self, bytes: u64) -> Result<HeapAlloc, HeapExhausted> {
        if bytes > self.free_bytes() {
            return Err(HeapExhausted {
                requested: bytes,
                free: self.free_bytes(),
            });
        }
        self.used += bytes;
        Ok(HeapAlloc { bytes })
    }

    /// Releases an allocation.
    pub fn free(&mut self, alloc: HeapAlloc) {
        debug_assert!(alloc.bytes <= self.used);
        self.used -= alloc.bytes;
    }

    /// Directly loses `bytes` of free memory to a leak (clamped to the free
    /// amount). Returns the bytes actually leaked.
    pub fn leak(&mut self, bytes: u64) -> u64 {
        let actual = bytes.min(self.free_bytes());
        self.leaked += actual;
        actual
    }

    /// Rejuvenation: the VMM reboot re-initializes the heap, clearing all
    /// allocations and leaks.
    pub fn reset(&mut self) {
        self.used = 0;
        self.leaked = 0;
    }
}

impl Default for VmmHeap {
    fn default() -> Self {
        VmmHeap::xen_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_xen_16mb() {
        let h = VmmHeap::default();
        assert_eq!(h.capacity(), 16 * 1024 * 1024);
        assert_eq!(h.free_bytes(), h.capacity());
    }

    #[test]
    fn alloc_free_cycle() {
        let mut h = VmmHeap::new(100);
        let a = h.alloc(60).unwrap();
        assert_eq!(h.used_bytes(), 60);
        assert_eq!(h.free_bytes(), 40);
        h.free(a);
        assert_eq!(h.used_bytes(), 0);
    }

    #[test]
    fn exhaustion_reports_free_bytes() {
        let mut h = VmmHeap::new(100);
        let _a = h.alloc(80).unwrap();
        let err = h.alloc(30).unwrap_err();
        assert_eq!(
            err,
            HeapExhausted {
                requested: 30,
                free: 20
            }
        );
    }

    #[test]
    fn leaks_accumulate_and_survive_frees() {
        let mut h = VmmHeap::new(100);
        assert_eq!(h.leak(10), 10);
        assert_eq!(h.leak(15), 15);
        assert_eq!(h.leaked_bytes(), 25);
        assert_eq!(h.free_bytes(), 75);
        // Leaked bytes cannot be allocated.
        assert!(h.alloc(80).is_err());
        assert!(h.alloc(75).is_ok());
    }

    #[test]
    fn leak_clamps_at_free() {
        let mut h = VmmHeap::new(100);
        let _a = h.alloc(90).unwrap();
        assert_eq!(h.leak(50), 10);
        assert_eq!(h.free_bytes(), 0);
        assert!((h.pressure() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn reset_restores_everything() {
        let mut h = VmmHeap::new(100);
        let _a = h.alloc(50).unwrap();
        h.leak(30);
        h.reset();
        assert_eq!(h.free_bytes(), 100);
        assert_eq!(h.leaked_bytes(), 0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_rejected() {
        let _ = VmmHeap::new(0);
    }
}
