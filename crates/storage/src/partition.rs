//! The partition table.
//!
//! The paper's host dedicates "one physical partition of the disk ... for a
//! virtual disk of one VM" (§5). [`PartitionTable`] models that layout plus
//! per-partition I/O accounting, which the guest filesystem layer uses to
//! attribute disk traffic to VMs.

use std::collections::BTreeMap;
use std::fmt;

/// Identifies a partition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PartitionId(pub u32);

impl fmt::Display for PartitionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "part{}", self.0)
    }
}

/// Errors from partition management.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PartitionError {
    /// Not enough unpartitioned space on the disk.
    DiskFull {
        /// Bytes requested.
        requested: u64,
        /// Bytes available.
        available: u64,
    },
    /// The referenced partition does not exist.
    NoSuchPartition(PartitionId),
}

impl fmt::Display for PartitionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PartitionError::DiskFull {
                requested,
                available,
            } => write!(
                f,
                "disk full: requested {requested} B, {available} B available"
            ),
            PartitionError::NoSuchPartition(id) => write!(f, "no such partition {id}"),
        }
    }
}

impl std::error::Error for PartitionError {}

/// One partition's metadata and I/O counters.
#[derive(Debug, Clone, PartialEq)]
pub struct Partition {
    size_bytes: u64,
    bytes_read: f64,
}

impl Partition {
    /// Capacity in bytes.
    pub fn size_bytes(&self) -> u64 {
        self.size_bytes
    }

    /// Bytes read from this partition.
    pub fn bytes_read(&self) -> f64 {
        self.bytes_read
    }
}

/// The disk's partition layout.
///
/// # Examples
///
/// ```
/// use rh_storage::partition::PartitionTable;
///
/// // The paper's 36.7 GB SCSI disk.
/// let mut table = PartitionTable::new(36_700_000_000);
/// let p = table.create(3_000_000_000)?; // a 3 GB slice for one domain
/// assert_eq!(table.get(p).unwrap().size_bytes(), 3_000_000_000);
/// # Ok::<(), rh_storage::partition::PartitionError>(())
/// ```
#[derive(Debug, Clone)]
pub struct PartitionTable {
    capacity_bytes: u64,
    parts: BTreeMap<u32, Partition>,
    next_id: u32,
}

impl PartitionTable {
    /// Creates an empty table over a disk of `capacity_bytes`.
    pub fn new(capacity_bytes: u64) -> Self {
        PartitionTable {
            capacity_bytes,
            parts: BTreeMap::new(),
            next_id: 0,
        }
    }

    /// Disk capacity.
    pub fn capacity_bytes(&self) -> u64 {
        self.capacity_bytes
    }

    /// Bytes already partitioned.
    pub fn used_bytes(&self) -> u64 {
        self.parts.values().map(|p| p.size_bytes).sum()
    }

    /// Unpartitioned bytes.
    pub fn free_bytes(&self) -> u64 {
        self.capacity_bytes - self.used_bytes()
    }

    /// Number of partitions.
    pub fn len(&self) -> usize {
        self.parts.len()
    }

    /// True if no partitions exist.
    pub fn is_empty(&self) -> bool {
        self.parts.is_empty()
    }

    /// Creates a partition of `size_bytes`.
    ///
    /// # Errors
    ///
    /// [`PartitionError::DiskFull`] when not enough space remains.
    pub fn create(&mut self, size_bytes: u64) -> Result<PartitionId, PartitionError> {
        if size_bytes > self.free_bytes() {
            return Err(PartitionError::DiskFull {
                requested: size_bytes,
                available: self.free_bytes(),
            });
        }
        let id = self.next_id;
        self.next_id += 1;
        self.parts.insert(
            id,
            Partition {
                size_bytes,
                bytes_read: 0.0,
            },
        );
        Ok(PartitionId(id))
    }

    /// Looks up a partition.
    pub fn get(&self, id: PartitionId) -> Option<&Partition> {
        self.parts.get(&id.0)
    }

    /// Records completed I/O against a partition.
    ///
    /// # Errors
    ///
    /// [`PartitionError::NoSuchPartition`] if absent.
    pub fn record_read(&mut self, id: PartitionId, bytes: f64) -> Result<(), PartitionError> {
        let p = self
            .parts
            .get_mut(&id.0)
            .ok_or(PartitionError::NoSuchPartition(id))?;
        p.bytes_read += bytes;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn create_and_account() {
        let mut t = PartitionTable::new(1000);
        let a = t.create(400).unwrap();
        let b = t.create(400).unwrap();
        assert_ne!(a, b);
        assert_eq!(t.len(), 2);
        assert_eq!(t.free_bytes(), 200);
        t.record_read(a, 100.0).unwrap();
        let p = t.get(a).unwrap();
        assert_eq!(p.bytes_read(), 100.0);
        assert_eq!(p.size_bytes(), 400);
    }

    #[test]
    fn disk_full_rejected() {
        let mut t = PartitionTable::new(100);
        let _ = t.create(80).unwrap();
        let err = t.create(30).unwrap_err();
        assert_eq!(
            err,
            PartitionError::DiskFull {
                requested: 30,
                available: 20
            }
        );
    }

    #[test]
    fn io_on_missing_partition_errors() {
        let mut t = PartitionTable::new(100);
        let err = t.record_read(PartitionId(9), 1.0).unwrap_err();
        assert!(matches!(err, PartitionError::NoSuchPartition(_)));
    }
}
