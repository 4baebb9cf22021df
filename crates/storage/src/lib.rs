//! # rh-storage — the disk substrate
//!
//! Models the single shared SCSI disk of the paper's consolidated server
//! and the save files used by the **saved-VM reboot** baseline:
//!
//! * [`disk`] — a processor-sharing disk with calibrated 2007-era SCSI
//!   timing (85 MB/s single stream, seek penalty under concurrency),
//! * [`image`] — capture/restore of whole domain memory images with
//!   logical-digest verification,
//! * [`partition`] — one-partition-per-VM layout and I/O accounting.
//!
//! Everything that makes the saved-VM baseline slow — and the cold-VM
//! baseline's post-reboot cache misses — flows through [`Disk`].

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod disk;
pub mod image;
pub mod partition;

pub use disk::{Disk, DiskConfig, IoKind};
pub use image::{logical_digest, MemoryImage, RestoreMismatch};
pub use partition::{Partition, PartitionError, PartitionId, PartitionTable};
