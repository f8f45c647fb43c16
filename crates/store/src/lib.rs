//! Replicated storage substrate: versioned items, locks, write-ahead
//! logging, integrity constraints and last-writer-wins replication.
//!
//! Each cloud server in the paper "is responsible for hosting a subset D of
//! all data items" and enforces ACID locally; across servers, data (like
//! policies) propagates under eventual consistency. This crate provides the
//! per-server storage building blocks used by the transaction and protocol
//! crates:
//!
//! * [`LocalStore`] — a versioned key-value store with last-writer-wins
//!   update application (the eventual-consistency merge rule).
//! * [`LockManager`] — strict two-phase locking with shared/exclusive modes.
//! * [`Wal`] — a write-ahead log distinguishing forced and non-forced
//!   records, the durability primitive 2PC/2PVC recovery depends on.
//! * [`ConstraintSet`] — integrity constraints whose satisfaction is the
//!   YES/NO vote of the 2PC voting phase.
//! * [`ReadSet`] / [`MvccOverlay`] — optimistic-mode read stamps and
//!   snapshot-at-begin multi-version reads, validated at commit by
//!   [`LocalStore::validate_and_install`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod constraints;
mod kv;
mod locks;
mod occ;
mod value;
mod wal;

pub use constraints::{ConstraintSet, ConstraintViolation, IntegrityConstraint};
pub use kv::{LocalStore, VersionedItem, WriteSet};
pub use locks::{LockManager, LockMode, LockOutcome};
pub use occ::{MvccOverlay, ReadSet, SnapshotId};
pub use value::Value;
pub use wal::{Wal, WalEntry};
