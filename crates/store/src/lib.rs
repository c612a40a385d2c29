//! `popflow-store` — columnar, interned record storage for positioning
//! logs.
//!
//! Real indoor positioning feeds are massively redundant: the same
//! device re-reports near-identical probabilistic positions for long
//! stretches (WiFi-connectivity localization and public-space mobility
//! traces both show it), and the TkPLQ pipeline above is dominated by
//! scanning those records. This crate supplies the storage spine that
//! exploits both facts:
//!
//! * [`SampleSetPool`] — a hash-consing interner: identical sample sets
//!   deduplicate to **one** arena-backed copy, addressed by a 4-byte
//!   [`SetRef`] handle. Readers get zero-copy [`SampleSetView`] borrows
//!   of the single interned copy.
//! * [`RecordStore`] — an append-only, struct-of-arrays record log:
//!   parallel `oid` / `t` / `set` columns over the pool. Positions are
//!   dense `u32`s and **stable forever** (append-only), so layers above
//!   may cache positions instead of cloning payloads.
//! * [`StoreStats`] — footprint and interner hit-rate accounting, plus
//!   the row-layout counterfactual ([`RecordStore::row_bytes`]) the
//!   memory experiments compare against.
//!
//! The crate is dependency-free and knows nothing about sample-set
//! *semantics*: it is generic over the interned item via [`PoolItem`].
//! `indoor-iupt` instantiates it with its `SampleSet` and keeps its
//! public `Iupt` API as a thin façade.
//!
//! # Invariants the layers above rely on
//!
//! * **Position stability** — [`RecordStore`] never moves, mutates, or
//!   removes a record; `push` returns the record's position and that
//!   position stays valid for the life of the store. The `popflow-serve`
//!   bucket caches hold positions into their shard's log across window
//!   slides on the strength of this.
//! * **Interning is value-preserving** — [`SampleSetPool::intern`]
//!   returns a handle to a set *equal* (via [`PartialEq`]) to the one
//!   interned; computations over views are therefore bit-identical to
//!   computations over the original owned values.
//! * **Dedup is best-effort, correctness-free** — two equal items whose
//!   [`PoolItem::content_hash`] disagree (impossible for bit-identical
//!   payloads) would simply both be retained; nothing above may assume
//!   equal sets share a [`SetRef`], only that one `SetRef` always
//!   denotes one value.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod pool;
mod store;

pub use pool::{PoolItem, SampleSetPool, SampleSetView, SetRef};
pub use store::{RecordStore, RecordView, StoreStats};
