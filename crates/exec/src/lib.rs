//! `popflow-exec` — the deterministic parallel execution layer every
//! popflow evaluation strategy shares.
//!
//! The paper's TkPLQ algorithms are embarrassingly parallel over
//! *objects*: each object's presence/flow contribution is computed
//! independently and only the final merge couples them. This crate is
//! the one substrate both the batch algorithms and the streaming shards
//! build on:
//!
//! * [`Partitioner`] — the stable object→partition mapping (a Fibonacci
//!   multiplicative mix) behind [`ShardPool`]'s routing, so every
//!   caller agrees on which partition owns an object.
//! * [`par_map`] / [`try_par_map`] — scoped fork-join over a read-only
//!   item slice with dynamic load balancing and a deterministic
//!   in-order merge; the engine under `popflow_core`'s `nested_loop`
//!   and `best_first` (one thread, the default, spawns nothing).
//! * [`ShardPool`] — long-lived worker threads owning per-partition
//!   mutable state, driven by coordinator closures; the engine under
//!   `popflow-serve`'s streaming shards.
//!
//! # The determinism contract
//!
//! Every construct here guarantees results independent of thread count
//! and scheduling, down to the floating-point bit:
//!
//! 1. **Partition order** is a pure function of `(key, partitions)`
//!    ([`Partitioner::partition_of`]) — never of load or timing.
//! 2. **Merge order** is structural: [`par_map`] reorders results by
//!    item index before returning; [`ShardPool::ask_all`] gathers
//!    replies in ascending shard order.
//! 3. **Floating-point summation order** is therefore the caller's to
//!    fix once: accumulate merged per-object results in ascending
//!    object-id order and the sum is bit-identical at 1 thread, 7
//!    threads, or 7 shards — which is exactly what the batch drivers
//!    and the serve coordinator do.
//!
//! The crate is dependency-free (`std` only): no rayon, no crossbeam —
//! scoped threads and channels are all the model needs.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod forkjoin;
mod partitioner;
mod pool;

pub use forkjoin::{par_map, try_par_map, ExecConfig};
pub use partitioner::Partitioner;
pub use pool::{Reply, ShardDown, ShardPool};
