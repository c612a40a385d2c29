//! `popflow-server`: a dependency-free TCP front-end over the
//! multi-query serving engine.
//!
//! The crate turns [`popflow_serve::ServeEngine`] into a network
//! service without pulling in an async runtime or a serialization
//! framework: the wire format is a hand-rolled length-prefixed binary
//! protocol ([`protocol`]), the transport is blocking `std::net`
//! sockets, and concurrency is one reader and one writer thread per
//! connection feeding a single scheduler thread that owns the engine.
//! The scheduler has no clock: it sleeps until a reader posts work and
//! bounds each pass by budgets, not by a period.
//!
//! The architecture exists to preserve the one property the rest of
//! the workspace is built around: **determinism**. Clients partition
//! objects across ingest connections; the scheduler's watermark-gated
//! merge re-establishes one global non-decreasing record order, and
//! window advances run at bucket boundaries derived from event time —
//! never wall-clock — so the deltas pushed over the wire are
//! bit-identical (`f64::to_bits`) to an in-process engine fed the same
//! stream. The `cross_process` test gates on exactly that, with the
//! binary in its own process.
//!
//! Memory is bounded end to end: the ingest queue admits at most
//! [`ServerConfig::queue_capacity_records`] records (plus one
//! in-flight batch per connection) and refuses the rest with an
//! explicit [`protocol::Frame::Throttle`]; outbound frames flow
//! through bounded per-connection channels whose overflow evicts the
//! slow consumer instead of buffering without limit.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod client;
mod merge;
pub mod metric_names;
pub mod protocol;
pub mod scenario;
mod server;

pub use client::Client;
pub use server::{Server, ServerConfig};
