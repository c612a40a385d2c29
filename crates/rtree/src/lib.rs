//! Spatial indexing substrates for the `popflow` workspace.
//!
//! Two index structures, both re-implemented here from scratch:
//!
//! * [`RTree`] — a classic R-tree with STR bulk loading and quadratic-split
//!   insertion: the in-memory index over indoor entities (S-locations,
//!   P-locations, doors) that §5.2 describes.
//! * [`TimeIndex`] — the "1DR-tree" (Lu, Yang & Jensen, ICDE 2011) indexing
//!   the Indoor Uncertain Positioning Table on its time attribute; a packed
//!   one-dimensional R-tree supporting appends in time order and interval
//!   range queries.
//!
//! The paper's third structure, the COUNT-aggregate R-tree that
//! Best-First (§4.2) joins against a query tree, is not here: popflow's
//! Best-First bounds flows with exact per-location candidate counts
//! instead (see `popflow_core::query::best_first`), so nothing would
//! build one.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod rtree;
mod time_index;

pub use rtree::{Entry, RTree};
pub use time_index::TimeIndex;
