//! The Indoor Uncertain Positioning Table (IUPT) of §2.2: probabilistic
//! positioning records `(oid, X, t)` where each sample set `X` lists
//! `(loc, prob)` pairs summing to probability 1, plus the time-indexed
//! store the query algorithms fetch from ([`Iupt`]: one flat columnar
//! table; the serving engine shards by giving each `popflow-exec`
//! worker an `Iupt` of its own).
//!
//! The [`fixtures::paper_table2`] fixture reproduces the paper's Table 2
//! example data and backs the worked-example tests in `popflow-core`.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod fixtures;
mod rfid;
mod sample;
mod table;
mod time;

pub use popflow_store::{MemoStats, SeqMemo, SetMemo, SetRef, StoreStats};
pub use rfid::{ReaderId, RfidDeployment, RfidReader, RfidRecord, RfidTrackingData};
pub use sample::{Sample, SampleSet, SampleSetError};
pub use table::{Iupt, IuptStats, ObjectId, ObjectSequence, Record, RecordRef, SampleSetView};
pub use time::{TimeInterval, Timestamp};
