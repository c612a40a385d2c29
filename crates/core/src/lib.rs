//! `popflow-core` — indoor flow computation and Top-k Popular Location
//! Queries over uncertain indoor mobility data.
//!
//! This crate is the primary contribution of Li, Lu, Shou, Chen & Chen,
//! *"Finding Most Popular Indoor Semantic Locations Using Uncertain
//! Mobility Data"* (IEEE TKDE 2019), re-implemented in Rust:
//!
//! * **Object presence & indoor flow** (§2.3): possible indoor paths over
//!   probabilistic positioning samples, validity-filtered by the indoor
//!   location matrix; pass probabilities (Eq. 2); presence (Eq. 1) and
//!   flow (Definition 1). Two presence engines are provided — the paper's
//!   path enumeration and an exact transition DP (our optimization).
//! * **Data reduction** (§3.2, Algorithm 1): intra-merge of equivalent
//!   P-locations, inter-merge of stationary runs, and
//!   possible-semantic-location pruning.
//! * **Flow computation** (§3.3, Algorithm 2): [`flow::flow`].
//!   Every search scores an object through one kernel,
//!   [`object_flow_contributions`], which is a left fold over the
//!   object's records: [`SpanFold`] keeps the reduction's and the
//!   transition DP's state between records, so a sequence that grows —
//!   a serving shard's open bucket — is paid for once per record.
//! * **TkPLQ search algorithms** (§4): [`query::naive`],
//!   [`query::nested_loop`] (Algorithm 3), [`query::best_first`]
//!   (Algorithm 4's best-first COUNT-bound search, over exact
//!   per-location candidate counts rather than an R-tree join). One
//!   driver per algorithm: per-object work forks across
//!   [`FlowConfig::exec`] threads and merges in object-id order, so
//!   results are bit-identical at every thread count.
//! * **Continuous queries** (§7's online direction): [`WindowSpec`]'s
//!   bucketed sliding window, [`QuerySpec`], [`diff_topk`] and the
//!   recompute-per-slide baseline, [`RecomputeEngine`].
//! * **Baselines & comparators** (§5): SC, SC-ρ, MC, and the RFID-based
//!   SCC and UR methods used in the paper's Table 7.
//!
//! # Quickstart
//!
//! ```
//! use indoor_model::fixtures::paper_figure1;
//! use indoor_iupt::fixtures::paper_table2;
//! use indoor_iupt::{TimeInterval, Timestamp};
//! use popflow_core::{best_first, FlowConfig, QuerySet, TkPlQuery};
//!
//! let fig = paper_figure1();           // the paper's Figure 1 floor plan
//! let iupt = paper_table2();           // the paper's Table 2 data
//! let query = TkPlQuery::new(
//!     1,
//!     QuerySet::new(vec![fig.r[0], fig.r[5]]), // Q = {r1, r6}
//!     TimeInterval::new(Timestamp::from_secs(1), Timestamp::from_secs(8)),
//! );
//! let out = best_first(&fig.space, &iupt, &query, &FlowConfig::default()).unwrap();
//! assert_eq!(out.ranking[0].sloc, fig.r[5]); // r6 is the most popular (Example 4)
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod baselines;
mod bitset;
mod config;
pub mod dp;
pub mod flow;
mod fold;
pub mod paths;
pub mod presence;
pub mod query;
mod query_set;
pub mod reduction;

pub use bitset::SmallBitset;
pub use config::{FlowConfig, FlowError, Normalization, PresenceEngine};
pub use flow::{flow, object_flow_contributions, FlowComputation, ObjectContribution};
pub use fold::{FinishScratch, SpanFold};
pub use popflow_exec::ExecConfig;
pub use query::{
    best_first, diff_topk, naive, nested_loop, rank_topk, ContinuousUpdate, LocationBound, QueryId,
    QueryOutcome, QuerySpec, RankedLocation, RecomputeEngine, SearchStats, ThresholdHeap,
    ThresholdStep, TkPlQuery, WindowSpec,
};
pub use query_set::{intersect_sorted, QuerySet};
pub use reduction::{reduce_for_query, scan_psls, scan_sequence, ReducedSequence};
