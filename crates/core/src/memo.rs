//! Per-`SetRef` kernel memoization ([`FlowMemo`]): pay the presence /
//! path / reduction kernels once per **distinct interned sequence**, and
//! serve every later record that resolves to the same interned content
//! from the cache — bit-identically.
//!
//! The storage spine (PR 5) interns sample sets behind 4-byte
//! [`SetRef`] handles and proved that real feeds are massively
//! redundant; this module turns that *memory* dedup into *compute*
//! dedup. Two side-tables (backed by the store crate's
//! [`SetMemo`] / [`SeqMemo`]) hang off one [`FlowMemo`]:
//!
//! * **per-set** ([`SetEntry`], keyed by one [`SetRef`]): the set's
//!   sorted PSL list and its probability mass `Σ_e prob(e)` (the
//!   per-set factor of [`crate::paths::full_product_mass`]);
//! * **per-sequence** ([`SeqEntry`], keyed by the window-clipped
//!   sequence of [`SetRef`]s): the sequence's PSL list plus its
//!   **full-union** [`ObjectContribution`] — reduction, path/DP
//!   products, and normalization all baked in — or a prune marker when
//!   PSL pruning meant the contribution was never computed.
//!
//! A dwelling object (identical consecutive reports) therefore costs
//! O(1) kernel work after its first evaluation, and repeated queries
//! over a shared memo skip per-object kernels entirely.
//!
//! # Bit-identity
//!
//! Every value served from the cache is **bit-identical** (`to_bits`)
//! to what recomputation would produce:
//!
//! * interning is value-preserving (store-crate contract), so equal
//!   `SetRef` keys denote equal sample sets;
//! * a cached contribution is computed against the context's full query
//!   set and restricted per request with
//!   [`ObjectContribution::sliced`], which is bit-identical to a
//!   dedicated subset computation (tested in `crate::flow`);
//! * racing writers (parallel batch drivers) may duplicate a miss's
//!   work, but they compute identical bits and the first insert wins,
//!   so lookup results never depend on thread interleavings.
//!
//! # Invalidation and bounds
//!
//! Cached values depend on the query-set union and the kernel knobs of
//! [`FlowConfig`]; both are folded into a context fingerprint and the
//! tables self-clear whenever it changes (the serve engine additionally
//! calls [`FlowMemo::invalidate`] on its deterministic union-growth
//! cache reset). Capacity is a strict byte budget split between the two
//! tables with FIFO eviction ([`DEFAULT_MEMO_BYTES`] unless
//! [`FlowMemo::with_capacity`] says otherwise), and the resident bytes
//! fold into `StoreStats` via [`FlowMemo::stats`] so footprint gates
//! see cache growth.

use std::collections::hash_map::DefaultHasher;
use std::hash::Hasher;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use indoor_iupt::{MemoStats, SampleSet, SeqMemo, SetMemo, SetRef};
use indoor_model::{IndoorSpace, SLocId};

use crate::config::{FlowConfig, FlowError, Normalization, PresenceEngine};
use crate::flow::{contributions_with_psls, ObjectContribution};
use crate::query_set::QuerySet;
use crate::reduction::scan_psls;

/// Default byte budget of a [`FlowMemo`] (split 3:1 between the
/// sequence and set tables): large enough that skewed dwell streams hit
/// far more than they evict, small enough that a serve shard's resident
/// set stays bounded.
pub const DEFAULT_MEMO_BYTES: usize = 32 << 20;

/// Per-set cached intermediates, keyed by one interned [`SetRef`].
#[derive(Debug, Clone, PartialEq)]
pub struct SetEntry {
    /// The set's possible semantic locations (sorted, deduplicated) —
    /// the per-set summand of a sequence PSL scan.
    pub psls: Vec<SLocId>,
    /// The set's probability mass `Σ_e prob(e)` — the per-set factor of
    /// the [`crate::Normalization::FullProduct`] denominator.
    pub prob_sum: f64,
}

/// Per-sequence cached kernel result, keyed by the window-clipped
/// sequence of [`SetRef`]s.
#[derive(Debug, Clone)]
pub struct SeqEntry {
    /// The sequence's possible semantic locations (sorted,
    /// deduplicated).
    pub psls: Vec<SLocId>,
    /// The contribution against the context's **full** query set, or
    /// `None` when PSL pruning against that set meant it was never
    /// computed (the Algorithm 1 line 13 exclusion, cached).
    pub contribution: Option<ObjectContribution>,
}

#[derive(Debug)]
struct MemoState {
    /// Fingerprint of the (query set, kernel config) context the cached
    /// values were computed under; entries are valid only within one
    /// context and the tables self-clear when it changes.
    fingerprint: Option<u64>,
    sets: SetMemo<SetEntry>,
    seqs: SeqMemo<SeqEntry>,
}

/// A shared, strictly bounded kernel memo over one store's interned
/// [`SetRef`]s (see the module docs for the full contract). Interior
/// mutability: lookups take `&self`, so one memo can be shared across
/// the parallel batch drivers' worker threads.
#[derive(Debug)]
pub struct FlowMemo {
    state: Mutex<MemoState>,
}

impl Default for FlowMemo {
    fn default() -> Self {
        Self::new()
    }
}

impl FlowMemo {
    /// A memo with the default byte budget ([`DEFAULT_MEMO_BYTES`]).
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_MEMO_BYTES)
    }

    /// A memo holding at most `max_bytes` of cached payload, split 3:1
    /// between the per-sequence and per-set tables.
    pub fn with_capacity(max_bytes: usize) -> Self {
        let set_bytes = max_bytes / 4;
        let seq_bytes = max_bytes - set_bytes;
        FlowMemo {
            state: Mutex::new(MemoState {
                fingerprint: None,
                sets: SetMemo::new(set_bytes),
                seqs: SeqMemo::new(seq_bytes),
            }),
        }
    }

    fn lock(&self) -> MutexGuard<'_, MemoState> {
        // A poisoned lock is safe to keep using: every cached value is
        // bit-identical to recomputation, so a panicked writer cannot
        // have left a value-corrupting half-state (inserts are
        // single-call atomic under the lock).
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Drops every cached entry and forgets the context fingerprint.
    /// The serve engine calls this on its deterministic query-union
    /// cache reset; batch callers may call it between unrelated runs.
    pub fn invalidate(&self) {
        let mut st = self.lock();
        st.fingerprint = None;
        st.sets.clear();
        st.seqs.clear();
    }

    /// Combined accounting of both tables — fold into a store's stats
    /// with `StoreStats::with_memo` so memo bytes are charged against
    /// the same footprint budget as the log.
    pub fn stats(&self) -> MemoStats {
        let st = self.lock();
        st.sets.stats().merge(st.seqs.stats())
    }

    /// The memoized [`crate::object_flow_contributions_for`]: one
    /// object's contribution restricted to `locs` (sorted, a subset of
    /// `query_set`), served from the per-sequence table when the
    /// window-clipped `key` has been evaluated before under the same
    /// context, computed (outside the lock) and cached otherwise.
    ///
    /// `key[i]` must be the interned handle of `sets[i]`, both in
    /// window-clipped record order. Returns `Ok(None)` exactly when the
    /// unmemoized kernel would (PSL-pruned under `use_reduction`), and
    /// every returned score is bit-identical to the unmemoized one.
    pub fn contributions(
        &self,
        space: &IndoorSpace,
        key: &[SetRef],
        sets: &[&SampleSet],
        locs: &[SLocId],
        query_set: &QuerySet,
        cfg: &FlowConfig,
    ) -> Result<Option<ObjectContribution>, FlowError> {
        debug_assert_eq!(key.len(), sets.len());
        let fp = context_fingerprint(query_set, cfg);
        {
            let mut st = self.lock();
            ensure_context(&mut st, fp);
            if let Some(entry) = st.seqs.get(key) {
                if let Some(served) = serve_entry(&entry, locs, query_set, cfg) {
                    return Ok(served);
                }
                // A prune marker that no longer prunes cannot arise
                // within one context; recompute below for robustness.
            }
        }
        // Miss: compute outside the lock. Racing writers duplicate
        // work but produce identical bits; the first insert wins.
        let (psls, contribution) =
            contributions_with_psls(space, sets.iter().copied(), query_set, cfg)?;
        let served = contribution.as_ref().map(|full| slice_to(full, locs));
        let entry = SeqEntry { psls, contribution };
        let bytes = seq_entry_bytes(&entry);
        let mut st = self.lock();
        ensure_context(&mut st, fp);
        st.seqs.insert(key, Arc::new(entry), bytes);
        Ok(served)
    }

    /// Read-only lookup of the per-sequence entry for `key` under the
    /// `(query_set, cfg)` context — the Best-First drivers use this to
    /// reuse contributions another engine populated, without paying the
    /// write path (they never materialize full contributions
    /// themselves). Counts a hit or miss; never inserts.
    pub fn lookup(
        &self,
        key: &[SetRef],
        query_set: &QuerySet,
        cfg: &FlowConfig,
    ) -> Option<Arc<SeqEntry>> {
        let fp = context_fingerprint(query_set, cfg);
        let mut st = self.lock();
        ensure_context(&mut st, fp);
        st.seqs.get(key)
    }

    /// The memoized [`crate::reduction::scan_psls`]: concatenates the
    /// per-set cached PSL lists (computing and caching any missing one)
    /// and sort-deduplicates — identical output to the unmemoized scan,
    /// since deduplicating a union of deduplicated per-set lists equals
    /// deduplicating the raw concatenation. Infallible, like the scan
    /// it replaces.
    pub fn scan_psls(
        &self,
        space: &IndoorSpace,
        key: &[SetRef],
        sets: &[&SampleSet],
    ) -> Vec<SLocId> {
        debug_assert_eq!(key.len(), sets.len());
        let mut psls: Vec<SLocId> = Vec::new();
        for (&set_ref, &set) in key.iter().zip(sets) {
            psls.extend_from_slice(&self.set_entry(space, set_ref, set).psls);
        }
        psls.sort_unstable();
        psls.dedup();
        psls
    }

    /// The memoized [`crate::paths::full_product_mass`] over a **raw**
    /// (unreduced) sequence: the product of cached per-set
    /// [`SetEntry::prob_sum`] factors, in sequence order — identical
    /// operands and order, hence identical bits. (Reduced sequences
    /// change the set list, so their mass rides inside the cached
    /// [`SeqEntry`] contribution instead.)
    pub fn full_product_mass(
        &self,
        space: &IndoorSpace,
        key: &[SetRef],
        sets: &[&SampleSet],
    ) -> f64 {
        debug_assert_eq!(key.len(), sets.len());
        let mut mass = 1.0;
        for (&set_ref, &set) in key.iter().zip(sets) {
            mass *= self.set_entry(space, set_ref, set).prob_sum;
        }
        mass
    }

    /// The per-set entry for `set_ref`, computing and caching it on a
    /// miss. Per-set entries are context-independent (PSLs and mass
    /// depend only on the set and the static space), so no fingerprint
    /// check is needed here.
    fn set_entry(&self, space: &IndoorSpace, set_ref: SetRef, set: &SampleSet) -> Arc<SetEntry> {
        {
            let mut st = self.lock();
            if let Some(entry) = st.sets.get(set_ref) {
                return entry;
            }
        }
        let entry = Arc::new(SetEntry {
            psls: scan_psls(space, std::iter::once(set)),
            prob_sum: set.prob_sum(),
        });
        let bytes =
            std::mem::size_of::<SetEntry>() + entry.psls.len() * std::mem::size_of::<SLocId>();
        let mut st = self.lock();
        st.sets.insert(set_ref, Arc::clone(&entry), bytes);
        entry
    }
}

/// Restricts a cached full-union contribution to one request's `locs`,
/// normalizing the nothing-relevant case to the default contribution —
/// exactly what the unmemoized kernel returns (it never computes, so it
/// never sets `dp_fallback`) when no requested location intersects the
/// PSLs.
fn slice_to(full: &ObjectContribution, locs: &[SLocId]) -> ObjectContribution {
    let sliced = full.sliced(locs);
    if sliced.relevant.is_empty() {
        ObjectContribution::default()
    } else {
        sliced
    }
}

/// Serves a cached entry: re-derives the prune decision from the cached
/// PSLs and slices the cached contribution. Returns `None` (treat as a
/// miss) only for the within-one-context-unreachable combination of a
/// prune marker that no longer prunes.
fn serve_entry(
    entry: &SeqEntry,
    locs: &[SLocId],
    query_set: &QuerySet,
    cfg: &FlowConfig,
) -> Option<Option<ObjectContribution>> {
    if cfg.use_reduction && !query_set.intersects_sorted(&entry.psls) {
        return Some(None);
    }
    entry
        .contribution
        .as_ref()
        .map(|full| Some(slice_to(full, locs)))
}

/// Clears the tables when the computation context changed (different
/// union, engine, normalization, reduction setting, or path budget) —
/// the memoized analogue of the serve engine's cache reset.
fn ensure_context(st: &mut MemoState, fp: u64) {
    if st.fingerprint != Some(fp) {
        if st.fingerprint.is_some() {
            st.sets.clear();
            st.seqs.clear();
        }
        st.fingerprint = Some(fp);
    }
}

/// Hashes everything a cached value depends on: the query-set union and
/// the kernel knobs of [`FlowConfig`]. Deliberately excludes
/// `cfg.exec` (thread counts never change bits) and `cfg.memo` (the
/// toggle itself), so flipping either reuses the cache.
fn context_fingerprint(query_set: &QuerySet, cfg: &FlowConfig) -> u64 {
    let mut h = DefaultHasher::new();
    h.write_usize(query_set.slocs().len());
    for &s in query_set.slocs() {
        h.write_u32(s.0);
    }
    h.write_u8(match cfg.normalization {
        Normalization::FullProduct => 0,
        Normalization::ValidPaths => 1,
    });
    h.write_u8(match cfg.engine {
        PresenceEngine::PathEnumeration => 0,
        PresenceEngine::TransitionDp => 1,
        PresenceEngine::Hybrid => 2,
    });
    h.write_u8(u8::from(cfg.use_reduction));
    h.write_u64(cfg.path_budget);
    h.finish()
}

/// Payload bytes a [`SeqEntry`] is charged for (keys and fixed per-entry
/// overhead are charged by the table itself).
fn seq_entry_bytes(entry: &SeqEntry) -> usize {
    let contribution = entry.contribution.as_ref().map_or(0, |c| {
        c.relevant.len() * std::mem::size_of::<SLocId>()
            + c.scores.len() * std::mem::size_of::<f64>()
    });
    std::mem::size_of::<SeqEntry>()
        + entry.psls.len() * std::mem::size_of::<SLocId>()
        + contribution
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::{object_flow_contributions, object_flow_contributions_for};
    use indoor_iupt::fixtures::paper_table2;
    use indoor_iupt::{TimeInterval, Timestamp};
    use indoor_model::fixtures::paper_figure1;

    fn interval() -> TimeInterval {
        TimeInterval::new(Timestamp::from_secs(1), Timestamp::from_secs(8))
    }

    fn configs() -> Vec<FlowConfig> {
        vec![
            FlowConfig::default(),
            FlowConfig::default().with_dp_engine(),
            FlowConfig::default().without_reduction(),
            FlowConfig::default().with_full_product_normalization(),
        ]
    }

    /// Memoized contributions are bit-identical to the unmemoized
    /// kernel — on the first (miss) call and on every subsequent (hit)
    /// call, across engines, reduction settings, and subset shapes.
    #[test]
    fn memoized_contributions_bit_identical_and_hit() {
        let fig = paper_figure1();
        let mut iupt = paper_table2();
        let union = QuerySet::new(fig.r.to_vec());
        let subsets: Vec<Vec<SLocId>> = vec![
            fig.r.to_vec(),
            vec![fig.r[5]],
            vec![fig.r[0], fig.r[3]],
            vec![],
        ];
        for cfg in configs() {
            let memo = FlowMemo::new();
            for round in 0..2 {
                for seq in iupt.sequences_in(interval()) {
                    let key: Vec<SetRef> = seq.records.iter().map(|r| r.set_ref).collect();
                    let sets: Vec<&SampleSet> = seq.records.iter().map(|r| r.samples).collect();
                    for locs in &subsets {
                        let got = memo
                            .contributions(&fig.space, &key, &sets, locs, &union, &cfg)
                            .unwrap();
                        let want = object_flow_contributions_for(
                            &fig.space,
                            sets.iter().copied(),
                            locs,
                            &union,
                            &cfg,
                        )
                        .unwrap();
                        match (got, want) {
                            (None, None) => {}
                            (Some(g), Some(w)) => {
                                assert_eq!(g.relevant, w.relevant, "cfg {cfg:?} round {round}");
                                assert_eq!(g.dp_fallback, w.dp_fallback);
                                for (a, b) in g.scores.iter().zip(&w.scores) {
                                    assert_eq!(a.to_bits(), b.to_bits(), "cfg {cfg:?}");
                                }
                            }
                            (g, w) => panic!("prune disagreement: {g:?} vs {w:?}"),
                        }
                    }
                }
                if round == 1 {
                    let s = memo.stats();
                    assert!(s.hits > 0, "second round must hit: {s:?}");
                    assert!(s.bytes > 0);
                }
            }
        }
    }

    /// Changing the context (query union or kernel knobs) self-clears
    /// the tables and keeps results correct; `invalidate` does the same
    /// explicitly.
    #[test]
    fn context_change_invalidates() {
        let fig = paper_figure1();
        let mut iupt = paper_table2();
        let memo = FlowMemo::new();
        let cfg = FlowConfig::default();
        let union_a = QuerySet::new(fig.r.to_vec());
        let union_b = QuerySet::new(vec![fig.r[5]]);
        for union in [&union_a, &union_b, &union_a] {
            for seq in iupt.sequences_in(interval()) {
                let key: Vec<SetRef> = seq.records.iter().map(|r| r.set_ref).collect();
                let sets: Vec<&SampleSet> = seq.records.iter().map(|r| r.samples).collect();
                let got = memo
                    .contributions(&fig.space, &key, &sets, union.slocs(), union, &cfg)
                    .unwrap();
                let want = object_flow_contributions(&fig.space, sets.iter().copied(), union, &cfg)
                    .unwrap();
                assert_eq!(got.is_some(), want.is_some());
                if let (Some(g), Some(w)) = (got, want) {
                    for (a, b) in g.scores.iter().zip(&w.scores) {
                        assert_eq!(a.to_bits(), b.to_bits());
                    }
                }
            }
        }
        let before = memo.stats();
        assert!(
            before.invalidations >= 2,
            "two context switches: {before:?}"
        );
        memo.invalidate();
        let after = memo.stats();
        assert_eq!(after.entries, 0);
        assert_eq!(after.bytes, 0);
        assert!(after.invalidations > before.invalidations);
    }

    /// The memoized PSL scan returns exactly what the unmemoized scan
    /// returns, and the memoized full-product mass is bit-identical on
    /// raw sequences.
    #[test]
    fn scan_psls_and_mass_match_unmemoized() {
        let fig = paper_figure1();
        let mut iupt = paper_table2();
        let memo = FlowMemo::new();
        for _ in 0..2 {
            for seq in iupt.sequences_in(interval()) {
                let key: Vec<SetRef> = seq.records.iter().map(|r| r.set_ref).collect();
                let sets: Vec<&SampleSet> = seq.records.iter().map(|r| r.samples).collect();
                let got = memo.scan_psls(&fig.space, &key, &sets);
                let want = scan_psls(&fig.space, sets.iter().copied());
                assert_eq!(got, want, "object {}", seq.oid);
                let got_mass = memo.full_product_mass(&fig.space, &key, &sets);
                let want_mass = crate::paths::full_product_mass(&sets);
                assert_eq!(got_mass.to_bits(), want_mass.to_bits());
            }
        }
        assert!(memo.stats().hits > 0);
    }

    /// A tiny capacity forces eviction but never wrong answers: flows
    /// stay bit-identical while the hit rate drops below 1.
    #[test]
    fn eviction_keeps_answers_bit_identical() {
        let fig = paper_figure1();
        let mut iupt = paper_table2();
        let union = QuerySet::new(fig.r.to_vec());
        let cfg = FlowConfig::default();
        // Big enough for roughly one sequence entry, so the three paper
        // objects keep evicting each other.
        let memo = FlowMemo::with_capacity(700);
        for _ in 0..3 {
            for seq in iupt.sequences_in(interval()) {
                let key: Vec<SetRef> = seq.records.iter().map(|r| r.set_ref).collect();
                let sets: Vec<&SampleSet> = seq.records.iter().map(|r| r.samples).collect();
                let got = memo
                    .contributions(&fig.space, &key, &sets, union.slocs(), &union, &cfg)
                    .unwrap();
                let want =
                    object_flow_contributions(&fig.space, sets.iter().copied(), &union, &cfg)
                        .unwrap();
                assert_eq!(got.is_some(), want.is_some());
                if let (Some(g), Some(w)) = (got, want) {
                    for (a, b) in g.scores.iter().zip(&w.scores) {
                        assert_eq!(a.to_bits(), b.to_bits());
                    }
                }
            }
        }
        let s = memo.stats();
        assert!(s.evictions > 0, "tiny capacity must evict: {s:?}");
        assert!(s.hit_rate() < 1.0);
        assert!(s.bytes <= 700);
    }

    /// The read-only lookup serves populated entries without writing.
    #[test]
    fn lookup_is_read_only() {
        let fig = paper_figure1();
        let mut iupt = paper_table2();
        let union = QuerySet::new(fig.r.to_vec());
        let cfg = FlowConfig::default();
        let memo = FlowMemo::new();
        let seqs = iupt.sequences_in(interval());
        let seq = &seqs[0];
        let key: Vec<SetRef> = seq.records.iter().map(|r| r.set_ref).collect();
        let sets: Vec<&SampleSet> = seq.records.iter().map(|r| r.samples).collect();
        assert!(memo.lookup(&key, &union, &cfg).is_none());
        assert!(
            memo.lookup(&key, &union, &cfg).is_none(),
            "lookup never inserts"
        );
        memo.contributions(&fig.space, &key, &sets, union.slocs(), &union, &cfg)
            .unwrap();
        let entry = memo.lookup(&key, &union, &cfg).expect("populated");
        assert!(!entry.psls.is_empty());
    }
}
