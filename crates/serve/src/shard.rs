//! The shard worker: one thread owning one object-partition of the
//! positioning log, its bucket caches, and the per-advance evaluation of
//! its objects — for every query registered with the engine at once.
//!
//! # Caching scheme
//!
//! Sealed buckets cache per-object state keyed by record *positions* into
//! the shard's append-only log (no sample sets are cloned out of it).
//! There is ONE bucket cache per shard, keyed by `(bucket, object)` and
//! computed against the **union** of all registered queries' location
//! sets: per-bucket per-object contributions are query-independent up to
//! the location subset, so N registered queries share one sealing pass
//! and the coordinator slices the union contributions per query. At
//! advance time each requested window's flow decomposes per object:
//!
//! * an object whose windowed records all fall in **one** bucket
//!   contributes exactly its cached bucket contribution — presence over
//!   the bucket-local subsequence *is* presence over the windowed
//!   sequence, so the cache is exact, not an approximation;
//! * an object whose records **straddle** bucket boundaries has a
//!   non-additive presence (possible paths cross the boundary), so the
//!   worker recomputes it exactly over the full windowed sequence via the
//!   same [`object_flow_contributions`] kernel the batch search uses.
//!
//! Because queries may have different window widths, one advance asks for
//! several windows at once (one per distinct width, all ending at the
//! same sealed bucket): sealing and eviction happen once over the widest
//! window, then each requested window is assembled from the shared
//! caches.
//!
//! # Two evaluation protocols
//!
//! The **eager** protocol ([`ShardWorker::evaluate_multi`]) computes
//! every sealed object's full union contribution at seal time and
//! replies with each requested window's complete contribution list.
//!
//! The **bound-pruned** protocol splits an advance into two phases.
//! [`ShardWorker::advance_bounds_multi`] seals buckets *cheaply*: only
//! each object's record positions and PSL candidate list (`Q∪ ∩ psls`, a
//! scan — no presence computation) are recorded, and the reply carries
//! per-window per-object candidate lists so the coordinator can build
//! COUNT flow bounds per location. [`ShardWorker::evaluate_lazy`] then
//! serves exact per-location contributions lazily, only for the
//! (location, object) pairs no registered query's threshold loop could
//! prune; computed scores are memoized in the bucket caches, so a
//! location evaluated for one query (or one slide) is free for every
//! other query whose window still contains the bucket.
//!
//! # Registration changes
//!
//! [`ShardWorker::set_union`] retargets the shard at a new union set.
//! When the union *grows*, cached contributions and candidate lists are
//! stale (they were computed against the smaller set), so the engine
//! requests a cache reset; the append-only log then re-seals the
//! in-window buckets on the next advance, deterministically — which is
//! why a query registered mid-stream still gets results bit-identical to
//! an engine that held it from the start. A *shrunk* union keeps the
//! caches: they are valid supersets, sliced at merge time.
//!
//! The worker owns no thread of its own: the engine runs one
//! [`ShardWorker`] per shard inside a [`popflow_exec::ShardPool`], whose
//! FIFO job queues give exactly the ordering the protocols rely on — an
//! ingest or registration routed before an advance is always reflected
//! by it.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use indoor_iupt::{Iupt, ObjectId, Record, SampleSet, SetRef, StoreStats, TimeInterval, Timestamp};
use indoor_model::{IndoorSpace, SLocId};
use popflow_core::{
    intersect_sorted, object_flow_contributions, object_flow_contributions_for, scan_psls,
    FlowConfig, FlowError, FlowMemo, ObjectContribution, QuerySet,
};

/// One window's slice of an eager advance reply.
pub(crate) struct WindowEval {
    /// Non-pruned objects in the window with their **union**
    /// contributions, ascending by object id. `Arc` because cached
    /// contributions are shared with the bucket caches across many
    /// advances — a window object costs one refcount bump per slide, not
    /// two `Vec` clones.
    pub contributions: Vec<(ObjectId, Arc<ObjectContribution>)>,
    /// Distinct objects with records in the window (including pruned).
    pub objects_total: usize,
    /// Objects served from a sealed bucket's cache.
    pub cache_hits: usize,
    /// Objects recomputed exactly because their records straddle buckets.
    pub straddlers: usize,
}

/// One shard's answer to an eager advance: one [`WindowEval`] per
/// requested window start, in request order, over caches sealed once.
pub(crate) struct EagerReport {
    pub windows: Vec<WindowEval>,
    /// Presence computations performed during this advance (bucket
    /// sealing + straddlers across all windows), counted per object.
    pub fresh_presence: usize,
    /// The same work counted per (object, location) cell — the unit the
    /// bound-pruned protocol prunes at.
    pub presence_cells: usize,
    /// Footprint/interner accounting of this shard's log, as of this
    /// advance.
    pub store: StoreStats,
    /// First error hit, if any (the report is then partial).
    pub error: Option<FlowError>,
}

/// One window's slice of a phase-1 bounds reply: who is in the window
/// and which union locations each object could contribute to. No
/// presence has been computed yet — sealing was a PSL scan.
pub(crate) struct WindowBounds {
    /// `(oid, Q∪ ∩ psls)` per candidate window object (objects with an
    /// empty candidate list are omitted), ascending by object id.
    pub candidates: Vec<(ObjectId, Vec<SLocId>)>,
    /// Distinct objects with records in the window (including
    /// non-candidates).
    pub objects_total: usize,
    /// Window objects whose records straddle bucket boundaries.
    pub straddlers: usize,
}

/// Phase-1 reply of the bound-pruned advance, one [`WindowBounds`] per
/// requested window start, in request order.
pub(crate) struct BoundsReport {
    pub windows: Vec<WindowBounds>,
    /// Footprint/interner accounting of this shard's log, as of this
    /// advance.
    pub store: StoreStats,
}

/// Phase-2 reply: exact contributions restricted to the requested
/// locations, ascending by object id.
pub(crate) struct EvalReport {
    pub contributions: Vec<(ObjectId, ObjectContribution)>,
    /// (object, location) cells freshly evaluated by this request.
    pub evaluated_cells: usize,
    /// Cells served from lazily-filled caches (evaluated for an earlier
    /// query or slide, for a bucket still in some window).
    pub cached_cells: usize,
    /// Objects that paid at least one fresh presence evaluation in this
    /// request. The coordinator deduplicates across the advance's
    /// requests — an object evaluated for several locations counts once
    /// toward the per-object presence stat.
    pub evaluated_oids: Vec<ObjectId>,
    /// First error hit, if any (the report is then partial).
    pub error: Option<FlowError>,
}

/// One object's sealed state within one bucket.
struct CachedObject {
    /// The object's record positions in the shard log, in time order —
    /// the log is append-only, so positions are stable and the cache
    /// never duplicates sample sets.
    records: Vec<u32>,
    /// Eager sealing: the bucket-local union contribution (`None` when
    /// PSL-pruned). Untouched by the bound-pruned protocol.
    contribution: Option<Arc<ObjectContribution>>,
    /// Cheap sealing: the bucket-local candidate list `Q∪ ∩ psls`,
    /// ascending. Untouched by the eager protocol.
    relevant: Vec<SLocId>,
    /// Bound-pruned protocol: lazily-filled exact per-location scores,
    /// shared by every query whose window contains this bucket.
    scores: HashMap<SLocId, f64>,
    /// Whether a lazy evaluation of this object fell back to the DP
    /// (hybrid engine); sticky, as the fallback is a per-object property.
    dp_fallback: bool,
}

/// Per-bucket cache: every object with records in the bucket.
type BucketCache = BTreeMap<ObjectId, CachedObject>;

/// Where a window object's lazy evaluation state lives for the current
/// bound-pruned advance.
enum WindowSlot {
    /// All records in one sealed bucket: scores memoize in that bucket's
    /// cache and survive across slides (and across queries sharing the
    /// bucket).
    Single(i64),
    /// A bucket straddler: the windowed sequence crosses bucket bounds,
    /// so its lazy scores are only valid for this exact window; they are
    /// still shared by every query using this window width.
    Straddler {
        records: Vec<u32>,
        relevant: Vec<SLocId>,
        scores: HashMap<SLocId, f64>,
        dp_fallback: bool,
    },
}

/// The state owned by one worker thread.
pub(crate) struct ShardWorker {
    space: Arc<IndoorSpace>,
    /// Union of every registered query's location set — the set bucket
    /// caches are computed against.
    union: QuerySet,
    cfg: FlowConfig,
    /// Bucket width in ms — the cache granularity every registered query
    /// shares. Window *lengths* are per-request.
    bucket_millis: i64,
    /// This shard's partition of the positioning log.
    iupt: Iupt,
    /// Sealed buckets by index; evicted once they leave every window.
    buckets: BTreeMap<i64, BucketCache>,
    /// Window maps of the latest `advance_bounds_multi`, keyed by window
    /// start; consulted by `evaluate_lazy`.
    windows: HashMap<i64, BTreeMap<ObjectId, WindowSlot>>,
    /// Bucket-sealing durations, recorded on the worker thread. All
    /// shards share one histogram (the registry hands out clones of the
    /// same storage); `None` when the engine's metrics are off.
    seal_ns: Option<popflow_obs::Histogram>,
    /// Per-shard kernel memo over the shard log's interned `SetRef`s
    /// (`None` when [`FlowConfig::memo`] is off): every presence / PSL /
    /// mass kernel this worker runs goes through it, so a dwelling
    /// object — or a bucket re-sealed after a registration reset — pays
    /// O(1) kernel work after its first evaluation. `SetRef`s are
    /// pool-local, which is why the memo lives here and not on the
    /// coordinator.
    memo: Option<FlowMemo>,
}

impl ShardWorker {
    pub(crate) fn new(
        space: Arc<IndoorSpace>,
        union: QuerySet,
        cfg: FlowConfig,
        bucket_millis: i64,
        seal_ns: Option<popflow_obs::Histogram>,
    ) -> Self {
        assert!(bucket_millis > 0, "bucket width must be positive");
        ShardWorker {
            space,
            union,
            cfg,
            bucket_millis,
            iupt: Iupt::new(),
            buckets: BTreeMap::new(),
            windows: HashMap::new(),
            seal_ns,
            memo: cfg.memo.then(FlowMemo::new),
        }
    }

    /// Appends a run of records (already validated and routed by the
    /// engine, in stream order) to this shard's partition of the
    /// positioning log.
    ///
    /// The log keeps *copies* made here, on the shard's own thread, and
    /// the run — allocated by whoever decoded it — is freed in one piece
    /// afterwards. Moved in instead, the sets the log retains would stay
    /// scattered, one small allocation at a time, through the decoding
    /// threads' allocator arenas; copied, they sit together in the
    /// shard's own. Measured on the wire workloads: 40–65 MiB less peak
    /// RSS and faster advances, for one short-lived allocation per
    /// record. The order matters: copying and freeing record by record
    /// changes nothing, because the allocator hands the chunk just freed
    /// straight back for the next copy.
    pub(crate) fn ingest(&mut self, run: Vec<Record>) {
        self.iupt.extend(run.iter().cloned());
    }

    /// A copy of this shard's partition of the positioning log.
    pub(crate) fn log(&self) -> Iupt {
        self.iupt.clone()
    }

    /// Footprint/interner accounting of this shard's log — with the
    /// kernel memo's bytes and hit/miss counters folded in, so the
    /// engine's footprint gauges charge cache growth against the same
    /// budget as the log — on demand, letting the engine refresh its
    /// store gauges without an advance.
    pub(crate) fn store_stats(&self) -> StoreStats {
        let stats = self.iupt.store_stats();
        match &self.memo {
            Some(memo) => stats.with_memo(memo.stats()),
            None => stats,
        }
    }

    /// Retargets the shard at a new union of registered location sets.
    /// `reset` drops every cache (required when the union grew — cached
    /// contributions and candidate lists would be missing the new
    /// locations); the next advance re-seals from the append-only log.
    pub(crate) fn set_union(&mut self, union: QuerySet, reset: bool) {
        self.union = union;
        if reset {
            self.buckets.clear();
            self.windows.clear();
            // The memo's context fingerprint would self-clear on the
            // next lookup anyway (it hashes the union); invalidating
            // here releases the stale entries' bytes immediately,
            // mirroring the bucket-cache reset.
            if let Some(memo) = &self.memo {
                memo.invalidate();
            }
        }
    }

    /// The closed time interval covered by bucket `b` (the same
    /// arithmetic as [`popflow_core::WindowSpec::bucket_interval`]).
    fn bucket_interval(&self, b: i64) -> TimeInterval {
        TimeInterval::new(
            Timestamp(b * self.bucket_millis),
            Timestamp((b + 1) * self.bucket_millis - 1),
        )
    }

    /// Seals buckets once through `window_end`, evicts everything before
    /// `global_start` (the widest window's start), then assembles one
    /// eager contribution list per requested window (the eager protocol).
    pub(crate) fn evaluate_multi(
        &mut self,
        global_start: i64,
        window_end: i64,
        window_starts: &[i64],
    ) -> EagerReport {
        let mut report = EagerReport {
            windows: Vec::with_capacity(window_starts.len()),
            fresh_presence: 0,
            presence_cells: 0,
            store: self.store_stats(),
            error: None,
        };

        let seal_timer = self.seal_ns.is_some().then(popflow_obs::Timer::start);
        let sealed = self.seal_range(
            global_start,
            window_end,
            true,
            &mut report.fresh_presence,
            &mut report.presence_cells,
        );
        if let (Some(timer), Some(hist)) = (seal_timer, &self.seal_ns) {
            timer.record_into(hist);
        }
        if let Err(e) = sealed {
            report.error = Some(e);
            return report;
        }
        // Buckets that slid out of every window are never consulted
        // again.
        self.buckets.retain(|&b, _| b >= global_start);

        for &window_start in window_starts {
            debug_assert!(window_start >= global_start);
            let presence = self.window_presence(window_start, window_end);
            let mut win = WindowEval {
                contributions: Vec::new(),
                objects_total: presence.len(),
                cache_hits: 0,
                straddlers: 0,
            };
            for (&oid, &(first_bucket, bucket_count)) in &presence {
                if bucket_count == 1 {
                    win.cache_hits += 1;
                    let Some(cached) = self
                        .buckets
                        .get(&first_bucket)
                        .and_then(|cache| cache.get(&oid))
                    else {
                        report.error = Some(FlowError::EngineUnavailable {
                            detail: format!(
                                "shard bucket cache lost bucket {first_bucket} object {oid} \
                                 between presence scan and evaluation"
                            ),
                        });
                        report.windows.push(win);
                        return report;
                    };
                    if let Some(contribution) = &cached.contribution {
                        win.contributions.push((oid, Arc::clone(contribution)));
                    }
                } else {
                    // The windowed sequence is the concatenation of the
                    // object's cached bucket slices (buckets ascend, each
                    // slice is time-ordered): recompute it exactly. Done
                    // per requested window — the windowed sequences
                    // differ — but shared by every query of that width.
                    win.straddlers += 1;
                    let ShardWorker {
                        space,
                        union,
                        cfg,
                        iupt,
                        buckets,
                        memo,
                        ..
                    } = self;
                    let log: &Iupt = iupt;
                    let records: Vec<u32> = buckets
                        .range(first_bucket..=window_end)
                        .filter_map(|(_, cache)| cache.get(&oid))
                        .flat_map(|cached| cached.records.iter().copied())
                        .collect();
                    match kernel_contributions(
                        space,
                        log,
                        memo.as_ref(),
                        &records,
                        None,
                        union,
                        cfg,
                    ) {
                        Ok(Some(contribution)) => {
                            report.fresh_presence += 1;
                            report.presence_cells += contribution.relevant.len();
                            win.contributions.push((oid, Arc::new(contribution)));
                        }
                        // PSL-pruned over the full window: no presence
                        // was computed, matching the batch
                        // `objects_computed` accounting.
                        Ok(None) => {}
                        Err(e) => {
                            report.error = Some(e);
                            report.windows.push(win);
                            return report;
                        }
                    }
                }
            }
            win.contributions.sort_unstable_by_key(|(oid, _)| *oid);
            report.windows.push(win);
        }
        report
    }

    /// Bound-pruned phase 1: cheap sealing, eviction, and candidate
    /// assembly per requested window. Performs no presence computation
    /// at all.
    pub(crate) fn advance_bounds_multi(
        &mut self,
        global_start: i64,
        window_end: i64,
        window_starts: &[i64],
    ) -> BoundsReport {
        let (mut fresh, mut cells) = (0, 0);
        let seal_timer = self.seal_ns.is_some().then(popflow_obs::Timer::start);
        // anlz:allow(panic-in-hot-path): statically infallible — with eager=false, seal_range's only fallible call (the presence kernel) is never reached
        self.seal_range(global_start, window_end, false, &mut fresh, &mut cells)
            .expect("cheap sealing performs no fallible merge or presence work");
        if let (Some(timer), Some(hist)) = (seal_timer, &self.seal_ns) {
            timer.record_into(hist);
        }
        debug_assert_eq!((fresh, cells), (0, 0));
        self.buckets.retain(|&b, _| b >= global_start);

        let mut report = BoundsReport {
            windows: Vec::with_capacity(window_starts.len()),
            store: self.store_stats(),
        };
        self.windows.clear();
        for &window_start in window_starts {
            debug_assert!(window_start >= global_start);
            let presence = self.window_presence(window_start, window_end);
            let objects_total = presence.len();
            let mut straddlers = 0;
            let mut candidates = Vec::new();
            let mut slots: BTreeMap<ObjectId, WindowSlot> = BTreeMap::new();
            for (&oid, &(first_bucket, bucket_count)) in &presence {
                if bucket_count == 1 {
                    // anlz:allow(panic-in-hot-path): presence was built from these exact buckets above, with no mutation in between
                    let relevant = self.buckets[&first_bucket][&oid].relevant.clone();
                    if !relevant.is_empty() {
                        candidates.push((oid, relevant));
                    }
                    slots.insert(oid, WindowSlot::Single(first_bucket));
                } else {
                    straddlers += 1;
                    // The window-level PSL set is the union of the bucket
                    // PSL sets (PSLs come from raw record support), so
                    // the candidate list is the union of the cached ones.
                    let mut records = Vec::new();
                    let mut relevant: Vec<SLocId> = Vec::new();
                    for (_, cache) in self.buckets.range(first_bucket..=window_end) {
                        if let Some(cached) = cache.get(&oid) {
                            records.extend_from_slice(&cached.records);
                            relevant = union_sorted(&relevant, &cached.relevant);
                        }
                    }
                    if !relevant.is_empty() {
                        candidates.push((oid, relevant.clone()));
                    }
                    slots.insert(
                        oid,
                        WindowSlot::Straddler {
                            records,
                            relevant,
                            scores: HashMap::new(),
                            dp_fallback: false,
                        },
                    );
                }
            }
            candidates.sort_unstable_by_key(|(oid, _)| *oid);
            self.windows.insert(window_start, slots);
            report.windows.push(WindowBounds {
                candidates,
                objects_total,
                straddlers,
            });
        }
        report
    }

    /// Bound-pruned phase 2: exact contributions for `oids` within the
    /// window starting at `window_start`, restricted to `slocs` (sorted).
    /// Fresh scores are computed through the same per-object kernel as
    /// everything else and memoized — in the bucket cache for
    /// single-bucket objects (shared across queries and slides), in the
    /// window slot for straddlers (shared across queries of this window
    /// width on this slide).
    pub(crate) fn evaluate_lazy(
        &mut self,
        window_start: i64,
        slocs: &[SLocId],
        oids: &[ObjectId],
    ) -> EvalReport {
        let mut report = EvalReport {
            contributions: Vec::with_capacity(oids.len()),
            evaluated_cells: 0,
            cached_cells: 0,
            evaluated_oids: Vec::new(),
            error: None,
        };
        let ShardWorker {
            space,
            union,
            cfg,
            iupt,
            buckets,
            windows,
            memo,
            ..
        } = self;
        let Some(window) = windows.get_mut(&window_start) else {
            report.error = Some(FlowError::EngineUnavailable {
                detail: format!("evaluate requested unknown window start {window_start}"),
            });
            return report;
        };
        let log: &Iupt = iupt;
        for &oid in oids {
            let Some(slot) = window.get_mut(&oid) else {
                report.error = Some(FlowError::EngineUnavailable {
                    detail: format!("evaluate requested unknown window object {oid}"),
                });
                return report;
            };
            let (records, relevant, scores, dp_fallback) = match slot {
                WindowSlot::Single(b) => {
                    let Some(cached) = buckets.get_mut(b).and_then(|cache| cache.get_mut(&oid))
                    else {
                        report.error = Some(FlowError::EngineUnavailable {
                            detail: format!(
                                "window slot for object {oid} points at bucket {b}, which is \
                                 no longer sealed in this shard"
                            ),
                        });
                        return report;
                    };
                    let CachedObject {
                        records,
                        relevant,
                        scores,
                        dp_fallback,
                        ..
                    } = cached;
                    (&*records, &*relevant, scores, dp_fallback)
                }
                WindowSlot::Straddler {
                    records,
                    relevant,
                    scores,
                    dp_fallback,
                } => (&*records, &*relevant, scores, dp_fallback),
            };
            let requested = intersect_sorted(slocs, relevant);
            let missing: Vec<SLocId> = requested
                .iter()
                .copied()
                .filter(|q| !scores.contains_key(q))
                .collect();
            report.cached_cells += requested.len() - missing.len();
            if !missing.is_empty() {
                report.evaluated_oids.push(oid);
                match kernel_contributions(
                    space,
                    log,
                    memo.as_ref(),
                    records,
                    Some(&missing),
                    union,
                    cfg,
                ) {
                    Ok(contribution) => {
                        if let Some(c) = &contribution {
                            report.evaluated_cells += c.relevant.len();
                            *dp_fallback = *dp_fallback || c.dp_fallback;
                            for (q, s) in c.relevant.iter().zip(&c.scores) {
                                scores.insert(*q, *s);
                            }
                        }
                        // Requested locations the kernel did not score
                        // (unreachable for candidates; defensive) are 0.
                        for q in &missing {
                            scores.entry(*q).or_insert(0.0);
                        }
                    }
                    Err(e) => {
                        report.error = Some(e);
                        return report;
                    }
                }
            }
            // Every requested location was either cached or zero-filled
            // above, so a miss can only mean the fill was skipped —
            // default to 0.0 (pruned) rather than panicking mid-serve.
            let values: Vec<f64> = requested
                .iter()
                .map(|q| scores.get(q).copied().unwrap_or(0.0))
                .collect();
            report.contributions.push((
                oid,
                ObjectContribution {
                    relevant: requested,
                    scores: values,
                    dp_fallback: *dp_fallback,
                },
            ));
        }
        report.contributions.sort_unstable_by_key(|(oid, _)| *oid);
        report
    }

    /// Which buckets of the window does each object appear in? Most
    /// objects appear in exactly one, so track (first bucket, bucket
    /// count) instead of materializing per-object bucket lists.
    ///
    /// Ordered map on purpose: callers iterate this to build shard
    /// replies, and with a `HashMap` the *first* straddler error (and
    /// every per-object side effect) would depend on hash order — the
    /// exact nondeterminism `popflow-anlz` exists to reject.
    fn window_presence(
        &self,
        window_start: i64,
        window_end: i64,
    ) -> BTreeMap<ObjectId, (i64, u32)> {
        let mut presence: BTreeMap<ObjectId, (i64, u32)> = BTreeMap::new();
        for (&b, cache) in self.buckets.range(window_start..=window_end) {
            for &oid in cache.keys() {
                presence
                    .entry(oid)
                    .and_modify(|e| e.1 += 1)
                    .or_insert((b, 1));
            }
        }
        presence
    }

    /// Seals every not-yet-sealed bucket in `[window_start, window_end]`.
    /// Buckets before `window_start` are skipped — every window has
    /// already moved past them. Re-sealing after a registration reset is
    /// just this same path over the append-only log, which is what makes
    /// mid-stream registration deterministic.
    ///
    /// `eager` sealing computes and caches full union contributions
    /// (counting them into `fresh`/`cells`); cheap sealing records only
    /// positions and PSL candidate lists, deferring all presence work to
    /// [`ShardWorker::evaluate_lazy`].
    fn seal_range(
        &mut self,
        window_start: i64,
        window_end: i64,
        eager: bool,
        fresh: &mut usize,
        cells: &mut usize,
    ) -> Result<(), FlowError> {
        for b in window_start..=window_end {
            if self.buckets.contains_key(&b) {
                continue;
            }
            let interval = self.bucket_interval(b);
            let positions = self.iupt.sequence_positions_in(interval);
            let mut cache: BucketCache = BTreeMap::new();
            for (oid, records) in positions {
                let log = &self.iupt;
                let cached = if eager {
                    let contribution = kernel_contributions(
                        &self.space,
                        log,
                        self.memo.as_ref(),
                        &records,
                        None,
                        &self.union,
                        &self.cfg,
                    )?
                    .map(Arc::new);
                    // PSL-pruned objects performed no presence
                    // computation — count like the batch search's
                    // `objects_computed`.
                    *fresh += usize::from(contribution.is_some());
                    if let Some(c) = &contribution {
                        *cells += c.relevant.len();
                    }
                    CachedObject {
                        records,
                        contribution,
                        relevant: Vec::new(),
                        scores: HashMap::new(),
                        dp_fallback: false,
                    }
                } else {
                    // Cheap sealing stays infallible under the memo too:
                    // the memoized scan caches per-set PSL lists and
                    // never computes presence.
                    let psls = match &self.memo {
                        Some(memo) => {
                            let key: Vec<SetRef> =
                                records.iter().map(|&i| log.set_ref_at(i)).collect();
                            let sets: Vec<&SampleSet> =
                                records.iter().map(|&i| log.samples_at(i)).collect();
                            memo.scan_psls(&self.space, &key, &sets)
                        }
                        None => scan_psls(&self.space, records.iter().map(|&i| log.samples_at(i))),
                    };
                    CachedObject {
                        records,
                        contribution: None,
                        relevant: self.union.intersection_sorted(&psls),
                        scores: HashMap::new(),
                        dp_fallback: false,
                    }
                };
                cache.insert(oid, cached);
            }
            self.buckets.insert(b, cache);
        }
        Ok(())
    }
}

/// One object's contribution over its record positions in the shard
/// log — served through the shard's kernel memo (keyed by the records'
/// interned [`SetRef`]s) when one is attached, straight through the
/// batch kernels otherwise. `locs` restricts the scored locations
/// (`None` means the full union). Both paths return bit-identical
/// contributions (the memo contract), so callers never branch on
/// results.
fn kernel_contributions(
    space: &IndoorSpace,
    log: &Iupt,
    memo: Option<&FlowMemo>,
    records: &[u32],
    locs: Option<&[SLocId]>,
    union: &QuerySet,
    cfg: &FlowConfig,
) -> Result<Option<ObjectContribution>, FlowError> {
    match memo {
        Some(memo) => {
            let key: Vec<SetRef> = records.iter().map(|&i| log.set_ref_at(i)).collect();
            let sets: Vec<&SampleSet> = records.iter().map(|&i| log.samples_at(i)).collect();
            memo.contributions(
                space,
                &key,
                &sets,
                locs.unwrap_or_else(|| union.slocs()),
                union,
                cfg,
            )
        }
        None => {
            let sets = records.iter().map(|&i| log.samples_at(i));
            match locs {
                Some(locs) => object_flow_contributions_for(space, sets, locs, union, cfg),
                None => object_flow_contributions(space, sets, union, cfg),
            }
        }
    }
}

/// Union of two sorted, deduplicated `SLocId` slices, ascending.
fn union_sorted(a: &[SLocId], b: &[SLocId]) -> Vec<SLocId> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        // anlz:allow(panic-in-hot-path): i/j bounded by the loop condition
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => {
                out.push(a[i]); // anlz:allow(panic-in-hot-path): i bounded by the loop condition
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                out.push(b[j]); // anlz:allow(panic-in-hot-path): j bounded by the loop condition
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                out.push(a[i]); // anlz:allow(panic-in-hot-path): i bounded by the loop condition
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}
