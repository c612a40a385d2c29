//! The shard worker: one thread owning one object-partition of the
//! positioning log, its bucket caches, and the per-advance evaluation of
//! its objects — for every query registered with the engine at once.
//!
//! # Caching scheme
//!
//! Sealed buckets hold, per object, the record *positions* into the
//! shard's append-only log that fall in the bucket (no sample sets are
//! cloned out of it). There is ONE set of buckets per shard, shared by
//! every registered query, and everything computed from them is computed
//! against the **union** of all registered queries' location sets:
//! per-object contributions are query-independent up to the location
//! subset, so N registered queries share one evaluation and the
//! coordinator slices the union contributions per query.
//!
//! A window's flow decomposes per object, and an object's windowed
//! sequence is the concatenation of its sealed bucket slices from its
//! first in-window bucket to its last — its **span**. The shard keeps
//! one compute cache, from `(object, first bucket, last bucket)` to the
//! object's contribution over that span (see [`ShardWorker::spans`] for
//! why the key determines the content). Every window object is looked
//! up by its span:
//!
//! * a **hit** costs one refcount bump — an object the slide neither gave
//!   a record nor took one from is served as it was last slide, whether
//!   its records sit in one bucket or cross several;
//! * a **miss** — the slide's newest bucket holds a record of the object,
//!   or the slide truncated its oldest one — evaluates the span once,
//!   exactly, through the same [`object_flow_contributions`] kernel the
//!   batch search uses, and caches it. The key carries no window width,
//!   so queries of different widths share every span that does not touch
//!   their own trailing edge.
//!
//! [`ShardWorker::evaluate_span`] is the one place the shard calls the
//! kernel.
//!
//! The trailing edge is known one slide ahead: an object in a window's
//! oldest bucket loses that bucket on the next slide, and what remains of
//! it is sealed history. After each advance the engine hands the shard
//! [`ShardWorker::evaluate_ahead`], which evaluates those spans into
//! the cache while the shard would otherwise sit idle, so the next
//! advance finds them and pays first-time work for the leading edge only.
//!
//! Because queries may have different window widths, one advance asks for
//! several windows at once (one per distinct width, all ending at the
//! same sealed bucket): sealing and eviction happen once over the widest
//! window, then each requested window is assembled from the shared
//! buckets and spans.
//!
//! # The evaluation protocol
//!
//! One request per advance ([`ShardWorker::evaluate_multi`]) seals
//! buckets by grouping record positions — no kernel call — and replies
//! with each requested window's complete contribution list, assembled
//! from the span cache as above; one `tell` after it
//! ([`ShardWorker::evaluate_ahead`]) fills the cache for the next slide.
//!
//! # Registration changes
//!
//! [`ShardWorker::set_union`] retargets the shard at a new union set.
//! When the union *grows*, cached spans are stale (they were computed
//! against the smaller set), so the engine requests a cache reset;
//! the append-only log then re-seals the in-window
//! buckets on the next advance and every span is evaluated afresh,
//! deterministically — which is why a query registered mid-stream still
//! gets results bit-identical to an engine that held it from the start.
//! A *shrunk* union keeps the caches: they are valid supersets, sliced
//! at merge time.
//!
//! The worker owns no thread of its own: the engine runs one
//! [`ShardWorker`] per shard inside a [`popflow_exec::ShardPool`], whose
//! FIFO job queues give exactly the ordering the protocol relies on — an
//! ingest or registration routed before an advance is always reflected
//! by it.

use std::collections::BTreeMap;
use std::sync::Arc;

use indoor_iupt::{Iupt, ObjectId, Record, StoreStats, TimeInterval, Timestamp};
use indoor_model::IndoorSpace;
use popflow_core::{
    object_flow_contributions, FlowConfig, FlowError, ObjectContribution, QuerySet,
};

/// One window's slice of an advance reply.
pub(crate) struct WindowEval {
    /// Non-pruned objects in the window with their **union**
    /// contributions, ascending by object id. `Arc` because the
    /// contributions are shared with the span cache across many advances
    /// — a window object costs one refcount bump per slide, not two
    /// `Vec` clones.
    pub contributions: Vec<(ObjectId, Arc<ObjectContribution>)>,
    /// Distinct objects with records in the window (including pruned).
    pub objects_total: usize,
}

/// Span evaluations performed — the work a report carries.
#[derive(Default)]
pub(crate) struct SpanWork {
    /// Spans that paid a presence computation (PSL-pruned spans paid
    /// none and are not counted — like the batch search's
    /// `objects_computed`).
    pub fresh_presence: usize,
    /// The same work counted per (object, location) cell: the union
    /// locations each evaluated span's contribution covers.
    pub presence_cells: usize,
    /// Evaluated spans that cross a bucket boundary.
    pub straddlers: usize,
}

/// One shard's answer to an advance: one [`WindowEval`] per
/// requested window start, in request order, over buckets sealed once.
pub(crate) struct EagerReport {
    pub windows: Vec<WindowEval>,
    /// Window objects, summed over the requested windows, served from
    /// the span cache.
    pub cache_hits: usize,
    /// Spans evaluated since the previous report: this advance's misses
    /// plus whatever [`ShardWorker::evaluate_ahead`] evaluated after the
    /// previous advance — each distinct span once, not once per slide it
    /// stays in a window.
    pub work: SpanWork,
    /// Footprint/interner accounting of this shard's log, as of this
    /// advance.
    pub store: StoreStats,
    /// First error hit, if any (the report is then partial).
    pub error: Option<FlowError>,
}

/// Per-bucket cache: every object with records in the bucket, with its
/// record positions in the shard log, in time order — the log is
/// append-only, so positions are stable and the cache never duplicates
/// sample sets.
type BucketCache = BTreeMap<ObjectId, Vec<u32>>;

/// `(object, first bucket, last bucket)`: an object's records in every
/// sealed bucket from the first to the last, both of which hold at least
/// one of them.
type SpanKey = (ObjectId, i64, i64);

/// One evaluated span.
struct SpanEntry {
    /// The object's union contribution over the span (`None` when
    /// PSL-pruned — a result worth caching like any other).
    contribution: Option<Arc<ObjectContribution>>,
    /// The generation of the advance that last asked for the span; one
    /// past the running generation for a span evaluated ahead of the
    /// advance that will ask for it.
    asked: u64,
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
    /// The shard's one contribution cache.
    ///
    /// **Key ⇒ content, while the union is unchanged.** Sealed buckets
    /// are immutable and log positions stable, so the records of
    /// `(object, first, last)` — the object's slices of every sealed
    /// bucket in `first..=last` — never change once `last` is sealed, and
    /// the contribution is a pure function of those records and the
    /// union. A union that grows clears the map
    /// ([`ShardWorker::set_union`]); one that shrinks leaves valid
    /// supersets.
    ///
    /// **An untouched key is dead.** Every window ends at the sealed
    /// frontier and window starts only move forward, so a window object's
    /// key changes exactly when the frontier gives it a record (`last`
    /// moves) or a window start passes its first bucket (`first` moves),
    /// and neither ever moves back. A key the latest advance did not ask
    /// for can therefore only be asked for again by a wider query
    /// registered later, which simply evaluates it again — a miss costs
    /// time, never correctness — so every advance stamps the span of
    /// each window object it sees and drops every entry whose
    /// [`SpanEntry::asked`] is older than itself. The map stays bounded
    /// by window objects × distinct widths plus what
    /// [`ShardWorker::evaluate_ahead`] stamped for the next advance.
    spans: BTreeMap<SpanKey, SpanEntry>,
    /// Counts advances; what [`SpanEntry::asked`] is measured in.
    generation: u64,
    /// Span evaluations no report has carried yet. A reply drains it;
    /// what [`ShardWorker::evaluate_ahead`] does waits here for the next
    /// report — so every span evaluated is reported exactly once, with
    /// the advance it was evaluated for.
    unreported: SpanWork,
    /// Bucket-sealing durations, recorded on the worker thread. All
    /// shards share one histogram (the registry hands out clones of the
    /// same storage); `None` when the engine's metrics are off.
    seal_ns: Option<popflow_obs::Histogram>,
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
            spans: BTreeMap::new(),
            generation: 0,
            unreported: SpanWork::default(),
            seal_ns,
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

    /// Footprint/interner accounting of this shard's log, on demand,
    /// letting the engine refresh its store gauges without an advance.
    pub(crate) fn store_stats(&self) -> StoreStats {
        self.iupt.store_stats()
    }

    /// Retargets the shard at a new union of registered location sets.
    /// `reset` drops every cache (required when the union grew — cached
    /// contributions would be missing the new locations); the next
    /// advance re-seals from the append-only log.
    pub(crate) fn set_union(&mut self, union: QuerySet, reset: bool) {
        self.union = union;
        if reset {
            self.buckets.clear();
            self.spans.clear();
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
    /// contribution list per requested window from the span cache: one
    /// lookup per window object, one kernel call per miss.
    pub(crate) fn evaluate_multi(
        &mut self,
        global_start: i64,
        window_end: i64,
        window_starts: &[i64],
    ) -> EagerReport {
        self.generation += 1;
        let generation = self.generation;
        let store = self.store_stats();
        let mut windows = Vec::with_capacity(window_starts.len());
        let mut cache_hits = 0;
        let mut error = None;

        self.seal_range(global_start, window_end);
        // Buckets that slid out of every window are never consulted
        // again.
        self.buckets.retain(|&b, _| b >= global_start);

        'windows: for &window_start in window_starts {
            debug_assert!(window_start >= global_start);
            let presence = self.window_presence(window_start, window_end);
            let mut win = WindowEval {
                contributions: Vec::with_capacity(presence.len()),
                objects_total: presence.len(),
            };
            for (&oid, &(first, last)) in &presence {
                let key = (oid, first, last);
                let contribution = match self.spans.get_mut(&key) {
                    Some(entry) => {
                        entry.asked = generation;
                        cache_hits += 1;
                        entry.contribution.clone()
                    }
                    None => match self.evaluate_span(key, generation) {
                        Ok(contribution) => contribution,
                        Err(e) => {
                            error = Some(e);
                            windows.push(win);
                            break 'windows;
                        }
                    },
                };
                // PSL-pruned over the span: contributes nothing.
                if let Some(contribution) = contribution {
                    win.contributions.push((oid, contribution));
                }
            }
            // `presence` iterates in key order.
            debug_assert!(win.contributions.is_sorted_by(|a, b| a.0 < b.0));
            windows.push(win);
        }
        // See the invariant on `spans`: what this advance did not ask
        // for is dead.
        self.spans.retain(|_, entry| entry.asked >= generation);
        EagerReport {
            windows,
            cache_hits,
            work: std::mem::take(&mut self.unreported),
            store,
            error,
        }
    }

    /// Evaluates one span exactly against the whole union and caches
    /// it, stamped `asked` — the shard's one kernel call. The span's
    /// sequence is the concatenation of the object's cached bucket
    /// slices (buckets ascend, each slice is time-ordered). A kernel
    /// error caches nothing.
    fn evaluate_span(
        &mut self,
        key: SpanKey,
        asked: u64,
    ) -> Result<Option<Arc<ObjectContribution>>, FlowError> {
        let (oid, first, last) = key;
        let log = &self.iupt;
        let sets = self
            .buckets
            .range(first..=last)
            .filter_map(|(_, cache)| cache.get(&oid))
            .flat_map(|records| records.iter().map(|&i| log.samples_at(i)));
        let contribution =
            object_flow_contributions(&self.space, sets, &self.union, &self.cfg)?.map(Arc::new);
        self.unreported.straddlers += usize::from(first != last);
        if let Some(c) = &contribution {
            self.unreported.fresh_presence += 1;
            self.unreported.presence_cells += c.relevant.len();
        }
        self.spans.insert(
            key,
            SpanEntry {
                contribution: contribution.clone(),
                asked,
            },
        );
        Ok(contribution)
    }

    /// The spans the next one-bucket slide will truncate, evaluated
    /// while the shard is idle: an object in a requested window's oldest
    /// bucket loses that bucket next time, and what is left of it — from
    /// the next bucket that holds it to its last — is sealed history.
    /// Called with the plan of the advance that just ended; stamped for
    /// the next one, so the entries outlive that advance's sweep even if
    /// it turns out not to slide (a re-advance at the same instant).
    ///
    /// Changes no result: an object that reports again in the next
    /// bucket has a new `last` and simply misses, and a kernel error
    /// caches nothing — the advance that needs the span meets the same
    /// error itself.
    pub(crate) fn evaluate_ahead(&mut self, window_end: i64, window_starts: &[i64]) {
        let asked = self.generation + 1;
        for &window_start in window_starts {
            // A one-bucket window keeps nothing of itself.
            if window_start >= window_end {
                continue;
            }
            let Some(oldest) = self.buckets.get(&window_start) else {
                continue;
            };
            let truncated: Vec<SpanKey> = oldest
                .keys()
                .filter_map(|&oid| {
                    let mut rest = self
                        .buckets
                        .range(window_start + 1..=window_end)
                        .filter(|(_, cache)| cache.contains_key(&oid))
                        .map(|(&b, _)| b);
                    let first = rest.next()?;
                    Some((oid, first, rest.next_back().unwrap_or(first)))
                })
                .collect();
            for key in truncated {
                match self.spans.get_mut(&key) {
                    Some(entry) => entry.asked = asked,
                    None => {
                        let _ = self.evaluate_span(key, asked);
                    }
                }
            }
        }
    }

    /// Which buckets of the window does each object appear in? Its
    /// span: the first and the last that hold a record of it (most
    /// objects appear in exactly one, so nothing per bucket is kept).
    ///
    /// Ordered map on purpose: callers iterate this to build shard
    /// replies, and with a `HashMap` the *first* evaluation error (and
    /// every per-object side effect) would depend on hash order — the
    /// exact nondeterminism `popflow-anlz` exists to reject.
    fn window_presence(
        &self,
        window_start: i64,
        window_end: i64,
    ) -> BTreeMap<ObjectId, (i64, i64)> {
        let mut presence: BTreeMap<ObjectId, (i64, i64)> = BTreeMap::new();
        for (&b, cache) in self.buckets.range(window_start..=window_end) {
            for &oid in cache.keys() {
                presence
                    .entry(oid)
                    .and_modify(|span| span.1 = b)
                    .or_insert((b, b));
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
    /// Sealing computes no presence: it groups each object's record
    /// positions and nothing else (contributions live in the span cache).
    fn seal_range(&mut self, window_start: i64, window_end: i64) {
        let seal_timer = self.seal_ns.is_some().then(popflow_obs::Timer::start);
        for b in window_start..=window_end {
            if self.buckets.contains_key(&b) {
                continue;
            }
            let interval = self.bucket_interval(b);
            let cache: BucketCache = self
                .iupt
                .sequence_positions_in(interval)
                .into_iter()
                .collect();
            self.buckets.insert(b, cache);
        }
        if let (Some(timer), Some(hist)) = (seal_timer, &self.seal_ns) {
            timer.record_into(hist);
        }
    }
}

#[cfg(test)]
impl ShardWorker {
    /// The slow obvious eager evaluation, kept as the oracle for
    /// [`ShardWorker::evaluate_multi`]: every requested window's
    /// contribution list recomputed from the log — each window object's
    /// records read straight out of the window's time range and handed
    /// to the batch kernel. No buckets, no span cache, nothing carried
    /// from one advance to the next.
    fn reference_evaluate_multi(
        &mut self,
        window_end: i64,
        window_starts: &[i64],
    ) -> Vec<WindowEval> {
        let end = self.bucket_interval(window_end).end;
        window_starts
            .iter()
            .map(|&window_start| {
                let interval = TimeInterval::new(self.bucket_interval(window_start).start, end);
                let sequences = self.iupt.sequences_in(interval);
                let mut win = WindowEval {
                    contributions: Vec::new(),
                    objects_total: sequences.len(),
                };
                for seq in &sequences {
                    let sets = seq.records.iter().map(|r| r.samples);
                    let contribution =
                        object_flow_contributions(&self.space, sets, &self.union, &self.cfg)
                            .expect("reference kernel");
                    if let Some(contribution) = contribution {
                        win.contributions.push((seq.oid, Arc::new(contribution)));
                    }
                }
                win
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use indoor_model::SLocId;
    use indoor_sim::StreamScenario;
    use popflow_core::PresenceEngine;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    use super::*;

    const BUCKET: i64 = 60_000;

    /// A random subset of `all` holding a quarter of it or more.
    fn random_subset(rng: &mut StdRng, all: &[SLocId]) -> QuerySet {
        let mut picked = all.to_vec();
        for i in 0..picked.len() {
            picked.swap(i, rng.gen_range(i..all.len()));
        }
        picked.truncate(rng.gen_range(all.len() / 4 + 1..=all.len()));
        QuerySet::new(picked)
    }

    /// One window's reply in comparable form, restricted to `union`: a
    /// contribution cached before the union shrank is a superset, sliced
    /// at merge time, and one that slices to nothing is an object the
    /// smaller union prunes.
    type Row = (ObjectId, Vec<SLocId>, Vec<u64>, bool);

    fn rows(win: &WindowEval, union: &QuerySet) -> Vec<Row> {
        win.contributions
            .iter()
            .filter_map(|(oid, contribution)| {
                let c = contribution.sliced(union.slocs());
                let bits = c.scores.iter().map(|s| s.to_bits()).collect();
                (!c.relevant.is_empty()).then_some((*oid, c.relevant, bits, c.dp_fallback))
            })
            .collect()
    }

    /// The buckets each object of the window `start..=end` reports in,
    /// recounted from the log's timestamps.
    fn reported(worker: &mut ShardWorker, start: i64, end: i64) -> Vec<(ObjectId, BTreeSet<i64>)> {
        let interval = TimeInterval::new(
            worker.bucket_interval(start).start,
            worker.bucket_interval(end).end,
        );
        let sequences = worker.iupt.sequences_in(interval);
        sequences
            .iter()
            .map(|seq| {
                let buckets = seq.records.iter().map(|r| r.t.millis().div_euclid(BUCKET));
                (seq.oid, buckets.collect())
            })
            .collect()
    }

    /// The span of an object reporting in `buckets`, from bucket `from`
    /// on.
    fn span_from(oid: ObjectId, buckets: &BTreeSet<i64>, from: i64) -> Option<SpanKey> {
        let mut inside = buckets.range(from..);
        let first = *inside.next()?;
        Some((oid, first, *inside.next_back().unwrap_or(&first)))
    }

    /// Each window object's span.
    fn spans_asked(worker: &mut ShardWorker, end: i64, starts: &[i64]) -> BTreeSet<SpanKey> {
        let mut keys = BTreeSet::new();
        for &start in starts {
            for (oid, buckets) in reported(worker, start, end) {
                keys.extend(span_from(oid, &buckets, start));
            }
        }
        keys
    }

    /// What a one-bucket slide leaves of each object in a window's
    /// oldest bucket.
    fn spans_ahead(worker: &mut ShardWorker, end: i64, starts: &[i64]) -> BTreeSet<SpanKey> {
        let mut keys = BTreeSet::new();
        for &start in starts {
            for (oid, buckets) in reported(worker, start, end) {
                if buckets.contains(&start) {
                    keys.extend(span_from(oid, &buckets, start + 1));
                }
            }
        }
        keys
    }

    fn held(worker: &ShardWorker) -> BTreeSet<SpanKey> {
        worker.spans.keys().copied().collect()
    }

    /// Drives one worker through a seeded random schedule of ingest
    /// runs, union changes and advances over 1–3 widths (sliding by one
    /// bucket, by two, or not at all), checking every reply against
    /// [`ShardWorker::reference_evaluate_multi`] and the span map against
    /// the spans the schedule asked for. Advances are followed, most of
    /// the time, by an ahead-of-time job. Returns how many cache hits, DP
    /// fallbacks and cache resets it saw.
    fn drive(seed: u64) -> [usize; 3] {
        let mut rng = StdRng::seed_from_u64(seed);
        let scenario = StreamScenario {
            num_objects: 90,
            duration_secs: 1_500,
            visit_secs: (40, 420),
            destination_skew: 0.8,
            dwell_cache: true,
            seed: seed % 3,
        };
        let (world, stream) = scenario.build();
        let records = stream.to_records();
        let space = Arc::new(world.space);
        let all: Vec<SLocId> = space.slocs().iter().map(|s| s.id).collect();
        let cfg = FlowConfig {
            // A budget some objects exceed and some do not, so
            // `dp_fallback` takes both values.
            engine: [PresenceEngine::TransitionDp, PresenceEngine::Hybrid][(seed % 2) as usize],
            path_budget: 300,
            ..FlowConfig::default()
        };
        let mut union = random_subset(&mut rng, &all);
        let mut worker = ShardWorker::new(Arc::clone(&space), union.clone(), cfg, BUCKET, None);

        let bucket_of = |r: &Record| r.t.millis().div_euclid(BUCKET);
        let last_bucket = bucket_of(records.last().expect("records")) - 1;
        let mut end = bucket_of(&records[0]) - 1;
        let mut next = 0;
        let mut stamped_ahead = BTreeSet::new();
        let mut advances = 0;
        let mut seen = [0; 3];
        while end < last_bucket {
            end += if rng.gen_range(0..6) == 0 { 2 } else { 1 };
            let upto = records.partition_point(|r| bucket_of(r) <= end);
            while next < upto {
                let run = rng.gen_range(1..=400usize).min(upto - next);
                worker.ingest(records[next..next + run].to_vec());
                next += run;
            }
            if rng.gen_range(0..5) == 0 {
                let target = random_subset(&mut rng, &all);
                let grew = target.slocs().iter().any(|&s| !union.contains(s));
                union = target;
                worker.set_union(union.clone(), grew);
                if grew {
                    stamped_ahead.clear();
                    seen[2] += 1;
                }
            }
            let repeats = 1 + usize::from(rng.gen_range(0..5) == 0);
            for _ in 0..repeats {
                let mut starts: Vec<i64> = (0..rng.gen_range(1..=3))
                    .map(|_| end - [1, 2, 3, 5, 9][rng.gen_range(0..5usize)] + 1)
                    .collect();
                starts.sort_unstable();
                starts.dedup();

                let reference = worker.reference_evaluate_multi(end, &starts);
                let advance = (end, &starts[..], &reference[..]);
                let ahead = &mut stamped_ahead;
                seen[0] += drive_advance(&mut worker, &mut rng, &union, advance, seed, ahead);
                seen[1] += reference
                    .iter()
                    .flat_map(|win| &win.contributions)
                    .filter(|(_, c)| c.dp_fallback)
                    .count();
                advances += 1;
            }
        }
        assert!(advances >= 15, "seed {seed}: only {advances} advances");
        seen
    }

    /// One advance to `end` over the windows `starts` (whose
    /// contributions are `reference`) and, three times in four, its
    /// ahead-of-time job. Returns the advance's cache hits.
    fn drive_advance(
        worker: &mut ShardWorker,
        rng: &mut StdRng,
        union: &QuerySet,
        (end, starts, reference): (i64, &[i64], &[WindowEval]),
        seed: u64,
        stamped_ahead: &mut BTreeSet<SpanKey>,
    ) -> usize {
        let report = worker.evaluate_multi(starts[0], end, starts);
        assert!(report.error.is_none(), "seed {seed}: {:?}", report.error);
        assert_eq!(report.windows.len(), reference.len());
        for ((got, want), start) in report.windows.iter().zip(reference).zip(starts) {
            assert_eq!(
                got.objects_total, want.objects_total,
                "seed {seed}: window {start}..={end}"
            );
            assert_eq!(
                rows(got, union),
                rows(want, union),
                "seed {seed}: window {start}..={end}"
            );
        }

        // The advance keeps what it asked for and what was stamped for
        // it ahead of time, and nothing else.
        let mut expected = spans_asked(worker, end, starts);
        expected.append(stamped_ahead);
        assert_eq!(
            held(worker),
            expected,
            "seed {seed}: span map after advance to {end}"
        );

        if rng.gen_range(0..4) != 0 {
            worker.evaluate_ahead(end, starts);
            *stamped_ahead = spans_ahead(worker, end, starts);
            expected.extend(stamped_ahead.iter());
            assert_eq!(
                held(worker),
                expected,
                "seed {seed}: span map ahead of {end}"
            );
        }
        report.cache_hits
    }

    #[test]
    fn evaluate_multi_matches_reference_on_random_schedules() {
        let mut seen = [0; 3];
        for seed in 0..24 {
            for (total, n) in seen.iter_mut().zip(drive(seed)) {
                *total += n;
            }
        }
        // The schedules did exercise hits, DP fallbacks and resets.
        assert!(seen.iter().all(|&n| n > 100), "{seen:?}");
    }
}
