//! The shard worker: one thread owning one object-partition of the
//! positioning log, its per-bucket record positions, and the evaluation
//! of its objects — for every query registered with the engine at once.
//!
//! # Buckets and spans
//!
//! As each record lands ([`ShardWorker::ingest`]), its *position* in the
//! shard's append-only log is appended to its object's list in its
//! bucket. A shard receives records in non-decreasing time, so every list
//! is in time order the moment it is written and nothing is ever grouped
//! again: there is no sealing step. The lists live as long as the log
//! they index (no sample set is copied out of it), and there is ONE set
//! of them per shard, shared by every registered query. Everything
//! computed from them is computed against the **union** of all registered
//! queries' location sets: per-object contributions are query-independent
//! up to the location subset, so N registered queries share one
//! evaluation and the coordinator slices the union contributions per
//! query.
//!
//! A window's flow decomposes per object, and an object's windowed
//! sequence is the concatenation of its bucket lists from its first
//! in-window bucket to its last — its **span**. The shard keeps one
//! compute cache, from `(object, first bucket, last bucket)` to the
//! object's contribution over that span together with `n`, how many of
//! the object's records in `last` it covers (see [`ShardWorker::spans`]
//! for why key and `n` determine the content). Every window object is
//! looked up by its span:
//!
//! * a **hit** — same key, same `n` — costs one refcount bump: an object
//!   the slide neither gave a record nor took one from is served as it was
//!   last slide, whether its records sit in one bucket or cross several;
//! * a **miss** finishes the object's live fold over the span if it has
//!   one (see below), and otherwise folds the span's records from the log
//!   once, exactly, through the same [`SpanFold`] kernel the batch search
//!   uses; either way the result replaces any entry whose `n` differed.
//!   The key carries no window width, so queries of different widths
//!   share every span that does not touch their own trailing edge.
//!
//! # Work done ahead of the advance
//!
//! Both edges of a slide can be known before the advance that needs
//! them, and the shard pays for them while it would otherwise wait:
//!
//! * **The trailing edge.** An object in a window's oldest bucket loses
//!   that bucket on the next slide, and what remains of it is complete
//!   history. After each advance the engine hands the shard
//!   [`ShardWorker::evaluate_ahead`], which evaluates those spans.
//! * **The leading edge.** An object whose latest record lies in a bucket
//!   `L` no advance has reached yet will be asked for `(object, first,
//!   L)` by the advance that closes `L`, where `first` follows from the
//!   window widths. For each registered window width, the shard
//!   keeps a live [`SpanFold`] over that span and pushes each of the
//!   object's records into it as the record lands, so the advance only
//!   finishes it: one DP step and a sum. An object that moves on to a
//!   later bucket before the advance that closes `L` has its folds
//!   finished into the cache first, where that advance finds them. The
//!   log is append-only and time-ordered and a fold takes every record of
//!   its object, so a live fold over `L` always covers the object's
//!   current count there, and its result is exact.
//!
//! Only the next two buckets past the last advance are folded as their
//! records land: a record further out means the advances have fallen
//! behind — a backlog replayed before any advance, say — and folding it
//! then would only hold the shard back. An advance therefore folds a
//! span from the log only for an object with no live fold over it: one
//! whose records in the bucket landed as part of a backlog or before the
//! queries were registered or changed, or, when an advance slides by more
//! than one bucket, one whose window reaches back to a different first
//! bucket than its fold does.
//!
//! Because queries may have different window widths, one advance asks for
//! several windows at once (one per distinct width, all ending at the
//! same bucket), each assembled from the shared buckets and spans.
//!
//! # The evaluation protocol
//!
//! One request per advance ([`ShardWorker::evaluate_multi`]) replies with
//! each requested window's complete contribution list, assembled from the
//! span cache and the live folds as above; one `tell` after it
//! ([`ShardWorker::evaluate_ahead`]) fills the cache with the next
//! slide's trailing edge, and every ingest job keeps the leading edge's
//! folds current.
//!
//! # Registration changes
//!
//! [`ShardWorker::retarget`] points the shard at a new union set and new
//! window widths and drops every live fold: a fold's locations are the
//! union it was started with, and its first bucket follows from a width.
//! When the union *grows*, cached spans are stale too (they were computed
//! against the smaller set), so the engine requests a cache reset, which
//! drops every span; the bucket positions do not depend on the union and
//! stay. Every span is then evaluated afresh,
//! deterministically — which is why a query registered mid-stream still
//! gets results bit-identical to an engine that held it from the start.
//! A *shrunk* union keeps the spans: they are valid supersets, sliced at
//! merge time.
//!
//! The worker owns no thread of its own: the engine runs one
//! [`ShardWorker`] per shard inside a [`popflow_exec::ShardPool`], whose
//! FIFO job queues give exactly the ordering the protocol relies on — an
//! ingest or registration routed before an advance is always reflected
//! by it.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use indoor_iupt::{Iupt, ObjectId, Record, StoreStats};
use indoor_model::IndoorSpace;
use popflow_core::{
    object_flow_contributions, FlowConfig, FlowError, ObjectContribution, QuerySet, SpanFold,
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
    /// Spans [`ShardWorker::evaluate_multi`] had to fold from the log
    /// itself, on the advance's critical path (PSL-pruned ones
    /// included).
    pub in_advance: usize,
    /// Spans obtained by finishing a live fold — by the advance that
    /// asked for them, or ahead of it when the object moved on to a later
    /// bucket (PSL-pruned ones included).
    pub finished: usize,
    /// Spans evaluated ahead of an advance — trailing edge or a fold
    /// finished ahead — that were dropped or replaced before any advance
    /// asked for them (PSL-pruned ones included).
    pub unused: usize,
}

/// One shard's answer to an advance: one [`WindowEval`] per
/// requested window start, in request order.
pub(crate) struct EagerReport {
    pub windows: Vec<WindowEval>,
    /// Window objects, summed over the requested windows, served from
    /// the span cache.
    pub cache_hits: usize,
    /// Spans evaluated since the previous report: this advance's misses
    /// plus whatever was evaluated ahead of it — each distinct span once,
    /// not once per slide it stays in a window.
    pub work: SpanWork,
    /// Footprint/interner accounting of this shard's log, as of this
    /// advance.
    pub store: StoreStats,
    /// First error hit, if any (the report is then partial).
    pub error: Option<FlowError>,
}

/// `(object, first bucket, last bucket)`: an object's records in every
/// bucket from the first to the last, both of which hold at least one of
/// them.
type SpanKey = (ObjectId, i64, i64);

/// One evaluated span.
struct SpanEntry {
    /// The object's union contribution over the span (`None` when
    /// PSL-pruned — a result worth caching like any other).
    contribution: Option<Arc<ObjectContribution>>,
    /// How many of the object's records in the span's last bucket the
    /// contribution covers.
    n: usize,
    /// The generation of the advance that last asked for the span; one
    /// past the running generation for a trailing-edge span evaluated
    /// ahead of the advance that will ask for it, 0 for a fold finished
    /// ahead.
    asked: u64,
    /// Evaluated ahead of an advance and not asked for by one yet.
    ahead: bool,
}

/// One object's share of the shard log, grouped as its records land.
#[derive(Default)]
struct ObjectLog {
    /// Positions of its records in the shard log, in time order — the
    /// log is append-only, so positions are stable and nothing duplicates
    /// a sample set.
    positions: Vec<u32>,
    /// `(bucket, index into positions of its first record there)` for
    /// every bucket it reported in, ascending.
    buckets: Vec<(i64, u32)>,
    /// Its live folds, `(first bucket, fold)`: one per distinct first
    /// bucket the shard's window widths give its latest bucket,
    /// each holding every one of its records from `first` on.
    folds: Vec<(i64, SpanFold)>,
    /// The bucket its folds end in and the advance generation they were
    /// lined up with the window widths in; `None` while it has no folds
    /// to keep.
    folded: Option<(i64, u64)>,
}

impl ObjectLog {
    /// Where the records of the `k`-th bucket it reported in begin.
    fn start(&self, k: usize) -> usize {
        self.buckets
            .get(k)
            .map_or(self.positions.len(), |&(_, i)| i as usize)
    }

    /// Its records in buckets `first..=last`, and how many of them lie
    /// in `last`.
    fn span(&self, first: i64, last: i64) -> (&[u32], usize) {
        let from = self.buckets.partition_point(|&(b, _)| b < first);
        let to = self.buckets.partition_point(|&(b, _)| b <= last);
        let in_last = match to.checked_sub(1).and_then(|k| self.buckets.get(k)) {
            Some(&(b, i)) if b == last => self.start(to) - i as usize,
            _ => 0,
        };
        let records = self.positions.get(self.start(from)..self.start(to));
        (records.unwrap_or_default(), in_last)
    }

    /// The first and the last bucket in `from..=to` it reported in.
    fn span_in(&self, from: i64, to: i64) -> Option<(i64, i64)> {
        let first = self.buckets.partition_point(|&(b, _)| b < from);
        let last = self.buckets.partition_point(|&(b, _)| b <= to);
        let (&(first, _), &(last, _)) = (
            self.buckets.get(first)?,
            self.buckets.get(last.checked_sub(1)?)?,
        );
        (first <= to).then_some((first, last))
    }

    /// Its live fold over `first..=last`, if it has one.
    fn fold(&self, first: i64, last: i64) -> Option<&SpanFold> {
        let (folded, _) = self.folded?;
        let fold = self.folds.iter().find(|(f, _)| *f == first);
        (folded == last).then_some(&fold?.1)
    }

    /// Drops its folds and their room: most objects never report again.
    fn drop_folds(&mut self) {
        self.folds = Vec::new();
        self.folded = None;
    }
}

/// What folding a record needs besides its object: the kernel's inputs,
/// the log, and the shard's plan.
struct FoldInputs<'w> {
    space: &'w IndoorSpace,
    union: &'w QuerySet,
    cfg: &'w FlowConfig,
    log: &'w Iupt,
    /// The buckets whose records are folded as they land: the next two
    /// past the newest an advance has closed.
    open: std::ops::RangeInclusive<i64>,
    /// The window widths folds are kept for, in buckets, ascending.
    widths: &'w [i64],
    generation: u64,
}

impl FoldInputs<'_> {
    /// Takes in `oid`'s newest record, at `position` in the bucket
    /// `bucket` past the last advance, which `object` has filed.
    ///
    /// In the bucket and generation its folds were lined up for, the
    /// record is pushed into each of them. Otherwise its folds over an
    /// earlier bucket, still open, are finished into `spans` — complete,
    /// for the advance that closes that bucket — and, if `bucket` is
    /// `open`, lined up with it: every window width asks for a fold from
    /// the first bucket it reaches back to; a fold already starting there
    /// carries on, and any other starts from the log. A record beyond
    /// `open` leaves the object without folds, so a fold always holds
    /// every record of its object from its first bucket on. A fold the
    /// kernel rejects a record of is dropped: the advance that needs its
    /// span meets the same error folding it from the log.
    fn fold_record(
        &self,
        oid: ObjectId,
        object: &mut ObjectLog,
        (bucket, position): (i64, u32),
        spans: &mut BTreeMap<SpanKey, SpanEntry>,
        work: &mut SpanWork,
    ) {
        let set = self.log.samples_at(position);
        if object.folded == Some((bucket, self.generation)) {
            object
                .folds
                .retain_mut(|(_, fold)| fold.push(self.space, self.union, set).is_ok());
            return;
        }
        if let Some((last, _)) = object.folded.filter(|&(last, _)| last != bucket) {
            let n = object.span(last, last).1;
            for (first, fold) in &object.folds {
                if let Ok(contribution) = fold.finish(self.space) {
                    let entry = SpanEntry {
                        contribution: contribution.map(Arc::new),
                        n,
                        asked: 0,
                        ahead: true,
                    };
                    work.finished += 1;
                    cache_span(spans, work, (oid, *first, last), entry);
                }
            }
        }
        if !self.open.contains(&bucket) {
            object.drop_folds();
            return;
        }
        // Line the folds up in place, one per distinct first bucket in
        // width order.
        let mut kept = 0;
        let mut previous = None;
        for &width in self.widths {
            let Some((first, _)) = object.span_in(bucket - width + 1, bucket) else {
                continue;
            };
            // Widths ascend, so firsts never do: equal ones are adjacent.
            if previous.replace(first) == Some(first) {
                continue;
            }
            let found = object
                .folds
                .iter()
                .skip(kept)
                .position(|(f, _)| *f == first);
            let pushed = match found {
                Some(i) => {
                    object.folds.swap(kept, kept + i);
                    let fold = object.folds.get_mut(kept).map(|(_, fold)| fold);
                    fold.is_some_and(|fold| fold.push(self.space, self.union, set).is_ok())
                }
                None => {
                    let records = object.span(first, bucket).0;
                    let mut fold = SpanFold::new(self.space, self.cfg);
                    let folded = records.iter().try_for_each(|&i| {
                        fold.push(self.space, self.union, self.log.samples_at(i))
                    });
                    if folded.is_ok() {
                        object.folds.insert(kept, (first, fold));
                    }
                    folded.is_ok()
                }
            };
            if pushed {
                kept += 1;
            } else if found.is_some() {
                object.folds.remove(kept);
            }
        }
        object.folds.truncate(kept);
        object.folded = Some((bucket, self.generation));
    }
}

/// Caches one evaluated span, replacing any entry under its key, and
/// counts its work.
fn cache_span(
    spans: &mut BTreeMap<SpanKey, SpanEntry>,
    work: &mut SpanWork,
    key: SpanKey,
    entry: SpanEntry,
) {
    work.straddlers += usize::from(key.1 != key.2);
    if let Some(c) = &entry.contribution {
        work.fresh_presence += 1;
        work.presence_cells += c.relevant.len();
    }
    if let Some(replaced) = spans.insert(key, entry) {
        work.unused += usize::from(replaced.ahead);
    }
}

/// The state owned by one worker thread.
pub(crate) struct ShardWorker {
    space: Arc<IndoorSpace>,
    /// Union of every registered query's location set — what spans are
    /// computed against.
    union: QuerySet,
    cfg: FlowConfig,
    /// Bucket width in ms — the granularity every registered query
    /// shares. Window *lengths* are per-request.
    bucket_millis: i64,
    /// This shard's partition of the positioning log.
    iupt: Iupt,
    /// Every object's records, grouped at ingest (looked up, never
    /// iterated).
    objects: HashMap<ObjectId, ObjectLog>,
    /// The objects with records in each bucket, in the order of their
    /// first record there.
    buckets: BTreeMap<i64, Vec<ObjectId>>,
    /// The shard's one contribution cache.
    ///
    /// **Key and `n` ⇒ content, while the union is unchanged.** The log
    /// is append-only and a shard's records arrive in time order, so the
    /// records of `(object, first, last)` covering `n` records of `last`
    /// — the object's records in every bucket of `first..last` and its
    /// first `n` in `last` — never change, and the contribution is a pure
    /// function of those records and the union. A lookup therefore hits
    /// only when `n` still equals the object's count in `last`. Once an
    /// advance has reached `last` nothing can land there, and every entry
    /// that survives that advance's sweep was evaluated or checked
    /// against the final count — so only entries whose `last` lay beyond
    /// the previous advance need the check. A union that grows clears
    /// the map ([`ShardWorker::retarget`]); one that shrinks leaves
    /// valid supersets.
    ///
    /// **An untouched closed key is dead.** Every window ends at the
    /// newest closed bucket and window starts only move forward, so a
    /// window object's key changes exactly when the newest bucket gives
    /// it a record (`last` moves) or a window start passes its first
    /// bucket (`first` moves), and neither ever moves back. A key with
    /// `last` at or before the advance's end bucket that the advance did
    /// not ask for can therefore only be asked for again by a wider
    /// query registered later, which simply evaluates it again — a miss
    /// costs time, never correctness — so every advance stamps the span
    /// of each window object it sees and drops every entry whose
    /// [`SpanEntry::asked`] is older than itself, except folds finished
    /// ahead whose `last` lies beyond its end bucket. The map stays
    /// bounded by window objects × distinct widths, plus what
    /// [`ShardWorker::evaluate_ahead`] stamped for the next advance, plus
    /// the folds finished ahead.
    spans: BTreeMap<SpanKey, SpanEntry>,
    /// Counts advances; what [`SpanEntry::asked`] is measured in.
    generation: u64,
    /// The last advance's end bucket (`i64::MIN` before the first) and
    /// the distinct window widths, in buckets, ascending, of the last
    /// advance or of the queries registered since: what the live folds'
    /// first buckets follow from. With no width there is nothing to fold
    /// for.
    plan: (i64, Vec<i64>),
    /// Span evaluations no report has carried yet. A reply drains it;
    /// what is evaluated ahead waits here for the next report — so every
    /// span evaluated is reported exactly once, with the advance it was
    /// evaluated for.
    unreported: SpanWork,
}

impl ShardWorker {
    pub(crate) fn new(
        space: Arc<IndoorSpace>,
        union: QuerySet,
        cfg: FlowConfig,
        bucket_millis: i64,
    ) -> Self {
        assert!(bucket_millis > 0, "bucket width must be positive");
        ShardWorker {
            space,
            union,
            cfg,
            bucket_millis,
            iupt: Iupt::new(),
            objects: HashMap::new(),
            buckets: BTreeMap::new(),
            spans: BTreeMap::new(),
            generation: 0,
            plan: (i64::MIN, Vec::new()),
            unreported: SpanWork::default(),
        }
    }

    /// Appends a run of records (already validated and routed by the
    /// engine, in stream order) to this shard's partition of the
    /// positioning log, files each record's position under its object
    /// and bucket, and pushes it into its object's live folds.
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
        let positions = self.iupt.extend(run.iter().cloned());
        let bucket_of = |r: &Record| r.t.millis().div_euclid(self.bucket_millis);
        let first = self.buckets.keys().next().copied();
        let (end, widths) = &self.plan;
        // Records land in the bucket the next advance closes, and some in
        // the one after it before that advance runs; one further out
        // means the advances have fallen behind — a backlog replayed
        // before any advance — and folding it now would only hold the
        // shard back. Before the first advance, the next one closes the
        // stream's first bucket.
        let closed = match first.or_else(|| run.first().map(bucket_of)) {
            Some(first) if *end == i64::MIN => first.saturating_sub(1),
            _ => *end,
        };
        let inputs = (!widths.is_empty()).then_some(FoldInputs {
            space: &self.space,
            union: &self.union,
            cfg: &self.cfg,
            log: &self.iupt,
            open: closed.saturating_add(1)..=closed.saturating_add(2),
            widths,
            generation: self.generation,
        });
        for (position, record) in positions.zip(&run) {
            let oid = record.oid;
            let bucket = bucket_of(record);
            let object = self.objects.entry(oid).or_default();
            if object.buckets.last().is_none_or(|&(b, _)| b != bucket) {
                object.buckets.push((bucket, object.positions.len() as u32));
                self.buckets.entry(bucket).or_default().push(oid);
            }
            object.positions.push(position);
            // Records in buckets the last advance reached are late, and
            // the engine rejects them.
            if let Some(inputs) = inputs.as_ref().filter(|i| bucket >= *i.open.start()) {
                let work = &mut self.unreported;
                inputs.fold_record(oid, object, (bucket, position), &mut self.spans, work);
            }
        }
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

    /// Retargets the shard at a new union of registered location sets
    /// and new registered window widths (in buckets, ascending), dropping
    /// every live fold: each was started against the old union and
    /// widths. `reset` drops every span too (required when the union grew
    /// — cached contributions would be missing the new locations); the
    /// grouped records do not depend on the union and stay.
    pub(crate) fn retarget(&mut self, union: QuerySet, widths: Vec<i64>, reset: bool) {
        self.union = union;
        self.plan.1 = widths;
        // Objects with live folds have their latest record past the
        // last advance.
        for (_, oids) in self.buckets.range(self.plan.0 + 1..) {
            for oid in oids {
                if let Some(object) = self.objects.get_mut(oid) {
                    object.drop_folds();
                }
            }
        }
        if reset {
            let unused = self.spans.values().filter(|entry| entry.ahead).count();
            self.unreported.unused += unused;
            self.spans.clear();
        }
    }

    /// Assembles one contribution list per requested window, all ending
    /// at bucket `window_end`, from the span cache and the live folds:
    /// one lookup per window object, and one fold from the log per span
    /// neither holds. `window_starts` ascend.
    pub(crate) fn evaluate_multi(&mut self, window_end: i64, window_starts: &[i64]) -> EagerReport {
        self.generation += 1;
        let generation = self.generation;
        let store = self.store_stats();
        let mut windows = Vec::with_capacity(window_starts.len());
        let mut cache_hits = 0;
        let mut error = None;
        let widths = window_starts.iter().rev().map(|&s| window_end - s + 1);
        // Entries over buckets the previous advance reached cover their
        // final count (see `spans`).
        let (checked, _) = std::mem::replace(&mut self.plan, (window_end, widths.collect()));

        'windows: for &window_start in window_starts {
            let presence = self.window_presence(window_start, window_end);
            let mut win = WindowEval {
                contributions: Vec::with_capacity(presence.len()),
                objects_total: presence.len(),
            };
            for (&oid, &(first, last)) in &presence {
                let key = (oid, first, last);
                let n = (last > checked)
                    .then(|| self.objects.get(&oid).map_or(0, |o| o.span(first, last).1));
                let contribution = match self.spans.get_mut(&key) {
                    Some(entry) if n.is_none_or(|n| n == entry.n) => {
                        entry.asked = generation;
                        entry.ahead = false;
                        cache_hits += 1;
                        entry.contribution.clone()
                    }
                    _ => match self.evaluate_span(key, generation, false) {
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
        // for is dead, unless its last bucket is still open.
        let mut unused = 0;
        self.spans.retain(|&(_, _, last), entry| {
            let live = entry.asked >= generation || last > window_end;
            unused += usize::from(!live && entry.ahead);
            live
        });
        self.unreported.unused += unused;
        // The buckets this advance closed take their folds with them.
        if window_end > checked {
            for (_, oids) in self.buckets.range(checked + 1..=window_end) {
                for oid in oids {
                    let Some(object) = self.objects.get_mut(oid) else {
                        continue;
                    };
                    if object.folded.is_some_and(|(last, _)| last <= window_end) {
                        object.drop_folds();
                    }
                }
            }
        }
        EagerReport {
            windows,
            cache_hits,
            work: std::mem::take(&mut self.unreported),
            store,
            error,
        }
    }

    /// Evaluates one span exactly against the whole union over every
    /// record the log holds for it, and caches it stamped `asked` —
    /// replacing any entry with the same key. A live fold over the span
    /// is finished; otherwise the span's records are folded from the log.
    /// `ahead` marks an evaluation no advance has asked for. A kernel
    /// error caches nothing.
    fn evaluate_span(
        &mut self,
        key: SpanKey,
        asked: u64,
        ahead: bool,
    ) -> Result<Option<Arc<ObjectContribution>>, FlowError> {
        let (oid, first, last) = key;
        let object = self.objects.get(&oid);
        let (records, n) = object.map_or((&[][..], 0), |object| object.span(first, last));
        // A live fold over `last` holds every record the object has
        // there, so it covers `n` of them.
        let (contribution, finished) = match object.and_then(|o| o.fold(first, last)) {
            Some(fold) => (fold.finish(&self.space)?, true),
            None => {
                let sets = records.iter().map(|&i| self.iupt.samples_at(i));
                let contribution =
                    object_flow_contributions(&self.space, sets, &self.union, &self.cfg)?;
                (contribution, false)
            }
        };
        let work = &mut self.unreported;
        work.finished += usize::from(finished);
        work.in_advance += usize::from(!finished && !ahead);
        let contribution = contribution.map(Arc::new);
        let entry = SpanEntry {
            contribution: contribution.clone(),
            n,
            asked,
            ahead,
        };
        cache_span(&mut self.spans, &mut self.unreported, key, entry);
        Ok(contribution)
    }

    /// The spans the next one-bucket slide will truncate, evaluated
    /// while the shard is idle: an object in a requested window's oldest
    /// bucket loses that bucket next time, and what is left of it — from
    /// the next bucket that holds it to its last — is complete history.
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
                .iter()
                .filter_map(|oid| {
                    let object = self.objects.get(oid)?;
                    let (first, last) = object.span_in(window_start + 1, window_end)?;
                    Some((*oid, first, last))
                })
                .collect();
            for key in truncated {
                match self.spans.get_mut(&key) {
                    Some(entry) => entry.asked = asked,
                    None => {
                        let _ = self.evaluate_span(key, asked, true);
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
        for (&b, objects) in self.buckets.range(window_start..=window_end) {
            for &oid in objects {
                presence
                    .entry(oid)
                    .and_modify(|span| span.1 = b)
                    .or_insert((b, b));
            }
        }
        presence
    }
}

#[cfg(test)]
impl ShardWorker {
    /// The closed time interval covered by bucket `b` (the same
    /// arithmetic as [`popflow_core::WindowSpec::bucket_interval`]).
    fn bucket_interval(&self, b: i64) -> indoor_iupt::TimeInterval {
        indoor_iupt::TimeInterval::new(
            indoor_iupt::Timestamp(b * self.bucket_millis),
            indoor_iupt::Timestamp((b + 1) * self.bucket_millis - 1),
        )
    }

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
                let interval =
                    indoor_iupt::TimeInterval::new(self.bucket_interval(window_start).start, end);
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

    use indoor_iupt::fixtures::paper_table2;
    use indoor_iupt::{TimeInterval, Timestamp};
    use indoor_model::fixtures::paper_figure1;
    use indoor_model::SLocId;
    use indoor_sim::StreamScenario;
    use popflow_core::PresenceEngine;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    use super::*;

    const BUCKET: i64 = 60_000;

    fn bucket_of(r: &Record) -> i64 {
        r.t.millis().div_euclid(BUCKET)
    }

    /// A random subset of `all` holding a quarter of it or more.
    fn random_subset(rng: &mut StdRng, all: &[SLocId]) -> QuerySet {
        let mut picked = all.to_vec();
        for i in 0..picked.len() {
            picked.swap(i, rng.gen_range(i..all.len()));
        }
        picked.truncate(rng.gen_range(all.len() / 4 + 1..=all.len()));
        QuerySet::new(picked)
    }

    /// One contribution in comparable form, restricted to `union`: a
    /// contribution cached before the union shrank is a superset, sliced
    /// at merge time, and one that slices to nothing is an object the
    /// smaller union prunes.
    type Bits = (Vec<SLocId>, Vec<u64>, bool);

    fn bits(contribution: Option<&ObjectContribution>, union: &QuerySet) -> Option<Bits> {
        let c = contribution?.sliced(union.slocs());
        let scores = c.scores.iter().map(|s| s.to_bits()).collect();
        (!c.relevant.is_empty()).then_some((c.relevant, scores, c.dp_fallback))
    }

    fn rows(win: &WindowEval, union: &QuerySet) -> Vec<(ObjectId, Bits)> {
        win.contributions
            .iter()
            .filter_map(|(oid, c)| Some((*oid, bits(Some(c), union)?)))
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

    /// The oracle's side of a schedule: what the span map must hold, which
    /// live folds each object must have and what each must contain,
    /// worked out from the records ingested so far — the shard's log —
    /// and the advances made.
    #[derive(Default)]
    struct Model {
        /// The records ingested so far, by object, in log order.
        records: BTreeMap<ObjectId, Vec<Record>>,
        /// The last advance's end bucket and the window widths folds are
        /// kept for.
        plan: (i64, Vec<i64>),
        /// Advances so far.
        generation: u64,
        /// The bucket of the first record.
        first: Option<i64>,
        /// Per object, its live folds: the bucket they end in, the
        /// generation they were lined up in, and their first buckets.
        folds: BTreeMap<ObjectId, (i64, u64, Vec<i64>)>,
        /// The keys the last advance kept, plus what was stamped ahead
        /// for the next one.
        closed: BTreeSet<SpanKey>,
        /// Stamped ahead of the next advance.
        ahead: BTreeSet<SpanKey>,
        /// Folds finished ahead: their last bucket is still open.
        live: BTreeSet<SpanKey>,
        /// Folds finished since the last report.
        finished: usize,
        /// Live folds and open-bucket entries already checked against
        /// the kernel, with the record count they covered.
        checked: BTreeSet<(SpanKey, usize)>,
    }

    impl Model {
        fn new() -> Self {
            Model {
                plan: (i64::MIN, Vec::new()),
                ..Model::default()
            }
        }

        /// The buckets `oid` reported in.
        fn buckets(&self, oid: ObjectId) -> BTreeSet<i64> {
            let records = self.records.get(&oid).into_iter().flatten();
            records.map(bucket_of).collect()
        }

        /// `oid`'s records in bucket `b`.
        fn count_in(&self, oid: ObjectId, b: i64) -> usize {
            let records = self.records.get(&oid).into_iter().flatten();
            records.filter(|r| bucket_of(r) == b).count()
        }

        /// Takes in an ingested run, record by record: a record past the
        /// last advance lines its object's folds up with its bucket and
        /// the last advance's widths, unless they already are; folds over
        /// an earlier, still open bucket are finished ahead first.
        fn ingested(&mut self, run: &[Record]) {
            for r in run {
                self.records.entry(r.oid).or_default().push(r.clone());
                let (end, widths) = &self.plan;
                let b = bucket_of(r);
                let first = self.first.get_or_insert(b);
                let closed = if *end == i64::MIN { *first - 1 } else { *end };
                if widths.is_empty() || b <= closed {
                    continue;
                }
                let lined_up = (b, self.generation);
                match self.folds.get(&r.oid) {
                    Some(&(last, generation, _)) if (last, generation) == lined_up => continue,
                    Some((last, _, firsts)) if *last != b => {
                        self.finished += firsts.len();
                        self.live.extend(firsts.iter().map(|&f| (r.oid, f, *last)));
                    }
                    _ => {}
                }
                // Past the next two buckets: a backlog, left unfolded.
                if b > closed + 2 {
                    self.folds.remove(&r.oid);
                    continue;
                }
                let buckets = self.buckets(r.oid);
                let mut firsts: Vec<i64> = widths
                    .iter()
                    .filter_map(|w| Some(span_from(r.oid, &buckets, b - w + 1)?.1))
                    .collect();
                firsts.dedup();
                self.folds.insert(r.oid, (b, self.generation, firsts));
            }
        }

        /// The reference contribution of `oid`'s records in
        /// `first..last` and its first `n` in `last`, straight from the
        /// log through the batch kernel.
        fn reference(
            &self,
            worker: &ShardWorker,
            (oid, first, last): SpanKey,
            n: usize,
        ) -> Option<ObjectContribution> {
            let mut in_last = 0;
            let sets = self
                .records
                .get(&oid)
                .into_iter()
                .flatten()
                .filter(|r| (first..=last).contains(&bucket_of(r)))
                .filter(|r| {
                    in_last += usize::from(bucket_of(r) == last);
                    bucket_of(r) < last || in_last <= n
                })
                .map(|r| &r.samples);
            object_flow_contributions(&worker.space, sets, &worker.union, &worker.cfg)
                .expect("reference kernel")
        }

        /// The entries over buckets the last advance reached, stamps
        /// and counts included.
        fn closed_entries(&self, worker: &ShardWorker) -> Vec<(SpanKey, u64, bool, usize)> {
            let end = self.plan.0;
            let closed = worker.spans.iter().filter(|(k, _)| k.2 <= end);
            closed.map(|(&k, e)| (k, e.asked, e.ahead, e.n)).collect()
        }

        /// The live folds the model expects.
        fn fold_keys(&self) -> BTreeSet<SpanKey> {
            let folds = self.folds.iter();
            folds
                .flat_map(|(&oid, (last, _, firsts))| firsts.iter().map(move |&f| (oid, f, *last)))
                .collect()
        }

        /// After an ingest: the span map holds what the last advance
        /// kept, untouched, and the folds finished ahead; the live folds
        /// are the ones expected; and every open-bucket entry and every
        /// live fold is exactly the kernel over the records it covers.
        fn check_ingest(
            &mut self,
            worker: &ShardWorker,
            untouched: Vec<(SpanKey, u64, bool, usize)>,
            seed: u64,
        ) {
            let expected: BTreeSet<SpanKey> = self.closed.union(&self.live).copied().collect();
            assert_eq!(held(worker), expected, "seed {seed}: span map after ingest");
            assert_eq!(
                self.closed_entries(worker),
                untouched,
                "seed {seed}: an ingest touched a span over closed buckets"
            );
            let end = self.plan.0;
            for (&key, entry) in &worker.spans {
                if key.2 <= end || !self.checked.insert((key, entry.n)) {
                    continue;
                }
                assert_eq!(entry.n, self.count_in(key.0, key.2), "seed {seed}: {key:?}");
                let want = self.reference(worker, key, entry.n);
                assert_eq!(
                    bits(entry.contribution.as_deref(), &worker.union),
                    bits(want.as_ref(), &worker.union),
                    "seed {seed}: fold {key:?} finished ahead over {} records of its last bucket",
                    entry.n
                );
            }
            let mut folds = BTreeSet::new();
            for (&oid, object) in &worker.objects {
                let Some((last, _)) = object.folded else {
                    assert!(object.folds.is_empty(), "seed {seed}: {oid} folds unkept");
                    continue;
                };
                for (first, fold) in &object.folds {
                    let key = (oid, *first, last);
                    folds.insert(key);
                    let n = self.count_in(oid, last);
                    if !self.checked.insert((key, n)) {
                        continue;
                    }
                    let got = fold.finish(&worker.space).expect("live fold");
                    let want = self.reference(worker, key, n);
                    assert_eq!(
                        bits(got.as_ref(), &worker.union),
                        bits(want.as_ref(), &worker.union),
                        "seed {seed}: live fold {key:?} over {n} records of its last bucket"
                    );
                }
            }
            assert_eq!(folds, self.fold_keys(), "seed {seed}: live folds");
        }

        /// Takes in an advance that asked for `asked`, `before` being the
        /// span map's counts beforehand; returns how many of the asked
        /// spans live folds answered and how many the advance had to fold
        /// from the log.
        fn advanced(
            &mut self,
            worker: &ShardWorker,
            (end, starts): (i64, &[i64]),
            asked: &BTreeSet<SpanKey>,
            before: &BTreeMap<SpanKey, usize>,
        ) -> (usize, usize) {
            let fold_keys = self.fold_keys();
            let missed = asked
                .iter()
                .filter(|k| before.get(k) != Some(&self.count_in(k.0, k.2)));
            let (finished, from_log): (Vec<&SpanKey>, _) =
                missed.partition(|k| fold_keys.contains(k));
            self.generation += 1;
            self.plan = (end, starts.iter().rev().map(|s| end - s + 1).collect());
            self.live.retain(|k| k.2 > end);
            self.folds.retain(|_, (last, _, _)| *last > end);
            self.closed = asked.clone();
            self.closed.append(&mut self.ahead);
            let expected: BTreeSet<SpanKey> = self.closed.union(&self.live).copied().collect();
            assert_eq!(held(worker), expected, "span map after advance to {end}");
            (finished.len(), from_log.len())
        }

        /// A retarget: every fold is gone, and after a cache reset every
        /// span too.
        fn retargeted(&mut self, widths: Vec<i64>, reset: bool) {
            self.plan.1 = widths;
            self.folds.clear();
            if reset {
                self.closed.clear();
                self.ahead.clear();
                self.live.clear();
            }
        }
    }

    /// Drives one worker through a seeded random schedule of ingest
    /// runs (single records on some seeds, and on some a stream that
    /// lost half its records at random — irregular sampling, so objects
    /// pause and report again), union changes and advances over 1–3
    /// widths (sliding by one bucket, by two, or not at all), sometimes
    /// ingesting past the advance's end bucket first. Every reply is
    /// checked against [`ShardWorker::reference_evaluate_multi`], every
    /// live fold and every fold finished ahead against the kernel after
    /// each ingest, and the span map against the spans the schedule
    /// asked for, stamped ahead and finished ahead. Advances are
    /// followed, most of the time, by an ahead-of-time job. Returns how
    /// many cache hits, DP fallbacks, cache resets, spans answered by a
    /// live fold and unused spans it saw.
    fn drive(seed: u64) -> [usize; 5] {
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
        let mut records = stream.to_records();
        if seed % 4 == 1 {
            records.retain(|_| rng.gen_range(0..2) == 0);
        }
        let space = Arc::new(world.space);
        let all: Vec<SLocId> = space.slocs().iter().map(|s| s.id).collect();
        let cfg = FlowConfig {
            // A budget some objects exceed and some do not, so
            // `dp_fallback` takes both values.
            engine: [PresenceEngine::TransitionDp, PresenceEngine::Hybrid][(seed % 2) as usize],
            path_budget: 300,
            ..FlowConfig::default()
        };
        let single_records = seed % 6 == 5;
        let mut union = random_subset(&mut rng, &all);
        let mut worker = ShardWorker::new(Arc::clone(&space), union.clone(), cfg, BUCKET);
        let mut model = Model::new();
        // Most schedules register their widths before the stream, so
        // folds run from the first record; the rest learn them from the
        // first advance.
        if seed % 3 != 0 {
            let widths = random_widths(&mut rng);
            worker.retarget(union.clone(), widths.clone(), false);
            model.retargeted(widths, false);
        }

        let last_bucket = bucket_of(records.last().expect("records")) - 1;
        let mut end = bucket_of(&records[0]) - 1;
        let mut next = 0;
        let mut advances = 0;
        let mut seen = [0; 5];
        while end < last_bucket {
            end += if rng.gen_range(0..6) == 0 { 2 } else { 1 };
            let mut upto = records.partition_point(|r| bucket_of(r) <= end);
            // Now and then part of the next bucket lands first: the
            // advance must leave the folds over it alone.
            if rng.gen_range(0..3) == 0 {
                upto += rng.gen_range(0..120usize);
            } else if rng.gen_range(0..8) == 0 {
                // Or two more buckets: records more than two past the
                // last advance are a backlog, which is not folded.
                upto = records.partition_point(|r| bucket_of(r) <= end + 2);
            }
            let upto = upto.clamp(next, records.len());
            while next < upto {
                let run = if single_records {
                    1
                } else {
                    rng.gen_range(1..=400usize).min(upto - next)
                };
                let untouched = model.closed_entries(&worker);
                worker.ingest(records[next..next + run].to_vec());
                model.ingested(&records[next..next + run]);
                model.check_ingest(&worker, untouched, seed);
                next += run;
            }
            if rng.gen_range(0..5) == 0 {
                let target = random_subset(&mut rng, &all);
                let grew = target.slocs().iter().any(|&s| !union.contains(s));
                union = target;
                let widths = random_widths(&mut rng);
                worker.retarget(union.clone(), widths.clone(), grew);
                model.retargeted(widths, grew);
                seen[2] += usize::from(grew);
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
                let (hits, finished, unused) =
                    drive_advance(&mut worker, &mut rng, &union, advance, seed, &mut model);
                seen[0] += hits;
                seen[4] += unused;
                seen[1] += reference
                    .iter()
                    .flat_map(|win| &win.contributions)
                    .filter(|(_, c)| c.dp_fallback)
                    .count();
                seen[3] += finished;
                advances += 1;
            }
        }
        assert!(advances >= 15, "seed {seed}: only {advances} advances");
        seen
    }

    /// 1–3 distinct window widths, ascending.
    fn random_widths(rng: &mut StdRng) -> Vec<i64> {
        let mut widths: Vec<i64> = (0..rng.gen_range(1..=3))
            .map(|_| [1, 2, 3, 5, 9][rng.gen_range(0..5usize)])
            .collect();
        widths.sort_unstable();
        widths.dedup();
        widths
    }

    /// One advance to `end` over the windows `starts` (whose
    /// contributions are `reference`) and, three times in four, its
    /// ahead-of-time job. Returns the advance's cache hits, how many
    /// spans live folds answered, and the unused spans it reported.
    fn drive_advance(
        worker: &mut ShardWorker,
        rng: &mut StdRng,
        union: &QuerySet,
        (end, starts, reference): (i64, &[i64], &[WindowEval]),
        seed: u64,
        model: &mut Model,
    ) -> (usize, usize, usize) {
        let before: BTreeMap<SpanKey, usize> =
            worker.spans.iter().map(|(&k, e)| (k, e.n)).collect();
        let report = worker.evaluate_multi(end, starts);
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

        // The advance finished the live fold of every span it asked for
        // that the cache did not hold with its current record count, and
        // folded the rest from the log.
        let asked = spans_asked(worker, end, starts);
        let (finished, from_log) = model.advanced(worker, (end, starts), &asked, &before);
        assert_eq!(
            report.work.in_advance, from_log,
            "seed {seed}: advance to {end}"
        );
        let finished_ahead = std::mem::take(&mut model.finished);
        assert_eq!(
            report.work.finished,
            finished + finished_ahead,
            "seed {seed}: advance to {end}"
        );

        if rng.gen_range(0..4) != 0 {
            worker.evaluate_ahead(end, starts);
            model.ahead = spans_ahead(worker, end, starts);
            model.closed.extend(model.ahead.iter());
            let expected: BTreeSet<SpanKey> = model.closed.union(&model.live).copied().collect();
            assert_eq!(
                held(worker),
                expected,
                "seed {seed}: span map ahead of {end}"
            );
        }
        (report.cache_hits, finished, report.work.unused)
    }

    #[test]
    fn evaluate_multi_matches_reference_on_random_schedules() {
        let mut seen = [0; 5];
        for seed in 0..24 {
            for (total, n) in seen.iter_mut().zip(drive(seed)) {
                *total += n;
            }
        }
        // The schedules did exercise hits, DP fallbacks, resets, spans
        // answered by live folds and spans worked out ahead in vain.
        assert!(seen.iter().all(|&n| n > 50), "{seen:?}");
    }

    /// An object that pauses and then reports again in the same bucket
    /// costs the advance that closes the bucket nothing but one finish:
    /// its fold took every record as it landed, nothing is folded from
    /// the log, and nothing is wasted — and the reply matches the
    /// reference. The same schedule without the return is no different.
    #[test]
    fn a_pause_then_a_report_in_the_same_bucket_costs_nothing() {
        let fig = paper_figure1();
        let table = paper_table2().to_records();
        let a = ObjectId(2);
        for times in [&[1_000, 2_000][..], &[1_000, 2_000, 30_000]] {
            let records = times.iter().zip(table.iter().filter(|r| r.oid == a));
            let union = QuerySet::new(fig.r.to_vec());
            let mut worker = ShardWorker::new(
                Arc::new(fig.space.clone()),
                union.clone(),
                FlowConfig::default(),
                BUCKET,
            );
            // One registered query, one bucket wide.
            worker.retarget(union.clone(), vec![1], false);
            for (&t, record) in records {
                worker.ingest(vec![Record {
                    t: Timestamp(t),
                    ..record.clone()
                }]);
            }
            let reference = worker.reference_evaluate_multi(0, &[0]);
            let report = worker.evaluate_multi(0, &[0]);
            assert_eq!(
                rows(&report.windows[0], &union),
                rows(&reference[0], &union),
                "records at {times:?}"
            );
            let work = &report.work;
            let counts = (work.finished, work.in_advance, work.unused);
            assert_eq!(counts, (1, 0, 0), "records at {times:?}");
            assert_eq!(report.cache_hits, 0);
        }
    }
}
