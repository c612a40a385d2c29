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
//! * a **miss** evaluates the span once, exactly, through the same
//!   [`object_flow_contributions`] kernel the batch search uses, and
//!   caches it in place of any entry whose `n` differed. The key carries
//!   no window width, so queries of different widths share every span
//!   that does not touch their own trailing edge.
//!
//! [`ShardWorker::evaluate_span`] is the one place the shard calls the
//! kernel.
//!
//! # Work done ahead of the advance
//!
//! Both edges of a slide can be known before the advance that needs
//! them, and the shard evaluates them while it would otherwise wait:
//!
//! * **The trailing edge.** An object in a window's oldest bucket loses
//!   that bucket on the next slide, and what remains of it is complete
//!   history. After each advance the engine hands the shard
//!   [`ShardWorker::evaluate_ahead`], which evaluates those spans.
//! * **The leading edge.** An object whose latest record lies in a bucket
//!   `L` no advance has reached yet will be asked for `(object, first,
//!   L)` by the advance that closes `L`, where `first` follows from the
//!   window widths. Once the object has *fallen quiet* — the shard's
//!   newest record is more than [`QUIET_GAPS`] of the object's own last
//!   reporting gap past its latest one — the ingest job that notices
//!   evaluates that span for each window width of the last advance. The
//!   speculation is exact: the log is append-only and time-ordered, so
//!   `(object, first, L, n)` determines the records, and an object that
//!   reports again in `L` changes `n`, which turns the entry into a miss
//!   that the next evaluation replaces. A wasted speculation costs time,
//!   never correctness; [`SpanWork::unused`] counts them.
//!
//! An advance then pays first-time work only for the objects that were
//! still reporting when their bucket closed.
//!
//! Because queries may have different window widths, one advance asks for
//! several windows at once (one per distinct width, all ending at the
//! same bucket), each assembled from the shared buckets and spans.
//!
//! # The evaluation protocol
//!
//! One request per advance ([`ShardWorker::evaluate_multi`]) replies with
//! each requested window's complete contribution list, assembled from the
//! span cache as above; one `tell` after it
//! ([`ShardWorker::evaluate_ahead`]) fills the cache with the next
//! slide's trailing edge, and every ingest job with the leading edge that
//! has fallen quiet.
//!
//! # Registration changes
//!
//! [`ShardWorker::set_union`] retargets the shard at a new union set.
//! When the union *grows*, cached spans are stale (they were computed
//! against the smaller set), so the engine requests a cache reset, which
//! drops every span; the bucket positions do not depend on the union and
//! stay. Every span is then evaluated afresh, deterministically — which
//! is why a query registered mid-stream still gets results bit-identical
//! to an engine that held it from the start. A *shrunk* union keeps the
//! spans: they are valid supersets, sliced at merge time.
//!
//! The worker owns no thread of its own: the engine runs one
//! [`ShardWorker`] per shard inside a [`popflow_exec::ShardPool`], whose
//! FIFO job queues give exactly the ordering the protocol relies on — an
//! ingest or registration routed before an advance is always reflected
//! by it.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, HashMap};
use std::sync::Arc;

use indoor_iupt::{Iupt, ObjectId, Record, StoreStats};
use indoor_model::IndoorSpace;
use popflow_core::{
    object_flow_contributions, FlowConfig, FlowError, ObjectContribution, QuerySet,
};

/// How many of its own last reporting gaps an object must stay silent
/// for, measured against the shard's newest record, before its
/// open-bucket span is evaluated ahead of the advance that closes the
/// bucket.
///
/// Measured on the benchmark's three venue streams (seed 42, two shards),
/// replayed in process in runs of 1, 32, 128 and 4096 records and in the
/// runs a 1-ms scheduler tick releases at the paced 150,000 records/s:
/// two gaps wasted no speculation at all, while taking every object that
/// sent nothing for one whole run as quiet wasted 105–109 speculations
/// per paced advance under the tick's release and about 3,670 under
/// single-record ingest. Over the socket, where the server hands over
/// one run per scheduler pass (about one per admitted batch), two gaps
/// again wasted none on any of the three streams. Judging silence by the object's own gap, not by
/// a fixed period, is what keeps an irregularly sampled device from being
/// taken for one that left.
const QUIET_GAPS: i64 = 2;

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
    /// Spans [`ShardWorker::evaluate_multi`] evaluated itself, on the
    /// advance's critical path (PSL-pruned ones included).
    pub in_advance: usize,
    /// Spans evaluated ahead of an advance — trailing edge or speculation
    /// — that were dropped or replaced before any advance asked for them
    /// (PSL-pruned ones included).
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
    /// ahead of the advance that will ask for it, 0 for a speculation.
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
    /// Timestamp of its latest record.
    last: i64,
    /// When it falls quiet — `last` plus [`QUIET_GAPS`] of its last gap;
    /// `None` before its second record and once it has fallen quiet.
    due: Option<i64>,
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
    /// the map ([`ShardWorker::set_union`]); one that shrinks leaves
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
    /// [`SpanEntry::asked`] is older than itself, except speculations
    /// whose `last` lies beyond its end bucket. The map stays bounded by
    /// window objects × distinct widths, plus what
    /// [`ShardWorker::evaluate_ahead`] stamped for the next advance, plus
    /// the live speculations.
    spans: BTreeMap<SpanKey, SpanEntry>,
    /// Counts advances; what [`SpanEntry::asked`] is measured in.
    generation: u64,
    /// The last advance's end bucket and distinct window widths (in
    /// buckets, ascending): what a speculation computes its span's
    /// `first` for. `None` before the first advance, when there is
    /// nothing to speculate for.
    plan: Option<(i64, Vec<i64>)>,
    /// Quiet timers, earliest first: `(due, object)`, one pushed per
    /// record from an object's second on, so an object re-arms only when
    /// it reports again. A timer its object's next record superseded is
    /// left in place and dropped when it surfaces — its due no longer
    /// matches [`ObjectLog::due`] — which costs one pop instead of a
    /// search on every record.
    quiet: BinaryHeap<Reverse<(i64, ObjectId)>>,
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
            plan: None,
            quiet: BinaryHeap::new(),
            unreported: SpanWork::default(),
        }
    }

    /// Appends a run of records (already validated and routed by the
    /// engine, in stream order) to this shard's partition of the
    /// positioning log, files each record's position under its object
    /// and bucket, then evaluates the open-bucket span of every object
    /// the run left quiet.
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
        for (position, record) in positions.zip(&run) {
            let (oid, t) = (record.oid, record.t.millis());
            let bucket = t.div_euclid(self.bucket_millis);
            let object = self.objects.entry(oid).or_default();
            if object.buckets.last().is_none_or(|&(b, _)| b != bucket) {
                object.buckets.push((bucket, object.positions.len() as u32));
                self.buckets.entry(bucket).or_default().push(oid);
            }
            // From its second record on, an object falls quiet once the
            // shard's newest record passes this one by more than
            // `QUIET_GAPS` times the gap since its previous one.
            if !object.positions.is_empty() {
                let gap = t.saturating_sub(object.last);
                let due = t.saturating_add(gap.saturating_mul(QUIET_GAPS));
                object.due = Some(due);
                self.quiet.push(Reverse((due, oid)));
            }
            object.positions.push(position);
            object.last = t;
        }
        if let Some(newest) = run.last() {
            self.speculate(newest.t.millis());
        }
    }

    /// Evaluates, for each window width of the last advance, the span of
    /// every object that has fallen quiet by `newest` and whose latest
    /// record lies in a bucket no advance has reached yet. The entries
    /// are stamped as never asked for: the sweep of each advance keeps
    /// them while their bucket is still open, and the advance that closes
    /// it hits them if the object has stayed quiet.
    fn speculate(&mut self, newest: i64) {
        let mut keys = Vec::new();
        while let Some(&Reverse((due, oid))) = self.quiet.peek() {
            if due >= newest {
                break;
            }
            self.quiet.pop();
            let Some(object) = self.objects.get_mut(&oid).filter(|o| o.due == Some(due)) else {
                // Superseded by a later record of the object.
                continue;
            };
            object.due = None;
            let last = object.last.div_euclid(self.bucket_millis);
            let Some((end, widths)) = &self.plan else {
                continue;
            };
            if last <= *end {
                continue;
            }
            for &width in widths {
                if let Some((first, _)) = object.span_in(last - width + 1, last) {
                    keys.push((oid, first, last));
                }
            }
            // Widths ascend, so firsts never do: equal keys are adjacent.
            keys.dedup();
        }
        for key in keys {
            // A kernel error caches nothing; the advance that needs the
            // span meets the same error itself.
            let _ = self.evaluate_span(key, 0, true);
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

    /// Retargets the shard at a new union of registered location sets.
    /// `reset` drops every span (required when the union grew — cached
    /// contributions would be missing the new locations); the grouped
    /// records do not depend on the union and stay.
    pub(crate) fn set_union(&mut self, union: QuerySet, reset: bool) {
        self.union = union;
        if reset {
            let unused = self.spans.values().filter(|entry| entry.ahead).count();
            self.unreported.unused += unused;
            self.spans.clear();
        }
    }

    /// Assembles one contribution list per requested window, all ending
    /// at bucket `window_end`, from the span cache: one lookup per window
    /// object, one kernel call per miss. `window_starts` ascend.
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
        let checked = self.plan.replace((window_end, widths.collect()));
        let checked = checked.map_or(i64::MIN, |(end, _)| end);

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
    /// replacing any entry with the same key — which is the shard's one
    /// kernel call. `ahead` marks an evaluation no advance has asked for.
    /// A kernel error caches nothing.
    fn evaluate_span(
        &mut self,
        key: SpanKey,
        asked: u64,
        ahead: bool,
    ) -> Result<Option<Arc<ObjectContribution>>, FlowError> {
        let (oid, first, last) = key;
        let (records, n) = self
            .objects
            .get(&oid)
            .map_or((&[][..], 0), |object| object.span(first, last));
        let log = &self.iupt;
        let sets = records.iter().map(|&i| log.samples_at(i));
        let contribution =
            object_flow_contributions(&self.space, sets, &self.union, &self.cfg)?.map(Arc::new);
        let work = &mut self.unreported;
        work.straddlers += usize::from(first != last);
        work.in_advance += usize::from(!ahead);
        if let Some(c) = &contribution {
            work.fresh_presence += 1;
            work.presence_cells += c.relevant.len();
        }
        let entry = SpanEntry {
            contribution: contribution.clone(),
            n,
            asked,
            ahead,
        };
        if let Some(replaced) = self.spans.insert(key, entry) {
            self.unreported.unused += usize::from(replaced.ahead);
        }
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

    /// The oracle's side of a schedule: what the span map must hold and
    /// what each open-bucket entry must contain, worked out from the
    /// records ingested so far — the shard's log — and the advances
    /// made.
    #[derive(Default)]
    struct Model {
        /// The records ingested so far, in log order.
        log: Vec<Record>,
        /// Their timestamps, by object.
        times: BTreeMap<ObjectId, Vec<i64>>,
        /// The last advance's end bucket and window widths.
        plan: Option<(i64, Vec<i64>)>,
        /// The object's record count when it was last found quiet.
        quiet_at: BTreeMap<ObjectId, usize>,
        /// The keys the last advance kept, plus what was stamped ahead
        /// for the next one.
        closed: BTreeSet<SpanKey>,
        /// Stamped ahead of the next advance.
        ahead: BTreeSet<SpanKey>,
        /// Live speculations: their last bucket is still open.
        live: BTreeSet<SpanKey>,
        /// Open-bucket entries already checked against the kernel.
        checked: BTreeSet<(SpanKey, usize)>,
    }

    impl Model {
        /// The buckets `oid` reported in.
        fn buckets(&self, oid: ObjectId) -> BTreeSet<i64> {
            let times = self.times.get(&oid).into_iter().flatten();
            times.map(|t| t.div_euclid(BUCKET)).collect()
        }

        /// `oid`'s records in bucket `b`.
        fn count_in(&self, oid: ObjectId, b: i64) -> usize {
            let times = self.times.get(&oid).into_iter().flatten();
            times.filter(|t| t.div_euclid(BUCKET) == b).count()
        }

        /// Takes in an ingested run: every object whose latest record the
        /// newest one now passes by more than two of its last gaps has
        /// fallen quiet, and is speculated once per width if its bucket
        /// is past the last advance.
        fn ingested(&mut self, run: &[Record]) {
            self.log.extend_from_slice(run);
            for r in run {
                self.times.entry(r.oid).or_default().push(r.t.millis());
            }
            let Some(newest) = run.last().map(|r| r.t.millis()) else {
                return;
            };
            let mut quiet = Vec::new();
            for (&oid, times) in &self.times {
                let [.., before, last] = times[..] else {
                    continue;
                };
                if newest > last + 2 * (last - before)
                    && self.quiet_at.insert(oid, times.len()) != Some(times.len())
                {
                    quiet.push((oid, last.div_euclid(BUCKET)));
                }
            }
            let Some((end, widths)) = &self.plan else {
                return;
            };
            for (oid, l) in quiet {
                if l > *end {
                    let buckets = self.buckets(oid);
                    for w in widths {
                        self.live.extend(span_from(oid, &buckets, l - w + 1));
                    }
                }
            }
        }

        /// The reference contribution of an open-bucket entry: the
        /// object's records in `first..last` and its first `n` in `last`,
        /// straight from the log through the batch kernel.
        fn reference(
            &self,
            worker: &ShardWorker,
            (oid, first, last): SpanKey,
            n: usize,
        ) -> Option<ObjectContribution> {
            let mut in_last = 0;
            let sets = self
                .log
                .iter()
                .filter(|r| r.oid == oid && (first..=last).contains(&bucket_of(r)))
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
            let end = self.plan.as_ref().map_or(i64::MIN, |(end, _)| *end);
            let closed = worker.spans.iter().filter(|(k, _)| k.2 <= end);
            closed.map(|(&k, e)| (k, e.asked, e.ahead, e.n)).collect()
        }

        /// After an ingest: the span map holds what the last advance
        /// kept, untouched, and the live speculations, and every
        /// open-bucket entry is exactly the kernel over the records it
        /// covers.
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
            let end = self.plan.as_ref().map_or(i64::MIN, |(end, _)| *end);
            for (&key, entry) in &worker.spans {
                if key.2 <= end || !self.checked.insert((key, entry.n)) {
                    continue;
                }
                assert!(
                    entry.n >= 1,
                    "seed {seed}: {key:?} covers nothing of its last bucket"
                );
                let want = self.reference(worker, key, entry.n);
                assert_eq!(
                    bits(entry.contribution.as_deref(), &worker.union),
                    bits(want.as_ref(), &worker.union),
                    "seed {seed}: speculation {key:?} over {} records of its last bucket",
                    entry.n
                );
            }
        }

        /// Takes in an advance that asked for `asked`; returns how many
        /// of them were speculations that hit.
        fn advanced(
            &mut self,
            worker: &ShardWorker,
            (end, starts): (i64, &[i64]),
            asked: BTreeSet<SpanKey>,
            before: &BTreeMap<SpanKey, usize>,
        ) -> usize {
            let speculated = self
                .live
                .iter()
                .filter(|k| k.2 <= end && asked.contains(k))
                .filter(|k| before.get(k) == Some(&self.count_in(k.0, k.2)))
                .count();
            self.plan = Some((end, starts.iter().rev().map(|s| end - s + 1).collect()));
            self.live.retain(|k| k.2 > end);
            self.closed = asked;
            self.closed.append(&mut self.ahead);
            let expected: BTreeSet<SpanKey> = self.closed.union(&self.live).copied().collect();
            assert_eq!(held(worker), expected, "span map after advance to {end}");
            speculated
        }

        /// A cache reset: every span is gone.
        fn reset(&mut self) {
            self.closed.clear();
            self.ahead.clear();
            self.live.clear();
        }
    }

    /// Drives one worker through a seeded random schedule of ingest
    /// runs (single records on some seeds, and on some a stream that
    /// lost half its records at random — irregular sampling, so objects
    /// pause and report again), union changes and advances
    /// over 1–3 widths (sliding by one bucket, by two, or not at all),
    /// sometimes ingesting past the advance's end bucket first. Every
    /// reply is checked against [`ShardWorker::reference_evaluate_multi`],
    /// every open-bucket speculation against the kernel, and the span
    /// map against the spans the schedule asked for, stamped ahead and
    /// speculated. Advances are followed, most of the time, by an
    /// ahead-of-time job. Returns how many cache hits, DP fallbacks,
    /// cache resets, speculative hits and unused spans it saw.
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
        let mut model = Model::default();

        let last_bucket = bucket_of(records.last().expect("records")) - 1;
        let mut end = bucket_of(&records[0]) - 1;
        let mut next = 0;
        let mut advances = 0;
        let mut seen = [0; 5];
        while end < last_bucket {
            end += if rng.gen_range(0..6) == 0 { 2 } else { 1 };
            let mut upto = records.partition_point(|r| bucket_of(r) <= end);
            // Now and then part of the next bucket lands first: the
            // advance must leave its speculations alone.
            if rng.gen_range(0..3) == 0 {
                upto += rng.gen_range(0..120usize);
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
                worker.set_union(union.clone(), grew);
                if grew {
                    model.reset();
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
                let (hits, speculated, unused) =
                    drive_advance(&mut worker, &mut rng, &union, advance, seed, &mut model);
                seen[0] += hits;
                seen[4] += unused;
                seen[1] += reference
                    .iter()
                    .flat_map(|win| &win.contributions)
                    .filter(|(_, c)| c.dp_fallback)
                    .count();
                seen[3] += speculated;
                advances += 1;
            }
        }
        assert!(advances >= 15, "seed {seed}: only {advances} advances");
        seen
    }

    /// One advance to `end` over the windows `starts` (whose
    /// contributions are `reference`) and, three times in four, its
    /// ahead-of-time job. Returns the advance's cache hits, how many of
    /// them were speculations, and the unused spans it reported.
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

        // The advance evaluated exactly the spans it asked for that the
        // cache did not hold with their current record count.
        let asked = spans_asked(worker, end, starts);
        let missed = asked
            .iter()
            .filter(|k| before.get(k) != Some(&model.count_in(k.0, k.2)))
            .count();
        assert_eq!(
            report.work.in_advance, missed,
            "seed {seed}: advance to {end}"
        );
        let speculated = model.advanced(worker, (end, starts), asked, &before);

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
        (report.cache_hits, speculated, report.work.unused)
    }

    #[test]
    fn evaluate_multi_matches_reference_on_random_schedules() {
        let mut seen = [0; 5];
        for seed in 0..24 {
            for (total, n) in seen.iter_mut().zip(drive(seed)) {
                *total += n;
            }
        }
        // The schedules did exercise hits, DP fallbacks, resets,
        // speculations that hit and spans worked out ahead in vain.
        assert!(seen.iter().all(|&n| n > 50), "{seen:?}");
    }

    /// An object that falls quiet, is speculated, and then reports again
    /// in the same bucket wastes exactly that one speculation — and the
    /// advance that closes the bucket still matches the reference. The
    /// same schedule without the return wastes nothing.
    #[test]
    fn a_pause_then_a_report_in_the_same_bucket_wastes_one_speculation() {
        let fig = paper_figure1();
        let table = paper_table2().to_records();
        let sets = |oid: u32| {
            table
                .iter()
                .filter(move |r| r.oid.0 == oid)
                .map(|r| r.samples.clone())
        };
        let (a, b) = (ObjectId(1), ObjectId(2));
        let timed = |oid: ObjectId, times: &[i64]| -> Vec<Record> {
            times
                .iter()
                .zip(sets(oid.0))
                .map(|(&t, samples)| Record {
                    oid,
                    t: Timestamp(t),
                    samples,
                })
                .collect()
        };
        for returns in [false, true] {
            // `a` reports at 1 s and 2 s, so it is quiet once the stream
            // passes 4 s; `b` reports every 2 s and never is.
            let mut records = timed(
                a,
                if returns {
                    &[1_000, 2_000, 6_000]
                } else {
                    &[1_000, 2_000]
                },
            );
            records.extend(timed(b, &[1_000, 3_000, 5_000, 7_000]));
            records.sort_by_key(|r| r.t);
            let union = QuerySet::new(fig.r.to_vec());
            let mut worker = ShardWorker::new(
                Arc::new(fig.space.clone()),
                union.clone(),
                FlowConfig::default(),
                BUCKET,
            );
            // An advance before the stream fixes the window width.
            worker.evaluate_multi(-1, &[-1]);
            for record in records {
                worker.ingest(vec![record]);
            }
            let speculated = worker.spans.get(&(a, 0, 0)).map(|entry| entry.n);
            assert_eq!(speculated, Some(2), "returns {returns}");
            let reference = worker.reference_evaluate_multi(0, &[0]);
            let report = worker.evaluate_multi(0, &[0]);
            assert_eq!(
                rows(&report.windows[0], &union),
                rows(&reference[0], &union)
            );
            assert_eq!(
                report.work.unused,
                usize::from(returns),
                "returns {returns}"
            );
            assert_eq!(
                report.work.in_advance,
                1 + usize::from(returns),
                "returns {returns}"
            );
            assert_eq!(
                report.cache_hits,
                usize::from(!returns),
                "returns {returns}"
            );
        }
    }
}
