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
//! in-window bucket to its last — its **span**. Once an advance has
//! reached a span's last bucket, the span's records never change (the
//! engine rejects records for closed buckets), so its contribution is a
//! pure function of `(object, first, last)` and the union.
//!
//! # Rosters
//!
//! For every window width an advance asks for, the shard keeps a
//! **roster** of [`WindowEval`] blocks: the window the advance asked
//! for, and — once the hand-off after the advance has settled it — that
//! window without its oldest bucket. A block lists every object with
//! records in its window, ascending by id, with its span and the cells
//! of its contribution (a PSL-pruned object is listed and counted, but
//! has no cells). Blocks are carried from window to window. Carrying one
//! to another window changes only the objects with records in a bucket
//! of one window and not of the other; every other object keeps its
//! span, and so its entry. A changed object's new entry comes from the
//! first of:
//!
//! * a block that holds the object over the same span — windows of
//!   different widths share every span that does not touch their own
//!   edges;
//! * a fold finished ahead (see below);
//! * the object's live fold over the span, finished now: one DP step and
//!   a sum;
//! * the span's records folded from the log once, exactly, through the
//!   same [`SpanFold`] kernel the batch search uses.
//!
//! The new entries are merged by object id into the carried block in one
//! sequential pass; with nothing changed — an advance repeated at the
//! same instant — the carried block is the new one. That is the only
//! assembly path: the first window, a window after a cache reset (which
//! empties the rosters) and a slide of several buckets are the same
//! update with more objects changed.
//!
//! # Work done ahead of the advance
//!
//! Both edges of a slide can be known before the advance that needs
//! them, and the shard pays for them while it would otherwise wait:
//!
//! * **The trailing edge.** After each advance the engine hands the shard
//!   [`ShardWorker::evaluate_ahead`], which settles every asked window
//!   one bucket on, to the next window without its newest bucket:
//!   objects whose only in-window bucket was the oldest leave, and
//!   objects that lose it get the rest of their span — complete
//!   history — evaluated.
//! * **The leading edge.** An object whose latest record lies in a bucket
//!   `L` no advance has reached yet will be asked for `(object, first,
//!   L)` by the advance that closes `L`, where `first` follows from the
//!   window widths. For each registered window width, the shard
//!   keeps a live [`SpanFold`] over that span and pushes each of the
//!   object's records into it as the record lands, so the advance only
//!   finishes it. An object that moves on to a later bucket before the
//!   advance that closes `L` has its folds finished first and kept until
//!   that advance takes them. The log is append-only and time-ordered
//!   and a fold takes every record of its object, so a live fold over `L`
//!   always covers every record the object has there, and its result is
//!   exact.
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
//! # The evaluation protocol
//!
//! One request per advance ([`ShardWorker::evaluate_multi`]) asks for
//! several windows at once (one per distinct width, all ending at the
//! same bucket). For a one-bucket slide, each window's block was settled
//! by the previous [`ShardWorker::evaluate_ahead`]: the request finishes
//! the live folds of the closing bucket's objects, merges them into the
//! settled block, and replies with the new block itself — shared with
//! the coordinator, not copied. Everything else happens in the `tell` that
//! follows every advance ([`ShardWorker::evaluate_ahead`]), off the
//! record→delta path: it drops the closed buckets' live folds, the folds
//! finished ahead that no advance took, and the rosters of widths the
//! advance did not ask for, then settles the next window's blocks. The
//! engine sends it before anything else can reach the shard, and the
//! shard relies on that.
//!
//! # Registration changes
//!
//! [`ShardWorker::retarget`] points the shard at a new union set and new
//! window widths and drops every live fold: a fold's locations are the
//! union it was started with, and its first bucket follows from a width.
//! When the union *grows*, every evaluated contribution is stale too (it
//! was computed against the smaller set), so the engine requests a cache
//! reset, which empties the rosters and drops the folds finished ahead;
//! the bucket positions do not depend on the union and stay. Every span
//! is then evaluated afresh, deterministically — which is why a query
//! registered mid-stream still gets results bit-identical to an engine
//! that held it from the start. A *shrunk* union keeps the rosters: their
//! entries are valid supersets, sliced at merge time.
//!
//! The worker owns no thread of its own: the engine runs one
//! [`ShardWorker`] per shard inside a [`popflow_exec::ShardPool`], whose
//! FIFO job queues give exactly the ordering the protocol relies on — an
//! ingest or registration routed before an advance is always reflected
//! by it, and the hand-off after an advance runs before anything routed
//! after it.

use std::collections::{BTreeMap, HashMap};
use std::ops::Range;
use std::sync::Arc;

use indoor_iupt::{Iupt, ObjectId, Record, SampleSet, StoreStats};
use indoor_model::{IndoorSpace, SLocId};
use popflow_core::{
    FinishScratch, FlowError, Normalization, ObjectContribution, QuerySet, SpanFold,
};
use popflow_obs::Timer;

/// One window as one columnar block, ascending by object id: what a
/// shard replies with for the window, and — with each entry's span —
/// what its roster carries to the next window.
///
/// Entry `i` is `oids[i]`; its union contribution is the cells
/// `ends[i - 1]..ends[i]` of `locs` and `scores` (from 0 for the first
/// entry), ascending by location. An entry is PSL-pruned exactly when it
/// has no cells: with the reduction on, the kernel prunes an object
/// whose PSLs miss the union and scores every location they touch.
#[derive(Debug, Default)]
pub(crate) struct WindowEval {
    /// Every object with records in the window, ascending.
    pub oids: Vec<ObjectId>,
    /// Where each entry's cells end.
    ends: Vec<usize>,
    /// The union locations of each entry's contribution.
    locs: Vec<SLocId>,
    /// Presence per cell.
    scores: Vec<f64>,
    /// Each entry's span: the first and the last bucket of the window
    /// that hold a record of it.
    spans: Vec<(i64, i64)>,
}

impl WindowEval {
    fn with_capacity(entries: usize, cells: usize) -> Self {
        WindowEval {
            oids: Vec::with_capacity(entries),
            ends: Vec::with_capacity(entries),
            locs: Vec::with_capacity(cells),
            scores: Vec::with_capacity(cells),
            spans: Vec::with_capacity(entries),
        }
    }

    /// Entries in the block.
    pub(crate) fn len(&self) -> usize {
        self.oids.len()
    }

    /// Where the cells of entry `i` begin (where the block's cells end,
    /// for `i` = [`WindowEval::len`]).
    fn start(&self, i: usize) -> usize {
        let previous = i.checked_sub(1).and_then(|p| self.ends.get(p));
        previous.copied().unwrap_or(0)
    }

    /// The locations and scores of entry `i`.
    pub(crate) fn cells(&self, i: usize) -> (&[SLocId], &[f64]) {
        let cells = self.start(i)..self.ends.get(i).copied().unwrap_or(0);
        let locs = self.locs.get(cells.clone()).unwrap_or_default();
        (locs, self.scores.get(cells).unwrap_or_default())
    }

    /// The entry of `oid` over exactly `span`, if the block has it.
    fn find(&self, oid: ObjectId, span: (i64, i64)) -> Option<usize> {
        let i = self.oids.binary_search(&oid).ok()?;
        (self.spans.get(i) == Some(&span)).then_some(i)
    }

    /// Appends `oid` over `span` with its union contribution (`None`:
    /// PSL-pruned). Entries must be appended in ascending id order.
    pub(crate) fn push(
        &mut self,
        oid: ObjectId,
        span: (i64, i64),
        contribution: Option<&ObjectContribution>,
    ) {
        debug_assert!(self.oids.last().is_none_or(|&last| last < oid));
        debug_assert!(contribution.is_none_or(|c| !c.relevant.is_empty()));
        if let Some(c) = contribution {
            self.locs.extend_from_slice(&c.relevant);
            self.scores.extend_from_slice(&c.scores);
        }
        self.oids.push(oid);
        self.spans.push(span);
        self.ends.push(self.locs.len());
    }

    /// Appends the entries `range` of `from`, cells and all: a run of
    /// slice copies.
    fn extend_from(&mut self, from: &WindowEval, range: Range<usize>) {
        if range.is_empty() {
            return;
        }
        let cells = from.start(range.start)..from.start(range.end);
        let base = self.locs.len();
        self.oids
            .extend_from_slice(from.oids.get(range.clone()).unwrap_or_default());
        self.spans
            .extend_from_slice(from.spans.get(range.clone()).unwrap_or_default());
        let ends = from.ends.get(range).unwrap_or_default();
        self.ends
            .extend(ends.iter().map(|&end| end - cells.start + base));
        self.locs
            .extend_from_slice(from.locs.get(cells.clone()).unwrap_or_default());
        self.scores
            .extend_from_slice(from.scores.get(cells).unwrap_or_default());
    }
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

impl SpanWork {
    /// Counts one evaluated span.
    fn evaluated(&mut self, (_, first, last): SpanKey, contribution: Option<&ObjectContribution>) {
        self.straddlers += usize::from(first != last);
        if let Some(c) = contribution {
            self.fresh_presence += 1;
            self.presence_cells += c.relevant.len();
        }
    }
}

/// One shard's answer to an advance: one [`WindowEval`] per
/// requested window start, in request order.
pub(crate) struct EagerReport {
    /// The windows' blocks, shared with the shard's rosters.
    pub windows: Vec<Arc<WindowEval>>,
    /// Window objects, summed over the requested windows, whose entries
    /// no evaluation in this advance paid for: carried over from the
    /// previous window, settled ahead of the advance, or shared with
    /// another roster or a fold finished ahead.
    pub cache_hits: usize,
    /// Spans evaluated since the previous report: this advance's
    /// evaluations plus whatever was evaluated ahead of it — each
    /// distinct span once, not once per slide it stays in a window.
    pub work: SpanWork,
    /// Footprint/interner accounting of this shard's log, as of this
    /// advance.
    pub store: StoreStats,
    /// The shard's own time in [`ShardWorker::evaluate_multi`], in ns.
    pub reply_ns: u64,
    /// First error hit, if any (the report is then partial).
    pub error: Option<FlowError>,
}

/// `(object, first bucket, last bucket)`: an object's records in every
/// bucket from the first to the last, both of which hold at least one of
/// them.
type SpanKey = (ObjectId, i64, i64);

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
    /// A fault injected by a test: every span of the object the shard
    /// evaluates fails, as if the kernel had rejected it.
    #[cfg(test)]
    faulty: bool,
}

impl ObjectLog {
    /// Where the records of the `k`-th bucket it reported in begin.
    fn start(&self, k: usize) -> usize {
        self.buckets
            .get(k)
            .map_or(self.positions.len(), |&(_, i)| i as usize)
    }

    /// Its records in buckets `first..=last`.
    fn span(&self, first: i64, last: i64) -> &[u32] {
        let from = self.buckets.partition_point(|&(b, _)| b < first);
        let to = self.buckets.partition_point(|&(b, _)| b <= last);
        let records = self.positions.get(self.start(from)..self.start(to));
        records.unwrap_or_default()
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
    normalization: Normalization,
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
    /// earlier, still open bucket are finished into `finished` —
    /// complete, for the advance that closes that bucket — and, if
    /// `bucket` is `open`, lined up with it: every window width asks for
    /// a fold from the first bucket it reaches back to; a fold already
    /// starting there carries on, and any other starts from the log. A
    /// record beyond `open` leaves the object without folds, so a fold
    /// always holds every record of its object from its first bucket on.
    /// A fold the kernel rejects a record of is dropped: the advance that
    /// needs its span meets the same error folding it from the log.
    fn fold_record(
        &self,
        oid: ObjectId,
        object: &mut ObjectLog,
        (bucket, position): (i64, u32),
        finished: &mut BTreeMap<SpanKey, Option<ObjectContribution>>,
        work: &mut SpanWork,
        scratch: &mut FinishScratch,
    ) {
        let set = self.log.samples_at(position);
        if object.folded == Some((bucket, self.generation)) {
            object
                .folds
                .retain_mut(|(_, fold)| fold.push(self.space, self.union, set).is_ok());
            return;
        }
        if let Some((last, _)) = object.folded.filter(|&(last, _)| last != bucket) {
            for (first, fold) in &object.folds {
                if let Ok(contribution) = fold.finish_with(self.space, scratch) {
                    let key = (oid, *first, last);
                    work.finished += 1;
                    work.evaluated(key, contribution.as_ref());
                    if finished.insert(key, contribution).is_some() {
                        work.unused += 1;
                    }
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
                    let records = object.span(first, bucket);
                    let sets = records.iter().map(|&i| self.log.samples_at(i));
                    let folded = fold_span(self.space, self.union, self.normalization, sets);
                    let kept_fold = folded.map(|fold| object.folds.insert(kept, (first, fold)));
                    kept_fold.is_ok()
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

/// A new fold over `sets`, the records of one span, in the one kernel
/// the shards run: the transition DP with the §3.2 reduction on.
fn fold_span<'a>(
    space: &IndoorSpace,
    union: &QuerySet,
    normalization: Normalization,
    sets: impl IntoIterator<Item = &'a SampleSet>,
) -> Result<SpanFold, FlowError> {
    let mut fold = SpanFold::new(space, normalization, true);
    for set in sets {
        fold.push(space, union, set)?;
    }
    Ok(fold)
}

/// One window's block, and the window it describes.
struct Carried {
    /// The buckets `[start, end]` the block describes (`start > end`
    /// for none).
    window: (i64, i64),
    /// The window's objects; an asked window's block is shared with the
    /// reply that asked for it.
    block: Arc<WindowEval>,
    /// Entries evaluated ahead of the advance that will ask for them,
    /// ascending by object id.
    ahead: Vec<ObjectId>,
}

/// One window width's roster: the window the last advance asked for,
/// and that window without its oldest bucket, settled for the next
/// slide by the hand-off after the advance.
struct Roster {
    /// The window width, in buckets.
    width: i64,
    /// The window the last advance asked for (`None` before the first
    /// advance that asked for the width).
    asked: Option<Carried>,
    /// `asked` without its oldest bucket, once the hand-off after the
    /// advance has settled it; an advance consumes it.
    settled: Option<Carried>,
}

impl Roster {
    /// What to carry to `window`: a block of that very window if the
    /// roster has one (nothing changes), else the settled block, else
    /// the asked one.
    fn base(&self, window: (i64, i64)) -> Option<&Carried> {
        let blocks = [&self.asked, &self.settled];
        let exact = blocks.into_iter().flatten().find(|c| c.window == window);
        exact.or(self.settled.as_ref()).or(self.asked.as_ref())
    }

    /// Entries evaluated ahead that no advance has asked for yet.
    fn unasked(&self) -> usize {
        let blocks = [&self.asked, &self.settled].into_iter().flatten();
        blocks.map(|c| c.ahead.len()).sum()
    }

    /// Its blocks.
    fn blocks(&self) -> impl Iterator<Item = &WindowEval> {
        let blocks = [&self.asked, &self.settled].into_iter().flatten();
        blocks.map(|c| &*c.block)
    }
}

/// The objects whose span differs between the window `from` and the
/// window `[start, end]`: those with records in a bucket of one of them
/// but not of the other — every object of `[start, end]` when `from` is
/// `None`. Ascending, each once.
fn changed_objects(
    buckets: &BTreeMap<i64, Vec<ObjectId>>,
    from: Option<(i64, i64)>,
    (start, end): (i64, i64),
) -> Vec<ObjectId> {
    let pieces = match from {
        None => vec![(start, end)],
        Some((first, last)) => vec![
            (start, end.min(first.saturating_sub(1))),
            (start.max(last.saturating_add(1)), end),
            (first, last.min(start.saturating_sub(1))),
            (first.max(end.saturating_add(1)), last),
        ],
    };
    let mut oids = Vec::new();
    for (lo, hi) in pieces {
        if lo <= hi {
            for objects in buckets.range(lo..=hi).map(|(_, objects)| objects) {
                oids.extend_from_slice(objects);
            }
        }
    }
    oids.sort_unstable();
    oids.dedup();
    oids
}

/// Where a changed object's new entry comes from.
enum Source<'r> {
    /// Entry `.1` of a roster's block.
    Shared(&'r WindowEval, usize),
    /// A contribution (`None`: PSL-pruned), and whether this assembly
    /// evaluated it.
    Owned(Option<ObjectContribution>, bool),
}

/// What carrying a block to a new window reads and counts: the shard's
/// state, borrowed apart from its rosters.
struct Assembly<'w> {
    space: &'w IndoorSpace,
    union: &'w QuerySet,
    normalization: Normalization,
    log: &'w Iupt,
    objects: &'w HashMap<ObjectId, ObjectLog>,
    buckets: &'w BTreeMap<i64, Vec<ObjectId>>,
    finished: &'w mut BTreeMap<SpanKey, Option<ObjectContribution>>,
    work: &'w mut SpanWork,
    scratch: &'w mut FinishScratch,
    /// Whether an advance is asking, rather than the shard working ahead
    /// of one.
    advance: bool,
}

impl Assembly<'_> {
    /// Carries `base` (no block: an empty one describing no window) to
    /// the window `[start, end]`: every changed object's new entry (see
    /// [`changed_objects`]) is found or evaluated, in ascending id
    /// order, and merged with the unchanged entries in one pass; with
    /// nothing changed the block is `base`'s own. `rosters` are the
    /// shard's, searched for shared entries. Returns the carried block
    /// and how many of its entries no evaluation paid for.
    fn carry(
        &mut self,
        rosters: &[Roster],
        base: Option<&Carried>,
        (start, end): (i64, i64),
    ) -> Result<(Carried, usize), FlowError> {
        let changed = changed_objects(self.buckets, base.map(|c| c.window), (start, end));
        let empty = WindowEval::default();
        let carried = base.map_or(&empty, |c| &*c.block);
        let carried_ahead = base.map_or(&[][..], |c| &c.ahead);
        // Entries evaluated ahead stay unasked until an advance takes
        // the block.
        let mut ahead = if self.advance {
            Vec::new()
        } else {
            let kept = carried_ahead.iter();
            kept.filter(|oid| changed.binary_search(oid).is_err())
                .copied()
                .collect()
        };
        if changed.is_empty() {
            let block = base.map_or_else(Arc::default, |c| Arc::clone(&c.block));
            let hits = block.len();
            let window = (start, end);
            return Ok((
                Carried {
                    window,
                    block,
                    ahead,
                },
                hits,
            ));
        }
        let mut block = WindowEval::with_capacity(
            carried.len() + changed.len(),
            carried.locs.len() + 8 * changed.len(),
        );
        let mut evaluated = 0;
        let mut next = 0;
        for &oid in &changed {
            let below = carried.oids.get(next..).unwrap_or_default();
            let upto = next + below.partition_point(|&o| o < oid);
            block.extend_from(carried, next..upto);
            next = upto;
            if carried.oids.get(next) == Some(&oid) {
                next += 1;
                // Evaluated ahead, then replaced or dropped unasked.
                self.work.unused += usize::from(carried_ahead.binary_search(&oid).is_ok());
            }
            let object = self.objects.get(&oid);
            let Some(span) = object.and_then(|o| o.span_in(start, end)) else {
                continue;
            };
            match self.source(rosters, oid, span)? {
                Source::Shared(from, i) => block.extend_from(from, i..i + 1),
                Source::Owned(contribution, fresh) => {
                    block.push(oid, span, contribution.as_ref());
                    evaluated += usize::from(fresh);
                    if fresh && !self.advance {
                        ahead.push(oid);
                    }
                }
            }
        }
        block.extend_from(carried, next..carried.len());
        ahead.sort_unstable();
        let hits = block.len() - evaluated;
        let window = (start, end);
        let block = Arc::new(block);
        Ok((
            Carried {
                window,
                block,
                ahead,
            },
            hits,
        ))
    }

    /// The entry of `oid` over `span`: shared with a roster's block,
    /// taken from the folds finished ahead, or evaluated — by finishing
    /// its live fold over the span or by folding the span's records from
    /// the log. A kernel error evaluates nothing.
    fn source<'r>(
        &mut self,
        rosters: &'r [Roster],
        oid: ObjectId,
        span: (i64, i64),
    ) -> Result<Source<'r>, FlowError> {
        for block in rosters.iter().flat_map(Roster::blocks) {
            if let Some(i) = block.find(oid, span) {
                return Ok(Source::Shared(block, i));
            }
        }
        let key = (oid, span.0, span.1);
        if let Some(contribution) = self.finished.remove(&key) {
            return Ok(Source::Owned(contribution, false));
        }
        let object = self.objects.get(&oid);
        #[cfg(test)]
        if object.is_some_and(|o| o.faulty) {
            let detail = format!("fault injected into the spans of object {oid}");
            return Err(FlowError::InvalidSampleSet { detail });
        }
        let contribution = match object.and_then(|o| o.fold(span.0, span.1)) {
            Some(fold) => {
                let contribution = fold.finish_with(self.space, self.scratch)?;
                self.work.finished += 1;
                contribution
            }
            None => {
                let records = object.map_or(&[][..], |o| o.span(span.0, span.1));
                let sets = records.iter().map(|&i| self.log.samples_at(i));
                let fold = fold_span(self.space, self.union, self.normalization, sets)?;
                self.work.in_advance += usize::from(self.advance);
                fold.finish_with(self.space, self.scratch)?
            }
        };
        self.work.evaluated(key, contribution.as_ref());
        Ok(Source::Owned(contribution, true))
    }
}

/// The state owned by one worker thread.
pub(crate) struct ShardWorker {
    space: Arc<IndoorSpace>,
    /// Union of every registered query's location set — what spans are
    /// computed against.
    union: QuerySet,
    /// How the kernel normalizes presence.
    normalization: Normalization,
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
    /// One roster per window width the last advance asked for (and,
    /// until the hand-off after an advance drops them, per width the one
    /// before asked for), in no particular order.
    ///
    /// **A block is exact for its window.** Every entry is the object's
    /// span in the block's window and the contribution of that span,
    /// whose records are final (see the module docs); so an entry can be
    /// shared with any block that needs the same span, and a block can
    /// be carried from its window to any other. A union that grows
    /// empties the rosters ([`ShardWorker::retarget`]); one that shrinks
    /// leaves valid supersets.
    rosters: Vec<Roster>,
    /// Folds finished ahead, by span, when their object moved on to a
    /// later bucket before the advance that closes theirs: taken by the
    /// advance that asks for the span, and dropped by the hand-off after
    /// the advance that closes it otherwise.
    finished: BTreeMap<SpanKey, Option<ObjectContribution>>,
    /// Counts advances; what the live folds' line-up is measured in.
    generation: u64,
    /// The last advance's end bucket (`i64::MIN` before the first) and
    /// the distinct window widths, in buckets, ascending, of the last
    /// advance or of the queries registered since: what the live folds'
    /// first buckets follow from. With no width there is nothing to fold
    /// for.
    plan: (i64, Vec<i64>),
    /// The newest bucket whose objects' live folds the hand-off after an
    /// advance has dropped (`i64::MIN` before the first).
    swept: i64,
    /// Buffers for finishing folds.
    scratch: FinishScratch,
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
        normalization: Normalization,
        bucket_millis: i64,
    ) -> Self {
        assert!(bucket_millis > 0, "bucket width must be positive");
        ShardWorker {
            space,
            union,
            normalization,
            bucket_millis,
            iupt: Iupt::new(),
            objects: HashMap::new(),
            buckets: BTreeMap::new(),
            rosters: Vec::new(),
            finished: BTreeMap::new(),
            generation: 0,
            plan: (i64::MIN, Vec::new()),
            swept: i64::MIN,
            scratch: FinishScratch::default(),
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
            normalization: self.normalization,
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
                let (finished, work) = (&mut self.finished, &mut self.unreported);
                let fold = (bucket, position);
                inputs.fold_record(oid, object, fold, finished, work, &mut self.scratch);
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
    /// widths. `reset` empties the rosters and drops the folds finished
    /// ahead too (required when the union grew — their contributions
    /// would be missing the new locations); the grouped records do not
    /// depend on the union and stay.
    pub(crate) fn retarget(&mut self, union: QuerySet, widths: Vec<i64>, reset: bool) {
        self.union = union;
        self.plan.1 = widths;
        // Objects with live folds have their latest record past the
        // last hand-off's sweep.
        for (_, oids) in self.buckets.range(self.swept.saturating_add(1)..) {
            for oid in oids {
                if let Some(object) = self.objects.get_mut(oid) {
                    object.drop_folds();
                }
            }
        }
        if reset {
            let ahead: usize = self.rosters.iter().map(Roster::unasked).sum();
            self.unreported.unused += ahead + self.finished.len();
            self.rosters.clear();
            self.finished.clear();
        }
    }

    /// Where the roster of `width` is (a new, empty one if the shard
    /// had none).
    fn roster(&mut self, width: i64) -> usize {
        let found = self.rosters.iter().position(|r| r.width == width);
        found.unwrap_or_else(|| {
            let roster = Roster {
                width,
                asked: None,
                settled: None,
            };
            self.rosters.push(roster);
            self.rosters.len() - 1
        })
    }

    /// The shard's state as a roster assembly reads it, and its rosters.
    fn assembly(&mut self, advance: bool) -> (Assembly<'_>, &[Roster]) {
        let assembly = Assembly {
            space: &self.space,
            union: &self.union,
            normalization: self.normalization,
            log: &self.iupt,
            objects: &self.objects,
            buckets: &self.buckets,
            finished: &mut self.finished,
            work: &mut self.unreported,
            scratch: &mut self.scratch,
            advance,
        };
        (assembly, &self.rosters)
    }

    /// Carries each requested window's roster to the window
    /// `[start, window_end]` and replies with their blocks. After a
    /// one-bucket slide that is the closing bucket's objects, each
    /// finished from its live fold (or taken from the fold finished
    /// ahead when it moved on), merged into the block settled by the
    /// last [`ShardWorker::evaluate_ahead`]; an advance repeated at the
    /// same instant changes nothing and replies with the same blocks.
    /// `window_starts` ascend.
    ///
    /// Every call must be followed by [`ShardWorker::evaluate_ahead`]
    /// with the same arguments before anything else reaches the shard.
    pub(crate) fn evaluate_multi(&mut self, window_end: i64, window_starts: &[i64]) -> EagerReport {
        let timer = Timer::start();
        self.generation += 1;
        let store = self.store_stats();
        let widths = window_starts.iter().rev().map(|&s| window_end - s + 1);
        self.plan = (window_end, widths.collect());
        let mut windows = Vec::with_capacity(window_starts.len());
        let mut cache_hits = 0;
        let mut error = None;
        for &start in window_starts {
            let window = (start, window_end);
            let i = self.roster(window_end - start + 1);
            let (mut assembly, rosters) = self.assembly(true);
            let base = rosters.get(i).and_then(|r| r.base(window));
            let carried = assembly.carry(rosters, base, window);
            let (asked, hits) = match carried {
                Ok(carried) => carried,
                Err(e) => {
                    error = Some(e);
                    break;
                }
            };
            cache_hits += hits;
            windows.push(Arc::clone(&asked.block));
            if let Some(roster) = self.rosters.get_mut(i) {
                // A settled block survives only an advance that asked for
                // the window it was settled from again.
                let settles = (start + 1, window_end);
                roster.settled = roster.settled.take().filter(|s| s.window == settles);
                roster.asked = Some(asked);
            }
        }
        EagerReport {
            windows,
            cache_hits,
            work: std::mem::take(&mut self.unreported),
            store,
            reply_ns: timer.elapsed_ns(),
            error,
        }
    }

    /// The hand-off after an advance to `window_end` over the windows
    /// `window_starts`, run while the shard would otherwise wait: drops
    /// the live folds of the buckets the advance closed, the folds
    /// finished ahead over them that it did not take, and the rosters of
    /// widths it did not ask for; then carries each of its windows'
    /// blocks to the next window without its newest bucket —
    /// `[start + 1, window_end]` — so the next one-bucket slide only has
    /// its closing bucket to merge in.
    ///
    /// Changes no result: a block is exact for whatever window it is
    /// carried to, and a kernel error here settles nothing — the advance
    /// that needs the span meets the same error itself.
    pub(crate) fn evaluate_ahead(&mut self, window_end: i64, window_starts: &[i64]) {
        if self.swept < window_end {
            let closed = self.swept.saturating_add(1)..=window_end;
            for (_, oids) in self.buckets.range(closed) {
                for oid in oids {
                    let Some(object) = self.objects.get_mut(oid) else {
                        continue;
                    };
                    if object.folded.is_some_and(|(last, _)| last <= window_end) {
                        object.drop_folds();
                    }
                }
            }
            self.swept = window_end;
        }
        let mut unused = 0;
        self.finished.retain(|&(_, _, last), _| {
            unused += usize::from(last <= window_end);
            last > window_end
        });
        let widths: Vec<i64> = window_starts.iter().map(|&s| window_end - s + 1).collect();
        self.rosters.retain(|roster| {
            let asked = widths.contains(&roster.width);
            unused += if asked { 0 } else { roster.unasked() };
            asked
        });
        self.unreported.unused += unused;
        for &start in window_starts {
            let window = (start + 1, window_end);
            let i = self.roster(window_end - start + 1);
            let (mut assembly, rosters) = self.assembly(false);
            let base = rosters.get(i).and_then(|r| r.base(window));
            let settled = assembly.carry(rosters, base, window);
            if let Some(roster) = self.rosters.get_mut(i) {
                roster.settled = settled.ok().map(|(settled, _)| settled);
            }
        }
    }
}

#[cfg(test)]
impl ShardWorker {
    /// Marks `oid` faulty: from now on every span of it the shard has to
    /// evaluate fails (one already held in a roster or finished ahead is
    /// still served).
    pub(crate) fn mark_faulty(&mut self, oid: ObjectId) {
        self.objects.entry(oid).or_default().faulty = true;
    }

    /// The closed time interval covered by bucket `b` (the same
    /// arithmetic as [`popflow_core::WindowSpec::bucket_interval`]).
    fn bucket_interval(&self, b: i64) -> indoor_iupt::TimeInterval {
        indoor_iupt::TimeInterval::new(
            indoor_iupt::Timestamp(b * self.bucket_millis),
            indoor_iupt::Timestamp((b + 1) * self.bucket_millis - 1),
        )
    }

    /// The kernel over `sets` from scratch: a new fold, every record
    /// pushed, finished — what the batch search runs per object.
    fn kernel<'a>(
        &self,
        sets: impl IntoIterator<Item = &'a SampleSet>,
    ) -> Option<ObjectContribution> {
        let mut fold = SpanFold::new(&self.space, self.normalization, true);
        for set in sets {
            fold.push(&self.space, &self.union, set)
                .expect("reference kernel");
        }
        fold.finish(&self.space).expect("reference kernel")
    }

    /// The slow obvious eager evaluation, kept as the oracle for
    /// [`ShardWorker::evaluate_multi`]: every requested window's block
    /// recomputed from the log — each window object's records read
    /// straight out of the window's time range and handed to the
    /// kernel. No buckets, no rosters, nothing carried from one advance
    /// to the next.
    fn reference_evaluate_multi(
        &mut self,
        window_end: i64,
        window_starts: &[i64],
    ) -> Vec<WindowEval> {
        let end = self.bucket_interval(window_end).end;
        let bucket_millis = self.bucket_millis;
        window_starts
            .iter()
            .map(|&window_start| {
                let interval =
                    indoor_iupt::TimeInterval::new(self.bucket_interval(window_start).start, end);
                let sequences = self.iupt.sequences_in(interval);
                let mut win = WindowEval::default();
                for seq in &sequences {
                    let contribution = self.kernel(seq.records.iter().map(|r| r.samples));
                    let bucket = |r: Option<&indoor_iupt::RecordRef<'_>>| {
                        r.map_or(0, |r| r.t.millis().div_euclid(bucket_millis))
                    };
                    let span = (bucket(seq.records.first()), bucket(seq.records.last()));
                    win.push(seq.oid, span, contribution.as_ref());
                }
                win
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use indoor_iupt::fixtures::{paper_table2, O1, O2, O3};
    use indoor_iupt::Timestamp;
    use indoor_model::fixtures::paper_figure1;
    use indoor_model::SLocId;
    use indoor_sim::StreamScenario;
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
    /// contribution evaluated before the union shrank is a superset,
    /// sliced at merge time, and one that slices to nothing is an object
    /// the smaller union prunes.
    type Bits = Vec<(SLocId, u64)>;

    fn bits(contribution: Option<&ObjectContribution>, union: &QuerySet) -> Option<Bits> {
        let c = contribution?;
        let cells = c.relevant.iter().zip(&c.scores);
        let cells = cells.filter(|(&q, _)| union.contains(q));
        let bits: Bits = cells.map(|(&q, s)| (q, s.to_bits())).collect();
        (!bits.is_empty()).then_some(bits)
    }

    impl WindowEval {
        /// Entries that are PSL-pruned: those with no cells.
        fn pruned(&self) -> usize {
            (0..self.len())
                .filter(|&i| self.cells(i).0.is_empty())
                .count()
        }

        /// Entry `i`'s contribution (`None`: PSL-pruned).
        fn contribution(&self, i: usize) -> Option<ObjectContribution> {
            let (locs, scores) = self.cells(i);
            (!locs.is_empty()).then(|| ObjectContribution {
                relevant: locs.to_vec(),
                scores: scores.to_vec(),
                ..ObjectContribution::default()
            })
        }

        /// Every entry's span key.
        fn keys(&self) -> BTreeSet<SpanKey> {
            let spans = self.oids.iter().zip(&self.spans);
            spans
                .map(|(&oid, &(first, last))| (oid, first, last))
                .collect()
        }
    }

    fn rows(win: &WindowEval, union: &QuerySet) -> Vec<(ObjectId, Bits)> {
        (0..win.len())
            .filter_map(|i| Some((win.oids[i], bits(win.contribution(i).as_ref(), union)?)))
            .collect()
    }

    /// A block's window and spans.
    type Keys = ((i64, i64), BTreeSet<SpanKey>);

    /// One roster's blocks: the window asked for, and the settled one.
    #[derive(Debug, Default, Clone, PartialEq)]
    struct Blocks {
        asked: Option<Keys>,
        settled: Option<Keys>,
    }

    impl Blocks {
        fn holds(&self, key: &SpanKey) -> bool {
            let blocks = [&self.asked, &self.settled].into_iter().flatten();
            blocks.into_iter().any(|(_, keys)| keys.contains(key))
        }
    }

    /// Per width, the roster's blocks.
    type RosterKeys = BTreeMap<i64, Blocks>;

    fn roster_keys(worker: &ShardWorker) -> RosterKeys {
        let keys = |c: &Option<Carried>| c.as_ref().map(|c| (c.window, c.block.keys()));
        let rosters = worker.rosters.iter();
        rosters
            .map(|r| {
                let blocks = Blocks {
                    asked: keys(&r.asked),
                    settled: keys(&r.settled),
                };
                (r.width, blocks)
            })
            .collect()
    }

    /// The oracle's side of a schedule: which spans each roster must
    /// hold, which folds finished ahead must wait for an advance, which
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
        /// The rosters.
        rosters: RosterKeys,
        /// Folds finished ahead that no advance has taken.
        live: BTreeSet<SpanKey>,
        /// Folds finished since the last report.
        finished: usize,
        /// Live folds and folds finished ahead already checked against
        /// the kernel, with the record count they covered.
        checked: BTreeSet<(SpanKey, usize)>,
        /// Whether the union has shrunk since the rosters were last
        /// emptied: their entries scored against the larger union then
        /// count as computed where the smaller one would prune them.
        shrunk: bool,
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

        /// The span of `oid` in the window `start..=end`, if it has one.
        fn span(&self, oid: ObjectId, start: i64, end: i64) -> Option<SpanKey> {
            if start > end {
                return None;
            }
            let buckets = self.buckets(oid);
            let mut inside = buckets.range(start..=end);
            let first = *inside.next()?;
            Some((oid, first, *inside.next_back().unwrap_or(&first)))
        }

        /// Every window object's span.
        fn window(&self, start: i64, end: i64) -> BTreeSet<SpanKey> {
            let oids = self.records.keys();
            oids.filter_map(|&oid| self.span(oid, start, end)).collect()
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
                let mut firsts: Vec<i64> = widths
                    .iter()
                    .filter_map(|w| Some(self.span(r.oid, b - w + 1, b)?.1))
                    .collect();
                firsts.dedup();
                self.folds.insert(r.oid, (b, self.generation, firsts));
            }
        }

        /// The reference contribution of `oid`'s records in
        /// `first..last` and its first `n` in `last`, straight from the
        /// log through the kernel.
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
            worker.kernel(sets)
        }

        /// The live folds the model expects.
        fn fold_keys(&self) -> BTreeSet<SpanKey> {
            let folds = self.folds.iter();
            folds
                .flat_map(|(&oid, (last, _, firsts))| firsts.iter().map(move |&f| (oid, f, *last)))
                .collect()
        }

        /// After an ingest: the rosters are what the last hand-off left,
        /// the folds finished ahead and the live folds are the ones
        /// expected, and every one of those folds is exactly the kernel
        /// over the records it covers.
        fn check_ingest(&mut self, worker: &ShardWorker, seed: u64) {
            assert_eq!(
                roster_keys(worker),
                self.rosters,
                "seed {seed}: an ingest changed a roster"
            );
            let finished: BTreeSet<SpanKey> = worker.finished.keys().copied().collect();
            assert_eq!(finished, self.live, "seed {seed}: folds finished ahead");
            for (&key, contribution) in &worker.finished {
                let n = self.count_in(key.0, key.2);
                if !self.checked.insert((key, n)) {
                    continue;
                }
                let want = self.reference(worker, key, n);
                assert_eq!(
                    bits(contribution.as_ref(), &worker.union),
                    bits(want.as_ref(), &worker.union),
                    "seed {seed}: fold {key:?} finished ahead over {n} records of its last bucket"
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

        /// Takes in an advance to `end` over the windows `starts`: each
        /// window is carried from its roster's block of the same window,
        /// else from the settled one, else from the asked one, and takes
        /// the spans that block did not hold from any roster's block,
        /// from the folds finished ahead, from a live fold or from the
        /// log, in that order. Returns how many spans live folds answered
        /// and how many the advance had to fold from the log.
        fn advanced(
            &mut self,
            worker: &ShardWorker,
            (end, starts): (i64, &[i64]),
            seed: u64,
        ) -> (usize, usize) {
            let fold_keys = self.fold_keys();
            self.generation += 1;
            self.plan = (end, starts.iter().rev().map(|s| end - s + 1).collect());
            let (mut finished, mut from_log) = (0, 0);
            for &start in starts {
                let width = end - start + 1;
                let window = (start, end);
                let roster = self.rosters.get(&width).cloned().unwrap_or_default();
                let blocks = [&roster.asked, &roster.settled].into_iter().flatten();
                let base = blocks.into_iter().find(|(w, _)| *w == window);
                let base = base.or(roster.settled.as_ref()).or(roster.asked.as_ref());
                let carried = base.map(|(_, keys)| keys.clone()).unwrap_or_default();
                let keys = self.window(start, end);
                for key in keys.difference(&carried) {
                    let shared = self.rosters.values().any(|r| r.holds(key));
                    if shared || self.live.remove(key) {
                        continue;
                    }
                    if fold_keys.contains(key) {
                        finished += 1;
                    } else {
                        from_log += 1;
                    }
                }
                let settles = (start + 1, end);
                let settled = roster.settled.filter(|(w, _)| *w == settles);
                let asked = Some((window, keys));
                self.rosters.insert(width, Blocks { asked, settled });
            }
            assert_eq!(
                roster_keys(worker),
                self.rosters,
                "seed {seed}: rosters after the advance to {end}"
            );
            (finished, from_log)
        }

        /// Takes in the hand-off after an advance: the closed buckets'
        /// folds go, and so do the rosters of widths it did not ask for;
        /// every other roster is settled for the next window.
        fn handed_off(&mut self, worker: &ShardWorker, (end, starts): (i64, &[i64]), seed: u64) {
            self.folds.retain(|_, (last, _, _)| *last > end);
            self.live.retain(|key| key.2 > end);
            let widths: Vec<i64> = starts.iter().map(|s| end - s + 1).collect();
            self.rosters.retain(|width, _| widths.contains(width));
            for &start in starts {
                let settled = ((start + 1, end), self.window(start + 1, end));
                if let Some(roster) = self.rosters.get_mut(&(end - start + 1)) {
                    roster.settled = Some(settled);
                }
            }
            assert_eq!(
                roster_keys(worker),
                self.rosters,
                "seed {seed}: rosters settled after {end}"
            );
        }

        /// A retarget: every fold is gone, and after a cache reset every
        /// roster and every fold finished ahead too.
        fn retargeted(&mut self, widths: Vec<i64>, reset: bool) {
            self.plan.1 = widths;
            self.folds.clear();
            if reset {
                self.rosters.clear();
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
    /// each ingest, and the rosters against the spans of the windows the
    /// schedule asked for and settled. Returns how many cache hits,
    /// cache resets, spans answered by a live fold and unused spans it
    /// saw.
    fn drive(seed: u64) -> [usize; 4] {
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
        let single_records = seed % 6 == 5;
        let mut union = random_subset(&mut rng, &all);
        let normalization = Normalization::default();
        let mut worker = ShardWorker::new(Arc::clone(&space), union.clone(), normalization, BUCKET);
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
        let mut seen = [0; 4];
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
                worker.ingest(records[next..next + run].to_vec());
                model.ingested(&records[next..next + run]);
                model.check_ingest(&worker, seed);
                next += run;
            }
            if rng.gen_range(0..5) == 0 {
                let target = random_subset(&mut rng, &all);
                let grew = target.slocs().iter().any(|&s| !union.contains(s));
                union = target;
                let widths = random_widths(&mut rng);
                worker.retarget(union.clone(), widths.clone(), grew);
                model.retargeted(widths, grew);
                model.shrunk = !grew;
                seen[1] += usize::from(grew);
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
                    drive_advance(&mut worker, &union, advance, seed, &mut model);
                seen[0] += hits;
                seen[2] += finished;
                seen[3] += unused;
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

    /// One advance to `end` over the windows `starts` (whose blocks are
    /// `reference`) and the hand-off after it. Returns the advance's
    /// cache hits, how many spans live folds answered, and the unused
    /// spans it reported.
    fn drive_advance(
        worker: &mut ShardWorker,
        union: &QuerySet,
        (end, starts, reference): (i64, &[i64], &[WindowEval]),
        seed: u64,
        model: &mut Model,
    ) -> (usize, usize, usize) {
        let report = worker.evaluate_multi(end, starts);
        assert!(report.error.is_none(), "seed {seed}: {:?}", report.error);
        assert_eq!(report.windows.len(), reference.len());
        for ((got, want), start) in report.windows.iter().zip(reference).zip(starts) {
            assert_eq!(got.oids, want.oids, "seed {seed}: window {start}..={end}");
            if !model.shrunk {
                let window = format!("window {start}..={end}");
                assert_eq!(got.pruned(), want.pruned(), "seed {seed}: {window}");
            }
            assert_eq!(
                rows(got, union),
                rows(want, union),
                "seed {seed}: window {start}..={end}"
            );
        }

        // The advance finished the live fold of every span its rosters
        // did not hold and could not share, and folded the rest from the
        // log.
        let (finished, from_log) = model.advanced(worker, (end, starts), seed);
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

        worker.evaluate_ahead(end, starts);
        model.handed_off(worker, (end, starts), seed);
        (report.cache_hits, finished, report.work.unused)
    }

    #[test]
    fn evaluate_multi_matches_reference_on_random_schedules() {
        let mut seen = [0; 4];
        for seed in 0..24 {
            for (total, n) in seen.iter_mut().zip(drive(seed)) {
                *total += n;
            }
        }
        // The schedules did exercise hits, resets, spans answered by live
        // folds and spans worked out ahead in vain.
        assert!(seen.iter().all(|&n| n > 50), "{seen:?}");
    }

    /// A worker over Figure 1 with one query over its rooms, registered
    /// `width` buckets wide.
    fn figure1_worker(width: i64) -> (ShardWorker, QuerySet) {
        let fig = paper_figure1();
        let union = QuerySet::new(fig.r.to_vec());
        let space = Arc::new(fig.space.clone());
        let normalization = Normalization::default();
        let mut worker = ShardWorker::new(space, union.clone(), normalization, BUCKET);
        worker.retarget(union.clone(), vec![width], false);
        (worker, union)
    }

    /// Table 2's records of `oids`, moved into bucket `b`.
    fn table2_in(b: i64, oids: &[ObjectId]) -> Vec<Record> {
        let records = paper_table2().to_records().into_iter();
        let mut records: Vec<Record> = records
            .filter(|r| oids.contains(&r.oid))
            .map(|r| Record {
                t: Timestamp(r.t.millis() + b * BUCKET),
                ..r
            })
            .collect();
        records.sort_by_key(|r| r.t);
        records
    }

    /// A slide that gives no object a record and takes none away
    /// evaluates nothing: the settled roster is the reply.
    #[test]
    fn a_slide_nobody_reports_in_or_leaves_is_answered_from_the_roster() {
        let (mut worker, union) = figure1_worker(3);
        worker.ingest(table2_in(1, &[O1, O2, O3]));
        worker.ingest(table2_in(2, &[O1]));
        // Windows 0..=2, then 1..=3: bucket 0 and bucket 3 are empty.
        worker.evaluate_multi(2, &[0]);
        worker.evaluate_ahead(2, &[0]);
        let reference = worker.reference_evaluate_multi(3, &[1]);
        let report = worker.evaluate_multi(3, &[1]);
        assert_eq!(
            rows(&report.windows[0], &union),
            rows(&reference[0], &union)
        );
        assert_eq!(report.windows[0].len(), 3);
        let work = &report.work;
        let counts = (work.fresh_presence, work.in_advance, work.finished);
        assert_eq!(counts, (0, 0, 0));
        assert_eq!(report.cache_hits, 3);
    }

    /// A slide that only moves the trailing edge evaluates nothing in
    /// the advance: exactly the objects that lost the oldest bucket and
    /// have records left were evaluated by the hand-off before it.
    #[test]
    fn a_slide_that_only_moves_the_trailing_edge_evaluates_what_was_worked_out_ahead() {
        let (mut worker, union) = figure1_worker(2);
        // Windows 0..=1, 1..=2, then 2..=3: bucket 3 is empty, O3
        // leaves, and O1 and O2 lose bucket 1.
        worker.ingest(table2_in(1, &[O1, O2, O3]));
        worker.evaluate_multi(1, &[0]);
        worker.evaluate_ahead(1, &[0]);
        worker.ingest(table2_in(2, &[O1, O2]));
        worker.evaluate_multi(2, &[1]);
        worker.evaluate_ahead(2, &[1]);
        let settled = worker.rosters[0].settled.as_ref().expect("settled");
        assert_eq!(settled.ahead, vec![O1, O2]);
        let reference = worker.reference_evaluate_multi(3, &[2]);
        let report = worker.evaluate_multi(3, &[2]);
        assert_eq!(
            rows(&report.windows[0], &union),
            rows(&reference[0], &union)
        );
        assert_eq!(report.windows[0].oids, vec![O1, O2]);
        let work = &report.work;
        assert_eq!((work.in_advance, work.finished, work.unused), (0, 0, 0));
        // The two spans, both over bucket 2 alone, were paid ahead.
        let computed = reference[0].len() - reference[0].pruned();
        assert_eq!((work.fresh_presence, work.straddlers), (computed, 0));
        assert!(computed > 0);
        assert_eq!(report.cache_hits, 2);
    }

    /// An object that pauses and then reports again in the same bucket
    /// costs the advance that closes the bucket nothing but one finish:
    /// its fold took every record as it landed, nothing is folded from
    /// the log, and nothing is wasted — and the reply matches the
    /// reference. The same schedule without the return is no different.
    #[test]
    fn a_pause_then_a_report_in_the_same_bucket_costs_nothing() {
        let a = ObjectId(2);
        for times in [&[1_000, 2_000][..], &[1_000, 2_000, 30_000]] {
            let table = paper_table2().to_records();
            let records = times.iter().zip(table.iter().filter(|r| r.oid == a));
            // One registered query, one bucket wide.
            let (mut worker, union) = figure1_worker(1);
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
