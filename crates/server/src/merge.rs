//! The watermark-gated k-way merge of the ingest queues — the pure
//! core of the scheduler's drain: no sockets, no clock, no engine.
//!
//! Each ingest connection delivers its objects' records in time order.
//! [`merge_run`] moves records out of the connections' queues into one
//! pass-local [`Run`] in global `(timestamp, connection id, arrival)`
//! order, stopping where the order is no longer provable or the pass's
//! budget is spent, and notes which batch every record came out of so
//! the scheduler can post each batch's ack once the engine has taken
//! the run.

use std::collections::VecDeque;
use std::time::Instant;

use indoor_iupt::Record;

/// A queued, possibly partially drained ingest batch.
#[derive(Debug)]
pub(crate) struct PendingBatch {
    pub seq: u64,
    /// The records not yet drained, in arrival order (never empty while
    /// the batch is queued).
    pub records: std::vec::IntoIter<Record>,
    /// Estimated wire bytes per record, for the byte budget.
    pub per_record_bytes: usize,
    /// Records the engine has accepted / rejected so far — over every
    /// pass that drained a part of this batch.
    pub accepted: u32,
    pub rejected: u32,
    /// When the batch entered the queue (carried for the batch-latency
    /// histogram; the merge never reads it).
    pub enqueued: Instant,
}

/// One ingest connection as the merge sees it.
#[derive(Debug, Default)]
pub(crate) struct IngestQueue {
    pub batches: VecDeque<PendingBatch>,
    /// Timestamp (ms) of the last record this connection enqueued —
    /// its promise that nothing earlier will ever arrive on it.
    pub watermark: Option<i64>,
    /// No more batches will arrive (StreamEnd, or the socket closed):
    /// the connection stops gating the merge once its queue drains.
    pub ended: bool,
}

impl IngestQueue {
    /// Timestamp of the next record this connection would hand over.
    fn head(&self) -> Option<i64> {
        let record = self.batches.front()?.records.as_slice().first()?;
        Some(record.t.millis())
    }

    /// The smallest timestamp this connection could still deliver:
    /// its queued head, else its watermark while it is open (`i64::MIN`
    /// before its first batch), else nothing at all.
    fn gate(&self) -> i64 {
        match self.head() {
            Some(t) => t,
            None if self.ended => i64::MAX,
            None => self.watermark.unwrap_or(i64::MIN),
        }
    }
}

/// What one pass took out of one batch.
#[derive(Debug)]
pub(crate) struct Drained {
    pub conn: u64,
    pub seq: u64,
    /// Records this pass moved out of the batch.
    pub taken: u32,
    /// How many of those the engine rejected (filled in by the
    /// scheduler after the hand-off).
    pub rejected: u32,
    /// The batch itself once its last record is out — popped off its
    /// queue and waiting for its ack. `None`: records remain, and the
    /// batch is still at the front of its connection's queue.
    pub done: Option<PendingBatch>,
}

/// One pass's drain: the merged records plus their attribution.
/// Reused across passes; empty between them.
#[derive(Debug, Default)]
pub(crate) struct Run {
    /// The drained records, in merge order.
    pub records: Vec<Record>,
    /// `source[i]` indexes `batches`: where `records[i]` came from.
    pub source: Vec<u32>,
    /// Every batch this pass touched, in first-touched order.
    pub batches: Vec<Drained>,
}

/// Moves records from `queues` (ascending connection id) into `run`
/// until a budget is spent or the next record's place in the global
/// order is not yet provable. Returns `true` when a budget stopped it
/// with a record whose place *is* provable still queued — the caller
/// should drain again without waiting for new input.
///
/// Candidate: the globally smallest queued head, the lowest connection
/// id on ties. Floor: the earliest timestamp an *empty, still-open*
/// connection might still send (its watermark; `i64::MIN` before its
/// first batch). A candidate above the floor stays queued — popping it
/// would risk reordering. A batch whose last record leaves is popped
/// off its queue and travels in [`Drained::done`].
pub(crate) fn merge_run(
    queues: &mut [(u64, &mut IngestQueue)],
    budget_records: usize,
    budget_bytes: usize,
    run: &mut Run,
) -> bool {
    // The `run.batches` entry of each connection's current front batch,
    // once this pass has touched it.
    let mut slots: Vec<Option<u32>> = vec![None; queues.len()];
    let mut bytes = 0usize;
    loop {
        let mut floor = i64::MAX;
        let mut best: Option<(usize, i64)> = None;
        for (qi, (_, queue)) in queues.iter().enumerate() {
            match queue.head() {
                Some(t) if best.is_none_or(|(_, bt)| t < bt) => best = Some((qi, t)),
                None if !queue.ended => floor = floor.min(queue.watermark.unwrap_or(i64::MIN)),
                Some(_) | None => {}
            }
        }
        let Some((qi, t)) = best else { return false };
        if t > floor {
            return false;
        }
        if run.records.len() >= budget_records || bytes >= budget_bytes {
            return true;
        }
        let (Some((conn, queue)), Some(slot)) = (queues.get_mut(qi), slots.get_mut(qi)) else {
            return false;
        };
        let Some(batch) = queue.batches.front_mut() else {
            return false;
        };
        let Some(record) = batch.records.next() else {
            return false;
        };
        bytes += batch.per_record_bytes;
        let at = *slot.get_or_insert_with(|| {
            run.batches.push(Drained {
                conn: *conn,
                seq: batch.seq,
                taken: 0,
                rejected: 0,
                done: None,
            });
            (run.batches.len() - 1) as u32
        });
        run.records.push(record);
        run.source.push(at);
        let exhausted = batch.records.as_slice().is_empty();
        if let Some(drained) = run.batches.get_mut(at as usize) {
            drained.taken += 1;
            if exhausted {
                drained.done = queue.batches.pop_front();
                *slot = None;
            }
        }
    }
}

/// The advance upper bound: the smallest timestamp any of `queues`
/// could still deliver — nothing at or before it can still arrive
/// (`i64::MAX` once every stream has ended and drained).
pub(crate) fn release_bound<'a>(queues: impl Iterator<Item = &'a IngestQueue>) -> i64 {
    queues.map(IngestQueue::gate).min().unwrap_or(i64::MAX)
}

#[cfg(test)]
mod tests {
    use indoor_iupt::{ObjectId, Sample, SampleSet, Timestamp};
    use indoor_model::PLocId;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    use super::*;

    /// A record whose object id is its arrival number, so the merged
    /// order can be read back off the run.
    fn record(arrival: u32, t: i64) -> Record {
        Record {
            oid: ObjectId(arrival),
            t: Timestamp(t),
            samples: SampleSet::new(vec![Sample::new(PLocId(0), 1.0)]).expect("valid set"),
        }
    }

    fn batch(seq: u64, records: Vec<Record>, per_record_bytes: usize) -> PendingBatch {
        PendingBatch {
            seq,
            records: records.into_iter(),
            per_record_bytes,
            accepted: 0,
            rejected: 0,
            enqueued: Instant::now(),
        }
    }

    /// One queued record as the oracle sees it.
    #[derive(Debug, Clone, Copy, PartialEq)]
    struct Queued {
        t: i64,
        conn: u64,
        arrival: u32,
        seq: u64,
        bytes: usize,
    }

    /// The obvious version: stable-sort everything queued by
    /// `(t, conn id, arrival)`, then cut at the first record above the
    /// floor of the connections that are empty and open *at that point*
    /// or at the budget — and say whether it was the budget that left
    /// a record below the floor behind.
    fn oracle(
        queues: &[(u64, &mut IngestQueue)],
        budget_records: usize,
        budget_bytes: usize,
    ) -> (Vec<Queued>, bool) {
        let mut all: Vec<Queued> = Vec::new();
        for (conn, queue) in queues {
            for b in &queue.batches {
                for r in b.records.as_slice() {
                    all.push(Queued {
                        t: r.t.millis(),
                        conn: *conn,
                        arrival: r.oid.0,
                        seq: b.seq,
                        bytes: b.per_record_bytes,
                    });
                }
            }
        }
        all.sort_by_key(|q| (q.t, q.conn, q.arrival));
        let mut remaining: Vec<usize> = queues
            .iter()
            .map(|(_, q)| q.batches.iter().map(|b| b.records.as_slice().len()).sum())
            .collect();
        let mut out = Vec::new();
        let mut bytes = 0;
        for q in all {
            let floor = queues
                .iter()
                .zip(&remaining)
                .filter(|((_, queue), &left)| left == 0 && !queue.ended)
                .map(|((_, queue), _)| queue.watermark.unwrap_or(i64::MIN))
                .min()
                .unwrap_or(i64::MAX);
            if q.t > floor {
                break;
            }
            if out.len() >= budget_records || bytes >= budget_bytes {
                return (out, true);
            }
            let qi = queues
                .iter()
                .position(|(c, _)| *c == q.conn)
                .expect("own queue");
            remaining[qi] -= 1;
            bytes += q.bytes;
            out.push(q);
        }
        (out, false)
    }

    /// Builds 1–4 random connection queues: tied timestamps across
    /// connections, empty-but-open connections (with and without a
    /// watermark), ended ones, and a partially drained head batch.
    fn random_queues(rng: &mut StdRng) -> Vec<(u64, IngestQueue)> {
        let conns = rng.gen_range(1..=4usize);
        let mut arrival = 0u32;
        (0..conns)
            .map(|c| {
                // Distinct ascending ids with gaps, as the server hands out.
                let id = (c as u64) * 3 + rng.gen_range(1..=3u64);
                let mut queue = IngestQueue {
                    ended: rng.gen_bool(0.3),
                    ..IngestQueue::default()
                };
                let mut t = rng.gen_range(0..4i64);
                if rng.gen_bool(0.25) {
                    // Empty: drained earlier (a watermark) or never fed.
                    queue.watermark = rng.gen_bool(0.6).then_some(t + rng.gen_range(0..6i64));
                    return (id, queue);
                }
                for seq in 0..rng.gen_range(1..=4u64) {
                    let len = rng.gen_range(1..=6usize);
                    let records: Vec<Record> = (0..len)
                        .map(|_| {
                            // Small steps and many zeros: ties within and
                            // across connections.
                            t += rng.gen_range(0..3i64);
                            arrival += 1;
                            record(arrival, t)
                        })
                        .collect();
                    let mut b = batch(seq, records, rng.gen_range(20..60usize));
                    if seq == 0 && len > 1 && rng.gen_bool(0.4) {
                        // An earlier pass took the head of this batch.
                        for _ in 0..rng.gen_range(1..len) {
                            b.records.next();
                            b.accepted += 1;
                        }
                    }
                    queue.batches.push_back(b);
                }
                queue.watermark = Some(t);
                (id, queue)
            })
            .collect()
    }

    #[test]
    fn merge_matches_the_sorting_oracle_on_random_queues() {
        for seed in 0..4_000u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut owned = random_queues(&mut rng);
            let queued: usize = owned
                .iter()
                .flat_map(|(_, q)| &q.batches)
                .map(|b| b.records.as_slice().len())
                .sum();
            // Budgets that stop mid-batch as often as not.
            let budget_records = rng.gen_range(1..=queued.max(1) + 2);
            let budget_bytes = if rng.gen_bool(0.5) {
                usize::MAX
            } else {
                rng.gen_range(1..=40 * queued.max(1))
            };
            let mut queues: Vec<(u64, &mut IngestQueue)> =
                owned.iter_mut().map(|(id, q)| (*id, q)).collect();
            let (want, want_left) = oracle(&queues, budget_records, budget_bytes);
            let seqs_before: Vec<Vec<(u64, usize)>> = queues
                .iter()
                .map(|(_, q)| {
                    q.batches
                        .iter()
                        .map(|b| (b.seq, b.records.as_slice().len()))
                        .collect()
                })
                .collect();

            let mut run = Run::default();
            let left = merge_run(&mut queues, budget_records, budget_bytes, &mut run);
            assert_eq!(left, want_left, "seed {seed}: budget left work");

            let got: Vec<(i64, u32)> = run
                .records
                .iter()
                .map(|r| (r.t.millis(), r.oid.0))
                .collect();
            let want_order: Vec<(i64, u32)> = want.iter().map(|q| (q.t, q.arrival)).collect();
            assert_eq!(got, want_order, "seed {seed}: merged order");
            assert_eq!(run.source.len(), run.records.len(), "seed {seed}");
            // Attribution: every record points at its own batch.
            for (i, q) in want.iter().enumerate() {
                let d = &run.batches[run.source[i] as usize];
                assert_eq!((d.conn, d.seq), (q.conn, q.seq), "seed {seed}: record {i}");
            }
            // Per batch: taken counts add up, a batch is done exactly
            // when nothing of it is left, and what is left is still
            // queued, in order, at the front.
            for (qi, (conn, queue)) in queues.iter().enumerate() {
                let mut left = queue.batches.iter();
                for &(seq, before) in &seqs_before[qi] {
                    let taken = want
                        .iter()
                        .filter(|q| q.conn == *conn && q.seq == seq)
                        .count();
                    let drained = run.batches.iter().find(|d| d.conn == *conn && d.seq == seq);
                    assert_eq!(
                        drained.map_or(0, |d| d.taken as usize),
                        taken,
                        "seed {seed}: conn {conn} batch {seq}"
                    );
                    if taken == before {
                        assert!(
                            drained.is_some_and(|d| d.done.as_ref().is_some_and(|b| b.seq == seq)),
                            "seed {seed}: conn {conn} batch {seq} should be done"
                        );
                    } else {
                        assert!(
                            drained.is_none_or(|d| d.done.is_none()),
                            "seed {seed}: conn {conn} batch {seq} is not done"
                        );
                        let b = left.next().expect("still queued");
                        assert_eq!(
                            (b.seq, b.records.as_slice().len()),
                            (seq, before - taken),
                            "seed {seed}: conn {conn}"
                        );
                    }
                }
                assert!(
                    left.next().is_none(),
                    "seed {seed}: conn {conn} extra batch"
                );
            }
            // The bound never passes anything still to come.
            let bound = release_bound(queues.iter().map(|(_, q)| &**q));
            for (_, queue) in &queues {
                if let Some(t) = queue.head() {
                    assert!(bound <= t, "seed {seed}");
                }
            }
        }
    }

    #[test]
    fn empty_open_connection_holds_the_floor() {
        let mut a = IngestQueue::default();
        a.batches
            .push_back(batch(0, vec![record(1, 5), record(2, 7), record(3, 9)], 26));
        a.watermark = Some(9);
        // B is open, drained, and last said 7: 5 and 7 may go, 9 may not.
        let mut b = IngestQueue {
            watermark: Some(7),
            ..IngestQueue::default()
        };
        let mut run = Run::default();
        // Held by the floor, not by the budget: nothing to drain again.
        assert!(!merge_run(
            &mut [(1, &mut a), (2, &mut b)],
            100,
            usize::MAX,
            &mut run
        ));
        assert_eq!(run.records.len(), 2);
        assert_eq!(release_bound([&a, &b].into_iter()), 7);
        // Once B ends it gates nothing.
        b.ended = true;
        let mut run = Run::default();
        merge_run(&mut [(1, &mut a), (2, &mut b)], 100, usize::MAX, &mut run);
        assert_eq!(run.records.len(), 1);
        assert!(run.batches[0].done.is_some());
        assert_eq!(release_bound([&a, &b].into_iter()), 9, "A is open at 9");
        // A connection that never sent anything holds everything.
        let mut c = IngestQueue::default();
        a.batches.push_back(batch(1, vec![record(4, 11)], 26));
        let mut run = Run::default();
        merge_run(&mut [(1, &mut a), (3, &mut c)], 100, usize::MAX, &mut run);
        assert!(run.records.is_empty());
        assert_eq!(release_bound([&a, &c].into_iter()), i64::MIN);
    }

    #[test]
    fn ties_go_to_the_lowest_connection_id() {
        let mut a = IngestQueue {
            ended: true,
            ..IngestQueue::default()
        };
        a.batches
            .push_back(batch(0, vec![record(10, 4), record(11, 4)], 26));
        let mut b = IngestQueue {
            ended: true,
            ..IngestQueue::default()
        };
        b.batches
            .push_back(batch(0, vec![record(20, 4), record(21, 5)], 26));
        let mut run = Run::default();
        // The budget leaves B's last record, free to go, behind.
        assert!(merge_run(
            &mut [(1, &mut a), (2, &mut b)],
            3,
            usize::MAX,
            &mut run
        ));
        let order: Vec<u32> = run.records.iter().map(|r| r.oid.0).collect();
        assert_eq!(order, vec![10, 11, 20]);
        assert_eq!(run.source, vec![0, 0, 1]);
        assert!(run.batches[0].done.is_some() && run.batches[1].done.is_none());
        assert_eq!(
            b.batches.front().map(|x| x.records.as_slice().len()),
            Some(1)
        );
    }
}
