//! Reduction-equivalence gates for the streaming §3.2 fold.
//!
//! `scan_sequence` folds intra-merge, inter-merge and PSL extraction in
//! one pass that builds no sample set per record. Its contract is that
//! this changes **nothing** about the reduced sequence — not
//! approximately, but bit for bit. Checked here on real feed shapes
//! (`popflow-core`'s own unit tests cover the hand-picked and random
//! ones):
//!
//! 1. **Per-record pipeline** — over every object-window of a few
//!    windows of `Scenario::synthetic_scaled(0.1)` (the `batch_adhoc`
//!    world of the benchmark), the fold equals the paper-shaped
//!    pipeline assembled from the public `intra_merge` and
//!    `inter_merge`: set count, locations, `prob.to_bits()`, which sets
//!    are borrowed from the input, and PSLs — with and without merging.
//! 2. **One PSL collector** — `scan_psls`, `FlowMemo::scan_psls` and
//!    `scan_sequence(..).psls` agree on every one of those sequences.
//!
//! Run with: `cargo test -p popflow-eval --test reduction_equivalence`

use std::borrow::Cow;

use indoor_iupt::{SampleSet, SetRef, TimeInterval, Timestamp};
use indoor_model::{IndoorSpace, SLocId};
use indoor_sim::{Scenario, World};
use popflow_core::reduction::{inter_merge, intra_merge};
use popflow_core::{scan_psls, scan_sequence, FlowMemo};

/// Algorithm 1 as the paper writes it, one owned set per record:
/// intra-merge every record, inter-merge every maximal run of equal
/// support. Returns each reduced set with the input it was passed
/// through from, when neither merge rewrote it.
fn per_record_pipeline<'a>(
    space: &IndoorSpace,
    sets: &[&'a SampleSet],
) -> Vec<(SampleSet, Option<&'a SampleSet>)> {
    let mut out = Vec::new();
    let mut run: Vec<(SampleSet, &'a SampleSet)> = Vec::new();
    let flush = |run: &mut Vec<(SampleSet, &'a SampleSet)>, out: &mut Vec<_>| {
        if let [(merged, raw)] = run.as_slice() {
            out.push((merged.clone(), (merged == *raw).then_some(*raw)));
        } else if !run.is_empty() {
            let merged: Vec<&SampleSet> = run.iter().map(|(m, _)| m).collect();
            out.push((inter_merge(&merged).unwrap(), None));
        }
        run.clear();
    };
    for &raw in sets {
        let merged = intra_merge(space, raw).unwrap();
        if run
            .last()
            .is_some_and(|(tail, _)| !tail.same_plocs(&merged))
        {
            flush(&mut run, &mut out);
        }
        run.push((merged, raw));
    }
    flush(&mut run, &mut out);
    out
}

/// PSLs the long way round: every S-location of every cell of every
/// sample of every record.
fn per_record_psls(space: &IndoorSpace, sets: &[&SampleSet]) -> Vec<SLocId> {
    let mut psls: Vec<SLocId> = sets
        .iter()
        .flat_map(|set| set.plocs())
        .flat_map(|loc| space.matrix().cells_of(loc).iter().collect::<Vec<_>>())
        .flat_map(|cell| space.slocs_in_cell(cell).iter().copied())
        .collect();
    psls.sort_unstable();
    psls.dedup();
    psls
}

fn assert_same_bits(tag: &str, got: &SampleSet, want: &SampleSet) {
    assert!(got.same_plocs(want), "{tag}: {got} vs {want}");
    for (a, b) in got.samples().iter().zip(want.samples()) {
        assert_eq!(a.prob.to_bits(), b.prob.to_bits(), "{tag} at {}", a.loc);
    }
}

/// A few windows of the benchmark's world: the sequences every check
/// below runs over.
fn windows() -> (World, Vec<TimeInterval>) {
    let world = World::generate(Scenario::synthetic_scaled(0.1).with_seed(42));
    let duration = world.scenario.mobility.duration_secs;
    let windows = [0, duration / 3, duration - 300]
        .into_iter()
        .map(|start| {
            TimeInterval::new(
                Timestamp::from_secs(start),
                Timestamp::from_secs(start + 300),
            )
        })
        .collect();
    (world, windows)
}

#[test]
fn fold_equals_per_record_pipeline_on_every_object_window() {
    let (mut world, windows) = windows();
    let (mut object_windows, mut records, mut reduced_sets, mut borrowed) = (0, 0, 0, 0);
    for interval in windows {
        for seq in world.iupt.sequences_in(interval) {
            let sets: Vec<&SampleSet> = seq.records.iter().map(|r| r.samples).collect();
            let tag = format!("object {} in {interval:?}", seq.oid);
            let want_psls = per_record_psls(&world.space, &sets);

            let raw = scan_sequence(&world.space, sets.iter().copied(), false).unwrap();
            assert_eq!(raw.psls, want_psls, "{tag}: merge=false PSLs");
            assert_eq!(raw.sets.len(), sets.len(), "{tag}: merge=false count");
            for (got, want) in raw.sets.iter().zip(&sets) {
                assert!(
                    matches!(got, Cow::Borrowed(b) if std::ptr::eq(*b, *want)),
                    "{tag}: merge=false must borrow every set"
                );
            }

            let got = scan_sequence(&world.space, sets.iter().copied(), true).unwrap();
            let want = per_record_pipeline(&world.space, &sets);
            assert_eq!(got.psls, want_psls, "{tag}: PSLs");
            assert_eq!(got.sets.len(), want.len(), "{tag}: set count");
            for (i, (g, (w, passed_through))) in got.sets.iter().zip(&want).enumerate() {
                assert_same_bits(&format!("{tag} set {i}"), g, w);
                match (g, passed_through) {
                    (Cow::Borrowed(g), Some(raw)) => {
                        assert!(std::ptr::eq(*g, *raw), "{tag} set {i}: borrowed elsewhere")
                    }
                    (Cow::Owned(_), None) => {}
                    _ => panic!("{tag} set {i}: ownership differs ({g:?})"),
                }
                borrowed += usize::from(passed_through.is_some());
            }
            object_windows += 1;
            records += sets.len();
            reduced_sets += want.len();
        }
    }
    // The feed has the shape the fold is built for: long sequences that
    // collapse into few sets, most of them rewritten by a merge.
    assert!(object_windows > 100, "only {object_windows} object-windows");
    assert!(
        reduced_sets * 4 < records,
        "{records} records → {reduced_sets}"
    );
    assert!(
        borrowed < reduced_sets,
        "no set was merged: {borrowed}/{reduced_sets}"
    );
}

#[test]
fn psl_scans_share_one_collector() {
    let (mut world, windows) = windows();
    let memo = FlowMemo::new();
    let mut compared = 0;
    for interval in windows {
        for seq in world.iupt.sequences_in(interval) {
            let key: Vec<SetRef> = seq.records.iter().map(|r| r.set_ref).collect();
            let sets: Vec<&SampleSet> = seq.records.iter().map(|r| r.samples).collect();
            let plain = scan_psls(&world.space, sets.iter().copied());
            assert_eq!(plain, per_record_psls(&world.space, &sets));
            assert_eq!(plain, memo.scan_psls(&world.space, &key, &sets));
            for merge in [true, false] {
                let scanned = scan_sequence(&world.space, sets.iter().copied(), merge).unwrap();
                assert_eq!(plain, scanned.psls, "object {} merge={merge}", seq.oid);
            }
            compared += 1;
        }
    }
    assert!(compared > 100);
    assert!(memo.stats().hits > 0, "the memoized scan must be exercised");
}
