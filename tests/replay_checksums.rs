//! Bit-identity of the serving path, pinned: every stream the benchmark
//! serves is replayed in process through a [`ServeEngine`] and every
//! [`ContinuousUpdate`] it produces is folded into one checksum.
//!
//! The streams are the benchmark's (`bench/src/spec.rs`, seed 42): the
//! three wire workloads' venue streams with their rotated standing
//! queries on a two-shard engine, and the 870-location synthetic world
//! of `batch_adhoc` with its one standing query. Each is replayed the
//! way the server's scheduler drives the engine — one `ingest_all` per
//! run of records, then `advance_due` up to the run's last timestamp —
//! under three run shapes: 128-record runs (a wire batch), seeded random
//! runs of 1–4096 records, and single records. Results must not depend
//! on how the stream is cut into runs, so every shape must give the
//! stream's one pinned checksum.
//!
//! A change that legitimately changes results updates the pins in its
//! own diff; any other change must leave them alone.
//!
//! ```text
//! cargo test --release -p popflow-eval --test replay_checksums
//! ```

use std::sync::{Arc, Mutex};

use indoor_iupt::{Iupt, Record, Timestamp};
use indoor_model::{IndoorSpace, SLocId};
use indoor_sim::{Scenario, StreamScenario, World};
use popflow_core::{ContinuousUpdate, QuerySet, QuerySpec, WindowSpec};
use popflow_serve::{ServeConfig, ServeEngine};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The benchmark's seed; it picks the venue streams (the synthetic
/// world uses the same value as its fixed world seed).
const SEED: u64 = 42;
/// Shards of every benchmark engine.
const SHARDS: usize = 2;
/// Top-k size of every standing query.
const K: usize = 5;
/// Records per wire batch.
const BATCH_RECORDS: usize = 128;
/// Longest run of the random shape.
const MAX_RUN: usize = 4096;

/// One world's stream and the standing queries served over it.
struct Stream {
    name: &'static str,
    space: Arc<IndoorSpace>,
    log: Iupt,
    specs: Vec<QuerySpec>,
    bucket_millis: i64,
}

impl Stream {
    fn generate(
        name: &'static str,
        scenario: Scenario,
        bucket_millis: i64,
        window_buckets: usize,
        queries: usize,
    ) -> Stream {
        let world = World::generate(scenario);
        let all: Vec<SLocId> = world.space.slocs().iter().map(|s| s.id).collect();
        // Overlapping rotations of three quarters of the venue's
        // S-locations, as the benchmark registers them.
        let take = (all.len() * 3 / 4).max(1);
        let specs = (0..queries)
            .map(|i| {
                let offset = i * all.len() / queries;
                let slocs = (0..take).map(|j| all[(offset + j) % all.len()]);
                QuerySpec::new(
                    K,
                    QuerySet::new(slocs.collect()),
                    WindowSpec::new(bucket_millis, window_buckets),
                )
            })
            .collect();
        Stream {
            name,
            space: Arc::new(world.space),
            log: world.iupt,
            specs,
            bucket_millis,
        }
    }

    /// A wire workload's venue stream: 20,000 visitors over six hours.
    fn venue(
        name: &'static str,
        destination_skew: f64,
        dwell_cache: bool,
        bucket_millis: i64,
        window_buckets: usize,
        queries: usize,
    ) -> Stream {
        let scenario = StreamScenario {
            num_objects: 20_000,
            duration_secs: 6 * 3600,
            visit_secs: (60, 120),
            destination_skew,
            dwell_cache,
            seed: SEED,
        }
        .scenario();
        Stream::generate(name, scenario, bucket_millis, window_buckets, queries)
    }

    /// Replays the stream in runs whose lengths `runs` draws, and
    /// returns the checksum of every update and how many there were.
    fn replay(&self, runs: &mut dyn FnMut() -> usize) -> (u64, usize) {
        let config = ServeConfig::with_buckets(self.bucket_millis).with_shards(SHARDS);
        let mut engine = ServeEngine::new(Arc::clone(&self.space), config);
        for spec in &self.specs {
            engine
                .register(spec.clone())
                .expect("a valid standing query");
        }
        let mut sum = Checksum::default();
        let records = self.log.len();
        let mut next = 0;
        while next < records {
            let run: Vec<Record> = (next..records.min(next + runs()))
                .map(|pos| self.log.view(pos as u32).to_record())
                .collect();
            next += run.len();
            let watermark = run.last().expect("runs are not empty").t;
            engine.ingest_all(run).expect("a time-ordered stream");
            let (advances, _) = engine
                .advance_due(watermark, None, usize::MAX)
                .expect("advance");
            sum.advances(advances);
        }
        let (advances, _) = engine
            .advance_due(Timestamp(i64::MAX), None, usize::MAX)
            .expect("advance");
        sum.advances(advances);
        (sum.hash, sum.updates)
    }

    /// Checks the whole stream against its pin under every run shape.
    fn assert_pinned(&self, pin: u64) {
        let mut rng = StdRng::seed_from_u64(SEED);
        let mut random = || rng.gen_range(1..=MAX_RUN);
        let shapes: [(&str, &mut dyn FnMut() -> usize); 3] = [
            ("128-record runs", &mut || BATCH_RECORDS),
            ("random runs of 1-4096 records", &mut random),
            ("single records", &mut || 1),
        ];
        for (shape, runs) in shapes {
            let (got, updates) = self.replay(runs);
            assert_eq!(
                hex(got),
                hex(pin),
                "{}: {shape} ({updates} updates)",
                self.name
            );
        }
    }
}

fn hex(hash: u64) -> String {
    format!("{hash:016x}")
}

/// FNV-1a over the 64-bit words of every update, in the order the
/// engine returned them.
struct Checksum {
    hash: u64,
    updates: usize,
}

impl Default for Checksum {
    fn default() -> Self {
        Checksum {
            hash: 0xcbf2_9ce4_8422_2325,
            updates: 0,
        }
    }
}

impl Checksum {
    fn word(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.hash ^= u64::from(byte);
            self.hash = self.hash.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn slocs(&mut self, slocs: &[SLocId]) {
        self.word(slocs.len() as u64);
        for s in slocs {
            self.word(u64::from(s.0));
        }
    }

    fn update(&mut self, update: &ContinuousUpdate) {
        self.updates += 1;
        self.word(update.window.start.millis() as u64);
        self.word(update.window.end.millis() as u64);
        self.word(update.outcome.ranking.len() as u64);
        for r in &update.outcome.ranking {
            self.word(u64::from(r.sloc.0));
            self.word(r.flow.to_bits());
        }
        self.word(u64::from(update.changed));
        self.slocs(&update.entered);
        self.slocs(&update.left);
        let stats = &update.outcome.stats;
        self.word(stats.objects_total as u64);
        self.word(stats.objects_computed as u64);
        self.word(stats.dp_fallback_objects as u64);
    }

    fn advances<Q>(&mut self, advances: Vec<(Timestamp, Vec<(Q, ContinuousUpdate)>)>) {
        for (_, updates) in advances {
            for (_, update) in &updates {
                self.update(update);
            }
        }
    }
}

/// The streams are large (a venue stream holds millions of records):
/// one at a time, whatever the test harness's thread count.
static ONE_STREAM_AT_A_TIME: Mutex<()> = Mutex::new(());

fn serially(test: impl FnOnce()) {
    let _turn = ONE_STREAM_AT_A_TIME
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    test();
}

#[test]
fn wire_paced_dwell_replays_to_its_pin() {
    serially(|| {
        Stream::venue("wire_paced_dwell", 0.9, true, 120_000, 16, 4)
            .assert_pinned(0x9dee_fb63_b095_a441);
    });
}

#[test]
fn wire_paced_uniform_replays_to_its_pin() {
    serially(|| {
        Stream::venue("wire_paced_uniform", 0.0, false, 120_000, 4, 1)
            .assert_pinned(0xa7f0_1c9d_81c9_7d27);
    });
}

#[test]
fn wire_saturate_replays_to_its_pin() {
    serially(|| {
        Stream::venue("wire_saturate", 0.9, true, 1_080_000, 16, 4)
            .assert_pinned(0xdda2_ce09_347a_d807);
    });
}

#[test]
fn synthetic_world_replays_to_its_pin() {
    serially(|| {
        let scenario = Scenario::synthetic_scaled(0.1).with_seed(SEED);
        let stream = Stream::generate("synthetic_scaled(0.1)", scenario, 120_000, 4, 1);
        assert_eq!(stream.space.slocs().len(), 870);
        stream.assert_pinned(0x9441_b43c_6284_344e);
    });
}
