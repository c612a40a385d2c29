//! The four workloads: what data each generates from the seed, which
//! ad hoc and standing queries it asks, and how it loads the server.
//!
//! Every size is a constant, so two runs with one seed do the same
//! work. `--quick` swaps in miniature sizes for the smoke test; its
//! numbers are never reported.

use std::sync::Arc;

use indoor_iupt::{TimeInterval, Timestamp};
use indoor_model::{IndoorSpace, SLocId};
use indoor_sim::{RecordStream, Scenario, StreamScenario, World};
use popflow_core::{QuerySet, QuerySpec, TkPlQuery, WindowSpec};

/// Shards of every serving engine the benchmark starts. Two, because
/// the reference box has two cores.
pub const NUM_SHARDS: usize = 2;
/// Ingest connections of every wire replay.
pub const INGEST_CONNS: usize = 2;
/// Records per ingest batch.
pub const BATCH_RECORDS: usize = 128;
/// Batches one ingest connection may have unacknowledged. Two
/// connections keep at most 2 × 64 × 128 = 16 384 records in flight,
/// a quarter of the server's default queue, so no batch is throttled.
pub const INFLIGHT_BATCHES: usize = 64;
/// Top-k size of every query.
pub const K: usize = 5;
/// Window boundaries at the start of each paced replay whose deltas
/// are not timed (caches and the allocator are still filling).
pub const WARMUP_BOUNDARIES: usize = 10;
/// The latency limit of the paced workloads: the gated delta
/// percentile (p90) must stay within it or the run fails.
pub const DELTA_LIMIT_MS: f64 = 250.0;

/// Where a workload's records come from.
#[derive(Debug, Clone, Copy)]
pub enum Source {
    /// The paper's §5.3 synthetic building, objects scaled by `scale`.
    Synthetic { scale: f64 },
    /// A visitor-turnover venue stream (`indoor_sim::StreamScenario`).
    Venue {
        num_objects: usize,
        duration_secs: i64,
        destination_skew: f64,
        dwell_cache: bool,
    },
}

/// Which end-to-end path a workload times.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Load {
    /// Ad hoc queries, closed loop, one caller.
    Batch,
    /// TCP replay, open loop at this many records per second.
    Paced { records_per_sec: f64 },
    /// TCP replay, closed loop, as fast as acks allow.
    Saturate,
}

#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    pub source: Source,
    pub load: Load,
    /// Ad hoc query shape: window length and share of S-locations in Q.
    pub adhoc_window_secs: i64,
    pub adhoc_q_share: f64,
    /// Standing query shape.
    pub bucket_millis: i64,
    pub window_buckets: usize,
    pub standing_queries: usize,
}

const SYNTHETIC_WORLD_SEED: u64 = 42;
const VENUE_OBJECTS: usize = 20_000;
const VENUE_SECS: i64 = 6 * 3600;
pub const PACED_RATE: f64 = 150_000.0;

pub const WORKLOADS: [Spec; 4] = [
    Spec {
        name: "batch_adhoc",
        why: "the paper's use: ad hoc top-k by nested_loop and best_first; kernels and window lookups do all the work, serving does none",
        source: Source::Synthetic { scale: 0.1 },
        load: Load::Batch,
        adhoc_window_secs: 5 * 60,
        adhoc_q_share: 0.3,
        bucket_millis: 120_000,
        window_buckets: 4,
        standing_queries: 1,
    },
    Spec {
        name: "wire_paced_dwell",
        why: "record-to-delta latency at a fixed rate on a skewed, dwelling feed with 4 overlapping queries: every cache layer is used",
        source: Source::Venue {
            num_objects: VENUE_OBJECTS,
            duration_secs: VENUE_SECS,
            destination_skew: 0.9,
            dwell_cache: true,
        },
        load: Load::Paced { records_per_sec: PACED_RATE },
        adhoc_window_secs: 32 * 60,
        adhoc_q_share: 0.3,
        bucket_millis: 120_000,
        window_buckets: 16,
        standing_queries: 4,
    },
    Spec {
        name: "wire_paced_uniform",
        why: "same rate and layers on a uniform feed with distinct sample sets and 1 query: the caches are bypassed, sealing is raw kernel and ingest",
        source: Source::Venue {
            num_objects: VENUE_OBJECTS,
            duration_secs: VENUE_SECS,
            destination_skew: 0.0,
            dwell_cache: false,
        },
        load: Load::Paced { records_per_sec: PACED_RATE },
        adhoc_window_secs: 8 * 60,
        adhoc_q_share: 0.3,
        bucket_millis: 120_000,
        window_buckets: 4,
        standing_queries: 1,
    },
    Spec {
        name: "wire_saturate",
        why: "closed-loop throughput with rare advances: frame decode, the ingest queue, the tick drain budget and per-record shard hand-off dominate",
        source: Source::Venue {
            num_objects: VENUE_OBJECTS,
            duration_secs: VENUE_SECS,
            destination_skew: 0.9,
            dwell_cache: true,
        },
        load: Load::Saturate,
        adhoc_window_secs: 32 * 60,
        adhoc_q_share: 0.3,
        bucket_millis: 1_080_000,
        window_buckets: 16,
        standing_queries: 4,
    },
];

pub fn find(name: &str) -> Option<Spec> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

impl Spec {
    /// The miniature of this workload that `--quick` runs.
    pub fn quick(mut self) -> Spec {
        self.source = match self.source {
            Source::Synthetic { .. } => Source::Synthetic { scale: 0.01 },
            Source::Venue {
                destination_skew,
                dwell_cache,
                ..
            } => Source::Venue {
                num_objects: 1_500,
                duration_secs: 3600,
                destination_skew,
                dwell_cache,
            },
        };
        self.adhoc_window_secs = self.adhoc_window_secs.min(300);
        if let Load::Paced { .. } = self.load {
            self.load = Load::Paced {
                records_per_sec: 40_000.0,
            };
        }
        if self.load == Load::Saturate {
            self.bucket_millis = 600_000;
            self.window_buckets = 4;
        }
        self
    }

    fn scenario(&self, seed: u64) -> Scenario {
        match self.source {
            // One building and one population for every seed; the seed
            // picks the queries. Across differently seeded worlds the
            // query p90 was bimodal (35 against 46 ms), which would have
            // pushed every latency bound to the allowed maximum.
            Source::Synthetic { scale } => {
                Scenario::synthetic_scaled(scale).with_seed(SYNTHETIC_WORLD_SEED)
            }
            Source::Venue {
                num_objects,
                duration_secs,
                destination_skew,
                dwell_cache,
            } => StreamScenario {
                num_objects,
                duration_secs,
                visit_secs: (60, 120),
                destination_skew,
                dwell_cache,
                seed,
            }
            .scenario(),
        }
    }

    /// Generates the workload's venue and records from the seed.
    pub fn generate(&self, seed: u64) -> Dataset {
        let mut world = World::generate(self.scenario(seed));
        // Ground truth is not part of any workload.
        world.trajectories = Vec::new();
        world.iupt.freeze();
        Dataset {
            space: Arc::new(world.space.clone()),
            world,
        }
    }

    pub fn window_spec(&self) -> WindowSpec {
        WindowSpec::new(self.bucket_millis, self.window_buckets)
    }

    /// The standing queries: overlapping rotations of three quarters of
    /// the venue's S-locations, as raw ids in registration order.
    pub fn standing_slocs(&self, space: &IndoorSpace) -> Vec<Vec<u32>> {
        let all: Vec<u32> = space.slocs().iter().map(|s| s.id.0).collect();
        let take = (all.len() * 3 / 4).max(1);
        (0..self.standing_queries)
            .map(|i| {
                let offset = i * all.len() / self.standing_queries;
                (0..take).map(|j| all[(offset + j) % all.len()]).collect()
            })
            .collect()
    }

    pub fn standing_specs(&self, space: &IndoorSpace) -> Vec<QuerySpec> {
        self.standing_slocs(space)
            .into_iter()
            .map(|raw| {
                QuerySpec::new(
                    K,
                    QuerySet::new(raw.into_iter().map(SLocId).collect()),
                    self.window_spec(),
                )
            })
            .collect()
    }

    /// The `index`-th ad hoc query of the seeded sequence: a random
    /// `adhoc_q_share` of the S-locations over a window of
    /// `adhoc_window_secs` starting at a random whole second.
    pub fn adhoc_query(&self, data: &Dataset, seed: u64, index: u64) -> TkPlQuery {
        let mut rng = SplitMix64::new(seed ^ index.wrapping_mul(0xa076_1d64_78bd_642f));
        let mut all: Vec<SLocId> = data.space.slocs().iter().map(|s| s.id).collect();
        let take = ((all.len() as f64 * self.adhoc_q_share) as usize).clamp(1, all.len());
        for i in 0..take {
            let j = i + rng.below((all.len() - i) as u64) as usize;
            all.swap(i, j);
        }
        all.truncate(take);
        let span = self.adhoc_window_secs.min(data.duration_secs());
        let start = rng.below((data.duration_secs() - span + 1) as u64) as i64;
        TkPlQuery::new(
            K,
            QuerySet::new(all),
            TimeInterval::new(
                Timestamp::from_secs(start),
                Timestamp::from_secs(start + span),
            ),
        )
    }
}

/// One generated workload input: the venue, and `world.iupt`, the
/// positioning table ad hoc queries run against.
pub struct Dataset {
    pub space: Arc<IndoorSpace>,
    pub world: World,
}

impl Dataset {
    pub fn duration_secs(&self) -> i64 {
        self.world.scenario.mobility.duration_secs
    }

    /// The records in delivery order, for the serving path (a copy of
    /// the columnar table; drop it when done).
    pub fn stream(&self) -> RecordStream {
        RecordStream::replay(&self.world)
    }
}

/// SplitMix64: the harness's own seeded generator, so query choice
/// does not depend on the workspace's vendored `rand` shim.
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)`; `n` must be positive.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adhoc_queries_repeat_under_a_seed_and_differ_across_indices() {
        let spec = find("batch_adhoc").unwrap().quick();
        let data = spec.generate(3);
        let a = spec.adhoc_query(&data, 3, 0);
        let b = spec.adhoc_query(&data, 3, 0);
        let c = spec.adhoc_query(&data, 3, 1);
        assert_eq!(a.query_set.slocs(), b.query_set.slocs());
        assert_eq!(a.interval, b.interval);
        assert!(a.query_set.slocs() != c.query_set.slocs() || a.interval != c.interval);
        let n = data.space.slocs().len();
        assert_eq!(a.query_set.len(), (n as f64 * 0.3) as usize);
        assert!(a.interval.end.as_secs() <= data.duration_secs());
    }

    #[test]
    fn standing_queries_overlap_and_cover_three_quarters() {
        let spec = find("wire_paced_dwell").unwrap().quick();
        let data = spec.generate(5);
        let sets = spec.standing_slocs(&data.space);
        assert_eq!(sets.len(), 4);
        let n = data.space.slocs().len();
        assert!(sets.iter().all(|s| s.len() == n * 3 / 4));
        assert_ne!(sets[0], sets[1]);
        assert!(sets[0].iter().any(|s| sets[1].contains(s)));
    }
}
