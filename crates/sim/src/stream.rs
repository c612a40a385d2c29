//! Streaming replay: turns a generated world into the time-ordered record
//! stream a continuous serving engine ingests — the "simulated day"
//! workload of the `popflow-serve` experiments.
//!
//! A [`StreamScenario`] is a population moving through a building for a
//! configurable span (a full day by default, compressible for tests and
//! CI); [`RecordStream`] replays the resulting positioning records in
//! global timestamp order, exactly as a live deployment's sensor
//! pipeline would deliver them. The stream holds the world's columnar,
//! interned log (one `SetRef` per record, one arena copy per distinct
//! sample set — see `indoor_iupt::Iupt`) rather than a row copy, so a
//! replayable stream costs a fraction of the old `Vec<Record>` clone.

use indoor_iupt::{Iupt, Record, RecordRef, StoreStats, TimeInterval};

use crate::building_gen::BuildingGenConfig;
use crate::mobility::MobilityConfig;
use crate::positioning::PositioningConfig;
use crate::scenario::{Scenario, World};

/// The default destination-choice skew, matching
/// [`MobilityConfig::tiny`].
const DEFAULT_SKEW: f64 = 0.9;

/// A streaming workload: `num_objects` visitors tracked over
/// `duration_secs` of simulated wall-clock time.
///
/// The population model is *visitor turnover* — each tagged object is in
/// the building only for a short visit, with visit starts spread
/// uniformly over the span (an exhibition, mall, or badge-in office
/// lobby: the workload RFID deployments actually see). Short visits are
/// what make a bucketed serving window effective: most objects' records
/// fall inside a single bucket, so slides reuse cached work.
#[derive(Debug, Clone)]
pub struct StreamScenario {
    /// Tracked population size over the whole span.
    pub num_objects: usize,
    /// Simulated span in seconds.
    pub duration_secs: i64,
    /// Visit-length range in seconds (an object's lifespan).
    pub visit_secs: (i64, i64),
    /// Zipf exponent skewing destination choice toward popular rooms
    /// (0 = uniform). Real visitor traffic is heavily skewed.
    pub destination_skew: f64,
    /// Whether the positioning pipeline re-emits its cached WkNN answer
    /// while a visitor dwells at an unchanged position (see
    /// [`PositioningConfig::dwell_cache`]). On by default for stream
    /// workloads: connectivity-based indoor feeds are exactly this
    /// redundant, and the redundancy is what sample-set interning
    /// exploits.
    pub dwell_cache: bool,
    /// Master seed (re-derived per component).
    pub seed: u64,
}

impl StreamScenario {
    /// A full simulated day of tracking with 2–10 minute visits — the
    /// workload shape of a real deployment (sizeable: run in release
    /// builds).
    pub fn day(num_objects: usize, seed: u64) -> Self {
        StreamScenario {
            num_objects,
            duration_secs: 24 * 3600,
            visit_secs: (120, 600),
            destination_skew: DEFAULT_SKEW,
            dwell_cache: true,
            seed,
        }
    }

    /// A day compressed by `scale ∈ (0, 1]` in span (visits shortened
    /// with it), population kept as given — the CI-sized variant of
    /// [`StreamScenario::day`].
    pub fn compressed_day(num_objects: usize, scale: f64, seed: u64) -> Self {
        assert!(scale > 0.0 && scale <= 1.0, "scale must be in (0, 1]");
        let duration_secs = ((24.0 * 3600.0 * scale) as i64).max(120);
        StreamScenario {
            num_objects,
            duration_secs,
            visit_secs: (
                ((120.0 * scale.sqrt()) as i64).clamp(30, duration_secs),
                ((600.0 * scale.sqrt()) as i64).clamp(60, duration_secs),
            ),
            destination_skew: DEFAULT_SKEW,
            dwell_cache: true,
            seed,
        }
    }

    /// Overrides the dwell-cache behaviour of the positioning pipeline.
    pub fn with_dwell_cache(mut self, dwell_cache: bool) -> Self {
        self.dwell_cache = dwell_cache;
        self
    }

    /// Expands into a full [`Scenario`]: a small venue whose visitors
    /// wander between rooms for the length of their visit, positioned
    /// with the paper's WkNN parameters.
    pub fn scenario(&self) -> Scenario {
        let mut mobility = MobilityConfig::tiny();
        mobility.num_objects = self.num_objects;
        mobility.duration_secs = self.duration_secs;
        mobility.destination_skew = self.destination_skew;
        mobility.lifespan_secs = (
            self.visit_secs.0.min(self.duration_secs),
            self.visit_secs.1.min(self.duration_secs),
        );
        // Visitors keep moving: short dwells relative to the visit.
        mobility.dwell_secs = (10, 45);
        let mut positioning = PositioningConfig::real_floor_analog();
        positioning.dwell_cache = self.dwell_cache;
        Scenario {
            building: BuildingGenConfig::tiny(),
            mobility,
            positioning,
        }
        .with_seed(self.seed)
    }

    /// Generates the world and its replayable record stream.
    pub fn build(&self) -> (World, RecordStream) {
        let world = World::generate(self.scenario());
        let stream = RecordStream::replay(&world);
        (world, stream)
    }
}

/// A time-ordered record stream replayed from a generated world.
///
/// Backed by the world's columnar interned log: reading the stream
/// yields zero-copy [`RecordRef`] views; an engine that needs ownership
/// materializes per record with [`RecordRef::to_record`] (the interned
/// copy on the far side deduplicates it right back).
#[derive(Debug, Clone)]
pub struct RecordStream {
    log: Iupt,
}

impl RecordStream {
    /// Replays the world's positioning table as a stream. The IUPT is
    /// already time-sorted (stable on ties), so the replay order is
    /// exactly the order a live pipeline would have delivered — and
    /// already interned, so this clones the columnar store, not one
    /// sample set per record.
    pub fn replay(world: &World) -> Self {
        RecordStream {
            log: world.iupt.clone(),
        }
    }

    /// Number of records in the stream.
    pub fn len(&self) -> usize {
        self.log.len()
    }

    /// Whether the stream holds no records.
    pub fn is_empty(&self) -> bool {
        self.log.is_empty()
    }

    /// Zero-copy view of the `i`-th record in delivery (time) order.
    pub fn get(&self, i: usize) -> RecordRef<'_> {
        self.log.view(i as u32)
    }

    /// First-to-last record timestamps.
    pub fn time_bounds(&self) -> Option<TimeInterval> {
        self.log.time_bounds()
    }

    /// Iterates the stream in delivery order, zero-copy.
    pub fn iter(&self) -> impl Iterator<Item = RecordRef<'_>> + '_ {
        self.log.iter()
    }

    /// Materializes the stream as owned records (clones every sample
    /// set) — only for consumers that genuinely need ownership of the
    /// whole stream at once.
    pub fn to_records(&self) -> Vec<Record> {
        self.log.to_records()
    }

    /// Footprint/interner accounting of the stream's columnar store.
    pub fn store_stats(&self) -> StoreStats {
        self.log.store_stats()
    }

    /// Bytes the pre-interning row layout would occupy for this stream
    /// (see [`Iupt::row_bytes`]).
    pub fn row_bytes(&self) -> usize {
        self.log.row_bytes()
    }

    /// Mean stream rate in records per simulated second.
    pub fn records_per_sec(&self) -> f64 {
        match self.time_bounds() {
            Some(b) if b.duration_millis() > 0 => {
                self.len() as f64 / (b.duration_millis() as f64 / 1000.0)
            }
            _ => 0.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_is_time_ordered_and_complete() {
        let (world, stream) = StreamScenario::compressed_day(10, 0.005, 3).build();
        assert_eq!(stream.len(), world.iupt.len());
        assert!(!stream.is_empty());
        let records: Vec<_> = stream.iter().collect();
        assert!(records.windows(2).all(|w| w[0].t <= w[1].t));
        let bounds = stream.time_bounds().unwrap();
        assert!(bounds.end.as_secs() <= world.scenario.mobility.duration_secs);
        assert!(stream.records_per_sec() > 0.0);
    }

    #[test]
    fn deterministic_under_seed() {
        let (_, a) = StreamScenario::compressed_day(8, 0.005, 9).build();
        let (_, b) = StreamScenario::compressed_day(8, 0.005, 9).build();
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!((x.oid, x.t), (y.oid, y.t));
            assert_eq!(x.samples, y.samples);
        }
    }

    #[test]
    fn population_and_span_respected() {
        let sc = StreamScenario::compressed_day(12, 0.01, 1);
        assert_eq!(sc.num_objects, 12);
        let (world, stream) = sc.build();
        assert_eq!(world.trajectories.len(), 12);
        let objects: std::collections::HashSet<_> = stream.iter().map(|r| r.oid).collect();
        assert_eq!(objects.len(), 12);
        // Late windows still see traffic: at least one record lands in the
        // last quarter of the span.
        let span = world.scenario.mobility.duration_secs;
        assert!(stream.iter().any(|r| r.t.as_secs() >= span * 3 / 4));
    }

    #[test]
    fn full_day_scenario_shape() {
        let sc = StreamScenario::day(100, 7);
        assert_eq!(sc.duration_secs, 86_400);
        let scenario = sc.scenario();
        assert_eq!(scenario.mobility.num_objects, 100);
        assert_eq!(scenario.mobility.duration_secs, 86_400);
        assert!(scenario.positioning.dwell_cache);
    }

    /// The redundancy story end to end: a dwell-cached visitor stream
    /// interns materially fewer sets than it has records, and the
    /// columnar footprint undercuts the row layout it replaced. With the
    /// cache off, the same scenario yields (almost) no duplicates.
    #[test]
    fn dwell_cache_makes_interning_pay() {
        let sc = StreamScenario::compressed_day(12, 0.01, 5);
        let (_, cached) = sc.clone().build();
        let stats = cached.store_stats();
        assert!(
            stats.intern_hit_rate() > 0.1,
            "dwell caching produced almost no duplicate reports: {stats:?}"
        );
        assert!(
            stats.bytes < cached.row_bytes(),
            "interned stream not smaller than rows: {stats:?}"
        );
        let (_, uncached) = sc.with_dwell_cache(false).build();
        assert!(
            uncached.store_stats().intern_hit_rate() < stats.intern_hit_rate(),
            "disabling the dwell cache must reduce duplicate reports"
        );
    }
}
