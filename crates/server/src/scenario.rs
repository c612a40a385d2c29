//! The shared load profile: one definition of the workload, engine
//! configuration, and query set that the `popflow-server` binary and
//! its clients (the cross-process test) construct from the same
//! `(scale, seed)` pair.
//!
//! Sharing the profile is what makes the bit-identity gate meaningful:
//! the server process and the in-process reference engine are
//! guaranteed to run the *same* venue, stream, bucket width, and query
//! specs, so any difference in their deltas is a real serving bug, not
//! a configuration skew.

use std::sync::Arc;

use indoor_iupt::{Record, Timestamp};
use indoor_model::{IndoorSpace, SLocId};
use indoor_sim::{RecordStream, StreamScenario, World};
use popflow_core::{ContinuousUpdate, FlowError, QueryId, QuerySet, QuerySpec, WindowSpec};
use popflow_serve::{ServeConfig, ServeEngine};

use crate::protocol::Frame;
use crate::ServerConfig;

/// The canonical serving workload, parameterized by population scale
/// and seed: a half-day visitor venue, 36-minute buckets, a 16-bucket
/// window.
#[derive(Debug, Clone, Copy)]
pub struct LoadProfile {
    /// Population multiplier (1.0 ≈ 3000 visitors; floor 30).
    pub scale: f64,
    /// Master seed for venue, mobility, and positioning.
    pub seed: u64,
    /// Standing queries to register (overlapping rotations of ~¾ of
    /// the venue's locations).
    pub queries: usize,
    /// Stream duration in seconds (default half a day; tests shrink
    /// it).
    pub duration_secs: i64,
    /// Bucket width shared by the engine and every query (default
    /// 36 min).
    pub bucket_millis: i64,
    /// Window length in buckets (default 16).
    pub window_buckets: usize,
    /// Global ingest queue capacity in records (default 2048 — small
    /// enough that pipelined closed-loop producers visibly saturate
    /// it).
    pub queue_records: usize,
}

impl LoadProfile {
    /// The profile at `scale` with the workspace's usual defaults.
    pub fn new(scale: f64, seed: u64) -> Self {
        LoadProfile {
            scale,
            seed,
            queries: 2,
            duration_secs: 12 * 3600,
            bucket_millis: 2_160_000,
            window_buckets: 16,
            queue_records: 2048,
        }
    }

    /// Bucket width shared by the engine and every query.
    pub fn bucket_millis(&self) -> i64 {
        self.bucket_millis
    }

    /// Window length in buckets.
    pub fn window_buckets(&self) -> usize {
        self.window_buckets
    }

    /// Top-k size.
    pub fn k(&self) -> u32 {
        5
    }

    /// The window spec every registered query uses.
    pub fn window_spec(&self) -> WindowSpec {
        WindowSpec::new(self.bucket_millis(), self.window_buckets())
    }

    /// The simulated stream shape.
    pub fn stream_scenario(&self) -> StreamScenario {
        StreamScenario {
            num_objects: ((3000.0 * self.scale) as usize).max(30),
            duration_secs: self.duration_secs,
            visit_secs: (60, 120),
            destination_skew: 0.9,
            dwell_cache: true,
            seed: self.seed,
        }
    }

    /// Generates the venue and its replayable record stream.
    pub fn build(&self) -> (World, RecordStream) {
        self.stream_scenario().build()
    }

    /// The wrapped engine's configuration.
    pub fn serve_config(&self) -> ServeConfig {
        ServeConfig::with_buckets(self.bucket_millis())
            .with_shards(4)
            .with_metrics(true)
    }

    /// The server configuration: a small per-pass drain budget and
    /// queue so closed-loop producers visibly saturate it (the throttle
    /// path the cross-process test gates on), while a paced stream passes
    /// untouched.
    pub fn server_config(&self) -> ServerConfig {
        ServerConfig::new(self.serve_config())
            .with_ingest_budget(256, 256 * 1024)
            .with_queue_capacity(self.queue_records)
            .with_advance_budget(4, 2_000)
    }

    /// The standing queries' location subsets: `queries` rotations of
    /// ~¾ of the venue's S-locations (raw ids, in registration
    /// order) — the multi-query shape the serving engine's shared
    /// bucket caches exist for.
    pub fn query_slocs(&self, world: &World) -> Vec<Vec<u32>> {
        let slocs: Vec<u32> = world.space.slocs().iter().map(|s| s.id.0).collect();
        let n = self.queries.max(1);
        let take = (slocs.len() * 3 / 4).max(1);
        (0..n)
            .map(|i| {
                let offset = i * slocs.len() / n;
                (0..take)
                    .filter_map(|j| slocs.get((offset + j) % slocs.len()).copied())
                    .collect()
            })
            .collect()
    }

    /// The same subsets as typed query specs (for the in-process
    /// reference engine).
    pub fn query_specs(&self, world: &World) -> Vec<QuerySpec> {
        self.query_slocs(world)
            .into_iter()
            .map(|raw| {
                QuerySpec::new(
                    self.k() as usize,
                    QuerySet::new(raw.into_iter().map(SLocId).collect()),
                    self.window_spec(),
                )
            })
            .collect()
    }
}

/// Splits a stream across `connections` ingest connections by object
/// id, preserving per-object (and per-connection) time order — the
/// partitioning contract the server's watermark-gated merge requires.
pub fn partition_stream(stream: &RecordStream, connections: usize) -> Vec<Vec<Record>> {
    let n = connections.max(1);
    let mut parts: Vec<Vec<Record>> = (0..n).map(|_| Vec::new()).collect();
    for r in stream.iter() {
        let slot = (r.oid.0 as usize) % n;
        if let Some(part) = parts.get_mut(slot) {
            part.push(r.to_record());
        }
    }
    parts
}

/// Renders one engine update as the wire frame the server would push —
/// flows as raw bit patterns, so equality on the frame is bit-identity
/// on the ranking.
pub fn delta_frame(qid: QueryId, t: Timestamp, update: &ContinuousUpdate) -> Frame {
    Frame::TopkDelta {
        query_id: qid.0,
        advance_millis: t.millis(),
        window_start_millis: update.window.start.millis(),
        window_end_millis: update.window.end.millis(),
        changed: update.changed,
        ranking: update
            .outcome
            .ranking
            .iter()
            .map(|r| (r.sloc.0, r.flow.to_bits()))
            .collect(),
        entered: update.entered.iter().map(|s| s.0).collect(),
        left: update.left.iter().map(|s| s.0).collect(),
    }
}

/// Drives an in-process [`ServeEngine`] over `records` and returns
/// every delta it would push, as wire frames in advance order.
///
/// The reference ingests everything, then runs all due advances via
/// [`ServeEngine::advance_due`] — the same boundary sequence the
/// server's scheduler executes incrementally, so the two delta streams
/// must match bit for bit. (Ingesting ahead of an advance boundary
/// cannot change a sealed bucket: records at or after the boundary
/// belong to later buckets by construction.)
pub fn reference_deltas(
    space: Arc<IndoorSpace>,
    serve: ServeConfig,
    specs: &[QuerySpec],
    records: &[Record],
) -> Result<Vec<Frame>, FlowError> {
    let mut engine = ServeEngine::new(space, serve);
    for spec in specs {
        engine.register(spec.clone())?;
    }
    // One hand-off per record: handing the whole stream to the shards
    // at once queues it all before they fold any of it, and the deeper
    // queues raise the peak resident set of whoever builds this
    // reference.
    for record in records {
        engine.ingest_all([record.clone()])?;
    }
    let (runs, _) = engine.advance_due(Timestamp(i64::MAX), None, usize::MAX)?;
    let mut frames = Vec::new();
    for (t, updates) in runs {
        for (qid, update) in updates {
            frames.push(delta_frame(qid, t, &update));
        }
    }
    Ok(frames)
}
