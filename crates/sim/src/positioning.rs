//! WkNN-style probabilistic positioning simulation (§5.3): every at-most-T
//! seconds an object reports a sample set of up to `mss` P-locations drawn
//! from within `μ` meters of its true position, weighted inversely to
//! distance with multiplicative noise `γ ∈ [−0.2, 0.2]` —
//! `w(loc) = 1 / (dist(loc, o.loc) · (1 + γ))`, `prob_i = w_i / Σ w_k`.

use std::collections::HashMap;

use indoor_geom::Point;
use indoor_iupt::{Iupt, Record, SampleSet};
use indoor_model::{FloorId, IndoorSpace, PLocId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::trajectory::Trajectory;

/// How many samples a report carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SampleSizePolicy {
    /// Always the `mss` nearest candidates — classic WkNN behaviour, and
    /// the default. A static user then reports a *stable* support set,
    /// which is precisely what makes the paper's inter-merge collapse
    /// dwell periods and keeps path enumeration tractable (the paper's
    /// measured BF/NL times are only reachable with stable supports; see
    /// DESIGN.md §3).
    #[default]
    Fixed,
    /// `|X|` drawn uniformly from `1..=mss` per report — the literal
    /// wording of §5.3 ("|X| is random between 1 and mss"). Supports then
    /// flip between report sizes, inter-merge rarely applies, and exact
    /// enumeration degenerates; kept as a stress-test knob.
    UniformRandom,
}

/// Positioning simulation parameters.
#[derive(Debug, Clone)]
pub struct PositioningConfig {
    /// Maximum sample-set size (paper default 4).
    pub mss: usize,
    /// Sample-count policy per report.
    pub sample_size: SampleSizePolicy,
    /// Maximum positioning period `T` in seconds: consecutive reports of
    /// one object are at most `T` apart (paper: 1–7 s, default 3 s).
    pub max_period_secs: f64,
    /// Indoor positioning error `μ` in meters: candidate P-locations lie
    /// within `μ` of the true position (paper: 3–7 m, default 5 m; the
    /// real data has ≈ 2.1 m).
    pub mu: f64,
    /// Amplitude of the weight noise `γ` (paper: 0.2).
    pub gamma: f64,
    /// Wall attenuation: candidates in a *different* partition than the
    /// true position (and not at one of its doors) have their effective
    /// distance multiplied by this factor. Wi-Fi fingerprints differ
    /// sharply across walls, so through-wall reference points rarely make
    /// the WkNN top-k; a pure-Euclidean candidate model would leak room
    /// interiors to corridor walkers and grossly inflate pass
    /// probabilities.
    pub wall_factor: f64,
    /// Re-emit the cached WkNN answer while an object dwells at an
    /// unchanged position (same floor, exact same point, same
    /// partition). Real connectivity-based positioning pipelines behave
    /// this way — an unchanged fingerprint match returns the cached
    /// result, so a dwelling device re-reports the *identical* sample
    /// set for long stretches (the redundancy LOCATER-style WiFi feeds
    /// and public-space traces both exhibit, and what the `Iupt` log's
    /// interning exploits). Off by default: the paper's §5 workloads
    /// draw fresh weight noise per report, and every batch experiment
    /// keeps that behaviour bit for bit.
    pub dwell_cache: bool,
    /// RNG seed.
    pub seed: u64,
}

impl PositioningConfig {
    /// The paper's synthetic defaults.
    pub fn paper_synthetic() -> Self {
        PositioningConfig {
            mss: 4,
            sample_size: SampleSizePolicy::Fixed,
            max_period_secs: 3.0,
            mu: 5.0,
            gamma: 0.2,
            wall_factor: 2.5,
            dwell_cache: false,
            seed: 0x90f1,
        }
    }

    /// The real-data analog: T = 3 s, mss = 4, and μ = 3 m — candidates
    /// drawn within 3 m have a mean offset of ≈ 2.1 m, the paper's
    /// reported average positioning error.
    pub fn real_floor_analog() -> Self {
        PositioningConfig {
            mss: 4,
            sample_size: SampleSizePolicy::Fixed,
            max_period_secs: 3.0,
            mu: 3.0,
            gamma: 0.2,
            wall_factor: 2.5,
            dwell_cache: false,
            seed: 0x90f1,
        }
    }
}

/// Generates the Indoor Uncertain Positioning Table for the given
/// trajectories.
pub fn generate_iupt(
    space: &IndoorSpace,
    trajectories: &[Trajectory],
    cfg: &PositioningConfig,
) -> Iupt {
    assert!(cfg.mss >= 1, "mss must be at least 1");
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let index = PLocIndex::build(space, cfg.mu.max(3.0));
    let mut records: Vec<Record> = Vec::new();
    let mut candidates: Vec<(PLocId, f64)> = Vec::new();

    for traj in trajectories {
        let mut t = traj.born;
        // The per-trajectory WkNN cache: (floor, exact position,
        // partition) of the last report, and its answer. Only consulted
        // with `cfg.dwell_cache` — a cache hit re-emits the identical
        // sample set without touching the RNG, exactly like a pipeline
        // serving an unchanged fingerprint match from cache.
        let mut last: Option<(FloorId, Point, indoor_model::PartitionId, SampleSet)> = None;
        while t <= traj.died {
            let Some((floor, pos, partition)) = traj.position_at_detailed(t) else {
                break;
            };
            let cached = if cfg.dwell_cache {
                last.as_ref()
                    .filter(|(f, p, pt, _)| {
                        *f == floor && p.x == pos.x && p.y == pos.y && *pt == partition
                    })
                    .map(|(_, _, _, s)| s.clone())
            } else {
                None
            };
            let report = match cached {
                Some(samples) => Some(samples),
                None => {
                    let fresh = sample_report(
                        space,
                        &index,
                        floor,
                        pos,
                        partition,
                        cfg,
                        &mut rng,
                        &mut candidates,
                    );
                    // Only a fresh answer updates the cache — a hit
                    // already equals it, key and value alike.
                    if cfg.dwell_cache {
                        if let Some(samples) = &fresh {
                            last = Some((floor, pos, partition, samples.clone()));
                        }
                    }
                    fresh
                }
            };
            if let Some(samples) = report {
                records.push(Record {
                    oid: traj.oid,
                    t,
                    samples,
                });
            }
            // Next report at most T seconds later; real deployments hover
            // near the maximum period (the paper's real data averages one
            // report per ~2.9 s with T = 3 s).
            let gap_ms = (rng.gen_range(0.7..=1.0) * cfg.max_period_secs * 1000.0) as i64;
            t = t.plus_millis(gap_ms.max(100));
        }
    }

    Iupt::from_records(records)
}

/// Builds one sample set at the given true position, or `None` when no
/// P-location is anywhere near (cannot happen in generated buildings, but
/// tolerated). Distances are *effective* (wall-attenuated) distances.
#[allow(clippy::too_many_arguments)]
fn sample_report(
    space: &IndoorSpace,
    index: &PLocIndex,
    floor: FloorId,
    pos: Point,
    partition: indoor_model::PartitionId,
    cfg: &PositioningConfig,
    rng: &mut StdRng,
    scratch: &mut Vec<(PLocId, f64)>,
) -> Option<SampleSet> {
    scratch.clear();
    // Search a radius wide enough that attenuated candidates can still
    // qualify, then filter on effective distance.
    index.within(
        space,
        floor,
        pos,
        cfg.mu * cfg.wall_factor.max(1.0),
        scratch,
    );
    for entry in scratch.iter_mut() {
        entry.1 *= attenuation(space, entry.0, partition, cfg.wall_factor);
    }
    scratch.retain(|&(_, d)| d <= cfg.mu);
    if scratch.is_empty() {
        // Degenerate coverage: fall back to the nearest known P-location.
        let nearest = index.nearest(space, floor, pos)?;
        scratch.push(nearest);
    }

    let k = match cfg.sample_size {
        SampleSizePolicy::Fixed => cfg.mss,
        SampleSizePolicy::UniformRandom => rng.gen_range(1..=cfg.mss),
    }
    .min(scratch.len());
    // WkNN returns the k reference points whose signal features match
    // best — i.e. (noise aside) the k *nearest* candidates. Selecting by
    // distance keeps report supports stable while an object dwells, which
    // is what makes the paper's inter-merge effective on real data.
    scratch.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));

    let weights: Vec<(PLocId, f64)> = scratch[..k]
        .iter()
        .map(|&(loc, dist)| {
            let gamma = rng.gen_range(-cfg.gamma..=cfg.gamma);
            let w = 1.0 / (dist.max(0.1) * (1.0 + gamma));
            (loc, w)
        })
        .collect();
    SampleSet::normalized(weights).ok()
}

/// Effective-distance multiplier for a candidate P-location as heard from
/// inside `partition`: 1 for same-partition presence points and for the
/// partitioning points at this partition's doors (including stairwell
/// points, hearable from both flights); `wall_factor` otherwise.
fn attenuation(
    space: &IndoorSpace,
    ploc: PLocId,
    partition: indoor_model::PartitionId,
    wall_factor: f64,
) -> f64 {
    match space.ploc(ploc).kind {
        indoor_model::PLocKind::Presence { partition: p } => {
            if p == partition {
                1.0
            } else {
                wall_factor
            }
        }
        indoor_model::PLocKind::Partitioning { door } => {
            let d = space.building().door(door);
            if d.touches(partition) {
                1.0
            } else {
                wall_factor
            }
        }
    }
}

/// A per-floor uniform grid over P-locations for radius queries.
struct PLocIndex {
    cell: f64,
    grids: HashMap<FloorId, Grid>,
}

struct Grid {
    min: Point,
    cols: i64,
    rows: i64,
    buckets: HashMap<(i64, i64), Vec<PLocId>>,
}

impl PLocIndex {
    fn build(space: &IndoorSpace, cell: f64) -> Self {
        let mut grids: HashMap<FloorId, Grid> = HashMap::new();
        for floor in space.building().floors() {
            let Some(bounds) = space.building().floor_bounds(floor) else {
                continue;
            };
            // Stair stubs extend past the nominal bounds; inflate a bit.
            let bounds = bounds.inset(8.0);
            grids.insert(
                floor,
                Grid {
                    min: bounds.min,
                    cols: (bounds.width() / cell).ceil() as i64 + 1,
                    rows: (bounds.height() / cell).ceil() as i64 + 1,
                    buckets: HashMap::new(),
                },
            );
        }
        let mut idx = PLocIndex { cell, grids };
        for p in space.plocs() {
            // A P-location is a candidate on its own floor — and, for the
            // partitioning P-locations of staircase flights, on the other
            // flight's floor too: a stairwell reference point is hearable
            // from both flights, and it is exactly the sample that lets
            // possible paths bridge a floor change.
            let mut floors = vec![p.floor];
            if let indoor_model::PLocKind::Partitioning { door } = p.kind {
                let d = space.building().door(door);
                let fa = space.building().partition(d.a).floor;
                let fb = space.building().partition(d.b).floor;
                if fa != fb {
                    floors = vec![fa, fb];
                }
            }
            for floor in floors {
                let key = idx.key(floor, p.pos);
                if let Some(grid) = idx.grids.get_mut(&floor) {
                    grid.buckets.entry(key).or_default().push(p.id);
                }
            }
        }
        idx
    }

    fn key(&self, floor: FloorId, pos: Point) -> (i64, i64) {
        let grid = &self.grids[&floor];
        let c = ((pos.x - grid.min.x) / self.cell).floor() as i64;
        let r = ((pos.y - grid.min.y) / self.cell).floor() as i64;
        (c.clamp(0, grid.cols - 1), r.clamp(0, grid.rows - 1))
    }

    /// All P-locations within `radius` of `pos` on `floor`, with their
    /// distances, appended to `out`.
    fn within(
        &self,
        space: &IndoorSpace,
        floor: FloorId,
        pos: Point,
        radius: f64,
        out: &mut Vec<(PLocId, f64)>,
    ) {
        let Some(grid) = self.grids.get(&floor) else {
            return;
        };
        let reach = (radius / self.cell).ceil() as i64;
        let (c0, r0) = self.key(floor, pos);
        for dc in -reach..=reach {
            for dr in -reach..=reach {
                let key = (
                    (c0 + dc).clamp(0, grid.cols - 1),
                    (r0 + dr).clamp(0, grid.rows - 1),
                );
                if let Some(bucket) = grid.buckets.get(&key) {
                    for &ploc in bucket {
                        let d = space.ploc(ploc).pos.distance(pos);
                        if d <= radius {
                            out.push((ploc, d));
                        }
                    }
                }
            }
        }
        // Clamped keys can repeat near the grid edge; dedup.
        out.sort_by_key(|e| e.0);
        out.dedup_by_key(|e| e.0);
    }

    /// Nearest P-location on `floor` (linear fallback).
    fn nearest(&self, space: &IndoorSpace, floor: FloorId, pos: Point) -> Option<(PLocId, f64)> {
        space
            .plocs()
            .iter()
            .filter(|p| p.floor == floor)
            .map(|p| (p.id, p.pos.distance(pos)))
            .min_by(|a, b| a.1.total_cmp(&b.1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::building_gen::{generate_building, BuildingGenConfig};
    use crate::mobility::{simulate_mobility, MobilityConfig};
    use indoor_iupt::Timestamp;

    fn world() -> (IndoorSpace, Vec<Trajectory>) {
        let space = generate_building(&BuildingGenConfig::tiny());
        let trajs = simulate_mobility(&space, &MobilityConfig::tiny());
        (space, trajs)
    }

    #[test]
    fn reports_respect_mss_and_period() {
        let (space, trajs) = world();
        let cfg = PositioningConfig {
            mss: 3,
            sample_size: SampleSizePolicy::UniformRandom,
            max_period_secs: 5.0,
            mu: 6.0,
            gamma: 0.2,
            wall_factor: 2.5,
            dwell_cache: false,
            seed: 2,
        };
        let iupt = generate_iupt(&space, &trajs, &cfg);
        assert!(!iupt.is_empty());
        let stats = iupt.stats();
        assert!(stats.max_sample_set_size <= 3);
        assert_eq!(stats.objects, trajs.len());

        // Per-object gaps never exceed T.
        let mut last: HashMap<indoor_iupt::ObjectId, Timestamp> = HashMap::new();
        for r in iupt.iter() {
            if let Some(prev) = last.insert(r.oid, r.t) {
                let gap = r.t.diff_millis(prev);
                assert!(gap <= 5_000, "gap {gap} ms exceeds T");
                assert!(gap > 0);
            }
        }
    }

    #[test]
    fn sampled_plocs_are_within_mu_of_truth() {
        let (space, trajs) = world();
        let cfg = PositioningConfig {
            mss: 4,
            sample_size: SampleSizePolicy::Fixed,
            max_period_secs: 3.0,
            mu: 5.0,
            gamma: 0.2,
            wall_factor: 2.5,
            dwell_cache: false,
            seed: 3,
        };
        let iupt = generate_iupt(&space, &trajs, &cfg);
        let by_oid: HashMap<indoor_iupt::ObjectId, &Trajectory> =
            trajs.iter().map(|t| (t.oid, t)).collect();
        let mut checked = 0;
        for r in iupt.iter().take(500) {
            let (floor, pos) = by_oid[&r.oid].position_at(r.t).unwrap();
            for s in r.samples.samples() {
                let p = space.ploc(s.loc);
                // Fallback-to-nearest may exceed μ in sparse corners, but
                // the common case must respect the radius.
                if p.floor == floor {
                    let d = p.pos.distance(pos);
                    assert!(d <= 5.0 + 8.0, "distance {d} implausible");
                    checked += 1;
                }
            }
        }
        assert!(checked > 0);
    }

    #[test]
    fn probabilities_sum_to_one() {
        let (space, trajs) = world();
        let iupt = generate_iupt(&space, &trajs, &PositioningConfig::paper_synthetic());
        for r in iupt.iter().take(200) {
            assert!((r.samples.prob_sum() - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn closer_plocs_get_higher_probability_on_average() {
        let (space, trajs) = world();
        let cfg = PositioningConfig::paper_synthetic();
        let iupt = generate_iupt(&space, &trajs, &cfg);
        let by_oid: HashMap<indoor_iupt::ObjectId, &Trajectory> =
            trajs.iter().map(|t| (t.oid, t)).collect();
        let (mut close_mass, mut far_mass) = (0.0, 0.0);
        let (mut close_n, mut far_n) = (0, 0);
        for r in iupt.iter() {
            if r.samples.len() < 2 {
                continue;
            }
            let (floor, pos) = by_oid[&r.oid].position_at(r.t).unwrap();
            for s in r.samples.samples() {
                let p = space.ploc(s.loc);
                if p.floor != floor {
                    continue;
                }
                if p.pos.distance(pos) < 2.0 {
                    close_mass += s.prob;
                    close_n += 1;
                } else {
                    far_mass += s.prob;
                    far_n += 1;
                }
            }
        }
        if close_n > 10 && far_n > 10 {
            assert!(close_mass / close_n as f64 > far_mass / far_n as f64);
        }
    }

    #[test]
    fn deterministic_under_seed() {
        let (space, trajs) = world();
        let cfg = PositioningConfig::paper_synthetic();
        let a = generate_iupt(&space, &trajs, &cfg);
        let b = generate_iupt(&space, &trajs, &cfg);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x.oid, y.oid);
            assert_eq!(x.t, y.t);
            assert_eq!(x.samples, y.samples);
        }
    }

    #[test]
    fn mss_one_yields_certain_reports() {
        let (space, trajs) = world();
        let cfg = PositioningConfig {
            mss: 1,
            ..PositioningConfig::paper_synthetic()
        };
        let iupt = generate_iupt(&space, &trajs, &cfg);
        for r in iupt.iter() {
            assert_eq!(r.samples.len(), 1);
            assert_eq!(r.samples.samples()[0].prob, 1.0);
        }
    }
}
