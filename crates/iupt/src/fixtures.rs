//! The paper's Table 2 example IUPT, expressed against the Figure 1
//! P-location numbering (`p{k}` = id `k − 1`, as in
//! `indoor_model::fixtures`).

use indoor_model::PLocId;

use crate::sample::{Sample, SampleSet};
use crate::table::{Iupt, ObjectId, Record};
use crate::time::Timestamp;

/// Object ids of the example: `o1`, `o2`, `o3`.
pub const O1: ObjectId = ObjectId(1);
/// See [`O1`].
pub const O2: ObjectId = ObjectId(2);
/// See [`O1`].
pub const O3: ObjectId = ObjectId(3);

/// The timestamp the paper calls `t{k}`.
pub fn t(k: i64) -> Timestamp {
    Timestamp::from_secs(k)
}

fn set(entries: &[(u32, f64)]) -> SampleSet {
    SampleSet::new(
        entries
            .iter()
            .map(|&(k, pr)| Sample::new(PLocId(k - 1), pr))
            .collect(),
    )
    .expect("fixture sample sets are valid")
}

/// Builds the Table 2 IUPT:
///
/// | oid | X | t |
/// |-----|---|---|
/// | o1 | {(p4, 1.0)} | t1 |
/// | o2 | {(p1, .5), (p2, .5)} | t1 |
/// | o3 | {(p2, .6), (p3, .4)} | t2 |
/// | o1 | {(p9, 1.0)} | t3 |
/// | o2 | {(p2, .7), (p4, .3)} | t3 |
/// | o1 | {(p8, 1.0)} | t4 |
/// | o2 | {(p5, .3), (p6, .6), (p8, .1)} | t5 |
/// | o3 | {(p2, .4), (p3, .6)} | t5 |
/// | o2 | {(p5, .2), (p6, .3), (p8, .5)} | t6 |
/// | o3 | {(p3, 1.0)} | t8 |
pub fn paper_table2() -> Iupt {
    Iupt::from_records(vec![
        Record {
            oid: O1,
            t: t(1),
            samples: set(&[(4, 1.0)]),
        },
        Record {
            oid: O2,
            t: t(1),
            samples: set(&[(1, 0.5), (2, 0.5)]),
        },
        Record {
            oid: O3,
            t: t(2),
            samples: set(&[(2, 0.6), (3, 0.4)]),
        },
        Record {
            oid: O1,
            t: t(3),
            samples: set(&[(9, 1.0)]),
        },
        Record {
            oid: O2,
            t: t(3),
            samples: set(&[(2, 0.7), (4, 0.3)]),
        },
        Record {
            oid: O1,
            t: t(4),
            samples: set(&[(8, 1.0)]),
        },
        Record {
            oid: O2,
            t: t(5),
            samples: set(&[(5, 0.3), (6, 0.6), (8, 0.1)]),
        },
        Record {
            oid: O3,
            t: t(5),
            samples: set(&[(2, 0.4), (3, 0.6)]),
        },
        Record {
            oid: O2,
            t: t(6),
            samples: set(&[(5, 0.2), (6, 0.3), (8, 0.5)]),
        },
        Record {
            oid: O3,
            t: t(8),
            samples: set(&[(3, 1.0)]),
        },
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::TimeInterval;

    #[test]
    fn table2_shape() {
        let iupt = paper_table2();
        assert_eq!(iupt.len(), 10);
        assert_eq!(iupt.object_count(), 3);
        let iv = TimeInterval::new(t(1), t(8));
        let seqs = iupt.sequences_in(iv);
        assert_eq!(seqs.len(), 3);
        // o3 has 4 possible raw paths (Example 2): |{p2,p3}| × |{p2,p3}| × |{p3}|.
        let o3 = &seqs[2];
        assert_eq!(o3.oid, O3);
        assert_eq!(o3.max_paths(), 4);
        // o2 has 2 × 2 × 3 × 3 = 36 raw Cartesian combinations before
        // validity filtering (the paper's Figure 4 counts 32 generated
        // paths during incremental construction).
        let o2 = &seqs[1];
        assert_eq!(o2.max_paths(), 36);
    }

    #[test]
    fn o2_ploc_sets_change_over_time() {
        let iupt = paper_table2();
        let iv = TimeInterval::new(t(1), t(8));
        let seq = iupt.sequence_of(O2, iv);
        let first: Vec<PLocId> = seq.records[0].samples.plocs().collect();
        assert_eq!(first, vec![PLocId(0), PLocId(1)]); // {p1, p2}
        let third: Vec<PLocId> = seq.records[2].samples.plocs().collect();
        assert_eq!(third, vec![PLocId(4), PLocId(5), PLocId(7)]); // {p5, p6, p8}
    }
}
