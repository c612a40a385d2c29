//! The stable object partitioner every popflow layer shares.

/// Maps object keys onto a fixed number of partitions.
///
/// The mapping is a Fibonacci-style multiplicative mix followed by a
/// modulo: the mix decorrelates partition choice from dense sequential
/// object ids, so ids `1..=n` spread evenly for any partition count
/// (a plain `id % n` would alias badly when ids are strided).
///
/// # Determinism contract
///
/// The mapping depends only on `(key, partitions)` — never on thread
/// count, hardware, or insertion order — so any two components that
/// agree on the partition count (the `popflow-serve` shard pool and
/// its coordinator) route every object to the same partition, forever.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Partitioner {
    parts: usize,
}

impl Partitioner {
    /// A partitioner over `parts` partitions (≥ 1).
    pub fn new(parts: usize) -> Self {
        assert!(parts >= 1, "need at least one partition");
        Partitioner { parts }
    }

    /// Number of partitions.
    pub fn parts(&self) -> usize {
        self.parts
    }

    /// The partition `key` routes to, in `0..parts`.
    #[inline]
    pub fn partition_of(&self, key: u64) -> usize {
        let mixed = key.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        ((mixed >> 32) as usize) % self.parts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn routing_is_stable_and_in_range() {
        for n in 1..=8 {
            let p = Partitioner::new(n);
            assert_eq!(p.parts(), n);
            for key in 0..100u64 {
                let s = p.partition_of(key);
                assert!(s < n);
                assert_eq!(s, p.partition_of(key));
            }
        }
    }

    #[test]
    fn dense_keys_spread_across_partitions() {
        let p = Partitioner::new(4);
        let mut counts = [0usize; 4];
        for key in 1..=1000u64 {
            counts[p.partition_of(key)] += 1;
        }
        for (s, &c) in counts.iter().enumerate() {
            assert!((150..=350).contains(&c), "partition {s} got {c} of 1000");
        }
    }

    #[test]
    #[should_panic(expected = "at least one partition")]
    fn zero_partitions_rejected() {
        let _ = Partitioner::new(0);
    }
}
