use indoor_model::SLocId;

/// The query S-location set `Q` of a TkPLQ, held sorted for O(log n)
/// membership tests and linear-time intersection with PSL lists.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuerySet {
    slocs: Vec<SLocId>,
}

impl QuerySet {
    /// Builds the set, sorting and deduplicating.
    pub fn new(mut slocs: Vec<SLocId>) -> Self {
        slocs.sort_unstable();
        slocs.dedup();
        QuerySet { slocs }
    }

    /// Members in ascending id order.
    pub fn slocs(&self) -> &[SLocId] {
        &self.slocs
    }

    /// Number of query locations.
    pub fn len(&self) -> usize {
        self.slocs.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.slocs.is_empty()
    }

    /// Membership test.
    #[inline]
    pub fn contains(&self, s: SLocId) -> bool {
        self.slocs.binary_search(&s).is_ok()
    }

    /// Index of `s` within the sorted member list (used to key per-query
    /// bitsets in the nested-loop algorithm).
    #[inline]
    pub fn index_of(&self, s: SLocId) -> Option<usize> {
        self.slocs.binary_search(&s).ok()
    }

    /// Whether any element of the **sorted** slice intersects the set —
    /// the `psls ∩ Q ≠ ∅` test of Algorithm 1 line 13.
    pub fn intersects_sorted(&self, sorted: &[SLocId]) -> bool {
        let (mut i, mut j) = (0, 0);
        while i < self.slocs.len() && j < sorted.len() {
            match self.slocs[i].cmp(&sorted[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => return true,
            }
        }
        false
    }

    /// Intersection with a **sorted** slice, in ascending order.
    pub fn intersection_sorted(&self, sorted: &[SLocId]) -> Vec<SLocId> {
        intersect_sorted(&self.slocs, sorted)
    }
}

/// Intersection of two **sorted** `SLocId` slices, ascending — the
/// free-standing counterpart of [`QuerySet::intersection_sorted`],
/// shared by the per-location contribution kernel and Best-First's
/// candidate lists.
pub fn intersect_sorted(a: &[SLocId], b: &[SLocId]) -> Vec<SLocId> {
    let mut out = Vec::new();
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out
}

impl From<Vec<SLocId>> for QuerySet {
    fn from(v: Vec<SLocId>) -> Self {
        QuerySet::new(v)
    }
}

impl FromIterator<SLocId> for QuerySet {
    fn from_iter<I: IntoIterator<Item = SLocId>>(iter: I) -> Self {
        QuerySet::new(iter.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(i: u32) -> SLocId {
        SLocId(i)
    }

    #[test]
    fn sorts_and_dedups() {
        let q = QuerySet::new(vec![s(3), s(1), s(3), s(2)]);
        assert_eq!(q.slocs(), &[s(1), s(2), s(3)]);
        assert_eq!(q.len(), 3);
    }

    #[test]
    fn membership_and_index() {
        let q = QuerySet::new(vec![s(1), s(5), s(9)]);
        assert!(q.contains(s(5)));
        assert!(!q.contains(s(4)));
        assert_eq!(q.index_of(s(9)), Some(2));
        assert_eq!(q.index_of(s(2)), None);
    }

    #[test]
    fn sorted_intersection() {
        let q = QuerySet::new(vec![s(1), s(4), s(7)]);
        assert!(q.intersects_sorted(&[s(0), s(4)]));
        assert!(!q.intersects_sorted(&[s(2), s(5)]));
        assert_eq!(
            q.intersection_sorted(&[s(0), s(4), s(7), s(8)]),
            vec![s(4), s(7)]
        );
        assert!(q.intersection_sorted(&[]).is_empty());
    }

    #[test]
    fn empty_set() {
        let q = QuerySet::new(vec![]);
        assert!(q.is_empty());
        assert!(!q.intersects_sorted(&[s(1)]));
    }
}
