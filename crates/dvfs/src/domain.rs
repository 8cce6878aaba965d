//! V/f domain partitioning of the GPU's compute units.

/// A partition of CU ids into V/f domains.
///
/// The paper's headline configuration is one CU per domain; Section 6.5
/// studies coarser granularities (2–32 CUs per domain).
///
/// # Examples
///
/// ```
/// use dvfs::domain::DomainMap;
/// let m = DomainMap::grouped(8, 4);
/// assert_eq!(m.len(), 2);
/// assert_eq!(m.cus(1), &[4, 5, 6, 7]);
/// assert_eq!(m.domain_of(5), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DomainMap {
    domains: Vec<Vec<usize>>,
    owner: Vec<usize>,
}

impl DomainMap {
    /// One domain per CU (the paper's fine-grain default).
    pub fn per_cu(n_cus: usize) -> Self {
        Self::grouped(n_cus, 1)
    }

    /// Contiguous groups of `group` CUs per domain. The final domain takes
    /// any remainder.
    ///
    /// # Panics
    ///
    /// Panics if `n_cus` or `group` is zero.
    pub fn grouped(n_cus: usize, group: usize) -> Self {
        assert!(n_cus > 0, "need at least one CU");
        assert!(group > 0, "group must be non-zero");
        let mut domains = Vec::new();
        let mut start = 0;
        while start < n_cus {
            let end = (start + group).min(n_cus);
            domains.push((start..end).collect());
            start = end;
        }
        let mut owner = vec![0; n_cus];
        for (d, cus) in domains.iter().enumerate() {
            for &c in cus {
                owner[c] = d;
            }
        }
        DomainMap { domains, owner }
    }

    /// One domain spanning the whole GPU (chip-wide DVFS baseline).
    pub fn single(n_cus: usize) -> Self {
        Self::grouped(n_cus, n_cus)
    }

    /// Number of domains.
    pub fn len(&self) -> usize {
        self.domains.len()
    }

    /// Whether there are no domains (never true for valid maps).
    pub fn is_empty(&self) -> bool {
        self.domains.is_empty()
    }

    /// The CU ids of domain `d`.
    pub fn cus(&self, d: usize) -> &[usize] {
        &self.domains[d]
    }

    /// The domain owning CU `cu`.
    pub fn domain_of(&self, cu: usize) -> usize {
        self.owner[cu]
    }

    /// Iterates over `(domain index, CU ids)`.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &[usize])> + '_ {
        self.domains.iter().enumerate().map(|(i, v)| (i, v.as_slice()))
    }

    /// Total CU count.
    pub fn n_cus(&self) -> usize {
        self.owner.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_cu_partition() {
        let m = DomainMap::per_cu(4);
        assert_eq!(m.len(), 4);
        for i in 0..4 {
            assert_eq!(m.cus(i), &[i]);
            assert_eq!(m.domain_of(i), i);
        }
    }

    #[test]
    fn grouped_with_remainder() {
        let m = DomainMap::grouped(10, 4);
        assert_eq!(m.len(), 3);
        assert_eq!(m.cus(2), &[8, 9]);
        assert_eq!(m.domain_of(9), 2);
    }

    #[test]
    fn single_domain() {
        let m = DomainMap::single(64);
        assert_eq!(m.len(), 1);
        assert_eq!(m.cus(0).len(), 64);
    }

    #[test]
    fn every_cu_owned_exactly_once() {
        let m = DomainMap::grouped(64, 8);
        let mut seen = [false; 64];
        for (_, cus) in m.iter() {
            for &c in cus {
                assert!(!seen[c], "CU {c} in two domains");
                seen[c] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    #[should_panic(expected = "group")]
    fn zero_group_panics() {
        let _ = DomainMap::grouped(4, 0);
    }
}
