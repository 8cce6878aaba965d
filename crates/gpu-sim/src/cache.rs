//! Set-associative tag-array cache model with LRU replacement.
//!
//! Only tags are modeled (the simulator never materializes data); hits and
//! misses drive latency and bandwidth. Used for per-CU L1s (in the CU clock
//! domain) and for the shared L2 banks (fixed memory domain).

use snapshot::{Decoder, Encoder, SnapError, Snapshot};

const INVALID: u64 = u64::MAX;

/// Geometry of a set-associative cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Number of sets (power of two).
    pub sets: u32,
    /// Associativity.
    pub ways: u32,
    /// log2 of the line size in bytes.
    pub line_shift: u32,
}

impl CacheConfig {
    /// Total capacity in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        (self.sets as u64) * (self.ways as u64) * (1u64 << self.line_shift)
    }
}

impl Default for CacheConfig {
    /// A 16 KiB, 4-way, 64 B-line L1 (one Vega CU vector L1).
    fn default() -> Self {
        CacheConfig { sets: 64, ways: 4, line_shift: 6 }
    }
}

/// Decoding re-applies the geometry invariants [`Cache::new`] asserts, as
/// typed errors: a corrupted snapshot is rejected, never constructed.
impl Snapshot for CacheConfig {
    fn encode(&self, w: &mut Encoder) {
        let CacheConfig { sets, ways, line_shift } = *self;
        w.put_u32(sets);
        w.put_u32(ways);
        w.put_u32(line_shift);
    }
    fn decode(r: &mut Decoder) -> Result<Self, SnapError> {
        let sets = r.take_u32()?;
        let ways = r.take_u32()?;
        let line_shift = r.take_u32()?;
        if !sets.is_power_of_two() {
            return Err(SnapError::invalid("cache sets must be a non-zero power of two"));
        }
        if ways == 0 {
            return Err(SnapError::invalid("cache ways must be non-zero"));
        }
        if line_shift > 32 {
            return Err(SnapError::invalid(format!("cache line_shift {line_shift} out of range")));
        }
        Ok(CacheConfig { sets, ways, line_shift })
    }
}

/// A set-associative LRU tag array.
///
/// # Examples
///
/// ```
/// use gpu_sim::cache::{Cache, CacheConfig};
/// let mut c = Cache::new(CacheConfig { sets: 2, ways: 2, line_shift: 6 });
/// assert!(!c.access(0));  // cold miss (fills)
/// assert!(c.access(0));   // hit
/// ```
#[derive(Debug, PartialEq, Eq)]
pub struct Cache {
    cfg: CacheConfig,
    /// `sets * ways` tags; within a set, index 0 is MRU and index
    /// `ways - 1` is LRU.
    tags: Vec<u64>,
    hits: u64,
    misses: u64,
}

/// Manual `Clone` so `clone_from` copies tags into the destination's
/// existing allocation (the tag vector is the bulk of a forked GPU's L1/L2
/// state; see `gpu::Gpu`'s clone docs).
impl Clone for Cache {
    fn clone(&self) -> Self {
        Cache { cfg: self.cfg, tags: self.tags.clone(), hits: self.hits, misses: self.misses }
    }

    fn clone_from(&mut self, src: &Self) {
        let Cache { cfg, tags, hits, misses } = src;
        self.cfg = *cfg;
        self.tags.clone_from(tags);
        self.hits = *hits;
        self.misses = *misses;
    }
}

/// Mirrors the manual `Clone` above field for field; decode checks the tag
/// array against the decoded geometry before accepting it.
impl Snapshot for Cache {
    fn encode(&self, w: &mut Encoder) {
        let Cache { cfg, tags, hits, misses } = self;
        cfg.encode(w);
        tags.encode(w);
        w.put_u64(*hits);
        w.put_u64(*misses);
    }
    fn decode(r: &mut Decoder) -> Result<Self, SnapError> {
        let cfg = CacheConfig::decode(r)?;
        let tags = Vec::<u64>::decode(r)?;
        let hits = r.take_u64()?;
        let misses = r.take_u64()?;
        if tags.len() as u64 != cfg.sets as u64 * cfg.ways as u64 {
            return Err(SnapError::invalid(format!(
                "cache tag array has {} entries, geometry {}x{} requires {}",
                tags.len(),
                cfg.sets,
                cfg.ways,
                cfg.sets as u64 * cfg.ways as u64
            )));
        }
        Ok(Cache { cfg, tags, hits, misses })
    }
}

impl Cache {
    /// Creates an empty cache.
    ///
    /// # Panics
    ///
    /// Panics if `sets` is not a power of two or `ways`/`sets` are zero.
    pub fn new(cfg: CacheConfig) -> Self {
        assert!(cfg.sets.is_power_of_two(), "sets must be a power of two");
        assert!(cfg.ways > 0, "ways must be non-zero");
        Cache { cfg, tags: vec![INVALID; (cfg.sets * cfg.ways) as usize], hits: 0, misses: 0 }
    }

    /// The cache geometry.
    pub fn config(&self) -> CacheConfig {
        self.cfg
    }

    /// Looks up `addr`, updating LRU state; on a miss the line is filled
    /// (allocate-on-miss, evicting the set's LRU line). Returns whether the
    /// access hit.
    #[inline]
    pub fn access(&mut self, addr: u64) -> bool {
        self.access_line(addr >> self.cfg.line_shift)
    }

    /// [`Cache::access`] for a caller that already decomposed `addr` into a
    /// line number (with a line shift matching this cache's geometry).
    #[inline]
    pub fn access_line(&mut self, line: u64) -> bool {
        let set = (line & (self.cfg.sets as u64 - 1)) as usize;
        let tag = line;
        let ways = self.cfg.ways as usize;
        let base = set * ways;
        let set_tags = &mut self.tags[base..base + ways];
        if let Some(pos) = set_tags.iter().position(|&t| t == tag) {
            // Move to MRU.
            set_tags[..=pos].rotate_right(1);
            self.hits += 1;
            true
        } else {
            // Evict LRU, insert at MRU.
            set_tags.rotate_right(1);
            set_tags[0] = tag;
            self.misses += 1;
            false
        }
    }

    /// Probes without modifying state. Returns whether `addr` is resident.
    #[inline]
    pub fn probe(&self, addr: u64) -> bool {
        let line = addr >> self.cfg.line_shift;
        let set = (line & (self.cfg.sets as u64 - 1)) as usize;
        let ways = self.cfg.ways as usize;
        let base = set * ways;
        self.tags[base..base + ways].contains(&line)
    }

    /// Lifetime hit count.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lifetime miss count.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Resets hit/miss counters (contents are retained).
    pub fn reset_counters(&mut self) {
        self.hits = 0;
        self.misses = 0;
    }

    /// Number of resident (valid) lines.
    pub fn resident_lines(&self) -> usize {
        self.tags.iter().filter(|&&t| t != INVALID).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        Cache::new(CacheConfig { sets: 2, ways: 2, line_shift: 6 })
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = tiny();
        assert!(!c.access(0x40));
        assert!(c.access(0x40));
        assert_eq!(c.hits(), 1);
        assert_eq!(c.misses(), 1);
    }

    #[test]
    fn same_line_different_offset_hits() {
        let mut c = tiny();
        c.access(0x100);
        assert!(c.access(0x13f)); // same 64B line
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = tiny();
        // Set 0 lines (line numbers even): 0x000, 0x100, 0x200 map to set 0.
        c.access(0x000);
        c.access(0x100);
        // Touch 0x000 so 0x100 becomes LRU.
        c.access(0x000);
        // Insert a third line into set 0 -> evicts 0x100.
        c.access(0x200);
        assert!(c.probe(0x000));
        assert!(!c.probe(0x100));
        assert!(c.probe(0x200));
    }

    #[test]
    fn capacity_bound_respected() {
        let mut c = tiny();
        for i in 0..100u64 {
            c.access(i * 64);
        }
        assert!(c.resident_lines() <= 4);
    }

    #[test]
    fn probe_does_not_mutate() {
        let mut c = tiny();
        c.access(0x40);
        let before = c.clone();
        let _ = c.probe(0x40);
        let _ = c.probe(0x80);
        assert_eq!(before, c);
    }

    #[test]
    fn capacity_bytes() {
        assert_eq!(CacheConfig::default().capacity_bytes(), 16 * 1024);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_pow2_sets_panic() {
        let _ = Cache::new(CacheConfig { sets: 3, ways: 1, line_shift: 6 });
    }
}
