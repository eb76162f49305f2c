//! Cache geometry and timing configuration.

/// Geometry and timing of a single cache (L1 or L2).
///
/// Mirrors the parameters of Table 1 / Table 2 / Table 3 of the paper:
/// capacity, line size, associativity and hit latency.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub capacity: u64,
    /// Cache line size in bytes (power of two).
    pub line_size: u64,
    /// Associativity (ways per set).  Use [`CacheConfig::fully_associative`]
    /// for a fully-associative cache.
    pub associativity: u32,
    /// Hit latency in cycles.
    pub hit_latency: u64,
}

impl CacheConfig {
    /// Construct and validate a configuration.
    ///
    /// # Panics
    /// Panics if the geometry is inconsistent (non-power-of-two line size,
    /// capacity not divisible into an integral number of sets, ...).
    pub fn new(capacity: u64, line_size: u64, associativity: u32, hit_latency: u64) -> Self {
        let c = CacheConfig {
            capacity,
            line_size,
            associativity,
            hit_latency,
        };
        c.validate().expect("invalid cache configuration");
        c
    }

    /// The private L1 configuration common to every CMP configuration in the
    /// paper (Table 1): 64 KB, 128-byte lines, 4-way, 1-cycle hit latency.
    pub fn paper_l1() -> Self {
        CacheConfig::new(64 * 1024, 128, 4, 1)
    }

    /// A fully-associative configuration (single set).
    pub fn fully_associative(capacity: u64, line_size: u64, hit_latency: u64) -> Self {
        let lines = (capacity / line_size).max(1) as u32;
        CacheConfig::new(capacity, line_size, lines, hit_latency)
    }

    /// Check internal consistency.
    pub fn validate(&self) -> Result<(), String> {
        // Minimum 4: the kernels' elements are 4- and 8-byte words
        // (quicksort keys, LU and matmul doubles), and a line narrower
        // than a word would split one element over two lines, a geometry
        // no modelled CMP has (Table 1's lines are 128 B).
        if !self.line_size.is_power_of_two() || self.line_size < 4 {
            return Err(format!(
                "line size {} must be a power of two >= 4",
                self.line_size
            ));
        }
        if self.capacity == 0 || !self.capacity.is_multiple_of(self.line_size) {
            return Err(format!(
                "capacity {} must be a non-zero multiple of the line size {}",
                self.capacity, self.line_size
            ));
        }
        if self.associativity == 0 {
            return Err("associativity must be positive".into());
        }
        let lines = self.capacity / self.line_size;
        if !lines.is_multiple_of(self.associativity as u64) {
            return Err(format!(
                "{} lines cannot be divided into {}-way sets",
                lines, self.associativity
            ));
        }
        Ok(())
    }

    /// Number of cache lines.
    #[inline]
    pub fn num_lines(&self) -> u64 {
        self.capacity / self.line_size
    }

    /// Number of sets.
    #[inline]
    pub fn num_sets(&self) -> u64 {
        self.num_lines() / self.associativity as u64
    }

    /// The line-aligned address containing `addr`.
    #[inline]
    pub fn line_of(&self, addr: u64) -> u64 {
        addr & !(self.line_size - 1)
    }

    /// The set index of `addr`.
    #[inline]
    pub fn set_of(&self, addr: u64) -> u64 {
        (addr / self.line_size) % self.num_sets()
    }
}

/// Timing of the off-chip main memory (Table 1): a fixed access latency plus
/// a service rate that bounds off-chip bandwidth — the memory controller
/// accepts at most one request every `service_interval` cycles.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MemoryConfig {
    /// Latency of a single access in cycles.
    pub latency: u64,
    /// Minimum number of cycles between the start of two consecutive requests.
    pub service_interval: u64,
}

impl MemoryConfig {
    /// The paper's main-memory parameters: 300-cycle latency, one request per
    /// 30 cycles.
    pub fn paper_default() -> Self {
        MemoryConfig {
            latency: 300,
            service_interval: 30,
        }
    }

    /// Override the latency (used by the Fig. 5 sensitivity sweep).
    pub fn with_latency(mut self, latency: u64) -> Self {
        self.latency = latency;
        self
    }
}

impl Default for MemoryConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_l1_geometry() {
        let l1 = CacheConfig::paper_l1();
        assert_eq!(l1.num_lines(), 512);
        assert_eq!(l1.num_sets(), 128);
        assert_eq!(l1.hit_latency, 1);
        assert!(l1.validate().is_ok());
    }

    #[test]
    fn line_and_set_mapping() {
        let c = CacheConfig::new(1024, 64, 2, 1);
        assert_eq!(c.num_sets(), 8);
        assert_eq!(c.line_of(130), 128);
        assert_eq!(c.set_of(0), 0);
        assert_eq!(c.set_of(64), 1);
        assert_eq!(c.set_of(64 * 8), 0); // wraps around the sets
    }

    #[test]
    fn fully_associative_has_one_set() {
        let c = CacheConfig::fully_associative(8192, 128, 10);
        assert_eq!(c.num_sets(), 1);
        assert_eq!(c.associativity as u64, c.num_lines());
    }

    #[test]
    fn invalid_configs_rejected() {
        assert!(CacheConfig {
            capacity: 1000,
            line_size: 128,
            associativity: 4,
            hit_latency: 1
        }
        .validate()
        .is_err());
        assert!(CacheConfig {
            capacity: 1024,
            line_size: 100,
            associativity: 4,
            hit_latency: 1
        }
        .validate()
        .is_err());
        assert!(CacheConfig {
            capacity: 1024,
            line_size: 128,
            associativity: 3,
            hit_latency: 1
        }
        .validate()
        .is_err());
        assert!(CacheConfig {
            capacity: 1024,
            line_size: 128,
            associativity: 0,
            hit_latency: 1
        }
        .validate()
        .is_err());
    }

    #[test]
    fn memory_defaults_match_table1() {
        let m = MemoryConfig::paper_default();
        assert_eq!(m.latency, 300);
        assert_eq!(m.service_interval, 30);
        assert_eq!(MemoryConfig::default(), m);
        assert_eq!(m.with_latency(700).latency, 700);
    }
}
