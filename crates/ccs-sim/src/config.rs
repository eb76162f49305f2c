//! CMP configurations (Tables 1–3), plus the many-core extensions.
//!
//! A [`CmpConfig`] bundles everything the simulator needs: the number of
//! cores, the private L1 geometry, the shared L2 geometry and latency, and
//! the off-chip memory timing.  Constructors are provided for the paper's
//! *default* (scaling-technology, Table 2) and *single-technology* (45 nm,
//! Table 3) design points, plus a `scaled` transform that shrinks the caches
//! proportionally for scaled-down experiment inputs (DESIGN.md §4).
//!
//! Beyond the paper's tables, a configuration can describe a three-level,
//! clustered hierarchy (DESIGN.md §12): [`CmpConfig::clustered`] partitions
//! the cores into clusters that each own a slice of the L2, and
//! [`CmpConfig::with_l3_mb`] adds a chip-wide shared L3 behind the L2s.
//! [`CmpConfig::many_core`] builds the flat 64–1024-core design points the
//! scaling study (`figs::scaling_profile`) starts from.  The default for
//! every table constructor is the paper's topology: one shared L2
//! (`clusters == 1`) and no L3.

use ccs_cache::{CacheConfig, CompiledCache, MemoryConfig};
use ccs_dag::SetLanes;

use crate::area::{self, Technology};
use crate::MAX_DIRECTORY_CORES;

/// A complete CMP design point.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CmpConfig {
    /// Human-readable name, e.g. `"default-8"` or `"45nm-20"`.
    pub name: String,
    /// Number of processing cores.
    pub num_cores: usize,
    /// Process technology the configuration is based on.
    pub technology: Technology,
    /// Private, per-core L1 cache.
    pub l1: CacheConfig,
    /// L2 cache.  With `clusters == 1` this is the chip-wide shared L2 of
    /// the paper; with `clusters > 1` it is the geometry of *each* cluster's
    /// L2 slice (see [`CmpConfig::clustered`]).
    pub l2: CacheConfig,
    /// Optional chip-wide shared L3 behind the L2s (`None` = the paper's
    /// two-level hierarchy).
    pub l3: Option<CacheConfig>,
    /// Number of L2 clusters the cores are partitioned into.  `1` (the
    /// default everywhere) is the paper's single shared L2; larger values
    /// give each group of `num_cores / clusters` cores its own L2.
    pub clusters: usize,
    /// Off-chip memory timing.
    pub memory: MemoryConfig,
}

impl CmpConfig {
    /// Build a configuration from a core count, technology and L2 capacity in
    /// megabytes, deriving the L2 associativity and hit time from the area
    /// model and using the Table 1 values for everything else.
    pub fn from_l2_mb(
        name: impl Into<String>,
        technology: Technology,
        num_cores: usize,
        l2_mb: u64,
    ) -> Self {
        CmpConfig {
            name: name.into(),
            num_cores,
            technology,
            l1: CacheConfig::paper_l1(),
            l2: area::l2_config(l2_mb, 128),
            l3: None,
            clusters: 1,
            memory: MemoryConfig::paper_default(),
        }
    }

    /// A flat many-core design point beyond the paper's tables, used by the
    /// scaling study (DESIGN.md §12): `cores` cores at 32 nm with a shared
    /// L2 sized at one megabyte per four cores, clamped to [16, 128] MB.
    /// Compose with [`CmpConfig::clustered`] and [`CmpConfig::with_l3_mb`]
    /// for the three-level variants.
    pub fn many_core(cores: usize) -> CmpConfig {
        assert!(cores >= 1, "need at least one core");
        let l2_mb = (cores as u64 / 4).clamp(16, 128);
        CmpConfig::from_l2_mb(format!("scale-{cores}"), Technology::Nm32, cores, l2_mb)
    }

    /// The six default (scaling-technology) configurations of Table 2, for
    /// 1, 2, 4, 8, 16 and 32 cores.
    pub fn default_configs() -> Vec<CmpConfig> {
        [
            (1usize, Technology::Nm90, 10u64),
            (2, Technology::Nm90, 8),
            (4, Technology::Nm90, 4),
            (8, Technology::Nm65, 8),
            (16, Technology::Nm45, 20),
            (32, Technology::Nm32, 40),
        ]
        .into_iter()
        .map(|(cores, tech, mb)| CmpConfig::from_l2_mb(format!("default-{cores}"), tech, cores, mb))
        .collect()
    }

    /// The default configuration with the given number of cores (1, 2, 4, 8,
    /// 16 or 32).
    pub fn default_with_cores(cores: usize) -> Option<CmpConfig> {
        Self::default_configs()
            .into_iter()
            .find(|c| c.num_cores == cores)
    }

    /// The fourteen single-technology (45 nm) configurations of Table 3, for
    /// 1–26 cores.
    pub fn single_tech_45nm() -> Vec<CmpConfig> {
        [
            (1usize, 48u64),
            (2, 44),
            (4, 40),
            (6, 36),
            (8, 32),
            (10, 32),
            (12, 28),
            (14, 24),
            (16, 20),
            (18, 16),
            (20, 12),
            (22, 9),
            (24, 5),
            (26, 1),
        ]
        .into_iter()
        .map(|(cores, mb)| {
            CmpConfig::from_l2_mb(format!("45nm-{cores}"), Technology::Nm45, cores, mb)
        })
        .collect()
    }

    /// Override the L2 hit latency (Fig. 4 sensitivity study).
    pub fn with_l2_hit_latency(mut self, cycles: u64) -> Self {
        self.l2.hit_latency = cycles;
        self.name = format!("{}-l2hit{}", self.name, cycles);
        self
    }

    /// Override the main-memory latency (Fig. 5 sensitivity study).
    pub fn with_memory_latency(mut self, cycles: u64) -> Self {
        self.memory.latency = cycles;
        self.name = format!("{}-mem{}", self.name, cycles);
        self
    }

    /// Add a chip-wide shared L3 of `capacity_mb` megabytes behind the
    /// (possibly clustered) L2s, deriving its associativity and hit time
    /// from the same banked area model as the L2 (DESIGN.md §12).  An L2
    /// miss then probes the L3 before going off-chip.
    pub fn with_l3_mb(mut self, capacity_mb: u64) -> Self {
        assert!(capacity_mb >= 1, "L3 needs at least one megabyte");
        self.l3 = Some(area::l2_config(capacity_mb, self.l2.line_size));
        self.name = format!("{}-l3m{}", self.name, capacity_mb);
        self
    }

    /// Partition the cores into `clusters` clusters, each owning a
    /// `1/clusters` slice of the L2 capacity (associativity re-derived for
    /// the smaller slice, hit latency and line size unchanged — compose
    /// with [`CmpConfig::with_l2_hit_latency`] to override).  The aggregate
    /// L2 capacity on chip is preserved; what changes is which cores share
    /// it.  `num_cores` must be divisible by `clusters`.
    pub fn clustered(mut self, clusters: usize) -> Self {
        assert!(clusters >= 1, "need at least one cluster");
        assert!(
            self.num_cores.is_multiple_of(clusters),
            "{} cores cannot be split into {clusters} equal clusters",
            self.num_cores
        );
        if clusters == 1 {
            return self;
        }
        let capacity = (self.l2.capacity / clusters as u64).max(self.l2.line_size);
        let capacity = (capacity / self.l2.line_size).max(1) * self.l2.line_size;
        let assoc = area::l2_associativity(capacity, self.l2.line_size)
            .min((capacity / self.l2.line_size) as u32);
        self.l2 = CacheConfig::new(capacity, self.l2.line_size, assoc, self.l2.hit_latency);
        self.clusters = clusters;
        self.name = format!("{}-c{}", self.name, clusters);
        self
    }

    /// Cores per L2 cluster (`num_cores / clusters`).
    pub fn cores_per_cluster(&self) -> usize {
        debug_assert_eq!(self.num_cores % self.clusters, 0);
        self.num_cores / self.clusters
    }

    /// Shrink both cache capacities by `1/divisor` (latencies, line sizes and
    /// memory timing unchanged), re-deriving the associativities for the new
    /// capacities.  Used to run scaled-down workloads whose inputs were also
    /// divided by `divisor`, preserving all capacity ratios (DESIGN.md §4).
    pub fn scaled(&self, divisor: u64) -> CmpConfig {
        assert!(divisor >= 1, "scale divisor must be at least 1");
        if divisor == 1 {
            return self.clone();
        }
        let scale_cache = |c: &CacheConfig, min_bytes: u64| {
            let capacity = (c.capacity / divisor).max(min_bytes).max(c.line_size);
            // Keep capacity a multiple of the line size.
            let capacity = (capacity / c.line_size).max(1) * c.line_size;
            let assoc =
                area::l2_associativity(capacity, c.line_size).min((capacity / c.line_size) as u32);
            CacheConfig::new(capacity, c.line_size, assoc, c.hit_latency)
        };
        CmpConfig {
            name: format!("{}/{}", self.name, divisor),
            num_cores: self.num_cores,
            technology: self.technology,
            l1: scale_cache(&self.l1, 4 * 1024),
            l2: scale_cache(&self.l2, 16 * 1024),
            l3: self.l3.as_ref().map(|l3| scale_cache(l3, 32 * 1024)),
            clusters: self.clusters,
            memory: self.memory,
        }
    }

    /// Total instructions-per-cycle capability (1 per core — Table 1's
    /// in-order scalar cores).
    pub fn peak_ipc(&self) -> u64 {
        self.num_cores as u64
    }

    /// Check that the simulator can run this design point: one to
    /// [`MAX_DIRECTORY_CORES`] cores, split into equal clusters; every
    /// cache geometry consistent
    /// ([`CacheConfig::validate`]) with the L2's line size; and no cache
    /// with more ways per set than the production cache model can name
    /// ([`CompiledCache::MAX_ASSOCIATIVITY`]).  Every engine checks this
    /// before it runs.
    pub fn validate(&self) -> Result<(), String> {
        if self.num_cores == 0 {
            return Err("need at least one core".into());
        }
        if self.num_cores > MAX_DIRECTORY_CORES {
            return Err(format!(
                "{} cores exceed the simulator's limit of {MAX_DIRECTORY_CORES}",
                self.num_cores
            ));
        }
        if self.clusters == 0 || !self.num_cores.is_multiple_of(self.clusters) {
            return Err(format!(
                "{} cores cannot be split into {} equal clusters",
                self.num_cores, self.clusters
            ));
        }
        // Each level's set index must fit its field of the event engine's
        // packed set-lane word.
        let levels = [
            ("L1", Some(&self.l1), SetLanes::L1_BITS),
            ("L2", Some(&self.l2), SetLanes::L2_BITS),
            ("L3", self.l3.as_ref(), SetLanes::L3_BITS),
        ];
        for (level, cache, set_bits) in levels {
            let Some(cache) = cache else { continue };
            cache.validate().map_err(|e| format!("{level}: {e}"))?;
            if cache.line_size != self.l2.line_size {
                return Err(format!(
                    "{level} line size {} differs from the L2's {}",
                    cache.line_size, self.l2.line_size
                ));
            }
            if cache.associativity > CompiledCache::MAX_ASSOCIATIVITY {
                return Err(format!(
                    "{level}: {} ways exceed the simulator's limit of {} per set",
                    cache.associativity,
                    CompiledCache::MAX_ASSOCIATIVITY
                ));
            }
            if cache.num_sets() > 1 << set_bits {
                return Err(format!(
                    "{level}: {} sets exceed the simulator's limit of {} (2^{set_bits})",
                    cache.num_sets(),
                    1u64 << set_bits
                ));
            }
        }
        Ok(())
    }

    /// [`CmpConfig::validate`], panicking with the configuration's name.
    pub(crate) fn assert_valid(&self) {
        if let Err(e) = self.validate() {
            panic!("invalid CMP configuration {}: {e}", self.name);
        }
    }
}

impl std::fmt::Display for CmpConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} ({} cores, {} KB L2, {}-way, {}-cycle hit, {})",
            self.name,
            self.num_cores,
            self.l2.capacity / 1024,
            self.l2.associativity,
            self.l2.hit_latency,
            self.technology,
        )?;
        if self.clusters > 1 {
            write!(
                f,
                ", {} clusters of {}",
                self.clusters,
                self.cores_per_cluster()
            )?;
        }
        if let Some(l3) = &self.l3 {
            write!(f, ", {} KB shared L3", l3.capacity / 1024)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccs_workloads::mergesort::{self, MergesortParams};

    #[test]
    fn every_shipped_config_validates() {
        let shipped = CmpConfig::default_configs()
            .into_iter()
            .chain(CmpConfig::single_tech_45nm())
            .chain([64, 256, 1024].map(CmpConfig::many_core));
        for cfg in shipped {
            for divisor in [1, 64, 1024] {
                let scaled = cfg.scaled(divisor).with_l3_mb(2);
                assert_eq!(scaled.validate(), Ok(()), "{scaled}");
            }
        }
    }

    #[test]
    fn invalid_configs_are_rejected_with_the_reason() {
        let base = CmpConfig::default_with_cores(8).expect("paper config");
        let mut wide = base.clone();
        // 512 lines in one fully associative set: twice the ways a `u8`
        // way hint can name.
        wide.l2 = CacheConfig::new(512 * 128, 128, 512, 13);
        let err = wide.validate().unwrap_err();
        assert!(err.contains("L2: 512 ways exceed"), "{err}");
        let mut limit = base.clone();
        limit.l2 = CacheConfig::new(256 * 128, 128, CompiledCache::MAX_ASSOCIATIVITY, 13);
        assert_eq!(limit.validate(), Ok(()));

        let mut l1_wide = base.clone();
        l1_wide.l1 = CacheConfig::fully_associative(64 * 1024, 128, 1);
        assert!(l1_wide.validate().unwrap_err().starts_with("L1: 512 ways"));

        let mut clusters = base.clone();
        clusters.clusters = 3;
        assert!(clusters
            .validate()
            .unwrap_err()
            .contains("3 equal clusters"));

        let mut lines = base.clone();
        lines.l1 = CacheConfig::new(64 * 1024, 64, 4, 1);
        assert!(lines.validate().unwrap_err().contains("L1 line size 64"));

        let mut bad_l2 = base;
        bad_l2.l2.associativity = 3;
        assert!(bad_l2.validate().unwrap_err().starts_with("L2: "));
    }

    #[test]
    fn core_counts_beyond_the_sharer_directory_are_rejected() {
        let err = CmpConfig::many_core(MAX_DIRECTORY_CORES + 1)
            .validate()
            .unwrap_err();
        assert_eq!(err, "4097 cores exceed the simulator's limit of 4096");
        let widest = CmpConfig::many_core(MAX_DIRECTORY_CORES);
        assert_eq!(widest.validate(), Ok(()));
        assert_eq!(widest.clustered(64).validate(), Ok(()));
    }

    #[test]
    fn set_counts_beyond_the_lane_fields_are_rejected() {
        // 2^22 direct-mapped 128 B lines: one set more than the L1 field.
        let l1_sets = 1u64 << 22;
        let too_many = CacheConfig::new(l1_sets * 128, 128, 1, 1);
        let two_level = CmpConfig::default_with_cores(8).expect("paper config");
        let three_level = two_level.clone().with_l3_mb(64);
        for base in [two_level, three_level] {
            assert_eq!(base.validate(), Ok(()), "{base}");
            let mut wide = base.clone();
            wide.l1 = too_many;
            let err = wide.validate().unwrap_err();
            let limit = 1u64 << SetLanes::L1_BITS;
            assert_eq!(
                err,
                format!("L1: {l1_sets} sets exceed the simulator's limit of {limit} (2^21)"),
                "{base}"
            );
            let mut limit_l1 = base;
            limit_l1.l1 = CacheConfig::new(limit * 128, 128, 1, 1);
            assert_eq!(limit_l1.validate(), Ok(()));
        }
        // The largest shipped L2 stays far inside its field.
        let many = CmpConfig::many_core(1024);
        assert!(many.l2.num_sets() < 1 << SetLanes::L2_BITS);
    }

    #[test]
    #[should_panic(expected = "512 ways exceed")]
    fn simulating_an_over_wide_cache_fails_before_the_run() {
        let mut cfg = CmpConfig::default_with_cores(1).expect("paper config");
        cfg.l2 = CacheConfig::new(512 * 128, 128, 512, 13);
        let comp = mergesort::build(&MergesortParams::new(256));
        crate::simulate(&comp, &cfg, "pdf");
    }

    #[test]
    fn default_configs_match_table2() {
        let configs = CmpConfig::default_configs();
        assert_eq!(configs.len(), 6);
        let expected: &[(usize, u64, u32, u64)] = &[
            (1, 10, 20, 15),
            (2, 8, 16, 13),
            (4, 4, 16, 11),
            (8, 8, 16, 13),
            (16, 20, 20, 19),
            (32, 40, 20, 23),
        ];
        for (cfg, &(cores, mb, assoc, hit)) in configs.iter().zip(expected) {
            assert_eq!(cfg.num_cores, cores);
            assert_eq!(cfg.l2.capacity, mb * 1024 * 1024);
            assert_eq!(cfg.l2.associativity, assoc);
            assert_eq!(cfg.l2.hit_latency, hit);
            assert_eq!(cfg.l1, CacheConfig::paper_l1());
            assert_eq!(cfg.memory, MemoryConfig::paper_default());
        }
    }

    #[test]
    fn single_tech_matches_table3() {
        let configs = CmpConfig::single_tech_45nm();
        assert_eq!(configs.len(), 14);
        let expected: &[(usize, u64, u32, u64)] = &[
            (1, 48, 24, 25),
            (2, 44, 22, 25),
            (4, 40, 20, 23),
            (6, 36, 18, 23),
            (8, 32, 16, 21),
            (10, 32, 16, 21),
            (12, 28, 28, 21),
            (14, 24, 24, 19),
            (16, 20, 20, 19),
            (18, 16, 16, 17),
            (20, 12, 24, 15),
            (22, 9, 18, 15),
            (24, 5, 20, 13),
            (26, 1, 16, 7),
        ];
        for (cfg, &(cores, mb, assoc, hit)) in configs.iter().zip(expected) {
            assert_eq!(cfg.num_cores, cores, "{}", cfg.name);
            assert_eq!(cfg.l2.capacity, mb * 1024 * 1024, "{}", cfg.name);
            assert_eq!(cfg.l2.associativity, assoc, "{}", cfg.name);
            assert_eq!(cfg.l2.hit_latency, hit, "{}", cfg.name);
        }
    }

    #[test]
    fn default_with_cores_lookup() {
        assert_eq!(CmpConfig::default_with_cores(16).unwrap().num_cores, 16);
        assert!(CmpConfig::default_with_cores(7).is_none());
    }

    #[test]
    fn sensitivity_overrides() {
        let base = CmpConfig::default_with_cores(16).unwrap();
        let fast = base.clone().with_l2_hit_latency(7);
        assert_eq!(fast.l2.hit_latency, 7);
        let slow_mem = base.clone().with_memory_latency(1100);
        assert_eq!(slow_mem.memory.latency, 1100);
        assert_eq!(base.l2.hit_latency, 19, "original untouched");
    }

    #[test]
    fn scaling_preserves_ratios_and_validity() {
        let base = CmpConfig::default_with_cores(32).unwrap();
        let scaled = base.scaled(16);
        assert_eq!(scaled.l2.capacity, base.l2.capacity / 16);
        assert_eq!(scaled.l1.capacity, base.l1.capacity / 16);
        assert_eq!(scaled.l2.hit_latency, base.l2.hit_latency);
        assert!(scaled.l1.validate().is_ok());
        assert!(scaled.l2.validate().is_ok());
        // Scaling by 1 is the identity.
        assert_eq!(base.scaled(1), base);
    }

    #[test]
    fn scaling_never_goes_below_minimums() {
        let tiny = CmpConfig::single_tech_45nm().pop().unwrap(); // 26 cores, 1 MB
        let scaled = tiny.scaled(256);
        assert!(scaled.l2.capacity >= 16 * 1024);
        assert!(scaled.l1.capacity >= 4 * 1024);
        assert!(scaled.l2.validate().is_ok());
    }

    #[test]
    fn display_is_informative() {
        let cfg = CmpConfig::default_with_cores(8).unwrap();
        let s = cfg.to_string();
        assert!(s.contains("8 cores"));
        assert!(s.contains("65nm"));
    }

    #[test]
    fn table_constructors_default_to_flat_two_level() {
        for cfg in CmpConfig::default_configs()
            .into_iter()
            .chain(CmpConfig::single_tech_45nm())
        {
            assert_eq!(cfg.clusters, 1, "{}", cfg.name);
            assert!(cfg.l3.is_none(), "{}", cfg.name);
            assert_eq!(cfg.cores_per_cluster(), cfg.num_cores);
        }
    }

    #[test]
    fn clustering_partitions_the_l2_capacity() {
        let base = CmpConfig::many_core(256);
        let clustered = base.clone().clustered(8);
        assert_eq!(clustered.clusters, 8);
        assert_eq!(clustered.cores_per_cluster(), 32);
        assert_eq!(
            clustered.l2.capacity * 8,
            base.l2.capacity,
            "aggregate L2 capacity preserved"
        );
        assert_eq!(clustered.l2.hit_latency, base.l2.hit_latency);
        assert!(clustered.l2.validate().is_ok());
        assert!(clustered.name.ends_with("-c8"), "{}", clustered.name);
        // A single cluster is the identity.
        assert_eq!(base.clone().clustered(1), base);
    }

    #[test]
    #[should_panic(expected = "equal clusters")]
    fn clustering_requires_divisible_cores() {
        let _ = CmpConfig::many_core(64).clustered(7);
    }

    #[test]
    fn l3_is_derived_from_the_area_model() {
        let cfg = CmpConfig::many_core(256).with_l3_mb(64);
        let l3 = cfg.l3.expect("L3 present");
        assert_eq!(l3.capacity, 64 * 1024 * 1024);
        assert_eq!(l3.line_size, cfg.l2.line_size);
        assert_eq!(l3.hit_latency, crate::area::l2_hit_latency(64));
        assert!(l3.validate().is_ok());
        assert!(cfg.name.ends_with("-l3m64"), "{}", cfg.name);
    }

    #[test]
    fn scaling_shrinks_the_l3_and_keeps_the_topology() {
        let base = CmpConfig::many_core(256).clustered(8).with_l3_mb(64);
        let scaled = base.scaled(64);
        assert_eq!(scaled.clusters, 8);
        let l3 = scaled.l3.expect("L3 survives scaling");
        assert_eq!(l3.capacity, 1024 * 1024);
        assert!(l3.validate().is_ok());
        assert_eq!(base.scaled(1), base, "identity holds with L3/clusters");
        // The minimum floor engages for extreme divisors.
        let tiny = base.scaled(1 << 20);
        assert!(tiny.l3.unwrap().capacity >= 32 * 1024);
    }

    #[test]
    fn many_core_points_are_valid_and_named() {
        for cores in [64usize, 128, 256, 512, 1024] {
            let cfg = CmpConfig::many_core(cores);
            assert_eq!(cfg.num_cores, cores);
            assert_eq!(cfg.name, format!("scale-{cores}"));
            assert!(cfg.l2.validate().is_ok());
            assert!(cfg.l2.capacity >= 16 * 1024 * 1024);
        }
    }

    #[test]
    fn display_shows_clusters_and_l3() {
        let cfg = CmpConfig::many_core(256).clustered(8).with_l3_mb(64);
        let s = cfg.to_string();
        assert!(s.contains("8 clusters of 32"), "{s}");
        assert!(s.contains("65536 KB shared L3"), "{s}");
    }
}
