//! Off-chip main-memory model: fixed latency plus bounded bandwidth.
//!
//! Table 1 of the paper specifies main memory by two numbers: a 300-cycle
//! access latency and a 30-cycle *service rate*.  We model the memory
//! controller as a single server that starts at most one request every
//! `service_interval` cycles; a request issued at time `t` therefore completes
//! at `max(t, controller_free) + latency`, and the fraction of cycles the
//! controller is busy is the *bandwidth utilisation* the paper reports
//! (e.g. Hash Join using "89.5%–97.3% of the available memory bandwidth").

use crate::config::MemoryConfig;

/// Statistics of the memory model.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MemoryStats {
    /// Number of requests serviced.
    pub requests: u64,
    /// Cycles the controller spent busy (requests × service interval).
    pub busy_cycles: u64,
    /// Total cycles requests spent queued before the controller accepted them.
    pub queue_cycles: u64,
}

impl MemoryStats {
    /// Fraction of `total_cycles` during which the controller was busy
    /// (clamped to 1.0; the paper reports this as memory bandwidth
    /// utilisation).
    pub fn utilization(&self, total_cycles: u64) -> f64 {
        if total_cycles == 0 {
            0.0
        } else {
            (self.busy_cycles as f64 / total_cycles as f64).min(1.0)
        }
    }
}

/// The off-chip memory controller.
#[derive(Clone, Debug)]
pub struct MainMemory {
    config: MemoryConfig,
    /// Earliest cycle at which the controller can start the next request.
    next_free: u64,
    stats: MemoryStats,
}

impl MainMemory {
    /// A controller with the given timing.
    pub fn new(config: MemoryConfig) -> Self {
        MainMemory {
            config,
            next_free: 0,
            stats: MemoryStats::default(),
        }
    }

    /// The configured timing.
    pub fn config(&self) -> &MemoryConfig {
        &self.config
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &MemoryStats {
        &self.stats
    }

    /// Issue a request at cycle `now`; returns the cycle at which the data is
    /// available (queueing + latency included).
    pub fn request(&mut self, now: u64) -> u64 {
        let start = now.max(self.next_free);
        self.stats.queue_cycles += start - now;
        self.next_free = start + self.config.service_interval;
        self.stats.requests += 1;
        self.stats.busy_cycles += self.config.service_interval;
        start + self.config.latency
    }

    /// Fraction of `total_cycles` during which the controller was busy
    /// ([`MemoryStats::utilization`] of the accumulated statistics).
    pub fn utilization(&self, total_cycles: u64) -> f64 {
        self.stats.utilization(total_cycles)
    }

    /// Reset the controller to an idle, zero-statistics state.
    pub fn reset(&mut self) {
        self.next_free = 0;
        self.stats = MemoryStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unloaded_latency() {
        let mut m = MainMemory::new(MemoryConfig::paper_default());
        assert_eq!(m.request(1000), 1300);
        assert_eq!(m.stats().queue_cycles, 0);
    }

    #[test]
    fn back_to_back_requests_queue() {
        let mut m = MainMemory::new(MemoryConfig::paper_default());
        // Two requests in the same cycle: the second waits one service slot.
        assert_eq!(m.request(0), 300);
        assert_eq!(m.request(0), 330);
        assert_eq!(m.stats().queue_cycles, 30);
        assert_eq!(m.stats().requests, 2);
    }

    #[test]
    fn spaced_requests_do_not_queue() {
        let mut m = MainMemory::new(MemoryConfig::paper_default());
        assert_eq!(m.request(0), 300);
        assert_eq!(m.request(50), 350);
        assert_eq!(m.stats().queue_cycles, 0);
    }

    #[test]
    fn utilization_reflects_busy_fraction() {
        let mut m = MainMemory::new(MemoryConfig {
            latency: 100,
            service_interval: 10,
        });
        for i in 0..10 {
            m.request(i * 20);
        }
        // 10 requests * 10 busy cycles over 200 cycles = 50%.
        assert!((m.utilization(200) - 0.5).abs() < 1e-12);
        // Saturated case is clamped to 1.0.
        assert!(m.utilization(50) <= 1.0);
        assert_eq!(m.utilization(0), 0.0);
    }

    #[test]
    fn reset_clears_state() {
        let mut m = MainMemory::new(MemoryConfig::paper_default());
        m.request(0);
        m.reset();
        assert_eq!(m.stats().requests, 0);
        assert_eq!(m.request(0), 300);
    }
}
