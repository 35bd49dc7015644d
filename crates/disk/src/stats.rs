//! Disk operation statistics.

dfs_types::counters! {
    /// Counters accumulated by a [`SimDisk`](crate::SimDisk).
    ///
    /// `busy_us` is the simulated time the disk spent servicing requests
    /// under the configured [`CostModel`](crate::CostModel); experiments
    /// report it as "disk time".
    pub struct DiskStats {
        /// Blocks read.
        pub reads: u64,
        /// Blocks written (into the volatile cache or synchronously).
        pub writes: u64,
        /// Blocks made durable on stable storage.
        pub stable_writes: u64,
        /// Flush/sync operations (each `flush`, `flush_range`, `flush_blocks`,
        /// `write_sync`).
        pub syncs: u64,
        /// Accesses that followed the previous access sequentially.
        pub sequential_ops: u64,
        /// Accesses that required a seek.
        pub random_ops: u64,
        /// Simulated microseconds the disk was busy.
        pub busy_us: u64,
        /// Writes discarded by crash injection.
        pub lost_writes: u64,
        /// Torn (half-applied) writes produced by crash injection.
        pub torn_writes: u64,
    }
}

impl DiskStats {
    /// Total I/O operations (reads plus stable writes).
    pub fn total_ios(&self) -> u64 {
        self.reads + self.stable_writes
    }

    /// Simulated busy time in milliseconds.
    pub fn busy_ms(&self) -> f64 {
        self.busy_us as f64 / 1_000.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn since_diffs_counters() {
        let a = DiskStats { reads: 10, writes: 5, busy_us: 100, ..DiskStats::default() };
        let b = DiskStats { reads: 25, writes: 9, busy_us: 400, ..DiskStats::default() };
        let d = b.since(&a);
        assert_eq!(d.reads, 15);
        assert_eq!(d.writes, 4);
        assert_eq!(d.busy_us, 300);
    }

    #[test]
    fn since_saturates_instead_of_underflowing() {
        let a = DiskStats { reads: 10, ..DiskStats::default() };
        let b = DiskStats::default();
        assert_eq!(b.since(&a).reads, 0);
    }

    #[test]
    fn totals() {
        let s = DiskStats { reads: 3, stable_writes: 4, busy_us: 1500, ..DiskStats::default() };
        assert_eq!(s.total_ios(), 7);
        assert!((s.busy_ms() - 1.5).abs() < 1e-9);
    }
}
