//! Journal statistics.

dfs_types::counters! {
    /// Counters accumulated by a [`Journal`](crate::Journal).
    pub struct JournalStats live JournalCounters {
        /// Transactions begun.
        pub txns_begun: u64,
        /// Transactions committed (individually; classes count each member).
        pub txns_committed: u64,
        /// Transactions aborted.
        pub txns_aborted: u64,
        /// Equivalence-class merges caused by buffer sharing.
        pub class_merges: u64,
        /// Update records appended to the log.
        pub update_records: u64,
        /// Commit records appended to the log.
        pub commit_records: u64,
        /// Bytes of record stream appended (excluding padding).
        pub log_bytes: u64,
        /// Bytes of padding appended at group-commit boundaries.
        pub pad_bytes: u64,
        /// Group commits (log syncs) performed.
        pub syncs: u64,
        /// Log blocks written to disk.
        pub log_block_writes: u64,
        /// Dirty frames written back to their home location.
        pub writebacks: u64,
        /// Buffer-cache hits.
        pub cache_hits: u64,
        /// Buffer-cache misses (disk reads).
        pub cache_misses: u64,
        /// Checkpoints taken.
        pub checkpoints: u64,
    }
}

/// What recovery found and did after a crash.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Log blocks scanned during recovery.
    pub scanned_blocks: u64,
    /// Records parsed from the log stream.
    pub records: u64,
    /// Update records re-applied (redo pass).
    pub updates_redone: u64,
    /// Update records rolled back (undo pass).
    pub updates_undone: u64,
    /// Distinct transactions found committed.
    pub committed_txns: u64,
    /// Distinct transactions found uncommitted (rolled back).
    pub uncommitted_txns: u64,
    /// Simulated disk time the recovery consumed, in microseconds.
    pub disk_busy_us: u64,
    /// True if the log was freshly formatted (no recovery performed).
    pub formatted: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_since_diffs() {
        let a = JournalStats { txns_begun: 2, log_bytes: 100, ..Default::default() };
        let b = JournalStats { txns_begun: 7, log_bytes: 350, ..Default::default() };
        let d = b.since(&a);
        assert_eq!(d.txns_begun, 5);
        assert_eq!(d.log_bytes, 250);
    }
}
