//! Simulated time shared by a whole simulation.
//!
//! Everything in this reproduction that "takes time" — disk seeks, RPC
//! latency, NFS attribute-cache TTLs, lazy-replication staleness bounds —
//! is charged against a [`SimClock`] rather than wall time, so experiments
//! are deterministic and a 1 GiB fsck does not actually take minutes.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A point in simulated time, in microseconds since simulation start.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug, Default, Hash)]
pub struct Timestamp(pub u64);

impl Timestamp {
    /// Returns the timestamp as whole microseconds.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Returns the timestamp as (possibly fractional) seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// Returns `self + micros`, saturating on overflow.
    pub fn plus_micros(self, micros: u64) -> Timestamp {
        Timestamp(self.0.saturating_add(micros))
    }

    /// Returns the duration in microseconds since `earlier` (0 if earlier is later).
    pub fn micros_since(self, earlier: Timestamp) -> u64 {
        self.0.saturating_sub(earlier.0)
    }
}

/// A monotonically advancing simulated clock, cheaply shareable.
///
/// The clock only moves when some component *advances* it: the disk model
/// charges transfer time, the RPC layer charges network latency, and
/// experiment harnesses advance it to model think time. Multiple threads
/// may advance concurrently; the clock is a single atomic counter.
///
/// # Examples
///
/// ```
/// use dfs_types::SimClock;
///
/// let clock = SimClock::new();
/// clock.advance_micros(1_500);
/// assert_eq!(clock.now().as_micros(), 1_500);
/// ```
#[derive(Clone, Debug, Default)]
pub struct SimClock {
    micros: Arc<AtomicU64>,
}

impl SimClock {
    /// Creates a clock at time zero.
    pub fn new() -> Self {
        SimClock { micros: Arc::new(AtomicU64::new(0)) }
    }

    /// Returns the current simulated time.
    pub fn now(&self) -> Timestamp {
        Timestamp(self.micros.load(Ordering::SeqCst))
    }

    /// Advances the clock by `micros` microseconds and returns the new time.
    pub fn advance_micros(&self, micros: u64) -> Timestamp {
        Timestamp(self.micros.fetch_add(micros, Ordering::SeqCst) + micros)
    }

    /// Advances the clock by whole milliseconds and returns the new time.
    pub fn advance_millis(&self, millis: u64) -> Timestamp {
        self.advance_micros(millis * 1_000)
    }

    /// Advances the clock by whole seconds and returns the new time.
    pub fn advance_secs(&self, secs: u64) -> Timestamp {
        self.advance_micros(secs * 1_000_000)
    }

    /// Moves the clock forward to at least `target` (never backwards).
    pub fn advance_to(&self, target: Timestamp) {
        let mut cur = self.micros.load(Ordering::SeqCst);
        while cur < target.0 {
            match self.micros.compare_exchange(
                cur,
                target.0,
                Ordering::SeqCst,
                Ordering::SeqCst,
            ) {
                Ok(_) => return,
                Err(actual) => cur = actual,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_starts_at_zero_and_advances() {
        let c = SimClock::new();
        assert_eq!(c.now(), Timestamp(0));
        c.advance_millis(2);
        assert_eq!(c.now().as_micros(), 2_000);
        c.advance_secs(1);
        assert_eq!(c.now().as_secs_f64(), 1.002);
    }

    #[test]
    fn clones_share_the_same_time() {
        let a = SimClock::new();
        let b = a.clone();
        a.advance_micros(5);
        assert_eq!(b.now(), Timestamp(5));
    }

    #[test]
    fn advance_to_never_goes_backwards() {
        let c = SimClock::new();
        c.advance_micros(100);
        c.advance_to(Timestamp(50));
        assert_eq!(c.now(), Timestamp(100));
        c.advance_to(Timestamp(200));
        assert_eq!(c.now(), Timestamp(200));
    }

    #[test]
    fn timestamp_arithmetic() {
        let t = Timestamp(10);
        assert_eq!(t.plus_micros(5), Timestamp(15));
        assert_eq!(Timestamp(15).micros_since(t), 5);
        assert_eq!(t.micros_since(Timestamp(15)), 0);
    }

    #[test]
    fn concurrent_advance_is_lossless() {
        let c = SimClock::new();
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let c = c.clone();
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        c.advance_micros(1);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(c.now(), Timestamp(8_000));
    }
}
