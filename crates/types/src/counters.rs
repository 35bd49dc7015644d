//! Statistics counters: one declaration per stats struct.
//!
//! [`counters!`](crate::counters!) declares a stats struct once and
//! generates the public *view* (plain `pub` fields, what `stats()`
//! accessors return), its `since`/`merge`, and — when asked — a *live
//! twin* of relaxed [`Counter`]s that the owner bumps with no lock.
//!
//! Field kinds, in declaration order:
//!
//! * plain counters (`u64`): `since` subtracts with saturation, `merge`
//!   adds;
//! * `max { .. }` high-water marks (`u64`): `since` carries the later
//!   value through, `merge` keeps the larger;
//! * `maps { .. }` per-key counters (`HashMap<K, u64>`): `since` diffs
//!   per key and drops zero entries, `merge` adds per key. They have no
//!   live twin field: the owner fills them into the snapshot.
//!
//! **The snapshot contract.** Each counter is bumped and read on its
//! own, with relaxed ordering: a snapshot taken while threads run may
//! show one of two counters bumped together (`grants` and
//! `quiet_grants`) and not yet the other. Each counter alone never goes
//! backwards, so `since` between two snapshots of one owner is exact per
//! field; a check that relates two fields reads them at quiescence.

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// One relaxed `u64` counter of a live twin.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Relaxed);
    }

    /// Raises the value to `v` if `v` is larger (a high-water mark).
    #[inline]
    pub fn max(&self, v: u64) {
        self.0.fetch_max(v, Relaxed);
    }

    /// The current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Relaxed)
    }
}

/// `now - then` per key, saturating; keys whose difference is zero are
/// left out.
pub fn map_since<K: Eq + Hash + Clone>(
    now: &HashMap<K, u64>,
    then: &HashMap<K, u64>,
) -> HashMap<K, u64> {
    now.iter()
        .map(|(k, v)| (k, v.saturating_sub(then.get(k).copied().unwrap_or(0))))
        .filter(|&(_, d)| d > 0)
        .map(|(k, d)| (k.clone(), d))
        .collect()
}

/// Adds `other` into `sum` per key.
pub fn map_merge<K: Eq + Hash + Clone>(sum: &mut HashMap<K, u64>, other: &HashMap<K, u64>) {
    for (k, v) in other {
        *sum.entry(k.clone()).or_default() += v;
    }
}

/// Declares a statistics struct: the public view with its `since` and
/// `merge`, plus, with `live Twin`, a crate-private twin of relaxed
/// [`Counter`](crate::counters::Counter)s whose `snapshot()` returns
/// the view. See the [module docs](crate::counters) for the field kinds
/// and the snapshot contract.
///
/// ```
/// use std::collections::HashMap;
///
/// dfs_types::counters! {
///     /// Example statistics.
///     pub struct ExampleStats live ExampleCounters {
///         /// Calls served.
///         pub calls: u64,
///         max {
///             /// Largest reply seen.
///             pub max_reply: u64,
///         }
///         maps {
///             /// Calls by label (filled by the owner).
///             pub by_label: HashMap<&'static str, u64>,
///         }
///     }
/// }
///
/// let live = ExampleCounters::default();
/// live.calls.add(2);
/// live.max_reply.max(7);
/// let before = live.snapshot();
/// live.calls.add(1);
/// let d = live.snapshot().since(&before);
/// assert_eq!((d.calls, d.max_reply), (1, 7));
/// ```
#[macro_export]
macro_rules! counters {
    (@view $(#[$meta:meta])* $name:ident {
        $( $(#[$cmeta:meta])* pub $c:ident: u64, )*
        $( max { $( $(#[$mmeta:meta])* pub $m:ident: u64, )* } )?
        $( maps { $( $(#[$kmeta:meta])* pub $k:ident: $kty:ty, )* } )?
    }) => {
        $(#[$meta])*
        #[derive(Clone, Debug, Default, PartialEq, Eq)]
        pub struct $name {
            $( $(#[$cmeta])* pub $c: u64, )*
            $($( $(#[$mmeta])* pub $m: u64, )*)?
            $($( $(#[$kmeta])* pub $k: $kty, )*)?
        }

        impl $name {
            /// Returns `self - earlier` field by field: counters
            /// saturate at zero, high-water marks carry `self`'s value,
            /// maps diff per key and drop zero entries.
            pub fn since(&self, earlier: &$name) -> $name {
                $name {
                    $( $c: self.$c.saturating_sub(earlier.$c), )*
                    $($( $m: self.$m, )*)?
                    $($( $k: $crate::counters::map_since(&self.$k, &earlier.$k), )*)?
                }
            }

            /// Adds `other` into `self`: counters sum, high-water marks
            /// keep the larger, maps sum per key.
            pub fn merge(&mut self, other: &$name) {
                $( self.$c += other.$c; )*
                $($( self.$m = self.$m.max(other.$m); )*)?
                $($( $crate::counters::map_merge(&mut self.$k, &other.$k); )*)?
            }
        }
    };
    (@live $name:ident $live:ident {
        $( $(#[$cmeta:meta])* pub $c:ident: u64, )*
        $( max { $( $(#[$mmeta:meta])* pub $m:ident: u64, )* } )?
        $( maps { $( $(#[$kmeta:meta])* pub $k:ident: $kty:ty, )* } )?
    }) => {
        /// Live counters behind the view of the same fields; bumped with
        /// relaxed atomics, no lock.
        #[derive(Default)]
        pub(crate) struct $live {
            $( pub(crate) $c: $crate::counters::Counter, )*
            $($( pub(crate) $m: $crate::counters::Counter, )*)?
        }

        impl $live {
            /// Reads every counter (each on its own); map fields are
            /// left empty for the owner to fill.
            pub(crate) fn snapshot(&self) -> $name {
                $name {
                    $( $c: self.$c.get(), )*
                    $($( $m: self.$m.get(), )*)?
                    $($( $k: <$kty>::default(), )*)?
                }
            }
        }
    };
    ($(#[$meta:meta])* pub struct $name:ident live $live:ident { $($body:tt)* }) => {
        $crate::counters!(@view $(#[$meta])* $name { $($body)* });
        $crate::counters!(@live $name $live { $($body)* });
    };
    ($(#[$meta:meta])* pub struct $name:ident { $($body:tt)* }) => {
        $crate::counters!(@view $(#[$meta])* $name { $($body)* });
    };
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;

    crate::counters! {
        /// A view with one field of each kind.
        pub struct Probe live ProbeCounters {
            /// A counter.
            pub hits: u64,
            /// Another counter.
            pub misses: u64,
            max {
                /// A high-water mark.
                pub peak: u64,
            }
            maps {
                /// Per-key counts.
                pub by_key: HashMap<&'static str, u64>,
            }
        }
    }

    fn map(pairs: &[(&'static str, u64)]) -> HashMap<&'static str, u64> {
        pairs.iter().copied().collect()
    }

    #[test]
    fn four_threads_of_adds_sum_exactly() {
        let live = ProbeCounters::default();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..100_000 {
                        live.hits.add(1);
                    }
                });
            }
        });
        assert_eq!(live.snapshot(), Probe { hits: 400_000, ..Probe::default() });
    }

    #[test]
    fn max_keeps_the_high_water_mark() {
        let live = ProbeCounters::default();
        for v in [3, 9, 4, 9, 1] {
            live.peak.max(v);
        }
        assert_eq!(live.snapshot().peak, 9);
    }

    #[test]
    fn since_saturates_carries_max_and_diffs_maps_per_key() {
        let then = Probe {
            hits: 10,
            misses: 5,
            peak: 90,
            by_key: map(&[("a", 4), ("b", 7), ("gone", 2)]),
        };
        let now = Probe {
            hits: 25,
            misses: 3,
            peak: 40,
            by_key: map(&[("a", 9), ("b", 7), ("new", 1)]),
        };
        let d = now.since(&then);
        assert_eq!((d.hits, d.misses), (15, 0), "counters diff, and saturate below zero");
        assert_eq!(d.peak, 40, "the high-water mark carries the later value through");
        assert_eq!(d.by_key, map(&[("a", 5), ("new", 1)]), "maps diff per key, zeros dropped");
    }

    #[test]
    fn merge_sums_counters_maxes_marks_and_merges_maps_per_key() {
        let mut sum = Probe { hits: 1, misses: 2, peak: 40, by_key: map(&[("a", 1), ("b", 2)]) };
        sum.merge(&Probe { hits: 10, misses: 20, peak: 90, by_key: map(&[("b", 3), ("c", 4)]) });
        sum.merge(&Probe { peak: 50, ..Probe::default() });
        assert_eq!((sum.hits, sum.misses), (11, 22));
        assert_eq!(sum.peak, 90, "the high-water mark folds as a max");
        assert_eq!(sum.by_key, map(&[("a", 1), ("b", 5), ("c", 4)]));
    }
}
