//! Offline stand-in for the `parking_lot` crate.
//!
//! The build environment has no network access to a cargo registry, so the
//! workspace ships this minimal re-implementation of the `parking_lot` API
//! subset it actually uses: `Mutex`/`MutexGuard`, `RwLock` and its guards,
//! and `Condvar`. Semantics match parking_lot where the workspace depends
//! on them: guards release on drop, locking never returns a poison error
//! (a panicked holder simply passes the data on), and `Condvar::wait`
//! takes `&mut MutexGuard`.
//!
//! Not implemented (unused by the workspace): try-lock variants, fairness
//! controls, upgradable read locks, and send-able guards. Of the timed
//! waits only `Condvar::wait_for` is provided.

use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::{PoisonError, TryLockError};

/// A mutual-exclusion primitive (poison-ignoring wrapper over `std::sync::Mutex`).
pub struct Mutex<T: ?Sized> {
    inner: std::sync::Mutex<T>, // dfs-lint: allow(std-sync) — this shim *is* the parking_lot implementation; std::sync is its backing primitive, not a workspace lock.
}

impl<T> Mutex<T> {
    pub const fn new(value: T) -> Self {
        Mutex { inner: std::sync::Mutex::new(value) } // dfs-lint: allow(std-sync) — this shim *is* the parking_lot implementation; std::sync is its backing primitive, not a workspace lock.
    }

    pub fn into_inner(self) -> T {
        self.inner.into_inner().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> Mutex<T> {
    pub fn lock(&self) -> MutexGuard<'_, T> {
        MutexGuard { inner: Some(self.inner.lock().unwrap_or_else(PoisonError::into_inner)) }
    }

    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: Default> Default for Mutex<T> {
    fn default() -> Self {
        Mutex::new(T::default())
    }
}

impl<T: fmt::Debug> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Mutex").finish_non_exhaustive()
    }
}

/// RAII guard for [`Mutex`].
///
/// The inner `Option` exists only so [`Condvar::wait`] can temporarily take
/// ownership of the underlying std guard; it is `Some` at all other times.
pub struct MutexGuard<'a, T: ?Sized> {
    inner: Option<std::sync::MutexGuard<'a, T>>,
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard present outside Condvar::wait")
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("guard present outside Condvar::wait")
    }
}

/// A condition variable compatible with [`Mutex`].
pub struct Condvar {
    inner: std::sync::Condvar, // dfs-lint: allow(std-sync) — this shim *is* the parking_lot implementation; std::sync is its backing primitive, not a workspace lock.
}

impl Condvar {
    pub const fn new() -> Self {
        Condvar { inner: std::sync::Condvar::new() } // dfs-lint: allow(std-sync) — this shim *is* the parking_lot implementation; std::sync is its backing primitive, not a workspace lock.
    }

    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        let std_guard = guard.inner.take().expect("guard present outside Condvar::wait");
        let std_guard = self.inner.wait(std_guard).unwrap_or_else(PoisonError::into_inner);
        guard.inner = Some(std_guard);
    }

    /// Waits with a timeout. Returns `true` if the wait timed out
    /// (mirroring `parking_lot::WaitTimeoutResult::timed_out`).
    pub fn wait_for<T>(
        &self,
        guard: &mut MutexGuard<'_, T>,
        timeout: std::time::Duration,
    ) -> bool {
        let std_guard = guard.inner.take().expect("guard present outside Condvar::wait");
        let (std_guard, res) = self
            .inner
            .wait_timeout(std_guard, timeout)
            .unwrap_or_else(PoisonError::into_inner);
        guard.inner = Some(std_guard);
        res.timed_out()
    }

    pub fn notify_one(&self) -> bool {
        self.inner.notify_one();
        true
    }

    pub fn notify_all(&self) -> usize {
        self.inner.notify_all();
        0
    }
}

impl Default for Condvar {
    fn default() -> Self {
        Condvar::new()
    }
}

/// A reader-writer lock (poison-ignoring wrapper over `std::sync::RwLock`).
pub struct RwLock<T: ?Sized> {
    inner: std::sync::RwLock<T>, // dfs-lint: allow(std-sync) — this shim *is* the parking_lot implementation; std::sync is its backing primitive, not a workspace lock.
}

impl<T> RwLock<T> {
    pub const fn new(value: T) -> Self {
        RwLock { inner: std::sync::RwLock::new(value) } // dfs-lint: allow(std-sync) — this shim *is* the parking_lot implementation; std::sync is its backing primitive, not a workspace lock.
    }

    pub fn into_inner(self) -> T {
        self.inner.into_inner().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> RwLock<T> {
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        RwLockReadGuard { inner: self.inner.read().unwrap_or_else(PoisonError::into_inner) }
    }

    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        RwLockWriteGuard { inner: self.inner.write().unwrap_or_else(PoisonError::into_inner) }
    }

    /// Takes the write lock if it is free now; `None` if it is held.
    pub fn try_write(&self) -> Option<RwLockWriteGuard<'_, T>> {
        match self.inner.try_write() {
            Ok(inner) => Some(RwLockWriteGuard { inner }),
            Err(TryLockError::Poisoned(e)) => Some(RwLockWriteGuard { inner: e.into_inner() }),
            Err(TryLockError::WouldBlock) => None,
        }
    }

    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: Default> Default for RwLock<T> {
    fn default() -> Self {
        RwLock::new(T::default())
    }
}

impl<T: fmt::Debug> fmt::Debug for RwLock<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RwLock").finish_non_exhaustive()
    }
}

/// Shared-access RAII guard for [`RwLock`].
pub struct RwLockReadGuard<'a, T: ?Sized> {
    inner: std::sync::RwLockReadGuard<'a, T>,
}

impl<T: ?Sized> Deref for RwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

/// Exclusive-access RAII guard for [`RwLock`].
pub struct RwLockWriteGuard<'a, T: ?Sized> {
    inner: std::sync::RwLockWriteGuard<'a, T>,
}

impl<T: ?Sized> Deref for RwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn mutex_round_trip() {
        let m = Mutex::new(1);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);
    }

    #[test]
    fn try_write_fails_while_the_lock_is_held() {
        let l = RwLock::new(());
        let r = l.read();
        assert!(l.try_write().is_none());
        drop(r);
        let w = l.try_write();
        assert!(w.is_some());
        assert!(l.try_write().is_none());
    }

    #[test]
    fn condvar_wakes_waiter() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let p2 = pair.clone();
        let t = std::thread::spawn(move || {
            let (m, cv) = &*p2;
            let mut done = m.lock();
            while !*done {
                cv.wait(&mut done);
            }
        });
        std::thread::sleep(Duration::from_millis(10));
        *pair.0.lock() = true;
        pair.1.notify_all();
        t.join().unwrap();
    }

    #[test]
    fn condvar_wait_for_times_out_and_wakes() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        // No notifier: must time out with the guard intact.
        {
            let (m, cv) = &*pair;
            let mut g = m.lock();
            assert!(cv.wait_for(&mut g, Duration::from_millis(5)));
            assert!(!*g);
        }
        // With a notifier: must wake before the (long) timeout.
        let p2 = pair.clone();
        let t = std::thread::spawn(move || {
            let (m, cv) = &*p2;
            let mut done = m.lock();
            while !*done {
                cv.wait_for(&mut done, Duration::from_secs(30));
            }
        });
        std::thread::sleep(Duration::from_millis(10));
        *pair.0.lock() = true;
        pair.1.notify_all();
        t.join().unwrap();
    }

    #[test]
    fn rwlock_readers_and_writer() {
        let l = RwLock::new(vec![1, 2]);
        {
            let a = l.read();
            let b = l.read();
            assert_eq!(a.len() + b.len(), 4);
        }
        l.write().push(3);
        assert_eq!(l.read().len(), 3);
    }
}
