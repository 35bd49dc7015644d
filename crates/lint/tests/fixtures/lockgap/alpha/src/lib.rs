//! Lock-gap fixture: the PR 6 journal dirty-bit race, minimized. The
//! broken writeback snapshots frame state under the lock, releases it
//! for disk I/O, then clears the dirty bit unconditionally on the
//! reacquired guard — losing any write that landed in the gap. The
//! fixed variant revalidates against the frame's version counter before
//! clearing, which the rule recognizes as the sanctioned idiom; the
//! merge variant's write re-reads the fresh guard, likewise clean.

use parking_lot::Mutex;

pub struct Frame {
    state: Mutex<u32>,
}

impl Frame {
    pub fn writeback(&self, disk: &Disk) {
        let snap = {
            let st = self.state.lock();
            st.data
        };
        disk.push(snap);
        let mut st = self.state.lock();
        st.dirty = false;
    }

    pub fn writeback_fixed(&self, disk: &Disk) {
        let (snap, version) = {
            let st = self.state.lock();
            (st.data, st.version)
        };
        disk.push(snap);
        let mut st = self.state.lock();
        if st.version == version {
            st.dirty = false;
        }
    }

    pub fn merge_tail(&self, disk: &Disk) {
        let tail = {
            let st = self.state.lock();
            st.tail
        };
        disk.push(tail);
        let mut st = self.state.lock();
        st.tail = st.tail.max(tail);
    }

    /// Clean too: the write is under a condition that calls a method of
    /// the fresh guard.
    pub fn forget_untrusted(&self, disk: &Disk) {
        let snap = {
            let st = self.state.lock();
            st.data
        };
        disk.push(snap);
        let mut st = self.state.lock();
        if !st.trusted() {
            st.listing = None;
        }
    }
}
