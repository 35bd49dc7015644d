//! Wrapped-lock fixture: locks held in an `Arc`, a `Vec` and a boxed
//! slice are lock fields all the same. A rank inversion through the
//! `Arc`, a slot guard held across a send, a slot written back after a
//! send without a second look, and two slots of one slice held at once
//! (one field, one rank: they never nest) are all reported.

use dfs_types::lock::OrderedMutex;
use std::sync::Arc;

pub struct Cell {
    net: Net,
    table: Arc<OrderedMutex<u32, 20>>,
    load: OrderedMutex<u32, 10>,
    slots: Vec<OrderedMutex<u32, 30>>,
    leaves: Box<[parking_lot::Mutex<u32>]>,
}

impl Cell {
    pub fn inverted(&self) -> u32 {
        let t = self.table.lock();
        let l = self.load.lock();
        *t + *l
    }

    pub fn restart(&self, i: usize) -> u32 {
        let slot = self.slots[i].lock();
        self.net.call(*slot);
        *slot
    }

    pub fn installed(&self, i: usize) -> u32 {
        let v = *self.slots[i].lock();
        self.net.call(v);
        *self.slots[i].lock() = v + 1;
        v
    }

    pub fn two_slots(&self) -> u32 {
        let a = self.leaves[0].lock();
        let b = self.leaves[1].lock();
        *a + *b
    }
}
