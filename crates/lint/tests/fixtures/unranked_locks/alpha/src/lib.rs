//! Unranked-lock fixture: a raw `parking_lot` lock is reported wherever
//! it sits — a named field, a tuple field, an `Option`, a map value
//! (through its import), a `static` — and a ranked lock or a test
//! module's raw lock is not.

use dfs_types::lock::OrderedMutex;
use parking_lot::RwLock;
use std::collections::HashMap;

pub struct Ranked {
    a: OrderedMutex<u32, 10>,
    b: Option<OrderedMutex<u32, 20>>,
}

pub struct Bare {
    a: parking_lot::Mutex<u32>,
}

pub struct Tuple(parking_lot::Mutex<u32>);

pub struct Wrapped {
    a: Option<parking_lot::Mutex<u32>>,
    b: HashMap<u32, RwLock<u32>>,
}

static GLOBAL: parking_lot::Mutex<u32> = parking_lot::const_mutex(0);

#[cfg(test)]
mod tests {
    use parking_lot::{Condvar, Mutex};

    struct Seen(Mutex<u32>, Condvar);
}
