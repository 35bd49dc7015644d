//! Lock-shard fixture: a sharded table at a rank other than the token
//! shards' (142) obeys the same discipline — same-field guards nest
//! only in strictly ascending index order, and a sequential
//! one-shard-at-a-time walk stays clean because no two guards ever
//! overlap.

use dfs_types::lock::OrderedShardedMutex;

pub struct LockTable {
    shards: OrderedShardedMutex<u32, 142>,
}

impl LockTable {
    pub fn cross_shard_descending(&self) -> u32 {
        let g = self.shards.lock(3);
        let h = self.shards.lock(1);
        *g + *h
    }

    pub fn release_owner_walks_one_at_a_time(&self) -> u32 {
        let mut total = 0;
        for i in 0..4 {
            let g = self.shards.lock(i);
            total += *g;
        }
        total
    }

    pub fn ascending_pair_is_fine(&self) -> u32 {
        let g = self.shards.lock(0);
        let h = self.shards.lock(2);
        *g + *h
    }
}
