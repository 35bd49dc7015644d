//! Property-based crash-recovery checking for the journal.
//!
//! A random schedule of transactions (update/commit/abort interleaved
//! with group commits and checkpoints) runs against the journal while a
//! shadow model tracks what every byte *must* be after a crash: exactly
//! the transactions whose (equivalence-class) commit records reached the
//! disk. After a crash at an arbitrary point, recovery must reproduce
//! the model byte-for-byte — and recovery itself must be idempotent
//! under a second crash.
//!
//! Some updates rewrite bytes with the value they already hold — all of
//! them, or all but a scattered few. The journal logs only the changed
//! span (or nothing) for those, yet the model treats them as any other
//! update, class merge included: recovery must not tell the difference.
//!
//! The model exploits the journal's own invariant: transactions that
//! touch the same buffer are merged into one equivalence class, so
//! distinct classes touch disjoint blocks and can be tracked separately.

use dfs_disk::{DiskConfig, SimDisk, BLOCK_SIZE};
use dfs_journal::{Journal, LogRegion};
use proptest::prelude::*;
use std::collections::{HashMap, HashSet};

const DATA_BASE: u32 = 600;
const DATA_BLOCKS: u32 = 8;

#[derive(Clone, Debug)]
enum Op {
    Begin,
    Update { slot: usize, block: u32, offset: usize, len: usize, byte: u8 },
    /// Rewrites `len` bytes with their current value, except every
    /// `stride`-th byte, which becomes `byte` (`stride` 0: none does).
    Rewrite { slot: usize, block: u32, offset: usize, len: usize, stride: usize, byte: u8 },
    Commit { slot: usize },
    Abort { slot: usize },
    Sync,
    Checkpoint,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        2 => Just(Op::Begin),
        6 => (0usize..4, 0u32..DATA_BLOCKS, 0usize..(BLOCK_SIZE - 64), 1usize..64, any::<u8>())
            .prop_map(|(slot, block, offset, len, byte)| Op::Update {
                slot,
                block: DATA_BASE + block,
                offset,
                len,
                byte,
            }),
        3 => (
            0usize..4,
            0u32..DATA_BLOCKS,
            0usize..(BLOCK_SIZE - 64),
            1usize..64,
            prop_oneof![Just(0usize), 1usize..24],
            any::<u8>()
        )
            .prop_map(|(slot, block, offset, len, stride, byte)| Op::Rewrite {
                slot,
                block: DATA_BASE + block,
                offset,
                len,
                stride,
                byte,
            }),
        3 => (0usize..4).prop_map(|slot| Op::Commit { slot }),
        1 => (0usize..4).prop_map(|slot| Op::Abort { slot }),
        2 => Just(Op::Sync),
        1 => Just(Op::Checkpoint),
    ]
}

/// A live transaction in the model.
struct LiveTxn {
    id: u64,
    /// (block index, offset, old bytes) for abort rollback.
    undo: Vec<(usize, usize, Vec<u8>)>,
    /// Class representative (index into `classes` via union-find).
    class: usize,
}

/// An equivalence class of transactions sharing buffers.
#[derive(Default, Clone)]
struct Class {
    members: usize,
    resolved: usize,
    blocks: HashSet<usize>,
    parent: Option<usize>,
}

struct Model {
    working: Vec<Vec<u8>>,
    durable: Vec<Vec<u8>>,
    classes: Vec<Class>,
    /// Block → owning class root, while any member is unresolved.
    block_class: HashMap<usize, usize>,
    /// Committed-but-unsynced block images.
    commit_pending: HashMap<usize, Vec<u8>>,
}

impl Model {
    fn new() -> Model {
        Model {
            working: vec![vec![0u8; BLOCK_SIZE]; DATA_BLOCKS as usize],
            durable: vec![vec![0u8; BLOCK_SIZE]; DATA_BLOCKS as usize],
            classes: Vec::new(),
            block_class: HashMap::new(),
            commit_pending: HashMap::new(),
        }
    }

    fn find(&mut self, c: usize) -> usize {
        match self.classes[c].parent {
            None => c,
            Some(p) => {
                let root = self.find(p);
                self.classes[c].parent = Some(root);
                root
            }
        }
    }

    fn union(&mut self, a: usize, b: usize) -> usize {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return ra;
        }
        let moved = self.classes[rb].clone();
        self.classes[ra].members += moved.members;
        self.classes[ra].resolved += moved.resolved;
        let blocks: Vec<usize> = moved.blocks.iter().copied().collect();
        for blk in blocks {
            self.classes[ra].blocks.insert(blk);
            self.block_class.insert(blk, ra);
        }
        self.classes[rb].parent = Some(ra);
        ra
    }

    /// Records that class `c` touched `block`, merging with any class
    /// that already owns it (the journal does the same).
    fn touch(&mut self, c: usize, block: usize) -> usize {
        let root = self.find(c);
        match self.block_class.get(&block).copied() {
            Some(owner) => {
                let merged = self.union(root, owner);
                self.classes[merged].blocks.insert(block);
                self.block_class.insert(block, merged);
                merged
            }
            None => {
                self.classes[root].blocks.insert(block);
                self.block_class.insert(block, root);
                root
            }
        }
    }

    /// Marks one member resolved; if the class completes, its blocks'
    /// working images become commit-pending.
    fn resolve(&mut self, c: usize) {
        let root = self.find(c);
        self.classes[root].resolved += 1;
        if self.classes[root].resolved == self.classes[root].members {
            let blocks: Vec<usize> = self.classes[root].blocks.iter().copied().collect();
            for blk in blocks {
                self.commit_pending.insert(blk, self.working[blk].clone());
                self.block_class.remove(&blk);
            }
        }
    }

    fn sync(&mut self) {
        for (blk, img) in self.commit_pending.drain() {
            self.durable[blk] = img;
        }
    }
}

/// Applies one update to the journal and the model alike.
fn update(
    jn: &Journal,
    model: &mut Model,
    t: &mut LiveTxn,
    block: u32,
    offset: usize,
    bytes: &[u8],
) {
    let buf = jn.get(block).unwrap();
    jn.update(t.id, &buf, offset, bytes).unwrap();
    let bi = (block - DATA_BASE) as usize;
    let end = offset + bytes.len();
    t.undo.push((bi, offset, model.working[bi][offset..end].to_vec()));
    model.working[bi][offset..end].copy_from_slice(bytes);
    model.touch(t.class, bi);
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn recovery_matches_model(ops in proptest::collection::vec(op_strategy(), 1..120)) {
        let disk = SimDisk::new(DiskConfig::with_blocks(1024));
        let region = LogRegion { first_block: 1, blocks: 128 };
        let jn = Journal::format(disk.clone(), region).unwrap();

        let mut model = Model::new();
        let mut live: Vec<LiveTxn> = Vec::new();

        for op in ops {
            match op {
                Op::Begin => {
                    if live.len() < 4 {
                        model.classes.push(Class {
                            members: 1,
                            resolved: 0,
                            blocks: HashSet::new(),
                            parent: None,
                        });
                        live.push(LiveTxn {
                            id: jn.begin(),
                            undo: Vec::new(),
                            class: model.classes.len() - 1,
                        });
                    }
                }
                Op::Update { slot, block, offset, len, byte } => {
                    if let Some(t) = live.get_mut(slot) {
                        update(&jn, &mut model, t, block, offset, &vec![byte; len]);
                    }
                }
                Op::Rewrite { slot, block, offset, len, stride, byte } => {
                    if let Some(t) = live.get_mut(slot) {
                        let bi = (block - DATA_BASE) as usize;
                        let mut bytes = model.working[bi][offset..offset + len].to_vec();
                        if stride > 0 {
                            bytes.iter_mut().step_by(stride).for_each(|b| *b = byte);
                        }
                        update(&jn, &mut model, t, block, offset, &bytes);
                    }
                }
                Op::Commit { slot } => {
                    if slot < live.len() {
                        let t = live.remove(slot);
                        jn.commit(t.id).unwrap();
                        model.resolve(t.class);
                    }
                }
                Op::Abort { slot } => {
                    if slot < live.len() {
                        let t = live.remove(slot);
                        jn.abort(t.id).unwrap();
                        for (bi, offset, old) in t.undo.into_iter().rev() {
                            model.working[bi][offset..offset + old.len()]
                                .copy_from_slice(&old);
                        }
                        model.resolve(t.class);
                    }
                }
                Op::Sync => {
                    jn.sync().unwrap();
                    model.sync();
                }
                Op::Checkpoint => {
                    jn.checkpoint().unwrap();
                    model.sync();
                }
            }
        }
        // Any still-live transactions die with the crash.

        disk.crash(None);
        disk.power_on();
        let (_jn2, _report) = Journal::open(disk.clone(), region).unwrap();
        for bi in 0..DATA_BLOCKS as usize {
            let got = disk.read(DATA_BASE + bi as u32).unwrap();
            prop_assert_eq!(
                &got[..],
                &model.durable[bi][..],
                "block {} diverged from the durable model after recovery",
                bi
            );
        }

        // Idempotence: crash immediately after recovery, recover again.
        disk.crash(None);
        disk.power_on();
        let (_jn3, _report) = Journal::open(disk.clone(), region).unwrap();
        for bi in 0..DATA_BLOCKS as usize {
            let got = disk.read(DATA_BASE + bi as u32).unwrap();
            prop_assert_eq!(&got[..], &model.durable[bi][..]);
        }
    }
}
