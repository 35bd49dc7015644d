//! The host journal: durable host/lease/epoch state for §3.5 recovery.
//!
//! The recovery protocol needs three facts to survive a whole-machine
//! loss (process *and* memory), not just a service restart:
//!
//! * which clients were recently alive (`last_seen`),
//! * which of them held tokens (`holding`) — the restart grace window
//!   admits exactly these hosts for reestablishment,
//! * the server's restart epoch, so the successor can stamp a higher
//!   one without asking the dying instance.
//!
//! The log is a small ring of [`crate::logfmt`] blocks, reusing the
//! episode log's framing (magic + monotone sequence + checksum) so
//! torn writes self-invalidate. Appends rewrite the current tail block
//! in place under a fresh sequence number until it fills; replay folds
//! records in sequence order, newest per client wins. On every lap of
//! the ring a compaction snapshot (a [`Record::HostBarrier`] followed
//! by the full live state) is written first, so overwriting the
//! previous lap's blocks never loses live facts.
//!
//! Writes are synchronous (`write_sync`): a lease fact is durable when
//! the append returns. Callers therefore batch — the server journals
//! coarse lease refreshes and holder transitions, never per-RPC.

use crate::logfmt::{decode_block, encode_block, Record, LOG_PAYLOAD};
use dfs_disk::SimDisk;
use dfs_types::lock::{rank, OrderedMutex};
use dfs_types::{DfsError, DfsResult};
use std::collections::HashMap;

/// Where a host log lives on its disk.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HostLogRegion {
    /// First block of the ring.
    pub first_block: u32,
    /// Ring size in blocks; must be at least 4.
    pub blocks: u32,
}

/// What host-log replay recovered.
#[derive(Clone, Debug, Default)]
pub struct HostLogReplay {
    /// client id → (last_seen µs, held tokens at last journaling).
    pub hosts: HashMap<u32, (u64, bool)>,
    /// Highest server epoch ever journaled (0 = never).
    pub epoch: u64,
    /// Ring blocks scanned.
    pub scanned_blocks: u64,
    /// Records folded.
    pub records: u64,
}

struct Tail {
    /// Ring position (0-based, relative to `first_block`) being filled.
    pos: u32,
    /// Payload bytes already in the tail block.
    payload: Vec<u8>,
    /// Next sequence number to stamp on a written block.
    next_seq: u64,
    /// Ring positions written since the last snapshot (or open).
    lap_used: u32,
    /// Mirror of the durable state, for compaction snapshots.
    live: HashMap<u32, (u64, bool)>,
    /// Mirror of the durable epoch.
    epoch: u64,
}

/// The host journal. All methods are internally synchronized.
pub struct HostLog {
    disk: SimDisk,
    region: HostLogRegion,
    tail: OrderedMutex<Tail, { rank::HOST_LOG }>,
}

impl HostLog {
    /// Opens (or implicitly initializes) the host log in `region`,
    /// replaying whatever survived. A never-written region replays
    /// empty — there is no separate format step.
    pub fn open(disk: SimDisk, region: HostLogRegion) -> DfsResult<(HostLog, HostLogReplay)> {
        if region.blocks < 4 {
            return Err(DfsError::InvalidArgument);
        }
        let (replay, max_seq, max_pos) = Self::scan(&disk, region)?;
        let log = HostLog {
            disk,
            region,
            tail: OrderedMutex::new(Tail {
                // Resume on the block after the newest survivor; its
                // in-place tail bytes are already folded into `live`.
                pos: max_seq.map_or(0, |_| (max_pos + 1) % region.blocks),
                payload: Vec::new(),
                next_seq: max_seq.map_or(1, |s| s + 1),
                lap_used: 0,
                live: replay.hosts.clone(),
                epoch: replay.epoch,
            }),
        };
        Ok((log, replay))
    }

    /// Replays a region without opening it for writing (the restart
    /// path peeks before deciding how to seed recovery).
    pub fn replay(disk: &SimDisk, region: HostLogRegion) -> DfsResult<HostLogReplay> {
        Ok(Self::scan(disk, region)?.0)
    }

    fn scan(
        disk: &SimDisk,
        region: HostLogRegion,
    ) -> DfsResult<(HostLogReplay, Option<u64>, u32)> {
        // Collect every valid block, then fold in sequence order:
        // within the ring, a higher sequence is strictly newer.
        let mut blocks: Vec<(u64, u32, Vec<u8>)> = Vec::new();
        let mut scanned = 0u64;
        for pos in 0..region.blocks {
            scanned += 1;
            let data = disk.read(region.first_block + pos)?;
            if let Some((seq, payload)) = decode_block(&data) {
                blocks.push((seq, pos, payload.to_vec()));
            }
        }
        blocks.sort_by_key(|(seq, ..)| *seq);

        // A barrier supersedes everything before it: the snapshot that
        // follows carries the full live state.
        let mut barrier_seq = 0u64;
        for (seq, _, payload) in &blocks {
            let mut p = 0;
            while let Some((rec, next)) = Record::decode(payload, p) {
                if rec == Record::HostBarrier {
                    barrier_seq = barrier_seq.max(*seq);
                }
                p = next;
            }
        }

        let mut replay = HostLogReplay { scanned_blocks: scanned, ..Default::default() };
        let (mut max_seq, mut max_pos) = (None, 0u32);
        for (seq, pos, payload) in &blocks {
            max_seq = Some(*seq);
            max_pos = *pos;
            if *seq < barrier_seq {
                continue;
            }
            let mut p = 0;
            while let Some((rec, next)) = Record::decode(payload, p) {
                p = next;
                match rec {
                    Record::HostLease { client, last_seen, holding } => {
                        replay.records += 1;
                        let e = replay.hosts.entry(client).or_insert((0, false));
                        // Sequence order already sorts laps; within a
                        // block records are chronological, so a plain
                        // overwrite keeps the newest fact.
                        *e = (e.0.max(last_seen), holding);
                    }
                    Record::ServerEpoch { epoch } => {
                        replay.records += 1;
                        replay.epoch = replay.epoch.max(epoch);
                    }
                    Record::HostBarrier => replay.records += 1,
                    _ => {}
                }
            }
        }
        Ok((replay, max_seq, max_pos))
    }

    /// Journals a lease fact. Durable on return.
    pub fn record_lease(&self, client: u32, last_seen: u64, holding: bool) -> DfsResult<()> {
        let mut tail = self.tail.lock();
        // The mirror folds exactly like replay does (monotone
        // last_seen, newest holding), so a compaction snapshot can
        // never disagree with what a full-ring replay would say.
        let e = tail.live.entry(client).or_insert((0, false));
        *e = (e.0.max(last_seen), holding);
        self.append(&mut tail, &[Record::HostLease { client, last_seen, holding }])
    }

    /// Journals the server epoch. Durable on return.
    pub fn record_epoch(&self, epoch: u64) -> DfsResult<()> {
        let mut tail = self.tail.lock();
        tail.epoch = tail.epoch.max(epoch);
        self.append(&mut tail, &[Record::ServerEpoch { epoch }])
    }

    /// The newest journaled fact for `client`, if any.
    pub fn lease_of(&self, client: u32) -> Option<(u64, bool)> {
        self.tail.lock().live.get(&client).copied()
    }

    fn append(&self, tail: &mut Tail, records: &[Record]) -> DfsResult<()> {
        for rec in records {
            let mut buf = Vec::new();
            rec.encode(&mut buf);
            assert!(buf.len() <= LOG_PAYLOAD, "host record exceeds a block");
            if tail.payload.len() + buf.len() > LOG_PAYLOAD {
                self.advance(tail)?;
            }
            tail.payload.extend_from_slice(&buf);
            self.write_tail(tail)?;
        }
        Ok(())
    }

    /// Seals the tail block and moves to the next ring position,
    /// compacting (snapshot after a barrier) when a lap completes.
    fn advance(&self, tail: &mut Tail) -> DfsResult<()> {
        tail.pos = (tail.pos + 1) % self.region.blocks;
        tail.payload.clear();
        tail.lap_used += 1;
        if tail.lap_used >= self.region.blocks - 1 {
            tail.lap_used = 0;
            self.snapshot(tail)?;
        }
        Ok(())
    }

    /// Writes the full live state behind a barrier, so the blocks of
    /// the previous lap may be overwritten without losing facts.
    fn snapshot(&self, tail: &mut Tail) -> DfsResult<()> {
        let mut records = vec![Record::HostBarrier, Record::ServerEpoch { epoch: tail.epoch }];
        let live: Vec<(u32, (u64, bool))> = tail.live.iter().map(|(c, s)| (*c, *s)).collect();
        for (client, (last_seen, holding)) in live {
            records.push(Record::HostLease { client, last_seen, holding });
        }
        let per_block = LOG_PAYLOAD / (1 + 4 + 8 + 1);
        if records.len().div_ceil(per_block) as u32 >= self.region.blocks - 1 {
            return Err(DfsError::LogFull); // Snapshot would eat the whole ring.
        }
        for rec in records {
            let mut buf = Vec::new();
            rec.encode(&mut buf);
            if tail.payload.len() + buf.len() > LOG_PAYLOAD {
                // Plain advance: a snapshot never re-triggers itself —
                // the size guard above keeps it inside one lap.
                tail.pos = (tail.pos + 1) % self.region.blocks;
                tail.payload.clear();
                tail.lap_used += 1;
            }
            tail.payload.extend_from_slice(&buf);
        }
        self.write_tail(tail)
    }

    fn write_tail(&self, tail: &mut Tail) -> DfsResult<()> {
        let mut payload = tail.payload.clone();
        payload.resize(LOG_PAYLOAD, 0); // Zero fill decodes as skip bytes.
        let block = encode_block(tail.next_seq, &payload);
        tail.next_seq += 1;
        self.disk.write_sync(self.region.first_block + tail.pos, &block)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dfs_disk::DiskConfig;

    fn fresh(blocks: u32) -> (SimDisk, HostLogRegion) {
        let disk = SimDisk::new(DiskConfig::with_blocks(blocks + 8));
        (disk, HostLogRegion { first_block: 2, blocks })
    }

    #[test]
    fn empty_region_replays_empty() {
        let (disk, region) = fresh(8);
        let (_log, replay) = HostLog::open(disk, region).unwrap();
        assert!(replay.hosts.is_empty());
        assert_eq!(replay.epoch, 0);
    }

    #[test]
    fn facts_survive_crash_and_reopen() {
        let (disk, region) = fresh(8);
        {
            let (log, _) = HostLog::open(disk.clone(), region).unwrap();
            log.record_epoch(3).unwrap();
            log.record_lease(7, 1_000, true).unwrap();
            log.record_lease(8, 2_000, false).unwrap();
            log.record_lease(7, 5_000, true).unwrap();
        }
        disk.crash(None);
        disk.power_on();
        let replay = HostLog::replay(&disk, region).unwrap();
        assert_eq!(replay.epoch, 3);
        assert_eq!(replay.hosts[&7], (5_000, true), "newest fact per client wins");
        assert_eq!(replay.hosts[&8], (2_000, false));
    }

    #[test]
    fn ring_wrap_compacts_without_losing_live_state() {
        let (disk, region) = fresh(4);
        let (log, _) = HostLog::open(disk.clone(), region).unwrap();
        log.record_epoch(2).unwrap();
        // Far more appends than the ring holds raw: laps force
        // snapshots, and the oldest client's fact must still survive.
        log.record_lease(1, 10, true).unwrap();
        for i in 0..4_000u64 {
            log.record_lease(2 + (i % 8) as u32, 100 + i, i % 2 == 0).unwrap();
        }
        let replay = HostLog::replay(&disk, region).unwrap();
        assert_eq!(replay.epoch, 2);
        assert_eq!(replay.hosts[&1], (10, true), "client 1 survived every lap via snapshots");
        for c in 2..10u32 {
            assert!(replay.hosts.contains_key(&c));
        }
    }

    #[test]
    fn reopen_continues_the_sequence() {
        let (disk, region) = fresh(8);
        {
            let (log, _) = HostLog::open(disk.clone(), region).unwrap();
            log.record_lease(1, 100, true).unwrap();
        }
        {
            let (log, replay) = HostLog::open(disk.clone(), region).unwrap();
            assert_eq!(replay.hosts[&1], (100, true));
            log.record_lease(1, 200, false).unwrap();
        }
        let replay = HostLog::replay(&disk, region).unwrap();
        assert_eq!(replay.hosts[&1], (200, false), "the second generation won");
    }

    #[test]
    fn torn_tail_block_is_ignored() {
        let (disk, region) = fresh(8);
        let (log, _) = HostLog::open(disk.clone(), region).unwrap();
        log.record_lease(1, 100, true).unwrap();
        log.record_lease(2, 200, true).unwrap();
        // Corrupt the tail block (both facts are in it): replay must
        // treat it as never written rather than half-trust it.
        let mut raw = *disk.read(region.first_block).unwrap();
        raw[100] ^= 0xFF;
        disk.write_sync(region.first_block, &raw).unwrap();
        let replay = HostLog::replay(&disk, region).unwrap();
        assert!(replay.hosts.is_empty(), "a torn block yields nothing, not garbage");
    }
}
