//! On-disk log format: records and log-block framing.
//!
//! The log is a byte *stream* of records, packed into fixed-size log
//! blocks. Each block carries a header with a monotone sequence number
//! and a checksum; recovery reads blocks in sequence order, validates
//! checksums (so torn writes terminate the scan), and re-assembles the
//! stream. Records may span block boundaries.
//!
//! Record vocabulary (§2.2 of the paper): an *update* carries the old and
//! new values for all data bytes in the change plus the identity of its
//! transaction; a *commit* notes when a transaction (or an equivalence
//! class of transactions that shared buffers) commits; *pad* records fill
//! the tail of a block at group-commit time so every flushed block is
//! complete.

use dfs_disk::BLOCK_SIZE;

/// Magic number identifying a DEcorum log block.
pub const LOG_BLOCK_MAGIC: u32 = 0xDF5_106;

/// Bytes of record stream carried by each log block.
pub const LOG_PAYLOAD: usize = BLOCK_SIZE - LOG_HEADER;

/// Size of the per-block header: magic, sequence, checksum.
pub const LOG_HEADER: usize = 4 + 8 + 4;

/// A log sequence number: byte offset within the record stream.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug, Default, Hash)]
pub struct Lsn(pub u64);

impl Lsn {
    /// Returns the stream block index containing this LSN.
    pub fn block_index(self) -> u64 {
        self.0 / LOG_PAYLOAD as u64
    }

    /// Returns the byte offset of this LSN within its stream block.
    pub fn block_offset(self) -> usize {
        (self.0 % LOG_PAYLOAD as u64) as usize
    }
}

/// A parsed log record.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Record {
    /// A metadata change: old and new values of `len` bytes at
    /// (`block`, `offset`), made by transaction `txid`.
    Update { txid: u64, block: u32, offset: u16, old: Vec<u8>, new: Vec<u8> },
    /// Commit of an equivalence class of transactions.
    Commit { txids: Vec<u64> },
    /// Padding to the end of a block; `len` is the total record size.
    Pad { len: u32 },
    /// A checkpoint marker recording the tail at the time it was written.
    Checkpoint { tail: Lsn },
    /// Host-journal entry (§3.5 HA): a client's lease state as the
    /// server last knew it — `last_seen` in simulated microseconds and
    /// whether the client held any token at that time. Replay folds
    /// these by sequence so the newest entry per client wins.
    HostLease { client: u32, last_seen: u64, holding: bool },
    /// Host-journal compaction barrier: entries logged before it are
    /// superseded by the full snapshot written just after it.
    HostBarrier,
    /// Host-journal entry stamping the server's restart epoch, so the
    /// epoch survives whole-machine (process + memory) loss.
    ServerEpoch { epoch: u64 },
}

const TAG_BYTE_SKIP: u8 = 0;
const TAG_UPDATE: u8 = 1;
const TAG_COMMIT: u8 = 2;
const TAG_PAD: u8 = 3;
const TAG_CHECKPOINT: u8 = 4;
const TAG_HOST_LEASE: u8 = 5;
const TAG_HOST_BARRIER: u8 = 6;
const TAG_SERVER_EPOCH: u8 = 7;

impl Record {
    /// Serializes the record, appending to `out`.
    pub fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Record::Update { txid, block, offset, old, new } => {
                encode_update(out, *txid, *block, *offset, old, new)
            }
            Record::Commit { txids } => encode_commit(out, txids),
            Record::Pad { len } => {
                if *len < 5 {
                    // Too small for a pad header; emit skip bytes.
                    for _ in 0..*len {
                        out.push(TAG_BYTE_SKIP);
                    }
                } else {
                    out.push(TAG_PAD);
                    out.extend_from_slice(&len.to_le_bytes());
                    out.resize(out.len() + (*len as usize - 5), 0);
                }
            }
            Record::Checkpoint { tail } => {
                out.push(TAG_CHECKPOINT);
                out.extend_from_slice(&tail.0.to_le_bytes());
            }
            Record::HostLease { client, last_seen, holding } => {
                out.push(TAG_HOST_LEASE);
                out.extend_from_slice(&client.to_le_bytes());
                out.extend_from_slice(&last_seen.to_le_bytes());
                out.push(u8::from(*holding));
            }
            Record::HostBarrier => {
                out.push(TAG_HOST_BARRIER);
            }
            Record::ServerEpoch { epoch } => {
                out.push(TAG_SERVER_EPOCH);
                out.extend_from_slice(&epoch.to_le_bytes());
            }
        }
    }

    /// Returns the encoded size of the record in bytes.
    pub fn encoded_len(&self) -> usize {
        match self {
            Record::Update { old, .. } => update_len(old.len()),
            Record::Commit { txids } => commit_len(txids.len()),
            Record::Pad { len } => *len as usize,
            Record::Checkpoint { .. } => 1 + 8,
            Record::HostLease { .. } => 1 + 4 + 8 + 1,
            Record::HostBarrier => 1,
            Record::ServerEpoch { .. } => 1 + 8,
        }
    }

    /// Parses one record from `buf` starting at `pos`.
    ///
    /// Returns the record and the position just past it, or `None` if the
    /// buffer ends mid-record (the stream's ragged end after a crash).
    pub fn decode(buf: &[u8], pos: usize) -> Option<(Record, usize)> {
        let tag = *buf.get(pos)?;
        let mut p = pos + 1;
        let take = |p: &mut usize, n: usize| -> Option<&[u8]> {
            let s = buf.get(*p..*p + n)?;
            *p += n;
            Some(s)
        };
        match tag {
            TAG_BYTE_SKIP => Some((Record::Pad { len: 1 }, p)),
            TAG_UPDATE => {
                let txid = u64::from_le_bytes(take(&mut p, 8)?.try_into().unwrap());
                let block = u32::from_le_bytes(take(&mut p, 4)?.try_into().unwrap());
                let offset = u16::from_le_bytes(take(&mut p, 2)?.try_into().unwrap());
                let len = u16::from_le_bytes(take(&mut p, 2)?.try_into().unwrap()) as usize;
                let old = take(&mut p, len)?.to_vec();
                let new = take(&mut p, len)?.to_vec();
                Some((Record::Update { txid, block, offset, old, new }, p))
            }
            TAG_COMMIT => {
                let n = u16::from_le_bytes(take(&mut p, 2)?.try_into().unwrap()) as usize;
                let mut txids = Vec::with_capacity(n);
                for _ in 0..n {
                    txids.push(u64::from_le_bytes(take(&mut p, 8)?.try_into().unwrap()));
                }
                Some((Record::Commit { txids }, p))
            }
            TAG_PAD => {
                let len = u32::from_le_bytes(take(&mut p, 4)?.try_into().unwrap()) as usize;
                let body = len.checked_sub(5)?;
                take(&mut p, body)?;
                Some((Record::Pad { len: len as u32 }, p))
            }
            TAG_CHECKPOINT => {
                let tail = u64::from_le_bytes(take(&mut p, 8)?.try_into().unwrap());
                Some((Record::Checkpoint { tail: Lsn(tail) }, p))
            }
            TAG_HOST_LEASE => {
                let client = u32::from_le_bytes(take(&mut p, 4)?.try_into().unwrap());
                let last_seen = u64::from_le_bytes(take(&mut p, 8)?.try_into().unwrap());
                let holding = *take(&mut p, 1)?.first()? != 0;
                Some((Record::HostLease { client, last_seen, holding }, p))
            }
            TAG_HOST_BARRIER => Some((Record::HostBarrier, p)),
            TAG_SERVER_EPOCH => {
                let epoch = u64::from_le_bytes(take(&mut p, 8)?.try_into().unwrap());
                Some((Record::ServerEpoch { epoch }, p))
            }
            _ => None,
        }
    }
}

/// Encoded size of an update record changing `n` bytes.
pub(crate) fn update_len(n: usize) -> usize {
    1 + 8 + 4 + 2 + 2 + 2 * n
}

/// Encoded size of a commit record for a class of `members`.
pub(crate) fn commit_len(members: usize) -> usize {
    1 + 2 + 8 * members
}

/// Appends an update record built from borrowed bytes, so the journal
/// logs a change without first copying it into a [`Record`].
pub(crate) fn encode_update(
    out: &mut Vec<u8>,
    txid: u64,
    block: u32,
    offset: u16,
    old: &[u8],
    new: &[u8],
) {
    assert_eq!(old.len(), new.len(), "update old/new length mismatch");
    let len = u16::try_from(old.len()).expect("update too large");
    out.push(TAG_UPDATE);
    out.extend_from_slice(&txid.to_le_bytes());
    out.extend_from_slice(&block.to_le_bytes());
    out.extend_from_slice(&offset.to_le_bytes());
    out.extend_from_slice(&len.to_le_bytes());
    out.extend_from_slice(old);
    out.extend_from_slice(new);
}

/// Appends the commit record of the class `txids`.
pub(crate) fn encode_commit(out: &mut Vec<u8>, txids: &[u64]) {
    let n = u16::try_from(txids.len()).expect("commit class too large");
    out.push(TAG_COMMIT);
    out.extend_from_slice(&n.to_le_bytes());
    for t in txids {
        out.extend_from_slice(&t.to_le_bytes());
    }
}

/// Odd multipliers, one per checksum lane.
const LANE_MUL: [u64; 4] =
    [0x9E37_79B9_7F4A_7C15, 0xC2B2_AE3D_27D4_EB4F, 0x1656_67B1_9E37_79F9, 0xFF51_AFD7_ED55_8CCD];

/// One lane step: xor the word in, multiply, rotate. Each part is a
/// bijection of the lane for a fixed word, so two inputs that differ
/// in one word leave the lane different to the end.
fn lane_step(h: u64, word: u64, mul: u64) -> u64 {
    (h ^ word).wrapping_mul(mul).rotate_left(29)
}

/// The murmur3 finalizer: a bijection that spreads every bit of `h`
/// over all 64.
fn fmix(mut h: u64) -> u64 {
    h ^= h >> 33;
    h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    h ^= h >> 33;
    h = h.wrapping_mul(0xC4CE_B9FE_1A85_EC53);
    h ^ (h >> 33)
}

/// Computes the checksum of a log block's payload under its sequence
/// number `seq` (the superblock passes its tail and fields the same way).
///
/// Word at a time: four independent multiply-xor lanes take 8-byte
/// words in turn, so the multiplies overlap instead of forming one
/// chain per byte, and the tail bytes and the length are folded into a
/// last word. Changing any one word changes its lane for certain, and
/// each lane is finalized and chained into the sum bijectively, so only
/// the fold to 32 bits can hide it: a torn write (the disk tears at the
/// half-block boundary) survives with probability about 2^-32.
pub fn checksum(seq: u64, payload: &[u8]) -> u32 {
    // Each lane starts from the sequence number mixed with its own constant.
    let mut lanes = LANE_MUL.map(|m| lane_step(seq, m, m));
    let mut groups = payload.chunks_exact(32);
    for group in &mut groups {
        for (i, word) in group.chunks_exact(8).enumerate() {
            let w = u64::from_le_bytes(word.try_into().unwrap());
            lanes[i] = lane_step(lanes[i], w, LANE_MUL[i]);
        }
    }
    let rest = groups.remainder();
    let mut words = rest.chunks_exact(8);
    for (i, word) in (&mut words).enumerate() {
        let w = u64::from_le_bytes(word.try_into().unwrap());
        lanes[i] = lane_step(lanes[i], w, LANE_MUL[i]);
    }
    let mut tail = [0u8; 8];
    tail[..words.remainder().len()].copy_from_slice(words.remainder());
    let last = u64::from_le_bytes(tail) ^ (payload.len() as u64).rotate_left(32);
    lanes[3] = lane_step(lanes[3], last, LANE_MUL[3]);
    let h = lanes.iter().fold(seq, |h, &l| lane_step(h, fmix(l), LANE_MUL[0]));
    let h = fmix(h);
    (h ^ (h >> 32)) as u32
}

/// Encodes a full log block: header plus exactly [`LOG_PAYLOAD`] bytes.
pub fn encode_block(seq: u64, payload: &[u8]) -> [u8; BLOCK_SIZE] {
    assert_eq!(payload.len(), LOG_PAYLOAD, "log blocks are always full");
    let mut out = [0u8; BLOCK_SIZE];
    out[0..4].copy_from_slice(&LOG_BLOCK_MAGIC.to_le_bytes());
    out[4..12].copy_from_slice(&seq.to_le_bytes());
    out[12..16].copy_from_slice(&checksum(seq, payload).to_le_bytes());
    out[16..].copy_from_slice(payload);
    out
}

/// Decodes a log block, returning its sequence number and payload.
///
/// Returns `None` for blocks that are not valid log blocks (wrong magic
/// or failed checksum — e.g. never-written space or a torn write).
pub fn decode_block(data: &[u8; BLOCK_SIZE]) -> Option<(u64, &[u8])> {
    let magic = u32::from_le_bytes(data[0..4].try_into().unwrap());
    if magic != LOG_BLOCK_MAGIC {
        return None;
    }
    let seq = u64::from_le_bytes(data[4..12].try_into().unwrap());
    let sum = u32::from_le_bytes(data[12..16].try_into().unwrap());
    let payload = &data[16..];
    if checksum(seq, payload) != sum {
        return None;
    }
    Some((seq, payload))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn update_round_trip() {
        let r = Record::Update {
            txid: 42,
            block: 7,
            offset: 100,
            old: vec![1, 2, 3],
            new: vec![4, 5, 6],
        };
        let mut buf = Vec::new();
        r.encode(&mut buf);
        assert_eq!(buf.len(), r.encoded_len());
        let (parsed, end) = Record::decode(&buf, 0).unwrap();
        assert_eq!(parsed, r);
        assert_eq!(end, buf.len());
    }

    #[test]
    fn commit_round_trip() {
        let r = Record::Commit { txids: vec![1, 2, 3, 99] };
        let mut buf = Vec::new();
        r.encode(&mut buf);
        let (parsed, _) = Record::decode(&buf, 0).unwrap();
        assert_eq!(parsed, r);
    }

    #[test]
    fn checkpoint_round_trip() {
        let r = Record::Checkpoint { tail: Lsn(123456) };
        let mut buf = Vec::new();
        r.encode(&mut buf);
        let (parsed, _) = Record::decode(&buf, 0).unwrap();
        assert_eq!(parsed, r);
    }

    #[test]
    fn pad_round_trip_and_tiny_pads() {
        for len in [1u32, 2, 4, 5, 6, 100] {
            let r = Record::Pad { len };
            let mut buf = Vec::new();
            r.encode(&mut buf);
            assert_eq!(buf.len(), len as usize, "pad of {len} wrong size");
            // Tiny pads decode as a run of 1-byte skips.
            let mut pos = 0;
            while pos < buf.len() {
                let (_, next) = Record::decode(&buf, pos).unwrap();
                assert!(next > pos);
                pos = next;
            }
        }
    }

    #[test]
    fn truncated_record_decodes_as_none() {
        let r = Record::Update { txid: 1, block: 2, offset: 3, old: vec![9; 40], new: vec![8; 40] };
        let mut buf = Vec::new();
        r.encode(&mut buf);
        for cut in [1, 5, 10, buf.len() - 1] {
            assert!(Record::decode(&buf[..cut], 0).is_none(), "cut at {cut} must fail");
        }
    }

    #[test]
    fn block_round_trip_and_torn_detection() {
        let payload = vec![0xABu8; LOG_PAYLOAD];
        let mut block = encode_block(9, &payload);
        let (seq, p) = decode_block(&block).unwrap();
        assert_eq!(seq, 9);
        assert_eq!(p, &payload[..]);
        // Corrupt one payload byte: checksum must fail.
        block[BLOCK_SIZE - 1] ^= 0xFF;
        assert!(decode_block(&block).is_none());
        // A zeroed (never-written) block is not a log block.
        assert!(decode_block(&[0u8; BLOCK_SIZE]).is_none());
    }

    /// Xors `flip` into the little-endian word at `at`.
    fn flip_word(block: &mut [u8; BLOCK_SIZE], at: usize, flip: u64) {
        let w = u64::from_le_bytes(block[at..at + 8].try_into().unwrap()) ^ flip;
        block[at..at + 8].copy_from_slice(&w.to_le_bytes());
    }

    #[test]
    fn flipping_any_payload_word_or_the_sequence_fails_the_checksum() {
        let payload: Vec<u8> = (0..LOG_PAYLOAD).map(|i| (i * 7 + 3) as u8).collect();
        let block = encode_block(41, &payload);
        assert!(decode_block(&block).is_some());
        let flips = [1u64, 1 << 31, 1 << 63, u64::MAX, 0x0101_0101_0101_0101];
        for word in 0..LOG_PAYLOAD / 8 {
            for flip in flips {
                let mut bad = block;
                flip_word(&mut bad, LOG_HEADER + word * 8, flip);
                assert!(decode_block(&bad).is_none(), "payload word {word} ^ {flip:#x}");
            }
        }
        for flip in flips {
            let mut bad = block;
            flip_word(&mut bad, 4, flip);
            assert!(decode_block(&bad).is_none(), "sequence ^ {flip:#x}");
        }
    }

    #[test]
    fn every_torn_half_block_fails_the_checksum() {
        // The disk tears at the half-block boundary: the new block's
        // first half over the old block's second half. Old blocks are
        // earlier log blocks (another sequence number, other records)
        // or never-written zeros.
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        let mut next = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for seq in 0..200u64 {
            let new: Vec<u8> = (0..LOG_PAYLOAD).map(|_| next() as u8).collect();
            let other: Vec<u8> = (0..LOG_PAYLOAD).map(|_| next() as u8).collect();
            // The same block rewritten with one byte of its second half
            // changed, as a group commit re-writes a block it extended.
            let mut rewritten = new.clone();
            let at = BLOCK_SIZE / 2 + next() as usize % (BLOCK_SIZE / 2);
            rewritten[at - LOG_HEADER] ^= 1 + (next() % 255) as u8;
            let olds =
                [encode_block(seq + 1000, &other), encode_block(seq, &rewritten), [0; BLOCK_SIZE]];
            let fresh = encode_block(seq, &new);
            for old in olds {
                let mut torn = fresh;
                torn[BLOCK_SIZE / 2..].copy_from_slice(&old[BLOCK_SIZE / 2..]);
                if torn[..] != fresh[..] {
                    assert!(decode_block(&torn).is_none(), "torn block {seq} accepted");
                }
            }
        }
    }

    #[test]
    fn lsn_block_mapping() {
        let lsn = Lsn(LOG_PAYLOAD as u64 * 3 + 17);
        assert_eq!(lsn.block_index(), 3);
        assert_eq!(lsn.block_offset(), 17);
    }

    #[test]
    fn multiple_records_parse_sequentially() {
        let mut buf = Vec::new();
        let records = vec![
            Record::Update { txid: 1, block: 1, offset: 0, old: vec![0], new: vec![1] },
            Record::Commit { txids: vec![1] },
            Record::Checkpoint { tail: Lsn(0) },
        ];
        for r in &records {
            r.encode(&mut buf);
        }
        let mut pos = 0;
        let mut parsed = Vec::new();
        while pos < buf.len() {
            let (r, next) = Record::decode(&buf, pos).unwrap();
            parsed.push(r);
            pos = next;
        }
        assert_eq!(parsed, records);
    }
}
