//! The DEcorum wire protocol: every RPC exchanged in the system.
//!
//! One enum covers the protocol exporter's file interface (§3.5), the
//! volume server (§3.6), the volume location database (§3.4), the
//! authentication service (§3.7), the replication server (§3.8), and the
//! server→client revocation callbacks (§5.3). Keeping them in one place
//! gives the network layer exact per-message accounting, which the
//! consistency/network-load experiments (T3, T4) depend on.

use dfs_token::{Token, TokenId, TokenTypes};
use dfs_types::{
    Acl, ByteRange, ClientId, DfsError, FileStatus, Fid, SerializationStamp, ServerId, Timestamp,
    VolumeId,
};
use dfs_vfs::{DirEntry, SetAttrs, VolumeDump, VolumeInfo, WriteExtent};

/// Token types (and byte range) a client asks for alongside an
/// operation, so one RPC both performs the call and returns guarantees.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct TokenRequest {
    /// Types wanted.
    pub types: TokenTypes,
    /// Byte range for data/lock types.
    pub range: ByteRange,
}

impl TokenRequest {
    /// Requests nothing.
    pub fn none() -> Option<TokenRequest> {
        None
    }

    /// Requests `types` over the whole file.
    pub fn whole(types: TokenTypes) -> Option<TokenRequest> {
        Some(TokenRequest { types, range: ByteRange::WHOLE })
    }

    /// Requests `types` over `range`.
    pub fn ranged(types: TokenTypes, range: ByteRange) -> Option<TokenRequest> {
        Some(TokenRequest { types, range })
    }
}

/// A Kerberos-style ticket (§3.7), issued by the authentication server.
///
/// Simulation of the trust handshake only — the "session key" is a
/// random identifier the services validate against the registry, not
/// cryptographic material.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Ticket {
    /// Authenticated user.
    pub user: u32,
    /// Opaque session identifier standing in for the session key.
    pub session: u64,
    /// Expiry time.
    pub expires: Timestamp,
}

/// Every request in the DEcorum protocol family.
#[derive(Clone, PartialEq, Debug)]
pub enum Request {
    // ---- Authentication service (§3.7) ----
    /// Obtain a ticket; `secret` stands in for the password proof.
    Login { user: u32, secret: u64 },

    // ---- Volume location database (§3.4) ----
    /// Which server hosts this volume?
    VlLookup { volume: VolumeId },
    /// Register/move a volume's location.
    VlRegister { volume: VolumeId, server: ServerId },
    /// Remove a volume's location entry.
    VlUnregister { volume: VolumeId },
    /// Enumerate all known volumes.
    VlList,
    /// Register `server` as a §3.8 read-only replica of `volume` —
    /// the location clients fail over to when the primary is down.
    VlAddReplica { volume: VolumeId, server: ServerId },
    /// The read-only replicas registered for `volume`.
    VlReplicas { volume: VolumeId },

    // ---- Protocol exporter: file access (§3.5, §5) ----
    /// Fid of a volume's root directory.
    GetRoot { volume: VolumeId },
    /// Fetch status, optionally with tokens.
    FetchStatus { fid: Fid, want: Option<TokenRequest> },
    /// Fetch data (and status), optionally with tokens.
    FetchData { fid: Fid, offset: u64, len: u32, want: Option<TokenRequest> },
    /// Store data back — one or several discontiguous extents in one
    /// RPC (used both by normal writes and by the special store issued
    /// from token-revocation code, §6.3). The server applies the whole
    /// batch in a single journal transaction ending in one group commit,
    /// so a 64 KB store-back costs one log force instead of sixteen.
    StoreDataVec { fid: Fid, extents: Vec<WriteExtent> },
    /// Store status changes back.
    StoreStatus { fid: Fid, attrs: SetAttrs },
    /// Force everything previously acknowledged for this file's volume
    /// to stable storage (POSIX fsync with no data in flight: a freshly
    /// created file must survive a crash even though there was no store
    /// whose group commit would have forced the log).
    Fsync { fid: Fid },
    /// Obtain tokens without other work.
    GetToken { fid: Fid, want: TokenRequest },
    /// Return a token after revocation or voluntarily (§5.3).
    ReturnToken { fid: Fid, token: TokenId },
    /// Directory lookup, optionally granting tokens on the result.
    Lookup { dir: Fid, name: String, want: Option<TokenRequest> },
    /// Create a regular file.
    Create { dir: Fid, name: String, mode: u16 },
    /// Create a directory.
    Mkdir { dir: Fid, name: String, mode: u16 },
    /// Create a symlink.
    Symlink { dir: Fid, name: String, target: String },
    /// Add a hard link.
    Link { dir: Fid, name: String, target: Fid },
    /// Remove a file entry.
    Remove { dir: Fid, name: String },
    /// Remove an empty directory.
    Rmdir { dir: Fid, name: String },
    /// Rename within the volume.
    Rename { src_dir: Fid, src_name: String, dst_dir: Fid, dst_name: String },
    /// List a directory.
    Readdir { dir: Fid },
    /// Read a symlink target.
    Readlink { fid: Fid },
    /// Read an ACL (§2.3).
    GetAcl { fid: Fid },
    /// Replace an ACL.
    SetAcl { fid: Fid, acl: Acl },
    /// Set or clear a byte-range file lock at the server (used when the
    /// client holds no lock token).
    SetLock { fid: Fid, range: ByteRange, write: bool },
    /// Release a server-side file lock.
    ReleaseLock { fid: Fid, range: ByteRange },

    // ---- Volume server (§3.6) ----
    /// Create an empty volume on this server.
    VolCreate { volume: VolumeId, name: String },
    /// Delete a volume.
    VolDelete { volume: VolumeId },
    /// Clone a volume into a read-only snapshot (§2.1).
    VolClone { src: VolumeId, clone: VolumeId, name: String },
    /// Dump a volume (full or incremental).
    VolDump { volume: VolumeId, since_version: u64 },
    /// Restore a dumped volume.
    VolRestore { dump: VolumeDump, read_only: bool },
    /// Info for one volume.
    VolInfo { volume: VolumeId },
    /// All volumes on this server.
    VolList,
    /// Move a volume to another server (driven by the source's volume
    /// server; updates the VLDB when complete).
    VolMove { volume: VolumeId, target: ServerId },
    /// Install live client grants at a volume-move target (§2.1 live
    /// move). Token ids are preserved verbatim so the clients' cached
    /// tokens stay valid across the move without any revocation;
    /// `stamps` carries each file's serialization floor so the target's
    /// stamps continue the source's order and client status merges stay
    /// monotone (§6.2).
    VolInstallTokens {
        volume: VolumeId,
        grants: Vec<(ClientId, Token)>,
        stamps: Vec<(Fid, SerializationStamp)>,
    },
    /// Abort a move after the bulk ship: the target discards the staged
    /// copy of `volume` so a failed move cannot leave a stale fork
    /// behind. A no-op if the volume was never staged (or was already
    /// promoted by `VolInstallTokens`).
    VolDiscard { volume: VolumeId },

    // ---- Replication server (§3.8) ----
    /// Start lazily replicating `volume` from `source` with the given
    /// maximum staleness.
    ReplAdd { volume: VolumeId, source: ServerId, max_staleness_us: u64 },
    /// Run one replica-refresh pass now (driven by the simulation
    /// clock; a daemon thread in production).
    ReplTick,

    // ---- Crash recovery (epoch/grace protocol) ----
    /// Re-register tokens the caller held before the server restarted.
    /// Valid only while the server's post-restart grace window is open;
    /// `epoch` is the restarted server's epoch as observed by the
    /// client (a stale epoch is rejected). The server re-grants each
    /// token that does not conflict with tokens already reestablished
    /// by other hosts and returns the fresh grants.
    ReestablishTokens { epoch: u64, tokens: Vec<Token> },
    /// Ask a server for its current epoch and grace status.
    GetEpoch,

    // ---- Server → client callbacks (§5.3) ----
    /// Revoke one or several tokens in one callback: every same-host
    /// revocation produced by one conflict check, batched the way
    /// `StoreDataVec` batches store-backs. Each item carries the token,
    /// the type bits to give up (the client must first store dirty
    /// data/status covered by them), and the revocation's serialization
    /// stamp; the peer answers each item exactly once, in order.
    RevokeVec { items: Vec<(Token, TokenTypes, SerializationStamp)> },
    /// Liveness probe.
    Ping,
}

/// Every response in the protocol family.
#[derive(Clone, PartialEq, Debug)]
pub enum Response {
    /// Success with no payload.
    Ok,
    /// Failure.
    Err(DfsError),
    /// A ticket from the authentication server.
    TicketGranted(Ticket),
    /// A volume's location plus the VLDB entry's generation number,
    /// bumped every time the volume changes servers. Clients cache
    /// `(server, generation)` and only accept strictly newer entries,
    /// so a stale `WrongServer` hint can never roll a cache back.
    Location { server: ServerId, generation: u64 },
    /// All volume locations with their generations.
    Locations(Vec<(VolumeId, ServerId, u64)>),
    /// The read-only replica servers registered for a volume (answer to
    /// `VlReplicas`; empty when the volume has no replicas).
    Replicas(Vec<ServerId>),
    /// A fid (root lookups).
    FidIs(Fid),
    /// Status plus any granted tokens and the serialization stamp of
    /// this reference (§6.2: "time stamps must appear in return
    /// parameters from calls that read or write status information").
    /// `epoch` is the serving instance's restart epoch — clients compare
    /// it against the last epoch they saw to detect a crash-restart.
    /// `stale_us` is 0 when the volume's primary served this response;
    /// a §3.8 read-only replica stamps its bounded staleness (µs since
    /// its last refresh, always ≥ 1) so callers can account honestly
    /// for how old the answer may be.
    Status {
        status: FileStatus,
        tokens: Vec<Token>,
        stamp: SerializationStamp,
        epoch: u64,
        stale_us: u64,
    },
    /// Data plus status, tokens, stamp, server epoch, and the same
    /// staleness bound as `Status`.
    Data {
        bytes: Vec<u8>,
        status: FileStatus,
        tokens: Vec<Token>,
        stamp: SerializationStamp,
        epoch: u64,
        stale_us: u64,
    },
    /// Directory listing.
    Entries(Vec<DirEntry>),
    /// Symlink target.
    Target(String),
    /// An ACL.
    AclIs(Acl),
    /// A volume dump.
    Dump(VolumeDump),
    /// Volume info.
    VolumeIs(VolumeInfo),
    /// Volume list.
    Volumes(Vec<VolumeInfo>),
    /// Per-token answers to a `RevokeVec`, in request order: true =
    /// returned, false = kept. A vector shorter than the request leaves
    /// the tail unacknowledged — the server counts those tokens as
    /// returned and its retry round re-revokes any that survive.
    RevokeVecAck { returned: Vec<bool> },
    /// Tokens actually re-granted by a `ReestablishTokens` call (fresh
    /// token ids; same fid/types/range as the claims that survived the
    /// conflict check).
    Reestablished { epoch: u64, tokens: Vec<Token> },
    /// Answer to `GetEpoch`.
    EpochIs { epoch: u64, in_grace: bool },
    /// The volume named by the request is not hosted here. `hint` is
    /// where this server believes the volume lives now (its route table
    /// after a move, else a fresh VLDB lookup), and `generation` is the
    /// VLDB generation backing the hint. The caller installs the hint in
    /// its location cache (if newer) and retries there (§2.1).
    WrongServer { hint: ServerId, generation: u64 },
}

impl Request {
    /// Short label for per-message statistics.
    pub fn label(&self) -> &'static str {
        match self {
            Request::Login { .. } => "Login",
            Request::VlLookup { .. } => "VlLookup",
            Request::VlRegister { .. } => "VlRegister",
            Request::VlUnregister { .. } => "VlUnregister",
            Request::VlList => "VlList",
            Request::VlAddReplica { .. } => "VlAddReplica",
            Request::VlReplicas { .. } => "VlReplicas",
            Request::GetRoot { .. } => "GetRoot",
            Request::FetchStatus { .. } => "FetchStatus",
            Request::FetchData { .. } => "FetchData",
            Request::StoreDataVec { .. } => "StoreDataVec",
            Request::StoreStatus { .. } => "StoreStatus",
            Request::Fsync { .. } => "Fsync",
            Request::GetToken { .. } => "GetToken",
            Request::ReturnToken { .. } => "ReturnToken",
            Request::Lookup { .. } => "Lookup",
            Request::Create { .. } => "Create",
            Request::Mkdir { .. } => "Mkdir",
            Request::Symlink { .. } => "Symlink",
            Request::Link { .. } => "Link",
            Request::Remove { .. } => "Remove",
            Request::Rmdir { .. } => "Rmdir",
            Request::Rename { .. } => "Rename",
            Request::Readdir { .. } => "Readdir",
            Request::Readlink { .. } => "Readlink",
            Request::GetAcl { .. } => "GetAcl",
            Request::SetAcl { .. } => "SetAcl",
            Request::SetLock { .. } => "SetLock",
            Request::ReleaseLock { .. } => "ReleaseLock",
            Request::VolCreate { .. } => "VolCreate",
            Request::VolDelete { .. } => "VolDelete",
            Request::VolClone { .. } => "VolClone",
            Request::VolDump { .. } => "VolDump",
            Request::VolRestore { .. } => "VolRestore",
            Request::VolInfo { .. } => "VolInfo",
            Request::VolList => "VolList",
            Request::VolMove { .. } => "VolMove",
            Request::VolInstallTokens { .. } => "VolInstallTokens",
            Request::VolDiscard { .. } => "VolDiscard",
            Request::ReplAdd { .. } => "ReplAdd",
            Request::ReplTick => "ReplTick",
            Request::ReestablishTokens { .. } => "ReestablishTokens",
            Request::GetEpoch => "GetEpoch",
            Request::RevokeVec { .. } => "RevokeVec",
            Request::Ping => "Ping",
        }
    }

    /// Approximate bytes on the wire (headers plus payload).
    pub fn wire_size(&self) -> u64 {
        const HDR: u64 = 64; // RPC header, fid, auth verifier.
        HDR + match self {
            // Each extent carries an (offset, length) descriptor pair
            // ahead of its payload.
            Request::StoreDataVec { extents, .. } => {
                extents.iter().map(|e| 16 + e.data.len() as u64).sum::<u64>()
            }
            Request::Lookup { name, .. }
            | Request::Create { name, .. }
            | Request::Mkdir { name, .. }
            | Request::Remove { name, .. }
            | Request::Rmdir { name, .. } => name.len() as u64,
            Request::Symlink { name, target, .. } => (name.len() + target.len()) as u64,
            Request::Rename { src_name, dst_name, .. } => {
                (src_name.len() + dst_name.len()) as u64
            }
            Request::SetAcl { acl, .. } => 7 * acl.len() as u64,
            Request::VolRestore { dump, .. } => dump.payload_bytes(),
            // Each claimed token: id, fid, types, range.
            Request::ReestablishTokens { tokens, .. } => 40 * tokens.len() as u64,
            // Each shipped grant: holder + token (44); each stamp
            // floor: fid + stamp (24).
            Request::VolInstallTokens { grants, stamps, .. } => {
                44 * grants.len() as u64 + 24 * stamps.len() as u64
            }
            // Each batched revocation: token (40) + types (4) + stamp (8).
            Request::RevokeVec { items } => 52 * items.len() as u64,
            _ => 0,
        }
    }
}

impl Response {
    /// Approximate bytes on the wire.
    pub fn wire_size(&self) -> u64 {
        const HDR: u64 = 48;
        HDR + match self {
            Response::Data { bytes, .. } => bytes.len() as u64 + 104,
            Response::Status { .. } => 104,
            Response::Entries(es) => {
                es.iter().map(|e| e.name.len() as u64 + 20).sum::<u64>()
            }
            Response::Dump(d) => d.payload_bytes(),
            Response::AclIs(acl) => 7 * acl.len() as u64,
            Response::Volumes(vs) => 64 * vs.len() as u64,
            Response::Target(t) => t.len() as u64,
            // volume id + server id + generation per entry.
            Response::Locations(ls) => 20 * ls.len() as u64,
            // One server id per replica.
            Response::Replicas(rs) => 8 * rs.len() as u64,
            // hint server id + generation.
            Response::WrongServer { .. } => 12,
            Response::Reestablished { tokens, .. } => 40 * tokens.len() as u64,
            // One answer byte per batched revocation.
            Response::RevokeVecAck { returned } => returned.len() as u64,
            _ => 0,
        }
    }

    /// Unwraps an error response into a `DfsResult`.
    pub fn into_result(self) -> Result<Response, DfsError> {
        match self {
            Response::Err(e) => Err(e),
            other => Ok(other),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_size_counts_payload() {
        let small = Request::Ping;
        let big = Request::StoreDataVec {
            fid: Fid::default(),
            extents: vec![WriteExtent { offset: 0, data: vec![0; 10_000] }],
        };
        assert!(big.wire_size() > small.wire_size() + 9_000);
    }

    #[test]
    fn revoke_vec_wire_size_counts_every_item() {
        let item = |vnode: u32| {
            (
                Token {
                    id: TokenId(vnode as u64),
                    fid: Fid::default(),
                    types: TokenTypes::DATA_WRITE,
                    range: ByteRange::WHOLE,
                },
                TokenTypes::DATA_WRITE,
                SerializationStamp(1),
            )
        };
        let req = Request::RevokeVec { items: vec![item(1), item(2), item(3)] };
        // Header (64) + 52 per item (token 40 + types 4 + stamp 8).
        assert_eq!(req.wire_size(), 64 + 3 * 52);
        assert_eq!(req.label(), "RevokeVec");
        // A batch of N costs less than N one-item batches, each of
        // which pays the 64-byte header again.
        let single = Request::RevokeVec { items: vec![item(1)] };
        assert_eq!(single.wire_size(), 64 + 52);
        assert!(req.wire_size() < 3 * single.wire_size());
        // Acks answer one byte per token over the response header.
        let ack = Response::RevokeVecAck { returned: vec![true, false, true] };
        assert_eq!(ack.wire_size(), 48 + 3);
    }

    #[test]
    fn store_data_vec_wire_size_counts_every_extent() {
        let extents = vec![
            WriteExtent { offset: 0, data: vec![0; 4096] },
            WriteExtent { offset: 65536, data: vec![0; 100] },
        ];
        let req = Request::StoreDataVec { fid: Fid::default(), extents };
        // Header (64) + 2 descriptors (16 each) + payloads.
        assert_eq!(req.wire_size(), 64 + 16 + 4096 + 16 + 100);
        assert_eq!(req.label(), "StoreDataVec");
        // A one-extent store pays its descriptor too.
        let one = Request::StoreDataVec {
            fid: Fid::default(),
            extents: vec![WriteExtent { offset: 0, data: vec![0; 4096] }],
        };
        assert_eq!(one.wire_size(), 64 + 16 + 4096);
    }

    #[test]
    fn response_into_result() {
        assert!(Response::Ok.into_result().is_ok());
        assert_eq!(
            Response::Err(DfsError::NotFound).into_result().unwrap_err(),
            DfsError::NotFound
        );
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(Request::Ping.label(), "Ping");
        assert_eq!(Request::VlList.label(), "VlList");
        assert_eq!(
            Request::FetchStatus { fid: Fid::default(), want: TokenRequest::none() }.label(),
            "FetchStatus"
        );
    }

    #[test]
    fn token_request_builders() {
        let w = TokenRequest::whole(TokenTypes::DATA_READ).unwrap();
        assert_eq!(w.range, ByteRange::WHOLE);
        let r = TokenRequest::ranged(TokenTypes::DATA_WRITE, ByteRange::new(0, 10)).unwrap();
        assert_eq!(r.range.len(), 10);
        assert!(TokenRequest::none().is_none());
    }
}
