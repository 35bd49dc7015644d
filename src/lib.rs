//! # decorum-dfs
//!
//! A from-scratch Rust reproduction of the **DEcorum file system**
//! (Kazar et al., USENIX Summer 1990) — the architecture that shipped as
//! DCE/DFS, with the Episode journaling file system underneath.
//!
//! The crate re-exports every subsystem:
//!
//! * [`types`] — identifiers, errors, rights/ACLs, byte ranges, the
//!   simulated clock;
//! * [`disk`] — the simulated block device (cost model, crash
//!   injection);
//! * [`journal`] — Episode's buffer package + write-ahead log (§2.2);
//! * [`vfs`] — the VFS / VFS+ interface definitions (§1, §3.3);
//! * [`episode`] — the Episode physical file system: anodes, volumes,
//!   aggregates, clones, ACLs, fast restart (§2);
//! * [`ffs`] — the Berkeley-FFS-style baseline (synchronous metadata,
//!   full-scan fsck);
//! * [`rpc`] — the NCS-style RPC substrate with two-way calls and
//!   Kerberos-style authentication (§3.7);
//! * [`token`] — the typed-token manager and compatibility relation
//!   (§3.1, §5, Figure 3);
//! * [`server`] — the protocol exporter, glue layer, host model, VLDB,
//!   volume server, and replication server (§3);
//! * [`client`] — the cache manager: resource/cache/directory/vnode
//!   layers, two-lock deadlock avoidance, serialization stamps (§4, §6);
//! * [`baselines`] — NFS-style and AFS-style comparators (§5.4);
//! * [`core`] — [`Cell`]: everything assembled — volume placement,
//!   live migration and load rebalancing across its servers (§2.1).
//!
//! # Quick start
//!
//! ```
//! use decorum_dfs::Cell;
//! use decorum_dfs::types::VolumeId;
//!
//! let cell = Cell::builder().servers(1).build().unwrap();
//! cell.create_volume(0, VolumeId(1), "home").unwrap();
//!
//! let alice = cell.new_client();
//! let bob = cell.new_client();
//!
//! let root = alice.root(VolumeId(1)).unwrap();
//! let file = alice.create(root, "notes.txt", 0o644).unwrap();
//! alice.write(file.fid, 0, b"single-system semantics").unwrap();
//!
//! // Bob sees Alice's write as soon as her write() returned — no
//! // fsync, no close — because the server revoked her write token.
//! assert_eq!(bob.read(file.fid, 0, 64).unwrap(), b"single-system semantics");
//! ```

pub use dfs_baselines as baselines;
pub use dfs_client as client;
pub use dfs_core as core;
pub use dfs_disk as disk;
pub use dfs_episode as episode;
pub use dfs_ffs as ffs;
pub use dfs_journal as journal;
pub use dfs_rpc as rpc;
pub use dfs_server as server;
pub use dfs_token as token;
pub use dfs_types as types;
pub use dfs_vfs as vfs;

pub use dfs_client::{CacheManager, OpenMode};
pub use dfs_core::{Cell, CellBuilder};
pub use dfs_episode::Episode;
pub use dfs_server::FileServer;
pub use dfs_token::TokenManager;
