//! # tn-shard — distributed multi-process board sharding
//!
//! The paper's scale-out story tiles chips into boards through
//! merge–split peripheral links and scales Compass across Blue Gene/Q
//! cards over message passing (Sections IV, VII). This crate is that
//! story executed rather than projected: one network is partitioned into
//! contiguous core ranges, each range runs in its own shard worker (an
//! OS process or an in-process thread), and boundary spikes cross shard
//! edges as length-prefixed, CRC-guarded TCP frames.
//!
//! The contract is the repo's usual one, extended across process
//! boundaries: a sharded run is **digest-identical and spike-for-spike
//! equal** to a single-process `ReferenceSim` run of the same network,
//! inputs, and fault plan. Three properties make that possible:
//!
//! 1. **Deterministic partitioning** ([`plan`]): shard ranges come from
//!    `tn_compass::split_cores` over per-core synapse weights,
//!    so the same network always splits the same way.
//! 2. **A barrier per tick** ([`mailbox`], [`coordinator`]): the
//!    coordinator distributes every shard's boundary spikes for tick T
//!    before any shard evaluates T, with a parity double-buffer that
//!    tolerates one-tick-late deposits — the Pairwise-style mailbox
//!    discipline from `tn_compass::parallel`, stretched over TCP.
//! 3. **Commutative delivery** (the blueprint): spike delivery into
//!    delay rings is an order-free OR-set, so remote deliveries may be
//!    applied at any point before the receiving core's tick.
//!
//! [`ShardedSession`] implements `tn_compass::KernelSession`, so the
//! serve/fault/obs stack hosts a sharded board exactly like a local one.
//! Shard loss is survivable: a killed worker is respawned, restored from
//! the latest periodic snapshot, and replayed to the barrier tick.

pub mod coordinator;
pub mod mailbox;
pub mod plan;
pub mod proto;
mod sync;
pub mod worker;

pub use coordinator::{ShardSpec, ShardedSession, SpawnMode};
pub use mailbox::{Mailbox, MailboxError};
pub use plan::{boundary_routes, BoundaryRoute, ShardPlan};
pub use proto::{DoneMsg, FromWorker, RemoteSpike, ToWorker};
