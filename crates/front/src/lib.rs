//! # qld-front
//!
//! The shard-fleet router: `qld front` runs a router daemon that spawns and
//! supervises N backend `qld serve` shard processes (each with its own Unix
//! socket and cache snapshot file) and speaks the same wire protocol on its
//! own socket, so clients cannot tell a fleet from a single daemon.
//!
//! * [`hash`] — deterministic FNV-1a consistent hashing with virtual nodes;
//! * [`policy`] — the pluggable [`ShardPolicy`]
//!   (mirroring the engine's `SolverPolicy`): consistent-hash cache affinity
//!   (the default), least-loaded, or sticky-session routing;
//! * [`shard`] / [`fleet`] — process supervision: spawn, periodic `stats`
//!   health probes, automatic respawn of crashed shards (hot, thanks to
//!   per-shard cache snapshots), rolling restarts that drain one shard at a
//!   time, graceful shutdown;
//! * [`router`] — the protocol-transparent proxy session: per-request shard
//!   routing by the engine's canonical cache key, streamed chunk relay with
//!   `id` remapping, `cancel` forwarding to the owning shard, and
//!   retry-once-on-reroute for requests lost to a dying shard.  The router
//!   does not deduplicate: under hash affinity, duplicates meet in the
//!   owning shard's single-flight table.
//!
//! The `qld` binary itself lives in this crate (`src/bin/qld.rs`) so the
//! `front` subcommand can sit next to `serve` without a dependency cycle:
//! `qld-front` depends on `qld-engine`, never the other way around.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod hash;
pub mod policy;

#[cfg(unix)]
pub mod fleet;
#[cfg(unix)]
pub mod router;
#[cfg(unix)]
pub mod shard;

pub use hash::{fnv1a, HashRing, VNODES_PER_SHARD};
pub use policy::{
    policy_from_name, FleetView, HashAffinityPolicy, LeastLoadedPolicy, ShardPolicy,
    StickySessionPolicy,
};

#[cfg(unix)]
pub use fleet::{Fleet, FleetConfig};
#[cfg(unix)]
pub use router::{session_handler, Router};
#[cfg(unix)]
pub use shard::{Shard, ShardSpec};

/// Locks a mutex, recovering the guard if a previous holder panicked: a
/// panicking relay thread must not wedge the whole session or fleet.
pub(crate) fn lock_ignoring_poison<T>(mutex: &std::sync::Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}
