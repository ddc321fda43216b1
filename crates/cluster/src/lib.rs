//! rnt-cluster: the paper's Section-9 distributed algebra as a running
//! sharded engine.
//!
//! A [`Cluster`] shards the ordered keyspace across `k` in-process nodes
//! — each a full [`rnt_core::Db`] with its own lock manager, MVCC store,
//! commit pipeline and optional write-ahead log — routed by the
//! deterministic [`Partition`] (`home(x)`). Cluster transactions span
//! nodes transparently: every `get`/`put` runs at the key's home node
//! under a per-node *participant* transaction, nested
//! [`ClusterTxn::child`] subtransactions are resilient across node
//! boundaries, and cross-node commit status travels by the paper's
//! gossip rules (a [`GossipPolicy`]: eager, delta, or periodic), with
//! remote locks held until the status delivery arrives — the level-5
//! send/receive discipline made executable.
//!
//! Fault classes: [`Cluster::crash_node`] (fail-stop; durable clusters
//! recover from the WAL via [`Cluster::recover_node`]),
//! [`Cluster::set_link_delay`] (delayed gossip) and
//! [`Cluster::set_link_blocked`] (partition).
//!
//! With [`ClusterConfig::trace`] on, a run journals itself as a level-5
//! event trace and [`Cluster::validate_trace`] replays it through the
//! formal checker: every event enabled under the paper's eight
//! preconditions, the Lemma 23–28 local mapping, and optionally the
//! Theorem-29 composed simulation down to level 1.

#![warn(missing_docs)]

mod cluster;
mod partition;
mod router;
mod trace;

pub use cluster::{Cluster, ClusterConfig, ClusterSnapshot, ClusterStats, ClusterTxn, Key, Value};
pub use partition::Partition;
pub use router::RouterStats;
pub use trace::TraceValue;

pub use rnt_core::{DbConfig, Durability, TxnError};
pub use rnt_distributed::{GossipPolicy, NodeId, TraceReport};
