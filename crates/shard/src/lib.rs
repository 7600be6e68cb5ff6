//! Sharded-simulation support: netlist partitioning and cross-shard
//! messaging for the `ShardedEngine` in `des-core`.
//!
//! This crate is deliberately engine-agnostic. [`partition`] splits a
//! `Circuit` DAG into K shards under pluggable strategies and reports
//! partition-quality metrics; [`comm`] builds the bounded, batched mailbox
//! fabric (generic over the message type, so the model engines run on it
//! too) and defines the cross-shard message protocol (timestamped events
//! plus lookahead-based NULL messages). The per-shard Chandy–Misra cores and
//! the fault/watchdog plumbing live in `des::engine::sharded`, which
//! composes these two modules.

pub mod comm;
pub mod partition;
pub mod rebalance;

pub use comm::{
    endpoints, fabric, outgoing_cut_edges, CutEdge, DepthProbe, Endpoint, Mailbox, ShardMsg,
};
pub use partition::{Partition, PartitionMetrics, PartitionStrategy, ShardId};
pub use rebalance::{plan_rebalance, NodeMove, RebalancePlan, RebalancePolicy, ShardLoad};
