//! **geoalign-cluster** — sharded serving by pair routing, with
//! WAL-shipping replicas and failover, on `std` only.
//!
//! A GeoAlign cluster is a [`coordinator`] front end over N shard
//! backends (plain `geoalign serve` processes), each optionally paired
//! with a WAL-shipping [`standby`]. The design leans on one property
//! the rest of the workspace already guarantees:
//!
//! * **Pairs are independent.** A crosswalk answer depends only on its
//!   `(source, target)` pair's references and ingest stream, so the
//!   [`ring`] assigns whole pairs to shards. The coordinator forwards
//!   each `/crosswalk` and `/ingest` body unchanged to the pair's owner,
//!   which does exactly the work a single node would, so every answer
//!   stays byte-identical to a single node. Registrations broadcast to
//!   all shards so any owner knows both unit systems of its pairs.
//!
//! Durability rides the existing store: a primary ships its snapshot
//! and sealed WAL prefixes over `/replica/*` (see
//! `geoalign_store::ship`), the standby accumulates them in a
//! [`ReplicaDir`](geoalign_store::ship::ReplicaDir), and failover —
//! driven by the coordinator's health prober — promotes the standby
//! through the normal crash-recovery path. Every hop propagates
//! `X-Trace-Id` and folds shard `X-Cost` replies into the front-end
//! request's cost, so one trace and one cost object cover every hop.
//! DESIGN.md §16 documents the protocol and the bit-identity argument.

#![warn(missing_docs)]

pub mod client;
pub mod coordinator;
pub mod metrics;
pub mod ring;
pub mod standby;

pub use client::{Backend, ClientConfig, ClientError, ClientResponse};
pub use coordinator::{Coordinator, CoordinatorConfig, ShardSpec};
pub use metrics::ClusterMetrics;
pub use ring::HashRing;
pub use standby::{Standby, StandbyConfig};
