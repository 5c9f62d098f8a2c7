//! Deployment configuration for a BlobSeer instance.

use crate::provider_manager::PlacementStrategy;
use serde::{Deserialize, Serialize};

/// Configuration of an in-process BlobSeer deployment.
///
/// The defaults mirror the deployments used in the paper's evaluation: 64 MiB
/// pages (matching Hadoop's chunk size so that one Hadoop block maps to one
/// BlobSeer page), and page-level replication disabled (the microbenchmarks
/// compare raw throughput; the fault-tolerance experiments turn it up).
///
/// A deployment runs one storage node per machine, which is both a
/// metadata provider and a data provider, so there is no separate metadata
/// fleet to size: the DHT ring is the deployment's machines, and both
/// replication factors are checked against their number.
///
/// There is no retry knob: a client fails over past dead providers and dead
/// metadata nodes within one attempt, and a miss after that walk is final
/// (a dead member never comes back to serve it).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BlobSeerConfig {
    /// Default page size (bytes) for blobs that do not override it.
    pub default_page_size: u64,
    /// Number of machines [`crate::BlobSeer::new`] deploys on its flat
    /// topology; the other constructors deploy one per node they are given.
    pub providers: usize,
    /// Replication factor for metadata records in the DHT.
    pub metadata_replication: usize,
    /// Page-level replication factor (1 = no replication).
    pub page_replication: usize,
    /// Placement strategy used by the provider manager.
    pub placement: PlacementStrategy,
    /// Capacity (in tree nodes) of the client-side cache of segment-tree
    /// nodes in front of the metadata DHT. Tree nodes are versioned and
    /// immutable, so the cache never needs invalidation.
    pub metadata_cache_capacity: usize,
    /// Snapshot retention policy: keep only the newest K published versions of
    /// each blob eligible for reads, letting [`crate::BlobSeer::collect_garbage`]
    /// reclaim metadata nodes and pages reachable only from older versions.
    /// `None` retains every version forever (the classic BlobSeer model).
    /// Pinned snapshots survive regardless of K.
    pub gc_keep_last: Option<usize>,
}

impl Default for BlobSeerConfig {
    fn default() -> Self {
        BlobSeerConfig {
            default_page_size: 64 * 1024 * 1024,
            providers: 8,
            metadata_replication: 2,
            page_replication: 1,
            placement: PlacementStrategy::LoadBalanced,
            metadata_cache_capacity: 64 * 1024,
            gc_keep_last: None,
        }
    }
}

impl BlobSeerConfig {
    /// A configuration sized for unit tests: small pages, a few providers.
    pub fn for_tests() -> Self {
        BlobSeerConfig {
            default_page_size: 1024,
            providers: 4,
            metadata_replication: 2,
            page_replication: 1,
            placement: PlacementStrategy::LoadBalanced,
            metadata_cache_capacity: 1024,
            gc_keep_last: None,
        }
    }

    /// Builder-style override of the page size.
    pub fn with_page_size(mut self, page_size: u64) -> Self {
        self.default_page_size = page_size;
        self
    }

    /// Builder-style override of the machine count of [`crate::BlobSeer::new`].
    pub fn with_providers(mut self, providers: usize) -> Self {
        self.providers = providers;
        self
    }

    /// Builder-style override of the page replication factor.
    pub fn with_page_replication(mut self, replication: usize) -> Self {
        self.page_replication = replication;
        self
    }

    /// Builder-style override of the placement strategy.
    pub fn with_placement(mut self, placement: PlacementStrategy) -> Self {
        self.placement = placement;
        self
    }

    /// Builder-style override of the metadata cache capacity (in nodes).
    pub fn with_metadata_cache_capacity(mut self, capacity: usize) -> Self {
        self.metadata_cache_capacity = capacity;
        self
    }

    /// Builder-style override of the snapshot retention policy (keep-last-K).
    pub fn with_gc_keep_last(mut self, keep: usize) -> Self {
        self.gc_keep_last = Some(keep);
        self
    }

    /// Validate invariants for a deployment of `machines` machines,
    /// panicking with a clear message if violated. Called by every
    /// [`crate::BlobSeer`] constructor with the number it deploys.
    pub fn validate(&self, machines: usize) {
        assert!(self.default_page_size > 0, "page size must be non-zero");
        assert!(machines > 0, "at least one machine is required");
        assert!(
            self.metadata_replication >= 1,
            "metadata replication must be >= 1"
        );
        assert!(self.page_replication >= 1, "page replication must be >= 1");
        assert!(
            self.page_replication <= machines,
            "page replication ({}) cannot exceed the number of providers ({machines})",
            self.page_replication,
        );
        assert!(
            self.metadata_replication <= machines,
            "metadata replication ({}) cannot exceed the number of machines ({machines})",
            self.metadata_replication,
        );
        assert!(
            self.metadata_cache_capacity >= 1,
            "the metadata cache needs a non-zero capacity"
        );
        assert!(
            self.gc_keep_last != Some(0),
            "snapshot retention must keep at least one version"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_valid() {
        let default = BlobSeerConfig::default();
        default.validate(default.providers);
        let small = BlobSeerConfig::for_tests();
        small.validate(small.providers);
    }

    #[test]
    fn builder_overrides() {
        let c = BlobSeerConfig::for_tests()
            .with_page_size(4096)
            .with_providers(10)
            .with_page_replication(3)
            .with_placement(PlacementStrategy::Random)
            .with_metadata_cache_capacity(128)
            .with_gc_keep_last(3);
        assert_eq!(c.metadata_replication, 2);
        assert_eq!(c.default_page_size, 4096);
        assert_eq!(c.providers, 10);
        assert_eq!(c.page_replication, 3);
        assert_eq!(c.placement, PlacementStrategy::Random);
        assert_eq!(c.metadata_cache_capacity, 128);
        assert_eq!(c.gc_keep_last, Some(3));
        c.validate(c.providers);
    }

    #[test]
    #[should_panic(expected = "keep at least one version")]
    fn zero_retention_is_rejected() {
        BlobSeerConfig::for_tests().with_gc_keep_last(0).validate(4);
    }

    #[test]
    #[should_panic(expected = "non-zero capacity")]
    fn enabled_cache_with_zero_capacity_is_rejected() {
        BlobSeerConfig::for_tests()
            .with_metadata_cache_capacity(0)
            .validate(4);
    }

    #[test]
    #[should_panic(expected = "cannot exceed the number of providers")]
    fn replication_beyond_providers_is_rejected() {
        // The factor is checked against the machines deployed, whatever
        // `providers` says.
        BlobSeerConfig::for_tests()
            .with_providers(8)
            .with_page_replication(3)
            .validate(2);
    }

    #[test]
    #[should_panic(expected = "metadata replication (2) cannot exceed the number of machines (1)")]
    fn metadata_replication_beyond_machines_is_rejected() {
        BlobSeerConfig::for_tests().validate(1);
    }

    #[test]
    #[should_panic(expected = "page size must be non-zero")]
    fn zero_page_size_is_rejected() {
        BlobSeerConfig::for_tests().with_page_size(0).validate(4);
    }
}
