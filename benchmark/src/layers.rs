//! Counters the layers keep themselves, read through their public stats
//! getters around each timed pass and turned into per-operation ratios.
//!
//! Only the traced binary comes here. Counts are deltas over the timed
//! passes (a workload that redeploys for every pass contributes one delta
//! per deployment); sizes are as found after the last pass.

use crate::report::Metric;
use crate::workloads::Deployment;
use blobseer::client::BlobSeerStats;
use blobseer::{MetadataStats, ShardStats};
use wire::CountersSnapshot;

/// One reading of every layer's counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct Reading {
    pub blob: BlobSeerStats,
    pub vm: ShardStats,
    pub metadata: MetadataStats,
    pub dht_wire: CountersSnapshot,
    pub provider_wire: CountersSnapshot,
    /// Bytes served by all providers since start.
    pub provider_bytes_read: u64,
    /// Bytes all providers hold now.
    pub provider_stored_bytes: u64,
    /// Pages on the fullest provider, and on all of them, now.
    pub provider_max_pages: u64,
    pub provider_pages: u64,
    pub providers: u64,
    /// Replicas and bytes the metadata DHT holds now.
    pub dht_entries: u64,
    pub dht_bytes: u64,
}

/// Read every layer of `deployment`.
pub fn read(deployment: &Deployment) -> Reading {
    let storage = &deployment.storage;
    let dht = storage.metadata().dht();
    let dht_stats = dht.stats();
    let providers: Vec<_> = storage
        .provider_manager()
        .providers()
        .iter()
        .map(|p| p.stats())
        .collect();
    Reading {
        blob: storage.stats(),
        vm: storage.version_manager().contention_stats(),
        metadata: storage.metadata().stats(),
        dht_wire: dht.wire_counters().snapshot(),
        provider_wire: storage.provider_wire().snapshot(),
        provider_bytes_read: providers.iter().map(|p| p.bytes_read).sum(),
        provider_stored_bytes: providers.iter().map(|p| p.stored_bytes).sum(),
        provider_max_pages: providers.iter().map(|p| p.pages as u64).max().unwrap_or(0),
        provider_pages: providers.iter().map(|p| p.pages as u64).sum(),
        providers: providers.len() as u64,
        dht_entries: dht_stats.total_entries as u64,
        dht_bytes: dht_stats.total_bytes,
    }
}

/// Counter deltas summed over the timed passes, and the last reading.
#[derive(Debug, Clone, Copy, Default)]
pub struct Totals {
    pub reads: u64,
    pub writes: u64,
    pub user_bytes_read: u64,
    pub user_bytes_written: u64,
    pub vm: ShardStats,
    pub nodes_read: u64,
    pub nodes_written: u64,
    pub dht_read_round_trips: u64,
    pub dht_write_round_trips: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub dht_wire: CountersSnapshot,
    pub provider_wire: CountersSnapshot,
    pub provider_bytes_read: u64,
    pub last: Reading,
}

impl Totals {
    /// Add what happened between two readings of one deployment.
    pub fn add(&mut self, before: &Reading, after: &Reading) {
        self.reads += after.blob.read_ops - before.blob.read_ops;
        self.writes += after.blob.write_ops - before.blob.write_ops;
        self.user_bytes_read += after.blob.bytes_read - before.blob.bytes_read;
        self.user_bytes_written += after.blob.bytes_written - before.blob.bytes_written;
        self.vm.lock_acquisitions += after.vm.lock_acquisitions - before.vm.lock_acquisitions;
        self.vm.contended_acquisitions +=
            after.vm.contended_acquisitions - before.vm.contended_acquisitions;
        self.vm.cond_waits += after.vm.cond_waits - before.vm.cond_waits;
        self.vm.notifies += after.vm.notifies - before.vm.notifies;
        let (m0, m1) = (&before.metadata, &after.metadata);
        self.nodes_read += m1.nodes_read - m0.nodes_read;
        self.nodes_written += m1.nodes_written - m0.nodes_written;
        self.dht_read_round_trips += m1.dht_read_round_trips - m0.dht_read_round_trips;
        self.dht_write_round_trips += m1.dht_write_round_trips - m0.dht_write_round_trips;
        self.cache_hits += m1.cache_hits - m0.cache_hits;
        self.cache_misses += m1.cache_misses - m0.cache_misses;
        self.dht_wire = self
            .dht_wire
            .merged(&after.dht_wire.since(&before.dht_wire));
        self.provider_wire = self
            .provider_wire
            .merged(&after.provider_wire.since(&before.provider_wire));
        self.provider_bytes_read += after.provider_bytes_read - before.provider_bytes_read;
        self.last = *after;
    }

    /// The per-layer count metrics. A ratio whose denominator is zero on
    /// this workload (appends per read on a read-only workload) reads 0.
    pub fn metrics(&self, fs_read_calls: u64) -> Vec<Metric> {
        let per = |n: u64, d: u64| if d == 0 { 0.0 } else { n as f64 / d as f64 };
        let ops = self.reads + self.writes;
        let user_bytes = self.user_bytes_read + self.user_bytes_written;
        let last = &self.last;
        vec![
            // A BSFS block that is cached costs no blob read: blob reads per
            // file-system read falls below one as the block cache hits.
            Metric::new(
                "bsfs.block_cache_hit_rate",
                (1.0 - per(self.reads, fs_read_calls)).max(0.0) * f64::from(fs_read_calls > 0),
                "share",
            ),
            Metric::new(
                "vm.cond_waits_per_write",
                per(self.vm.cond_waits, self.writes),
                "count",
            ),
            Metric::new(
                "vm.lock_acquisitions_per_write",
                per(self.vm.lock_acquisitions, self.writes),
                "count",
            ),
            Metric::new(
                "vm.contended_lock_share",
                per(self.vm.contended_acquisitions, self.vm.lock_acquisitions),
                "share",
            ),
            Metric::new(
                "metadata.nodes_read_per_read",
                per(self.nodes_read, self.reads),
                "count",
            ),
            Metric::new(
                "metadata.dht_read_rts_per_read",
                per(self.dht_read_round_trips, self.reads),
                "count",
            ),
            Metric::new(
                "metadata.cache_hit_rate",
                per(self.cache_hits, self.cache_hits + self.cache_misses),
                "share",
            ),
            Metric::new(
                "metadata.nodes_written_per_write",
                per(self.nodes_written, self.writes),
                "count",
            ),
            Metric::new(
                "metadata.dht_write_rts_per_write",
                per(self.dht_write_round_trips, self.writes),
                "count",
            ),
            Metric::new(
                "dht.bytes_per_entry",
                per(last.dht_bytes, last.dht_entries),
                "B",
            ),
            Metric::new(
                "dht.round_trips_per_op",
                per(self.dht_read_round_trips + self.dht_write_round_trips, ops),
                "count",
            ),
            Metric::new(
                "provider.bytes_read_per_user_byte",
                per(self.provider_bytes_read, self.user_bytes_read),
                "ratio",
            ),
            Metric::new(
                "provider.stored_bytes_per_user_byte",
                per(last.provider_stored_bytes, last.blob.bytes_written),
                "ratio",
            ),
            Metric::new(
                "provider.load_imbalance",
                per(
                    last.provider_max_pages * last.providers,
                    last.provider_pages,
                ),
                "ratio",
            ),
            Metric::new(
                "wire.provider_msgs_per_op",
                per(self.provider_wire.messages, ops),
                "count",
            ),
            Metric::new(
                "wire.provider_bytes_per_user_byte",
                per(self.provider_wire.bytes_on_wire, user_bytes),
                "ratio",
            ),
            Metric::new(
                "wire.dht_msgs_per_op",
                per(self.dht_wire.messages, ops),
                "count",
            ),
            Metric::new(
                "wire.dht_bytes_per_user_byte",
                per(self.dht_wire.bytes_on_wire, user_bytes),
                "ratio",
            ),
        ]
    }
}
