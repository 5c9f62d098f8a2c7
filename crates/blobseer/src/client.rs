//! The BlobSeer deployment handle and client library.
//!
//! [`BlobSeer`] wires the entities together (one storage node per machine,
//! serving both the metadata DHT and the page providers; the provider
//! manager; the version manager); [`BlobSeerClient`] is the per-user handle
//! implementing the interface the paper describes: "create a blob, read/write
//! a range of bytes given by offset and size from/to a blob and append a
//! number of bytes to an existing blob" (§III-A), plus the extra primitive
//! added for Hadoop integration: exposing the page-to-provider distribution
//! so the MapReduce scheduler can place computation close to the data
//! (§III-B).
//!
//! ## Write protocol
//!
//! 1. the client reserves a version from the version manager (for appends,
//!    this also fixes the offset, so concurrent appenders never collide);
//! 2. it obtains page placements from the provider manager and pushes the
//!    page contents to the chosen providers — the bulk of the work, fully
//!    parallel across concurrent writers;
//! 3. it waits for its predecessor version to be published, pushes any page
//!    it only partly overwrites (merged with the predecessor's image of that
//!    page), builds the new segment tree (sharing unchanged subtrees with the
//!    predecessor), and commits the ticket, which publishes the version.
//!
//! Only step 3's metadata work is serialized per blob; its cost is a handful
//! of small DHT records per write, which is what lets BlobSeer sustain
//! throughput under heavy write concurrency.

use crate::config::BlobSeerConfig;
use crate::error::{BlobResult, BlobSeerError};
use crate::metadata::segment_tree::{build_version, lookup_range, PrevTree};
use crate::metadata::store::MetadataStore;
use crate::metadata::NodeKey;
use crate::provider::page_key;
use crate::provider::PageRequest;
use crate::provider_manager::ProviderManager;
use crate::types::{next_power_of_two, BlobId, ByteRange, PageMath, ProviderId, Version};
use crate::version_manager::{VersionInfo, VersionManager, WriteIntent, WriteTicket};
use bytes::Bytes;
use dht::{Dht, StorageNode};
use kvstore::FastMap;
use parking_lot::{Mutex, RwLock};
use simcluster::replica::RepairReport;
use simcluster::topology::ClusterTopology;
use simcluster::{Clock, FailureDetector, NodeId, WallClock};
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use wire::{Direction, Transport, MSG_OVERHEAD};

/// Location information for one page of a blob version, as returned by the
/// locality primitive [`BlobSeerClient::locate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PageLocation {
    /// Page index within the blob.
    pub page: u64,
    /// The byte range of the blob covered by this page, clamped to the
    /// requested range.
    pub range: ByteRange,
    /// Providers holding replicas of the page, in preference order. Empty for
    /// holes (never-written regions).
    pub providers: Vec<ProviderId>,
    /// Cluster nodes those providers run on (same order).
    pub nodes: Vec<NodeId>,
}

/// Aggregate I/O counters for a BlobSeer deployment.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BlobSeerStats {
    /// Total bytes written by clients (before replication).
    pub bytes_written: u64,
    /// Total bytes read by clients.
    pub bytes_read: u64,
    /// Number of write/append operations.
    pub write_ops: u64,
    /// Number of read operations.
    pub read_ops: u64,
}

/// A complete in-process BlobSeer deployment.
///
/// Each machine runs one [`StorageNode`]: DHT ring member `i` and provider
/// `i` are the two roles of machine `i`, on `provider_nodes[i]`. A machine
/// dies and joins whole ([`BlobSeer::kill`], [`BlobSeer::join`]), and one
/// failure detector keyed by machine hears both tiers' probes.
pub struct BlobSeer {
    config: BlobSeerConfig,
    topology: ClusterTopology,
    version_manager: Arc<VersionManager>,
    provider_manager: Arc<ProviderManager>,
    metadata: Arc<MetadataStore>,
    /// Per-blob page size (configurable per blob, as in the paper).
    page_sizes: RwLock<FastMap<BlobId, u64>>,
    /// The transport every client↔provider exchange is charged on
    /// ([`wire::InProc`] by default; [`wire::SimNet`] in the cluster-scale
    /// experiments). The metadata DHT charges the same transport through
    /// [`dht::Dht::attach_wire`].
    transport: Arc<dyn Transport>,
    /// Wire accounting for the client↔provider boundary (page uploads and
    /// downloads), in the shared [`wire::Counters`] schema. The metadata
    /// boundary's counters live on the DHT.
    provider_wire: wire::Counters,
    /// Per-blob overrides of the keep-last-K retention policy (see
    /// [`BlobSeer::with_gc_keep_last_for`]).
    gc_keep_overrides: RwLock<HashMap<BlobId, usize>>,
    /// Held by a retention pass from retiring a blob's versions to the end
    /// of their sweep, and by a delete from taking its blobs' chains to the
    /// end of theirs (see [`crate::gc`]): the two never interleave on a
    /// blob, so neither sweeps a node the other's mark phase still needs.
    sweep_lock: Mutex<()>,
    bytes_written: AtomicU64,
    bytes_read: AtomicU64,
    write_ops: AtomicU64,
    read_ops: AtomicU64,
}

impl BlobSeer {
    /// Create a deployment on a flat (single-rack) topology with one machine
    /// per node, `config.providers` of them.
    pub fn new(config: BlobSeerConfig) -> Arc<Self> {
        let topology = ClusterTopology::flat(config.providers as u32);
        let provider_nodes: Vec<NodeId> = topology.all_nodes().collect();
        Self::with_topology(config, &topology, &provider_nodes)
    }

    /// Create a deployment with one machine on each of the given nodes of an
    /// existing cluster topology (used by the cluster-scale experiments and by
    /// BSFS when co-deployed with a MapReduce cluster).
    pub fn with_topology(
        config: BlobSeerConfig,
        topology: &ClusterTopology,
        provider_nodes: &[NodeId],
    ) -> Arc<Self> {
        Self::with_topology_and_clock(config, topology, provider_nodes, Arc::new(WallClock::new()))
    }

    /// Like [`BlobSeer::with_topology`], but on an explicit time source. The
    /// machines' failure detector reads this clock, so tests drive suspicion
    /// with a `SimClock` instead of waiting out real timeouts.
    pub fn with_topology_and_clock(
        config: BlobSeerConfig,
        topology: &ClusterTopology,
        provider_nodes: &[NodeId],
        clock: Arc<dyn Clock>,
    ) -> Arc<Self> {
        Self::with_transport(
            config,
            topology,
            provider_nodes,
            clock,
            Arc::new(wire::InProc::new()),
        )
    }

    /// Like [`BlobSeer::with_topology_and_clock`], but charging every
    /// client↔provider and client↔metadata-DHT exchange on an explicit
    /// [`wire::Transport`]. Pass a [`wire::SimNet`] to make rack distance and
    /// shared-link contention cost simulated time; the default
    /// [`wire::InProc`] keeps the historic free wire. Machine `i` runs on
    /// `provider_nodes[i]`; both replication factors must fit in
    /// `provider_nodes.len()` machines.
    pub fn with_transport(
        config: BlobSeerConfig,
        topology: &ClusterTopology,
        provider_nodes: &[NodeId],
        clock: Arc<dyn Clock>,
        transport: Arc<dyn Transport>,
    ) -> Arc<Self> {
        config.validate(provider_nodes.len());
        let machines = StorageNode::fleet(provider_nodes);
        let provider_manager =
            Arc::new(ProviderManager::new(topology, &machines, config.placement));
        let dht = Dht::with_nodes(machines.clone(), config.metadata_replication, 64);
        // The metadata DHT charges the same wire as the data path; exchanges
        // from threads that did not pin a source (repair, GC) are attributed
        // to the first machine.
        dht.attach_wire(Arc::clone(&transport), provider_nodes[0]);
        let metadata = Arc::new(MetadataStore::with_dht(
            Arc::new(dht),
            config.metadata_cache_capacity,
        ));
        // Dead machines are *discovered*: both tiers' repair probes and
        // refused data operations feed one timeout/suspicion detector.
        let detector = Arc::new(FailureDetector::with_members(
            clock,
            machines.iter().map(|m| m.id()),
        ));
        metadata.dht().health().attach(Arc::clone(&detector));
        provider_manager.health().attach(detector);
        Arc::new(BlobSeer {
            config,
            topology: topology.clone(),
            version_manager: Arc::new(VersionManager::new()),
            provider_manager,
            metadata,
            page_sizes: RwLock::default(),
            transport,
            provider_wire: wire::Counters::new(),
            gc_keep_overrides: RwLock::new(HashMap::new()),
            sweep_lock: Mutex::new(()),
            bytes_written: AtomicU64::new(0),
            bytes_read: AtomicU64::new(0),
            write_ops: AtomicU64::new(0),
            read_ops: AtomicU64::new(0),
        })
    }

    /// A client attached to the first node of the topology.
    pub fn client(self: &Arc<Self>) -> BlobSeerClient {
        self.client_on(self.topology.node(0))
    }

    /// A client running on a specific cluster node (placement strategies that
    /// care about locality use this).
    pub fn client_on(self: &Arc<Self>, node: NodeId) -> BlobSeerClient {
        BlobSeerClient {
            system: Arc::clone(self),
            node,
        }
    }

    /// The deployment's configuration.
    pub fn config(&self) -> &BlobSeerConfig {
        &self.config
    }

    /// The cluster topology the deployment runs on.
    pub fn topology(&self) -> &ClusterTopology {
        &self.topology
    }

    /// The version manager (tests and tools).
    pub fn version_manager(&self) -> &Arc<VersionManager> {
        &self.version_manager
    }

    /// The provider manager (failure injection, load inspection).
    pub fn provider_manager(&self) -> &Arc<ProviderManager> {
        &self.provider_manager
    }

    /// The metadata store (traffic counters).
    pub fn metadata(&self) -> &Arc<MetadataStore> {
        &self.metadata
    }

    /// Crash machine `id` (failure injection): its pages and its metadata
    /// stop serving together, and it stays dead. Nothing else is told; the
    /// tiers discover the death when operations are refused, the detector
    /// when repair's probes go unanswered.
    pub fn kill(&self, id: ProviderId) -> BlobResult<()> {
        let provider = self
            .provider_manager
            .provider(id)
            .ok_or_else(|| BlobSeerError::InvalidArgument(format!("no machine serves {id}")))?;
        provider.machine().kill();
        Ok(())
    }

    /// Add a fresh machine on cluster node `host` and return its provider
    /// id once both tiers serve it: it takes future page allocations, and
    /// the DHT's join has already placed its share of the metadata on it.
    pub fn join(&self, host: NodeId) -> ProviderId {
        let machine = self.provider_manager.add(host);
        let id = machine.id().into();
        self.metadata.dht().join(machine);
        id
    }

    /// The transport client↔provider and client↔metadata exchanges are
    /// charged on.
    pub fn transport(&self) -> &Arc<dyn Transport> {
        &self.transport
    }

    /// Wire accounting for the client↔provider boundary (page uploads and
    /// downloads). The metadata boundary's figures come from
    /// `metadata().dht().wire_counters()`.
    pub fn provider_wire(&self) -> &wire::Counters {
        &self.provider_wire
    }

    /// Record one client↔provider exchange and charge it on the transport.
    pub(crate) fn charge_provider(
        &self,
        src: NodeId,
        dst: NodeId,
        dir: Direction,
        out: u64,
        back: u64,
    ) {
        self.provider_wire.record(dir, out, back);
        self.transport.exchange(src, dst, dir, out, back);
    }

    /// Aggregate I/O counters.
    pub fn stats(&self) -> BlobSeerStats {
        BlobSeerStats {
            bytes_written: self.bytes_written.load(Ordering::Relaxed),
            bytes_read: self.bytes_read.load(Ordering::Relaxed),
            write_ops: self.write_ops.load(Ordering::Relaxed),
            read_ops: self.read_ops.load(Ordering::Relaxed),
        }
    }

    /// The page size of a blob.
    pub fn page_size_of(&self, blob: BlobId) -> BlobResult<u64> {
        self.page_sizes
            .read()
            .get(&blob)
            .copied()
            .ok_or(BlobSeerError::UnknownBlob(blob))
    }

    /// Pin a published snapshot against garbage collection (a long-lived
    /// version a consumer still reads; see [`crate::gc`]).
    pub fn pin_snapshot(&self, blob: BlobId, version: Version) -> BlobResult<()> {
        self.version_manager.pin_version(blob, version)
    }

    /// Drop a snapshot pin; returns whether the version was pinned.
    pub fn unpin_snapshot(&self, blob: BlobId, version: Version) -> BlobResult<bool> {
        self.version_manager.unpin_version(blob, version)
    }

    /// Run one garbage-collection cycle over every blob, applying the
    /// configured keep-last-K retention policy (see
    /// [`crate::BlobSeerConfig::gc_keep_last`]; a no-op when unset). Retired
    /// snapshots become unreadable immediately; the metadata nodes and page
    /// images only they referenced are reclaimed through the same sweep a
    /// delete uses.
    pub fn collect_garbage(&self) -> BlobResult<crate::gc::GcReport> {
        let overrides = self.gc_keep_overrides.read().clone();
        if self.config.gc_keep_last.is_none() && overrides.is_empty() {
            return Ok(crate::gc::GcReport::default());
        }
        let src = self.gc_source();
        let mut report = crate::gc::GcReport::default();
        for blob in self.version_manager.blob_ids() {
            // Per-blob override first, then the deployment-wide policy; a
            // blob covered by neither retains every version.
            let Some(keep) = overrides.get(&blob).copied().or(self.config.gc_keep_last) else {
                continue;
            };
            // Retire and sweep under the sweep lock, with the retired and
            // surviving chains read in one go: a delete can neither take the
            // blob between the two reads nor sweep nodes this pass's mark
            // phase still has to see. A blob deleted before the retire is
            // simply gone — its delete reclaimed it.
            let _sweep = self.sweep_lock.lock();
            let reclaim = match self.version_manager.retire_expired(blob, keep) {
                Ok(reclaim) => reclaim,
                Err(BlobSeerError::UnknownBlob(_)) => continue,
                Err(e) => return Err(e),
            };
            if reclaim.dead.is_empty() {
                continue;
            }
            report.absorb(&crate::gc::collect(self, src, &[reclaim])?);
        }
        Ok(report)
    }

    /// Where a GC pass's exchanges are charged from: the thread's
    /// pinned source, else the first provider's node — the node the metadata
    /// DHT charges unattributed exchanges to as well.
    fn gc_source(&self) -> NodeId {
        wire::current_source()
            .or_else(|| self.provider_manager.node_of(ProviderId(0)))
            .unwrap_or_else(|| self.topology.node(0))
    }

    /// Override the keep-last-K snapshot retention for one blob: its GC
    /// sweeps keep `keep` published versions regardless of the deployment's
    /// `gc_keep_last` (including when the deployment has none — the override
    /// alone makes the blob eligible for collection). Pinned snapshots
    /// survive regardless. A `keep` of 0 is an `InvalidArgument`.
    pub fn with_gc_keep_last_for(&self, blob: BlobId, keep: usize) -> BlobResult<()> {
        if keep == 0 {
            return Err(BlobSeerError::InvalidArgument(
                "snapshot retention must keep at least one version".into(),
            ));
        }
        self.gc_keep_overrides.write().insert(blob, keep);
        Ok(())
    }

    /// Drop a per-blob retention override; returns whether one was set.
    pub fn clear_gc_keep_last_for(&self, blob: BlobId) -> bool {
        self.gc_keep_overrides.write().remove(&blob).is_some()
    }

    /// One full repair pass over both storage tiers, run synchronously:
    /// each tier probes every member once (its heartbeat round), then
    /// actively re-replicates under-replicated metadata DHT keys and
    /// announced provider pages onto live members. Returns the metadata
    /// tier's report, then the page tier's. Dead machines stay dead;
    /// replicas are rebuilt elsewhere from surviving copies.
    pub fn repair(&self) -> (RepairReport, RepairReport) {
        let metadata_report = self.metadata.dht().repair();
        let page_report = self.provider_manager.repair(self.config.page_replication);
        (metadata_report, page_report)
    }
}

/// What a write in progress has stored under its own version, for the sweep
/// a failed write runs on it.
#[derive(Default)]
struct Stored {
    /// Pages pushed so far, each with the providers holding it.
    pages: BTreeMap<u64, Vec<ProviderId>>,
    /// The root of the write's tree, once its nodes are published.
    root: Option<NodeKey>,
}

/// A client handle; cheap to clone and safe to move across threads.
#[derive(Clone)]
pub struct BlobSeerClient {
    system: Arc<BlobSeer>,
    node: NodeId,
}

impl BlobSeerClient {
    /// The cluster node this client runs on.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The deployment this client talks to.
    pub fn system(&self) -> &Arc<BlobSeer> {
        &self.system
    }

    /// Create a new blob. `page_size` overrides the deployment default
    /// ("its size can be configured for each blob", §III-A).
    pub fn create(&self, page_size: Option<u64>) -> BlobResult<BlobId> {
        let page_size = page_size.unwrap_or(self.system.config.default_page_size);
        if page_size == 0 {
            return Err(BlobSeerError::InvalidArgument(
                "page size must be non-zero".into(),
            ));
        }
        let blob = self.system.version_manager.create_blob();
        self.system.page_sizes.write().insert(blob, page_size);
        Ok(blob)
    }

    /// Delete a blob and free everything it stored: a batch of one over
    /// [`BlobSeerClient::delete_all`].
    pub fn delete(&self, blob: BlobId) -> BlobResult<()> {
        self.delete_all(&[blob])
    }

    /// Delete blobs and free everything they stored, synchronously: each
    /// blob's whole version chain goes to the sweep retention GC uses (see
    /// [`crate::gc`]), with nothing surviving, so its pages, tree nodes and
    /// holder records are removed before this returns. All the blobs share
    /// one sweep: one `DeleteMany` per provider and one `RemoveMany` per
    /// metadata provider, plus the mark phase's one read per tree level.
    ///
    /// Pins guard against retention, not against deletion: a deleted blob's
    /// pins go with it. A read racing the delete may fail with an error but
    /// never returns wrong bytes; a write racing it fails with `UnknownBlob`
    /// and sweeps what it had stored itself.
    ///
    /// Every blob that exists is deleted and swept even if another does not;
    /// the first `UnknownBlob` is then reported.
    pub fn delete_all(&self, blobs: &[BlobId]) -> BlobResult<()> {
        let _src = wire::source_guard(self.node);
        let sys = &self.system;
        let _sweep = sys.sweep_lock.lock();
        let mut reclaims = Vec::with_capacity(blobs.len());
        let mut unknown = None;
        for &blob in blobs {
            match sys.version_manager.delete_blob(blob) {
                Ok(reclaim) => reclaims.push(reclaim),
                Err(e) => {
                    unknown.get_or_insert(e);
                }
            }
            sys.page_sizes.write().remove(&blob);
            sys.gc_keep_overrides.write().remove(&blob);
        }
        crate::gc::collect(sys, self.node, &reclaims)?;
        unknown.map_or(Ok(()), Err)
    }

    /// The latest published version of a blob.
    pub fn latest_version(&self, blob: BlobId) -> BlobResult<VersionInfo> {
        self.system.version_manager.latest(blob)
    }

    /// Descriptor of a specific version.
    pub fn version_info(&self, blob: BlobId, version: Version) -> BlobResult<VersionInfo> {
        self.system.version_manager.get_version(blob, version)
    }

    /// Size (bytes) of the blob at its latest version.
    pub fn size(&self, blob: BlobId) -> BlobResult<u64> {
        Ok(self.latest_version(blob)?.size)
    }

    /// Write `data` at `offset`, producing (and returning) a new version.
    pub fn write(&self, blob: BlobId, offset: u64, data: &[u8]) -> BlobResult<Version> {
        self.do_write(
            blob,
            WriteIntent::WriteAt {
                offset,
                len: data.len() as u64,
            },
            data,
        )
    }

    /// Append `data` at the end of the blob, producing a new version. The
    /// append offset is assigned by the version manager, so concurrent
    /// appenders each get their own, non-overlapping region.
    pub fn append(&self, blob: BlobId, data: &[u8]) -> BlobResult<Version> {
        self.do_write(
            blob,
            WriteIntent::Append {
                len: data.len() as u64,
            },
            data,
        )
    }

    fn do_write(&self, blob: BlobId, intent: WriteIntent, data: &[u8]) -> BlobResult<Version> {
        if data.is_empty() {
            return Err(BlobSeerError::InvalidArgument("zero-length write".into()));
        }
        // Attribute this thread's metadata DHT exchanges (tree build, commit
        // records) to the client's node for transport charging.
        let _src = wire::source_guard(self.node);
        let sys = &self.system;
        let page_size = sys.page_size_of(blob)?;
        let pm = PageMath::new(page_size);

        // Step 1: reserve a version (and the offset, for appends).
        let ticket = sys.version_manager.reserve(blob, intent)?;
        let mut stored = Stored::default();
        let result = self.write_reserved(blob, &ticket, data, &pm, &mut stored);
        if result.is_err() {
            // Nothing was published under the reserved version: alias the
            // ticket to its predecessor so later writers are not stuck in
            // `wait_for_predecessor` on a version that will never appear
            // (this fails harmlessly when the blob was deleted). Then sweep
            // what the write stored under its version: no tree references
            // it, and no one else ever will.
            let _ = sys.version_manager.abort(&ticket);
            let _ = crate::gc::sweep_failed_write(
                sys,
                self.node,
                blob,
                ticket.version,
                stored.root,
                &stored.pages,
            );
        }
        result
    }

    /// Steps 2–3 of the write protocol, with a reservation already held. Any
    /// error returned here makes `do_write` abort the ticket and sweep what
    /// `stored` records: the pages pushed so far and the published root.
    fn write_reserved(
        &self,
        blob: BlobId,
        ticket: &WriteTicket,
        data: &[u8],
        pm: &PageMath,
        stored: &mut Stored,
    ) -> BlobResult<Version> {
        let sys = &self.system;
        let page_size = pm.page_size();
        let range = ticket.range;
        let (first_page, last_page) = pm
            .pages_touched(range)
            .ok_or_else(|| BlobSeerError::InvalidArgument("zero-length write".into()))?;
        let num_pages = last_page - first_page + 1;

        // Step 2a: figure out boundary merges. If the write starts or ends in
        // the middle of a page that already holds data, the old bytes of that
        // page must be carried into the new page image. Such a border page is
        // built after the wait for the predecessor, from version v−1, so two
        // concurrent unaligned writers to one page both land. Aligned writes —
        // the only kind BSFS and the benchmarks issue — have no border page.
        let needs_head_merge =
            !range.offset.is_multiple_of(page_size) && ticket.prev_size > pm.page_start(first_page);
        let tail_unaligned = !range.end().is_multiple_of(page_size);
        let needs_tail_merge = tail_unaligned && range.end() < ticket.prev_size;
        let is_border = |page: u64| {
            (page == first_page && needs_head_merge) || (page == last_page && needs_tail_merge)
        };

        // Step 2b: allocate providers and push the page images.
        let placements =
            sys.provider_manager
                .allocate(num_pages, sys.config.page_replication, self.node);
        if placements.is_empty() {
            return Err(BlobSeerError::NoProviders);
        }

        // The image is built front to back, each byte written once and the
        // buffer sized exactly, so it moves into `Bytes` as is: `old` bytes
        // carried over at the head, zeroes up to the write, the write's own
        // bytes, `old` bytes carried over at the tail, zeroes to the end. A
        // page the write covers is one copy of its bytes. `old` is the
        // page's image at v−1 for a border page, empty otherwise.
        let image_of = |page: u64, old: &[u8]| -> Vec<u8> {
            let page_start = pm.page_start(page);
            let page_end_limit = (page_start + page_size).min(ticket.new_size);
            let image_len = (page_end_limit - page_start) as usize;
            let copy_start_in_blob = range.offset.max(page_start);
            let copy_end_in_blob = range.end().min(page_start + page_size);
            let dst_from = (copy_start_in_blob - page_start) as usize;
            let dst_to = (copy_end_in_blob - page_start) as usize;
            let src_from = (copy_start_in_blob - range.offset) as usize;
            let src_to = (copy_end_in_blob - range.offset) as usize;

            let mut image = Vec::with_capacity(image_len);
            if page == first_page && needs_head_merge {
                image.extend_from_slice(&old[..dst_from.min(old.len())]);
            }
            image.resize(dst_from, 0);
            image.extend_from_slice(&data[src_from..src_to]);
            if page == last_page && needs_tail_merge && dst_to < old.len() {
                let n = (old.len() - dst_to).min(image_len - dst_to);
                image.extend_from_slice(&old[dst_to..dst_to + n]);
            }
            image.resize(image_len, 0);
            image
        };

        // Push one page image to every planned replica provider. A refusal
        // means the provider is dead: feed the failure detector and fail
        // over to other live providers, so the page still reaches the
        // planned replica count and the metadata records where the copies
        // really landed. A page with no live home at all fails the write.
        let push = |page: u64, image: Vec<u8>| -> BlobResult<Vec<ProviderId>> {
            let replicas = &placements[(page - first_page) as usize];
            let key = page_key(blob, ticket.version, page);
            let image = Bytes::from(image);
            let mut stored: Vec<ProviderId> = Vec::with_capacity(replicas.len());
            for pid in replicas.iter() {
                let provider = sys
                    .provider_manager
                    .provider(*pid)
                    .ok_or(BlobSeerError::NoProviders)?;
                // The page image crosses the wire whether the provider
                // accepts or turns out to be dead.
                let pushed = provider.put_page(&key, image.clone());
                sys.charge_provider(
                    self.node,
                    provider.node(),
                    Direction::Write,
                    key.len() as u64 + image.len() as u64 + MSG_OVERHEAD,
                    MSG_OVERHEAD,
                );
                match pushed {
                    Ok(()) => stored.push(*pid),
                    Err(_) => sys.provider_manager.health().note_down((*pid).into()),
                }
            }
            // Fail over past dead planned replicas onto any other live
            // provider (all-alive writes never enter this loop).
            if stored.len() < replicas.len() {
                for provider in sys.provider_manager.providers() {
                    if stored.len() >= replicas.len() {
                        break;
                    }
                    let pid = provider.id();
                    if stored.contains(&pid) || replicas.contains(&pid) {
                        continue;
                    }
                    let pushed = provider.put_page(&key, image.clone());
                    sys.charge_provider(
                        self.node,
                        provider.node(),
                        Direction::Write,
                        key.len() as u64 + image.len() as u64 + MSG_OVERHEAD,
                        MSG_OVERHEAD,
                    );
                    if pushed.is_ok() {
                        stored.push(pid);
                    }
                }
            }
            if stored.is_empty() {
                return Err(BlobSeerError::NoProviders);
            }
            // Announce every copy so the repair pass can police this page's
            // replication and readers can fail over past the recorded set.
            for pid in &stored {
                sys.provider_manager.announce(&key, *pid);
            }
            Ok(stored)
        };
        // The interior pages go before the wait, one after another in page
        // order on the calling thread, like a read's destinations. Failure
        // semantics are per page: dead replicas are skipped, a page with no
        // live replica fails the write.
        for page in (first_page..=last_page).filter(|&p| !is_border(p)) {
            let replicas = push(page, image_of(page, &[]))?;
            stored.pages.insert(page, replicas);
        }

        // Step 3: wait for the predecessor, push the border pages built on
        // it, build the new tree, publish.
        let prev = sys.version_manager.wait_for_predecessor(ticket)?;
        for page in (first_page..=last_page).filter(|&p| is_border(p)) {
            let old = self.read_page_image(blob, &prev, pm, page)?;
            let replicas = push(page, image_of(page, &old))?;
            stored.pages.insert(page, replicas);
        }
        let prev_tree = PrevTree {
            root: prev.root,
            span: if prev.size == 0 {
                0
            } else {
                next_power_of_two(pm.pages_for(prev.size))
            },
        };
        let new_span = next_power_of_two(pm.pages_for(ticket.new_size));
        let root = build_version(
            &sys.metadata,
            blob,
            ticket.version,
            prev_tree,
            new_span,
            &stored.pages,
        )?;
        stored.root = Some(root);
        let info = sys.version_manager.commit(ticket, Some(root))?;

        sys.bytes_written
            .fetch_add(data.len() as u64, Ordering::Relaxed);
        sys.write_ops.fetch_add(1, Ordering::Relaxed);
        Ok(info.version)
    }

    /// Read the image of one page at a given version, zero-padded to the
    /// page's valid length. Used for boundary merges, at the predecessor.
    fn read_page_image(
        &self,
        blob: BlobId,
        version: &VersionInfo,
        pm: &PageMath,
        page: u64,
    ) -> BlobResult<Bytes> {
        let page_start = pm.page_start(page);
        if page_start >= version.size {
            return Ok(Bytes::new());
        }
        let len = (version.size - page_start).min(pm.page_size());
        self.read_bytes(blob, version, page_start, len)
    }

    /// Read `len` bytes at `offset` from a specific published version.
    pub fn read(&self, blob: BlobId, version: Version, offset: u64, len: u64) -> BlobResult<Bytes> {
        let info = self.system.version_manager.get_version(blob, version)?;
        self.read_bytes(blob, &info, offset, len)
    }

    /// Read from the latest published version.
    pub fn read_latest(&self, blob: BlobId, offset: u64, len: u64) -> BlobResult<Bytes> {
        let info = self.system.version_manager.latest(blob)?;
        self.read_bytes(blob, &info, offset, len)
    }

    /// The read path proper: resolve the pages, fetch their windows, and
    /// assemble them into one buffer sized up front — or, when one window
    /// serves the whole read, hand back the provider's bytes as they came.
    fn read_bytes(
        &self,
        blob: BlobId,
        info: &VersionInfo,
        offset: u64,
        len: u64,
    ) -> BlobResult<Bytes> {
        if len == 0 {
            return Ok(Bytes::new());
        }
        // Attribute this thread's metadata descent to the client's node.
        let _src = wire::source_guard(self.node);
        let sys = &self.system;
        // `checked_add`, not `+`: a huge offset must come back as
        // `OutOfBounds`, not wrap around and pass the bounds check in release
        // builds.
        let out_of_bounds = |requested_end| BlobSeerError::OutOfBounds {
            blob,
            version: info.version,
            requested_end,
            size: info.size,
        };
        let Some(requested_end) = offset.checked_add(len) else {
            return Err(out_of_bounds(u64::MAX));
        };
        if requested_end > info.size {
            return Err(out_of_bounds(requested_end));
        }
        let page_size = sys.page_size_of(blob)?;
        let pm = PageMath::new(page_size);
        let range = ByteRange::new(offset, len);
        let Some((first_page, last_page)) = pm.pages_touched(range) else {
            return Err(BlobSeerError::InvalidArgument("empty read range".into()));
        };
        let span = next_power_of_two(pm.pages_for(info.size));

        // One batched, cached metadata descent resolves every page of the
        // range.
        let locations = lookup_range(&sys.metadata, info.root, span, first_page, last_page)?;
        // One location per page of the range, in page order: metadata that
        // dropped, moved or repeated a page fails the read instead of
        // shifting its bytes.
        if !locations
            .iter()
            .map(|meta| meta.page)
            .eq(first_page..=last_page)
        {
            return Err(BlobSeerError::Metadata(dht::DhtError::NotFound {
                key: format!(
                    "pages {first_page}..={last_page} of {blob} at {}",
                    info.version
                ),
            }));
        }
        // Per-location byte window within the page: the read wants
        // `[from, to)` of a page whose valid (readable) length at this
        // version is `valid_len`. `to <= valid_len` always, because the
        // bounds check above pinned `range.end() <= info.size`.
        let windows: Vec<(usize, usize, usize)> = locations
            .iter()
            .map(|meta| {
                let page_start = pm.page_start(meta.page);
                let valid_len = ((info.size - page_start).min(page_size)) as usize;
                let from = (offset.max(page_start) - page_start) as usize;
                let to = ((range.end().min(page_start + page_size)) - page_start) as usize;
                (from, to, valid_len)
            })
            .collect();
        // Each fetch yields the window's stored bytes as a view into the
        // provider's response.
        let pieces = self.fetch_pages_coalesced(blob, &locations, &windows);

        // A read one stored window serves whole is that window: no copy.
        // Otherwise comes the one copy of the read: each view is appended in
        // order, and only holes, and windows reaching past the end of a
        // stored image, are filled with zeroes.
        let out = match (pieces.as_slice(), windows.as_slice()) {
            ([Ok(piece)], [(from, to, _)]) if piece.len() == to - from => piece.clone(),
            _ => {
                let mut out = Vec::with_capacity(len as usize);
                for (piece, &(from, to, _)) in pieces.into_iter().zip(&windows) {
                    let piece = piece?;
                    out.extend_from_slice(&piece);
                    out.resize(out.len() + (to - from - piece.len()), 0);
                }
                Bytes::from(out)
            }
        };

        sys.bytes_read.fetch_add(len, Ordering::Relaxed);
        sys.read_ops.fetch_add(1, Ordering::Relaxed);
        Ok(out)
    }

    /// The stored bytes of the `[from, to)` window within a provider's
    /// response, as a view into it.
    ///
    /// The response starts at `from` either way: a ranged one by request, a
    /// whole-page one because `from` is 0 (see [`Self::wire_window`]). It can
    /// end before the window does (the stored image is shorter than the
    /// valid length when the blob grew past this page's last write through a
    /// hole): the view is then shorter than the window and the remainder
    /// reads as zeroes.
    fn window_bytes(data: &Bytes, from: usize, to: usize) -> Bytes {
        data.slice(..(to - from).min(data.len()))
    }

    /// The `(offset, len)` a page window goes over the wire as: a strict
    /// sub-range asks for exactly its bytes, a whole-page window for
    /// `(0, None)`, through the end — it gains nothing from a range header.
    fn wire_window(from: usize, to: usize, valid_len: usize) -> (u64, Option<u64>) {
        if from != 0 || to != valid_len {
            (from as u64, Some((to - from) as u64))
        } else {
            (0, None)
        }
    }

    /// Fetch the `[from, to)` window of one page from its replicas, failing
    /// over across dead providers; holes read as zeroes without touching the
    /// wire. Pages are stored on providers under the version of the write
    /// that *created* them, which the metadata lookup reports in
    /// [`PageMeta::created`]. Only the window's bytes cross the wire.
    ///
    /// The metadata's provider list is where the write put the copies; under
    /// churn the repair pass may since have rebuilt replicas elsewhere, so
    /// after exhausting the recorded set the read chases the page-announcement
    /// registry. A miss after that walk is final: a provider that refused is
    /// dead, and a dead provider never serves again.
    fn fetch_page_window(
        &self,
        blob: BlobId,
        meta: &crate::metadata::segment_tree::PageMeta,
        valid_len: usize,
        from: usize,
        to: usize,
    ) -> BlobResult<Bytes> {
        let created = match meta.created {
            // A hole: never written, nothing stored.
            None => return Ok(Bytes::new()),
            Some(v) => v,
        };
        let sys = &self.system;
        let (offset, len) = Self::wire_window(from, to, valid_len);
        let key = page_key(blob, created, meta.page);
        // Recorded replicas first, then any holder announced since (a
        // repair copy); skip duplicates.
        let mut candidates = meta.providers.clone();
        for pid in sys.provider_manager.holders(&key) {
            if !candidates.contains(&pid) {
                candidates.push(pid);
            }
        }
        for pid in &candidates {
            let Some(provider) = sys.provider_manager.provider(*pid) else {
                continue;
            };
            let resp = provider.download_page(&key, offset, len);
            let resp_bytes = match &resp {
                Ok(Some(d)) => d.len() as u64,
                _ => 0,
            };
            self.system.charge_provider(
                self.node,
                provider.node(),
                Direction::Read,
                key.len() as u64 + MSG_OVERHEAD,
                resp_bytes + MSG_OVERHEAD,
            );
            match resp {
                Ok(Some(data)) => return Ok(Self::window_bytes(&data, from, to)),
                Ok(None) => {}
                Err(_) => sys.provider_manager.health().note_down((*pid).into()),
            }
        }
        Err(BlobSeerError::PageUnavailable {
            blob,
            version: created,
            page: meta.page,
            tried: meta.providers.clone(),
        })
    }

    /// Fetch every page window of a read with per-destination coalescing:
    /// the demand fetches bound for the same (first-replica) provider fold
    /// into one `DownloadMany` call — one wire exchange, one latency charge —
    /// per destination. Destinations are served one after another in
    /// provider-id order, each exchange charged as it is served, so a
    /// single-threaded caller charges a deterministic exchange sequence.
    /// Holes resolve locally; anything a batch could not answer (provider
    /// dead, page missing, page not in the recorded first replica) falls
    /// back to the per-page fail-over path.
    fn fetch_pages_coalesced(
        &self,
        blob: BlobId,
        locations: &[crate::metadata::segment_tree::PageMeta],
        windows: &[(usize, usize, usize)],
    ) -> Vec<BlobResult<Bytes>> {
        let sys = &self.system;
        let mut out: Vec<Option<BlobResult<Bytes>>> = locations.iter().map(|_| None).collect();
        let mut groups: BTreeMap<ProviderId, Vec<(usize, Version)>> = BTreeMap::new();
        for (i, meta) in locations.iter().enumerate() {
            match (meta.created, meta.providers.first()) {
                (None, _) => out[i] = Some(Ok(Bytes::new())),
                (Some(created), Some(pid)) => groups.entry(*pid).or_default().push((i, created)),
                // No recorded provider: leave for the fall-back path, which
                // also chases the announcement registry.
                (Some(_), None) => {}
            }
        }
        for (pid, group) in &groups {
            let Some(provider) = sys.provider_manager.provider(*pid) else {
                continue;
            };
            let requests: Vec<PageRequest> = group
                .iter()
                .map(|&(i, created)| {
                    let (from, to, valid_len) = windows[i];
                    let (offset, len) = Self::wire_window(from, to, valid_len);
                    let key = page_key(blob, created, locations[i].page);
                    PageRequest { key, offset, len }
                })
                .collect();
            let req_bytes: u64 = requests.iter().map(|r| r.key.len() as u64).sum();
            let resp = provider.download_many(requests);
            let resp_bytes: u64 = match &resp {
                Ok(slots) => slots.iter().flatten().map(|d| d.len() as u64).sum(),
                Err(_) => 0,
            };
            sys.charge_provider(
                self.node,
                provider.node(),
                Direction::Read,
                req_bytes + MSG_OVERHEAD,
                resp_bytes + MSG_OVERHEAD,
            );
            match resp {
                Ok(slots) => {
                    for (&(i, _), slot) in group.iter().zip(slots) {
                        if let Some(data) = slot {
                            let (from, to, _) = windows[i];
                            out[i] = Some(Ok(Self::window_bytes(&data, from, to)));
                        }
                    }
                }
                Err(_) => sys.provider_manager.health().note_down((*pid).into()),
            }
        }
        out.into_iter()
            .enumerate()
            .map(|(i, slot)| {
                slot.unwrap_or_else(|| {
                    let (from, to, valid_len) = windows[i];
                    self.fetch_page_window(blob, &locations[i], valid_len, from, to)
                })
            })
            .collect()
    }

    /// Expose the page-to-provider distribution of a byte range, so that a
    /// MapReduce scheduler can ship computation to the data (§III-B: "we
    /// extended BlobSeer with a new primitive, that exposes the pages
    /// distribution to providers").
    pub fn locate(
        &self,
        blob: BlobId,
        version: Version,
        offset: u64,
        len: u64,
    ) -> BlobResult<Vec<PageLocation>> {
        let _src = wire::source_guard(self.node);
        let sys = &self.system;
        let info = sys.version_manager.get_version(blob, version)?;
        if len == 0 || info.size == 0 {
            return Ok(Vec::new());
        }
        // Saturating: locate clamps to the blob size anyway, so an
        // overflowing `offset + len` just means "to the end".
        let end = offset.saturating_add(len).min(info.size);
        if offset >= end {
            return Ok(Vec::new());
        }
        let page_size = sys.page_size_of(blob)?;
        let pm = PageMath::new(page_size);
        let range = ByteRange::new(offset, end - offset);
        let Some((first_page, last_page)) = pm.pages_touched(range) else {
            return Err(BlobSeerError::InvalidArgument("empty locate range".into()));
        };
        let span = next_power_of_two(pm.pages_for(info.size));
        let locations = lookup_range(&sys.metadata, info.root, span, first_page, last_page)?;

        Ok(locations
            .into_iter()
            .map(|meta| {
                let page_range = pm.page_range(meta.page);
                let clamped = page_range
                    .intersection(&range)
                    .unwrap_or(ByteRange::new(0, 0));
                let nodes = meta
                    .providers
                    .iter()
                    .filter_map(|p| sys.provider_manager.node_of(*p))
                    .collect();
                PageLocation {
                    page: meta.page,
                    range: clamped,
                    providers: meta.providers,
                    nodes,
                }
            })
            .collect())
    }

    /// Locate on the latest version.
    pub fn locate_latest(
        &self,
        blob: BlobId,
        offset: u64,
        len: u64,
    ) -> BlobResult<Vec<PageLocation>> {
        let info = self.latest_version(blob)?;
        self.locate(blob, info.version, offset, len)
    }

    /// All published versions of a blob (snapshot history).
    pub fn versions(&self, blob: BlobId) -> BlobResult<Vec<VersionInfo>> {
        self.system.version_manager.published_versions(blob)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metadata::TreeNode;
    use crate::provider_manager::PlacementStrategy;
    use std::sync::atomic::AtomicBool;
    use std::time::Duration;

    fn small_system() -> Arc<BlobSeer> {
        BlobSeer::new(BlobSeerConfig::for_tests())
    }

    #[test]
    fn create_write_read_roundtrip() {
        let sys = small_system();
        let client = sys.client();
        let blob = client.create(Some(16)).unwrap();
        assert_eq!(sys.page_size_of(blob).unwrap(), 16);

        let v1 = client.write(blob, 0, b"hello, blobseer!").unwrap();
        assert_eq!(v1, Version(1));
        assert_eq!(client.size(blob).unwrap(), 16);
        assert_eq!(
            &client.read_latest(blob, 0, 16).unwrap()[..],
            b"hello, blobseer!"
        );
        assert_eq!(&client.read_latest(blob, 7, 8).unwrap()[..], b"blobseer");
    }

    #[test]
    fn multi_page_write_and_subrange_reads() {
        let sys = small_system();
        let client = sys.client();
        let blob = client.create(Some(8)).unwrap();
        // 50 bytes over 8-byte pages: 7 pages, last partial.
        let data: Vec<u8> = (0..50u8).collect();
        client.write(blob, 0, &data).unwrap();
        assert_eq!(client.size(blob).unwrap(), 50);
        assert_eq!(client.read_latest(blob, 0, 50).unwrap().to_vec(), data);
        // Unaligned sub-range crossing page boundaries.
        assert_eq!(
            client.read_latest(blob, 5, 20).unwrap().to_vec(),
            data[5..25].to_vec()
        );
        assert_eq!(
            client.read_latest(blob, 47, 3).unwrap().to_vec(),
            data[47..50].to_vec()
        );
    }

    #[test]
    fn versions_are_immutable_snapshots() {
        let sys = small_system();
        let client = sys.client();
        let blob = client.create(Some(4)).unwrap();
        let v1 = client.write(blob, 0, b"AAAAAAAA").unwrap();
        let v2 = client.write(blob, 4, b"BBBB").unwrap();
        let v3 = client.write(blob, 0, b"CC").unwrap();

        assert_eq!(&client.read(blob, v1, 0, 8).unwrap()[..], b"AAAAAAAA");
        assert_eq!(&client.read(blob, v2, 0, 8).unwrap()[..], b"AAAABBBB");
        assert_eq!(&client.read(blob, v3, 0, 8).unwrap()[..], b"CCAABBBB");
        // History is listed oldest-first.
        let versions = client.versions(blob).unwrap();
        assert_eq!(versions.len(), 4); // v0..v3
        assert_eq!(versions[3].version, v3);
    }

    #[test]
    fn appends_extend_the_blob() {
        let sys = small_system();
        let client = sys.client();
        let blob = client.create(Some(8)).unwrap();
        client.append(blob, b"0123456789").unwrap();
        client.append(blob, b"abcde").unwrap();
        assert_eq!(client.size(blob).unwrap(), 15);
        assert_eq!(
            &client.read_latest(blob, 0, 15).unwrap()[..],
            b"0123456789abcde"
        );
        // The second append started mid-page (offset 10 with 8-byte pages):
        // boundary merge must have preserved the first append's tail.
        assert_eq!(&client.read_latest(blob, 8, 4).unwrap()[..], b"89ab");
    }

    #[test]
    fn sparse_write_reads_zeroes_in_the_hole() {
        let sys = small_system();
        let client = sys.client();
        let blob = client.create(Some(8)).unwrap();
        client.write(blob, 0, b"head").unwrap();
        client.write(blob, 32, b"tail").unwrap();
        assert_eq!(client.size(blob).unwrap(), 36);
        let all = client.read_latest(blob, 0, 36).unwrap();
        assert_eq!(&all[0..4], b"head");
        assert!(
            all[4..32].iter().all(|b| *b == 0),
            "hole must read as zeroes"
        );
        assert_eq!(&all[32..36], b"tail");
    }

    #[test]
    fn out_of_bounds_read_is_rejected() {
        let sys = small_system();
        let client = sys.client();
        let blob = client.create(Some(8)).unwrap();
        client.write(blob, 0, b"12345").unwrap();
        assert!(matches!(
            client.read_latest(blob, 0, 6),
            Err(BlobSeerError::OutOfBounds { .. })
        ));
        assert!(matches!(
            client.read_latest(blob, 10, 1),
            Err(BlobSeerError::OutOfBounds { .. })
        ));
        // Zero-length read anywhere is fine and returns empty bytes.
        assert!(client.read_latest(blob, 0, 0).unwrap().is_empty());
    }

    #[test]
    fn huge_offset_write_is_rejected_not_wrapped() {
        // Regression: `reserve` computed `offset + len` unchecked, so a huge
        // offset wrapped in release builds, reserved a bogus tiny size and
        // crashed the writer mid-build — leaving its ticket outstanding.
        let sys = small_system();
        let client = sys.client();
        let blob = client.create(Some(8)).unwrap();
        assert!(matches!(
            client.write(blob, u64::MAX - 10, &[1u8; 100]),
            Err(BlobSeerError::InvalidArgument(_))
        ));
        // The rejected attempt reserved nothing: the next write proceeds.
        client.write(blob, 0, b"ok").unwrap();
        assert_eq!(&client.read_latest(blob, 0, 2).unwrap()[..], b"ok");
    }

    #[test]
    fn failed_write_aborts_its_ticket_so_later_writers_proceed() {
        // Regression: an error between reserve and commit (here: no live
        // provider) used to leave the reserved version outstanding forever,
        // deadlocking every subsequent writer in wait_for_predecessor.
        let sys = small_system();
        let client = sys.client();
        let blob = client.create(Some(16)).unwrap();
        client.write(blob, 0, b"seed").unwrap();
        for p in sys.provider_manager().providers() {
            sys.kill(p.id()).unwrap();
        }
        assert!(matches!(
            client.write(blob, 0, b"fail"),
            Err(BlobSeerError::NoProviders)
        ));
        // Fresh machines join; the dead ones stay dead. The next write
        // covers the blob's one page, so it needs nothing they held.
        for host in 0..2 {
            sys.join(sys.topology().node(host));
        }
        // Would hang before the abort-on-error fix.
        let v = client.write(blob, 0, b"okay").unwrap();
        assert_eq!(&client.read(blob, v, 0, 4).unwrap()[..], b"okay");
    }

    #[test]
    fn huge_offset_read_is_rejected_not_wrapped() {
        // Regression: `offset + len` used to be unchecked, so a read at
        // offset u64::MAX - 1 wrapped around in release builds, passed the
        // bounds check and then panicked deep in page arithmetic.
        let sys = small_system();
        let client = sys.client();
        let blob = client.create(Some(8)).unwrap();
        client.write(blob, 0, b"payload!").unwrap();
        for len in [2u64, 4, 1 << 40] {
            assert!(
                matches!(
                    client.read_latest(blob, u64::MAX - 1, len),
                    Err(BlobSeerError::OutOfBounds { .. })
                ),
                "offset u64::MAX - 1, len {len} must be out of bounds"
            );
        }
        // Saturating locate on the same offsets just reports nothing.
        assert!(client
            .locate_latest(blob, u64::MAX - 1, 2)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn parallel_multi_page_read_returns_bytes_in_order() {
        // 32 pages pushed over 8 providers and fetched back in one batch per
        // provider must reassemble exactly.
        let sys = BlobSeer::new(BlobSeerConfig::for_tests().with_providers(8));
        let client = sys.client();
        let blob = client.create(Some(64)).unwrap();
        let data: Vec<u8> = (0..64 * 32).map(|i| (i % 251) as u8).collect();
        client.write(blob, 0, &data).unwrap();
        assert_eq!(
            client.read_latest(blob, 0, data.len() as u64).unwrap(),
            data
        );
        // Unaligned sub-range crossing many pages.
        assert_eq!(
            client.read_latest(blob, 100, 1500).unwrap(),
            data[100..1600].to_vec()
        );
    }

    /// Write `pages` pages of 16 bytes one page per version: the tree of the
    /// last version has the shape of a one-write tree, but every inner node
    /// shares a child with an older version, so none is full.
    fn write_one_page_at_a_time(client: &BlobSeerClient, blob: BlobId, pages: u64, byte: u8) {
        for page in 0..pages {
            client.write(blob, page * 16, &[byte; 16]).unwrap();
        }
    }

    #[test]
    fn read_path_batches_and_caches_metadata_round_trips() {
        let sys = BlobSeer::new(BlobSeerConfig::for_tests().with_providers(8));
        let client = sys.client();
        let blob = client.create(Some(16)).unwrap();
        write_one_page_at_a_time(&client, blob, 16, 7);
        let data = vec![7u8; 16 * 16]; // 16 pages
        let after_write = sys.metadata().stats();

        // First read: the cache was pre-warmed by the writes' own batch
        // flushes, so the whole descent is answered without touching the DHT.
        assert_eq!(
            client.read_latest(blob, 0, data.len() as u64).unwrap(),
            data
        );
        let after_read = sys.metadata().stats();
        assert_eq!(
            after_read.dht_read_round_trips, after_write.dht_read_round_trips,
            "a writer reading back its own version must not hit the DHT"
        );
        assert!(after_read.cache_hits >= 31, "full 16-page tree descent");
        assert!(after_read.batch_lookups > after_write.batch_lookups);
    }

    /// Write 32 pages of 16 bytes at once, then rewrite page 0: the second
    /// version shares the first's (16, 16) subtree, which is implied under
    /// the first version's mapped root, so its root links that root as the
    /// half's anchor and a read of pages 16..32 resolves them there.
    fn write_a_block_then_rewrite_its_first_page(client: &BlobSeerClient, blob: BlobId, byte: u8) {
        client.write(blob, 0, &[byte; 32 * 16]).unwrap();
        client.write(blob, 0, &[byte; 16]).unwrap();
    }

    #[test]
    fn a_warm_read_through_a_shared_block_resolves_its_pages_at_the_anchor() {
        let sys = BlobSeer::new(BlobSeerConfig::for_tests().with_providers(8));
        let client = sys.client();
        let blob = client.create(Some(16)).unwrap();
        write_a_block_then_rewrite_its_first_page(&client, blob, 7);
        let data = vec![7u8; 16 * 16]; // pages 16..32, under the anchor
        let before = sys.metadata().stats();
        assert_eq!(
            client
                .read_latest(blob, 16 * 16, data.len() as u64)
                .unwrap(),
            data
        );
        let after = sys.metadata().stats();
        assert_eq!(after.dht_read_round_trips, before.dht_read_round_trips);
        // The root, then the anchor, whose map answers the 16 pages: two
        // batches, both from the cache.
        assert_eq!(after.nodes_read - before.nodes_read, 2);
        assert_eq!(after.cache_hits - before.cache_hits, 2);
        assert_eq!(after.batch_lookups - before.batch_lookups, 2);
    }

    #[test]
    fn a_warm_read_of_one_write_resolves_its_pages_at_the_mapped_root() {
        let sys = BlobSeer::new(BlobSeerConfig::for_tests().with_providers(8));
        let client = sys.client();
        let blob = client.create(Some(16)).unwrap();
        let data = vec![7u8; 16 * 16]; // 16 pages in one write: a mapped root
        client.write(blob, 0, &data).unwrap();
        let before = sys.metadata().stats();
        assert_eq!(
            client.read_latest(blob, 0, data.len() as u64).unwrap(),
            data
        );
        let after = sys.metadata().stats();
        assert_eq!(after.dht_read_round_trips, before.dht_read_round_trips);
        // The root alone answers all 16 pages.
        assert_eq!(after.nodes_read - before.nodes_read, 1);
        assert_eq!(after.cache_hits - before.cache_hits, 1);
        assert_eq!(after.batch_lookups - before.batch_lookups, 1);
    }

    #[test]
    fn uncached_read_path_still_batches_by_tree_level() {
        let sys = BlobSeer::new(BlobSeerConfig::for_tests().with_providers(3));
        let client = sys.client();
        let blob = client.create(Some(16)).unwrap();
        // 16 pages -> 31-node tree, depth 5
        write_one_page_at_a_time(&client, blob, 16, 9);
        let data = vec![9u8; 16 * 16];
        // A cold descent: forget what the writes' publications pre-warmed.
        sys.metadata().drop_cached_nodes();
        let before = sys.metadata().stats();
        assert_eq!(
            client.read_latest(blob, 0, data.len() as u64).unwrap(),
            data
        );
        let after = sys.metadata().stats();
        let read_rts = after.dht_read_round_trips - before.dht_read_round_trips;
        let nodes = after.nodes_read - before.nodes_read;
        assert_eq!(nodes, 31, "full tree visited");
        assert_eq!(after.cache_hits, before.cache_hits);
        // 5 levels x at most 3 machines, versus 31 per-node gets.
        assert!(
            read_rts <= 15,
            "expected level-batched reads, got {read_rts}"
        );
        assert!((read_rts as f64) < 0.6 * nodes as f64);
    }

    #[test]
    fn an_uncached_read_through_a_shared_block_pays_two_batches() {
        let sys = BlobSeer::new(BlobSeerConfig::for_tests().with_providers(8));
        let client = sys.client();
        let blob = client.create(Some(16)).unwrap();
        write_a_block_then_rewrite_its_first_page(&client, blob, 9);
        let data = vec![9u8; 16 * 16]; // pages 16..32, under the anchor
        sys.metadata().drop_cached_nodes();
        let before = sys.metadata().stats();
        assert_eq!(
            client
                .read_latest(blob, 16 * 16, data.len() as u64)
                .unwrap(),
            data
        );
        let after = sys.metadata().stats();
        let read_rts = after.dht_read_round_trips - before.dht_read_round_trips;
        // The root, then the anchor, both from the DHT.
        assert_eq!(after.nodes_read - before.nodes_read, 2);
        assert_eq!(after.cache_misses - before.cache_misses, 2);
        assert_eq!(after.cache_hits, before.cache_hits);
        assert_eq!(after.batch_lookups - before.batch_lookups, 2);
        // One round trip each.
        assert_eq!(read_rts, 2);
    }

    #[test]
    fn an_uncached_read_of_one_write_pays_one_node() {
        let sys = BlobSeer::new(BlobSeerConfig::for_tests().with_providers(8));
        let client = sys.client();
        let blob = client.create(Some(16)).unwrap();
        let data = vec![9u8; 16 * 16]; // 16 pages in one write: a mapped root
        client.write(blob, 0, &data).unwrap();
        sys.metadata().drop_cached_nodes();
        let before = sys.metadata().stats();
        assert_eq!(
            client.read_latest(blob, 0, data.len() as u64).unwrap(),
            data
        );
        let after = sys.metadata().stats();
        // The root, from the DHT, answers all 16 pages.
        assert_eq!(after.nodes_read - before.nodes_read, 1);
        assert_eq!(after.cache_misses - before.cache_misses, 1);
        assert_eq!(after.cache_hits, before.cache_hits);
        assert_eq!(after.batch_lookups - before.batch_lookups, 1);
        assert_eq!(after.dht_read_round_trips - before.dht_read_round_trips, 1);
    }

    /// Pages 0..4 of 16 bytes written one page per version, page 2's leaf
    /// key `(v3, 2, 1)`, and the `case`-th of two nodes that once made a read
    /// return `Ok` when stored there: one that drops page 2, and page 3's
    /// leaf, which reports page 3 twice and page 2 never.
    fn four_pages_and_a_wrong_node_for_page_2(
        case: usize,
    ) -> (Arc<BlobSeer>, BlobId, NodeKey, TreeNode) {
        let sys = BlobSeer::new(BlobSeerConfig::for_tests().with_providers(4));
        let client = sys.client();
        let blob = client.create(Some(16)).unwrap();
        for page in 0..4u8 {
            client.write(blob, page as u64 * 16, &[page; 16]).unwrap();
        }
        let leaf = |page: u64| NodeKey {
            blob,
            version: Version(page + 1),
            offset: page,
            span: 1,
        };
        let node = match case {
            0 => TreeNode::Inner {
                left: None,
                right: None,
            },
            _ => sys.metadata().get_node(leaf(3)).unwrap(),
        };
        (sys, blob, leaf(2), node)
    }

    #[test]
    fn a_stored_node_of_the_wrong_kind_fails_the_read() {
        for case in 0..2 {
            let (sys, blob, at, node) = four_pages_and_a_wrong_node_for_page_2(case);
            let dht = sys.metadata().dht();
            dht.put(at.dht_key().as_bytes(), node.encode().into())
                .unwrap();
            sys.metadata().drop_cached_nodes();
            let client = sys.client();
            let got = client.read(blob, Version(4), 0, 64);
            assert!(
                matches!(got, Err(BlobSeerError::Metadata(_))),
                "{node:?}: {got:?}"
            );
            sys.metadata().drop_cached_nodes();
            assert!(client.locate(blob, Version(4), 0, 64).is_err());
        }
    }

    #[test]
    fn a_read_fails_unless_its_lookup_returns_each_page_once() {
        // A writer's cache serves a node as it was published, unchecked: the
        // lookup then drops or repeats a page, and the read must fail rather
        // than shift the bytes that remain.
        for case in 0..2 {
            let (sys, blob, at, node) = four_pages_and_a_wrong_node_for_page_2(case);
            sys.metadata().put_node(at, &node).unwrap();
            let info = sys.version_manager().get_version(blob, Version(4)).unwrap();
            let pages = lookup_range(sys.metadata(), info.root, 4, 0, 3).unwrap();
            assert_ne!(
                pages.iter().map(|m| m.page).collect::<Vec<_>>(),
                [0, 1, 2, 3]
            );
            let got = sys.client().read(blob, Version(4), 0, 64);
            assert!(
                matches!(got, Err(BlobSeerError::Metadata(_))),
                "{node:?}: {got:?}"
            );
        }
    }

    #[test]
    fn empty_write_and_unknown_blob_errors() {
        let sys = small_system();
        let client = sys.client();
        let blob = client.create(None).unwrap();
        assert!(matches!(
            client.write(blob, 0, b""),
            Err(BlobSeerError::InvalidArgument(_))
        ));
        assert!(matches!(
            client.read_latest(BlobId(999), 0, 1),
            Err(BlobSeerError::UnknownBlob(_))
        ));
        assert!(matches!(
            client.create(Some(0)),
            Err(BlobSeerError::InvalidArgument(_))
        ));
    }

    #[test]
    fn delete_blob_removes_it() {
        let sys = small_system();
        let client = sys.client();
        let blob = client.create(None).unwrap();
        client.append(blob, b"x").unwrap();
        client.delete(blob).unwrap();
        assert!(client.size(blob).is_err());
        assert!(sys.page_size_of(blob).is_err());
    }

    #[test]
    fn locate_exposes_page_distribution() {
        let sys = small_system();
        let client = sys.client();
        let blob = client.create(Some(8)).unwrap();
        let v = client.write(blob, 0, &[7u8; 32]).unwrap();
        let locs = client.locate(blob, v, 0, 32).unwrap();
        assert_eq!(locs.len(), 4);
        for (i, loc) in locs.iter().enumerate() {
            assert_eq!(loc.page, i as u64);
            assert_eq!(loc.range.len, 8);
            assert_eq!(loc.providers.len(), 1);
            assert_eq!(loc.nodes.len(), 1);
        }
        // With load-balanced placement over 4 providers, the 4 pages land on
        // 4 distinct providers.
        let unique: std::collections::HashSet<_> = locs.iter().map(|l| l.providers[0]).collect();
        assert_eq!(unique.len(), 4);
        // A sub-range only reports the pages it touches, clamped.
        let locs = client.locate_latest(blob, 10, 10).unwrap();
        assert_eq!(locs.len(), 2);
        assert_eq!(locs[0].range, ByteRange::new(10, 6));
        assert_eq!(locs[1].range, ByteRange::new(16, 4));
        // Empty range locates nothing.
        assert!(client.locate_latest(blob, 0, 0).unwrap().is_empty());
    }

    #[test]
    fn page_replication_survives_provider_failure() {
        let config = BlobSeerConfig::for_tests()
            .with_providers(4)
            .with_page_replication(2);
        let sys = BlobSeer::new(config);
        let client = sys.client();
        let blob = client.create(Some(16)).unwrap();
        let data: Vec<u8> = (0..64u8).collect();
        let v = client.write(blob, 0, &data).unwrap();

        // Kill the primary replica of every page; reads must fail over.
        let locs = client.locate(blob, v, 0, 64).unwrap();
        for loc in &locs {
            sys.kill(loc.providers[0]).unwrap();
        }
        assert_eq!(client.read(blob, v, 0, 64).unwrap().to_vec(), data);
    }

    #[test]
    fn read_fails_cleanly_when_all_replicas_are_dead() {
        let sys = small_system();
        let client = sys.client();
        let blob = client.create(Some(16)).unwrap();
        let v = client.write(blob, 0, &[1u8; 16]).unwrap();
        for p in sys.provider_manager().providers() {
            sys.kill(p.id()).unwrap();
        }
        assert!(matches!(
            client.read(blob, v, 0, 16),
            Err(BlobSeerError::PageUnavailable { .. })
        ));
    }

    #[test]
    fn write_fails_when_no_provider_is_alive() {
        let sys = small_system();
        let client = sys.client();
        let blob = client.create(Some(16)).unwrap();
        for p in sys.provider_manager().providers() {
            sys.kill(p.id()).unwrap();
        }
        assert!(matches!(
            client.write(blob, 0, b"data"),
            Err(BlobSeerError::NoProviders)
        ));
    }

    #[test]
    fn concurrent_writers_to_distinct_blobs() {
        let sys = BlobSeer::new(BlobSeerConfig::for_tests().with_providers(8));
        let mut handles = Vec::new();
        for t in 0..8u8 {
            let client = sys.client_on(sys.topology().node(t as u32 % 8));
            handles.push(std::thread::spawn(move || {
                let blob = client.create(Some(64)).unwrap();
                let data = vec![t; 1024];
                client.write(blob, 0, &data).unwrap();
                assert_eq!(client.read_latest(blob, 0, 1024).unwrap().to_vec(), data);
                blob
            }));
        }
        let blobs: Vec<BlobId> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        let unique: std::collections::HashSet<_> = blobs.iter().collect();
        assert_eq!(unique.len(), 8, "each thread gets its own blob id");
        assert_eq!(sys.stats().write_ops, 8);
    }

    #[test]
    fn concurrent_appenders_to_the_same_blob_never_lose_data() {
        let sys = BlobSeer::new(BlobSeerConfig::for_tests().with_providers(8));
        let client0 = sys.client();
        // Page size 64, records of 64 bytes: appends are page-aligned.
        let blob = client0.create(Some(64)).unwrap();
        let mut handles = Vec::new();
        for t in 0..6u8 {
            let client = sys.client_on(sys.topology().node(t as u32));
            handles.push(std::thread::spawn(move || {
                for _ in 0..10 {
                    client.append(blob, &[t; 64]).unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        // 60 appends of 64 bytes each.
        assert_eq!(client0.size(blob).unwrap(), 60 * 64);
        let all = client0.read_latest(blob, 0, 60 * 64).unwrap();
        // Every 64-byte record is uniform (no torn appends) and each writer's
        // records appear exactly 10 times.
        let mut counts = [0usize; 6];
        for rec in all.chunks(64) {
            let tag = rec[0];
            assert!(rec.iter().all(|b| *b == tag), "torn append detected");
            counts[tag as usize] += 1;
        }
        assert!(
            counts.iter().all(|c| *c == 10),
            "lost or duplicated appends: {counts:?}"
        );
        // Version history is gap-free.
        assert_eq!(client0.latest_version(blob).unwrap().version, Version(60));
    }

    #[test]
    fn load_balanced_placement_spreads_pages_of_one_writer() {
        let sys = BlobSeer::new(
            BlobSeerConfig::for_tests()
                .with_providers(8)
                .with_placement(PlacementStrategy::LoadBalanced),
        );
        let client = sys.client();
        let blob = client.create(Some(128)).unwrap();
        client.write(blob, 0, &vec![1u8; 128 * 16]).unwrap();
        let load = sys.provider_manager().allocation_load();
        assert_eq!(load.len(), 8, "all providers should receive pages");
        assert!(load.values().all(|c| *c == 2));
    }

    #[test]
    fn local_first_placement_keeps_pages_on_the_writer_node() {
        let sys = BlobSeer::new(
            BlobSeerConfig::for_tests()
                .with_providers(4)
                .with_placement(PlacementStrategy::LocalFirst),
        );
        let client = sys.client_on(sys.topology().node(2));
        let blob = client.create(Some(128)).unwrap();
        let v = client.write(blob, 0, &vec![1u8; 128 * 8]).unwrap();
        let locs = client.locate(blob, v, 0, 128 * 8).unwrap();
        for loc in locs {
            assert_eq!(loc.nodes[0], sys.topology().node(2));
        }
    }

    #[test]
    fn stats_track_bytes() {
        let sys = small_system();
        let client = sys.client();
        let blob = client.create(Some(32)).unwrap();
        client.write(blob, 0, &[0u8; 100]).unwrap();
        client.read_latest(blob, 0, 100).unwrap();
        let stats = sys.stats();
        assert_eq!(stats.bytes_written, 100);
        assert_eq!(stats.bytes_read, 100);
        assert_eq!(stats.write_ops, 1);
        assert_eq!(stats.read_ops, 1);
    }

    /// Metadata entries in the DHT plus page images on the providers: the
    /// storage the rewrite-loop GC tests assert stays flat.
    fn footprint(sys: &Arc<BlobSeer>) -> (usize, usize) {
        let metadata_entries = sys.metadata().dht().stats().total_entries;
        let pages: usize = sys
            .provider_manager()
            .providers()
            .iter()
            .map(|p| p.stats().pages)
            .sum();
        (metadata_entries, pages)
    }

    #[test]
    fn gc_without_a_policy_is_a_no_op() {
        let sys = small_system();
        let client = sys.client();
        let blob = client.create(Some(4)).unwrap();
        for _ in 0..5 {
            client.write(blob, 0, b"01234567").unwrap();
        }
        let before = footprint(&sys);
        let report = sys.collect_garbage().unwrap();
        assert_eq!(report, crate::gc::GcReport::default());
        assert_eq!(footprint(&sys), before);
        assert_eq!(client.versions(blob).unwrap().len(), 6);
    }

    #[test]
    fn gc_loop_keeps_the_footprint_flat_and_survivors_byte_identical() {
        let sys = BlobSeer::new(BlobSeerConfig::for_tests().with_gc_keep_last(2));
        let client = sys.client();
        let blob = client.create(Some(4)).unwrap();
        let v1 = client.write(blob, 0, b"pinned-snapshot!").unwrap();
        sys.pin_snapshot(blob, v1).unwrap();

        let mut steady = None;
        for round in 0..20u8 {
            let data = vec![b'a' + (round % 26); 32];
            let v = client.write(blob, 0, &data).unwrap();
            let report = sys.collect_garbage().unwrap();
            if round >= 2 {
                // Beyond keep-last-2, every round retires exactly one
                // full-overwrite version and reclaims its tree and pages.
                assert_eq!(report.versions_retired, 1, "round {round}");
                assert!(report.nodes_removed > 0, "round {round}");
                assert!(report.pages_deleted > 0, "round {round}");
            }
            // The rewrite loop must not grow storage: once the retention
            // window fills, the post-GC footprint is constant.
            let now = footprint(&sys);
            match steady {
                None if round >= 2 => steady = Some(now),
                Some(expected) => assert_eq!(now, expected, "footprint grew at round {round}"),
                None => {}
            }
            assert_eq!(&client.read(blob, v, 0, 32).unwrap()[..], &data[..]);
        }

        // The pinned snapshot and the retention window survive, byte-identical.
        assert_eq!(
            &client.read(blob, v1, 0, 16).unwrap()[..],
            b"pinned-snapshot!"
        );
        let survivors = client.versions(blob).unwrap();
        let versions: Vec<Version> = survivors.iter().map(|i| i.version).collect();
        assert_eq!(versions, vec![v1, Version(20), Version(21)]);
        assert_eq!(
            &client.read(blob, Version(20), 0, 32).unwrap()[..],
            &vec![b'a' + 18; 32][..]
        );
        // Retired snapshots are gone for good.
        assert!(matches!(
            client.read(blob, Version(5), 0, 32),
            Err(BlobSeerError::UnknownVersion { .. })
        ));

        // Unpinning frees the snapshot at the next cycle and shrinks storage.
        let before = footprint(&sys);
        assert!(sys.unpin_snapshot(blob, v1).unwrap());
        let report = sys.collect_garbage().unwrap();
        assert_eq!(report.versions_retired, 1);
        let after = footprint(&sys);
        assert!(after.0 < before.0 && after.1 < before.1);
    }

    #[test]
    fn gc_preserves_pages_shared_with_surviving_versions() {
        // Partial overwrites: surviving trees share subtrees with retired
        // ones, and the sweep must not reclaim shared nodes or pages.
        let sys = BlobSeer::new(BlobSeerConfig::for_tests().with_gc_keep_last(1));
        let client = sys.client();
        let blob = client.create(Some(4)).unwrap();
        // v1 writes the whole blob; v2 and v3 each rewrite 4 bytes. After
        // retiring v1 and v2, v3 still resolves untouched pages to v1 images.
        client.write(blob, 0, b"AAAAAAAAAAAAAAAA").unwrap();
        client.write(blob, 4, b"BBBB").unwrap();
        client.write(blob, 8, b"CCCC").unwrap();
        let report = sys.collect_garbage().unwrap();
        // v0 (empty), v1 and v2 all retire; only v3 is within the window.
        assert_eq!(report.versions_retired, 3);
        assert_eq!(
            &client.read_latest(blob, 0, 16).unwrap()[..],
            b"AAAABBBBCCCCAAAA"
        );
        // v1's shared pages survived; only v2's superseded "BBBB" image (and
        // v1's superseded page-1/page-2 images) were reclaimable. The page-1
        // image of v1 was overwritten by v2 which was itself retired — but
        // v2's page-1 leaf is shared by v3, so it must survive.
        assert!(report.pages_deleted >= 1);
    }

    #[test]
    fn writes_survive_a_replica_dying_mid_write() {
        // A provider is killed concurrently with a many-page replicated
        // write. Whatever point of the push the death lands on, the write
        // must commit (skipping or failing over past the dead replica) and
        // every byte must read back through the surviving copies.
        let sys = BlobSeer::new(
            BlobSeerConfig::for_tests()
                .with_providers(4)
                .with_page_replication(2),
        );
        let client = sys.client();
        let blob = client.create(Some(16)).unwrap();
        let data: Vec<u8> = (0..16u32 * 64).map(|i| (i % 251) as u8).collect();
        let machines = Arc::clone(&sys);
        let killer = std::thread::spawn(move || machines.kill(ProviderId(0)).unwrap());
        let v = client.write(blob, 0, &data).unwrap();
        killer.join().unwrap();
        assert_eq!(
            client.read(blob, v, 0, data.len() as u64).unwrap().to_vec(),
            data
        );
        // Each stored copy was announced, so repair can police the pages the
        // racing kill left short.
        assert_eq!(sys.provider_manager().announced_pages(), 64);
        let (_, pages) = sys.repair();
        assert_eq!(pages.still_under_replicated, 0);
    }

    #[test]
    fn repair_reads_one_copy_per_short_page_and_nothing_when_healthy() {
        let sys = BlobSeer::new(
            BlobSeerConfig::for_tests()
                .with_providers(4)
                .with_page_replication(2),
        );
        let client = sys.client();
        let blob = client.create(Some(16)).unwrap();
        let v = client.write(blob, 0, &[5u8; 16 * 32]).unwrap();
        let served = || -> Vec<(u64, u64)> {
            sys.provider_manager()
                .providers()
                .iter()
                .map(|p| (p.stats().reads, p.stats().bytes_read))
                .collect()
        };
        let before = served();
        let (_, healthy) = sys.repair();
        assert_eq!(healthy.under_replicated, 0);
        assert_eq!(served(), before, "a healthy pass reads no page");

        let victim = client.locate(blob, v, 0, 16).unwrap()[0].providers[0];
        sys.kill(victim).unwrap();
        let (_, pages) = sys.repair();
        assert!(pages.under_replicated > 0);
        assert_eq!(pages.copied, pages.under_replicated, "R = 2: one copy each");
        let read: u64 = served().iter().zip(&before).map(|(a, b)| a.0 - b.0).sum();
        let bytes: u64 = served().iter().zip(&before).map(|(a, b)| a.1 - b.1).sum();
        assert_eq!(
            read, pages.under_replicated as u64,
            "one read per short page"
        );
        assert_eq!(bytes, 16 * read);
    }

    #[test]
    fn repair_restores_page_replication_without_revive() {
        let sys = BlobSeer::new(
            BlobSeerConfig::for_tests()
                .with_providers(4)
                .with_page_replication(2),
        );
        let client = sys.client();
        let blob = client.create(Some(16)).unwrap();
        let data: Vec<u8> = (0..64u8).collect();
        let v = client.write(blob, 0, &data).unwrap();

        // Kill one replica of every page; repair must rebuild the factor on
        // the surviving providers, with the victims staying dead.
        let locs = client.locate(blob, v, 0, 64).unwrap();
        let victim = locs[0].providers[0];
        sys.kill(victim).unwrap();
        let (_, pages) = sys.repair();
        assert!(pages.under_replicated > 0, "the victim's pages were short");
        assert_eq!(pages.still_under_replicated, 0);
        assert!(pages.copied > 0);

        // Now kill every provider the metadata records for page 0; the read
        // must chase the announced repair copy, which lives outside the
        // recorded set.
        assert_eq!(client.read(blob, v, 0, 64).unwrap().to_vec(), data);
        for pid in &locs[0].providers {
            sys.kill(*pid).unwrap();
        }
        assert_eq!(
            client.read(blob, v, 0, 16).unwrap().to_vec(),
            data[..16].to_vec(),
            "the repair copy outside the recorded set must serve the read"
        );
    }

    #[test]
    fn a_machine_kill_loses_its_pages_and_its_metadata_until_repair() {
        let sys = BlobSeer::new(
            BlobSeerConfig::for_tests()
                .with_providers(4)
                .with_page_replication(2),
        );
        assert_eq!(sys.config().metadata_replication, 2);
        let client = sys.client();
        let blob = client.create(Some(16)).unwrap();
        let mut versions = Vec::new();
        for i in 0..6u8 {
            let data: Vec<u8> = (0..16 * 5).map(|b| b ^ i).collect();
            let v = client.write(blob, u64::from(i) * 16, &data).unwrap();
            let size = client.version_info(blob, v).unwrap().size;
            versions.push((v, client.read(blob, v, 0, size).unwrap()));
        }

        let victim = ProviderId(1);
        let provider = sys.provider_manager().provider(victim).unwrap();
        let machine = provider.machine();
        assert!(!machine.is_empty() && provider.stats().pages > 0);
        sys.kill(victim).unwrap();
        let page = provider.page_keys().pop().unwrap();
        assert!(provider.get_page(&page).is_err(), "its pages are refused");
        let key = machine.keys().pop().unwrap();
        assert_eq!(
            machine.get_many(&[key]),
            Err(dht::NodeDown),
            "so is its metadata"
        );

        let (metadata, pages) = sys.repair();
        assert!(metadata.under_replicated > 0 && pages.under_replicated > 0);
        assert_eq!(metadata.still_under_replicated, 0);
        assert_eq!(pages.still_under_replicated, 0);
        // A cold cache reads every tree node back from the DHT.
        sys.metadata().drop_cached_nodes();
        for (v, want) in &versions {
            assert_eq!(&client.read(blob, *v, 0, want.len() as u64).unwrap(), want);
        }
    }

    #[test]
    #[should_panic(expected = "page replication (3) cannot exceed the number of providers (2)")]
    fn replication_is_checked_against_the_machines_deployed() {
        // `providers` says 8, but the topology deploys 2 machines.
        let config = BlobSeerConfig::default().with_page_replication(3);
        assert_eq!(config.providers, 8);
        let topology = ClusterTopology::flat(2);
        let nodes: Vec<NodeId> = topology.all_nodes().collect();
        BlobSeer::with_topology(config, &topology, &nodes);
    }

    #[test]
    fn every_deployment_discovers_a_dead_page_holder() {
        use simcluster::{SimClock, SUSPICION_TIMEOUT};
        let clock = Arc::new(SimClock::new());
        let config = BlobSeerConfig::for_tests().with_page_replication(2);
        let topology = ClusterTopology::flat(config.providers as u32);
        let nodes: Vec<NodeId> = topology.all_nodes().collect();
        let sys = BlobSeer::with_topology_and_clock(config, &topology, &nodes, clock.clone());
        let client = sys.client();
        let blob = client.create(Some(16)).unwrap();
        let v = client.write(blob, 0, &[9u8; 64]).unwrap();

        // Unannounced death; the probe of a pass past the suspicion timeout
        // is what discovers it.
        let victim = client.locate(blob, v, 0, 64).unwrap()[0].providers[0];
        sys.kill(victim).unwrap();
        clock.advance(SUSPICION_TIMEOUT * 2);
        let (metadata, pages) = sys.repair();
        assert!(pages.under_replicated > 0);
        assert_eq!((metadata.dead, pages.dead), (1, 1), "both tiers probed it");
        let det = sys.provider_manager().health().detector();
        let det = det.expect("every deployment attaches a detector");
        let dht_det = sys.metadata().dht().health().detector().unwrap();
        assert!(Arc::ptr_eq(&det, &dht_det), "one detector per deployment");
        assert!(det.is_suspect(victim.into()));
        assert_eq!(det.failures_detected(), 1, "one machine, one failure");
        assert_eq!(sys.metadata().dht().stats().failures_detected, 1);
        // The pass restored the factor: a second pass finds nothing to do.
        assert!(sys.provider_manager().health().copies() > 0);
        let (_, again) = sys.repair();
        assert_eq!(again.under_replicated, 0);
        assert_eq!(&client.read(blob, v, 0, 64).unwrap()[..], &[9u8; 64][..]);
    }

    #[test]
    fn sub_page_reads_move_only_their_window() {
        let data: Vec<u8> = (0..255u8).cycle().take(4096).collect();
        let sys = BlobSeer::new(BlobSeerConfig::for_tests().with_page_size(1024));
        let client = sys.client();
        let blob = client.create(None).unwrap();
        client.write(blob, 0, &data).unwrap();
        let before = sys.provider_wire().snapshot();
        // 16-byte probes at unaligned offsets across every page.
        for i in 0..16u64 {
            let off = i * 256 + 100;
            assert_eq!(
                client.read_latest(blob, off, 16).unwrap().to_vec(),
                data[off as usize..off as usize + 16].to_vec()
            );
        }
        // Each probe is one message answered with its 16 bytes plus framing,
        // not the 1 KiB page it falls in.
        let spent = sys.provider_wire().snapshot().since(&before);
        assert_eq!(spent.messages, 16);
        assert_eq!(spent.bytes_received, 16 * (16 + MSG_OVERHEAD));
    }

    #[test]
    fn a_read_one_window_serves_returns_the_providers_bytes() {
        let data: Vec<u8> = (0..255u8).cycle().take(4096).collect();
        let sys = BlobSeer::new(BlobSeerConfig::for_tests().with_page_size(1024));
        let client = sys.client();
        let blob = client.create(None).unwrap();
        let version = client.write(blob, 0, &data).unwrap();
        let stored = |page: u64| {
            let key = page_key(blob, version, page);
            let holder = sys.provider_manager().holders(&key)[0];
            let provider = sys.provider_manager().provider(holder).unwrap();
            provider.get_page(&key).unwrap().unwrap()
        };
        // A whole page and a window inside one are views into the stored
        // page: no byte is copied on the client.
        let page = client.read_latest(blob, 1024, 1024).unwrap();
        assert_eq!(page.as_ptr(), stored(1).as_ptr());
        let window = client.read_latest(blob, 2048 + 100, 16).unwrap();
        assert_eq!(window.as_ptr(), stored(2)[100..].as_ptr());
        assert_eq!(&window[..], &data[2148..2164]);
        // A read across pages is assembled into a buffer of its own.
        let across = client.read_latest(blob, 1000, 100).unwrap();
        assert_eq!(&across[..], &data[1000..1100]);
        assert!(!stored(0).as_ptr_range().contains(&across.as_ptr()));
    }

    #[test]
    fn coalesced_reads_pay_one_exchange_per_destination() {
        let data = vec![7u8; 64 * 32];
        let sys = BlobSeer::new(
            BlobSeerConfig::for_tests()
                .with_page_size(64)
                .with_providers(4),
        );
        let client = sys.client();
        let blob = client.create(None).unwrap();
        client.write(blob, 0, &data).unwrap();
        let before = sys.provider_wire().snapshot();
        let got = client.read_latest(blob, 0, data.len() as u64).unwrap();
        assert_eq!(got.to_vec(), data);
        // 32 pages spread over 4 providers: one message per provider, not
        // one per page, and framing is paid per message.
        let spent = sys.provider_wire().snapshot().since(&before);
        assert!(
            (1..=4).contains(&spent.read_messages),
            "coalesced read used {} messages",
            spent.read_messages
        );
        assert_eq!(
            spent.bytes_received,
            data.len() as u64 + spent.read_messages * MSG_OVERHEAD
        );
    }

    #[test]
    fn coalesced_read_falls_back_per_page_past_a_dead_provider() {
        let sys = BlobSeer::new(
            BlobSeerConfig::for_tests()
                .with_page_size(64)
                .with_providers(4)
                .with_page_replication(2),
        );
        let client = sys.client();
        let blob = client.create(None).unwrap();
        // Unequal pages and a short tail, so a misplaced slot would show.
        let data: Vec<u8> = (0..32 * 64 - 10).map(|i| (i % 251) as u8).collect();
        let v = client.write(blob, 0, &data).unwrap();
        let locs = client.locate(blob, v, 0, data.len() as u64).unwrap();
        let victim = locs[0].providers[0];
        let orphaned = locs.iter().filter(|l| l.providers[0] == victim).count();
        let destinations: std::collections::BTreeSet<_> =
            locs.iter().map(|l| l.providers[0]).collect();
        sys.kill(victim).unwrap();

        let before = sys.provider_wire().snapshot();
        let got = client.read(blob, v, 0, data.len() as u64).unwrap();
        assert_eq!(got.to_vec(), data);
        // One exchange per destination — the victim's is refused — then
        // each orphaned page walks its own replicas: the dead first replica
        // again, then the live second one.
        let spent = sys.provider_wire().snapshot().since(&before);
        assert_eq!(
            spent.read_messages,
            (destinations.len() + 2 * orphaned) as u64
        );
        // And an unaligned window over the same pages assembles the same.
        let part = client.read(blob, v, 70, 500).unwrap();
        assert_eq!(part.to_vec(), data[70..570].to_vec());
    }

    /// A transport that, once armed, lets `pass` write exchanges through and
    /// holds the next one until the test opens its gate.
    #[derive(Default)]
    struct HoldNextWrite {
        armed: AtomicBool,
        pass: AtomicU64,
        /// (an exchange is held, the gate is open)
        gate: std::sync::Mutex<(bool, bool)>,
        changed: std::sync::Condvar,
    }

    impl HoldNextWrite {
        fn wait_until_holding(&self) {
            let mut gate = self.gate.lock().unwrap();
            while !gate.0 {
                gate = self.changed.wait(gate).unwrap();
            }
        }

        fn open(&self) {
            self.gate.lock().unwrap().1 = true;
            self.changed.notify_all();
        }
    }

    impl Transport for HoldNextWrite {
        fn exchange(
            &self,
            _src: NodeId,
            _dst: NodeId,
            dir: Direction,
            _bytes_out: u64,
            _bytes_in: u64,
        ) -> simcluster::time::SimDuration {
            if dir == Direction::Write
                && self.armed.load(Ordering::SeqCst)
                && self
                    .pass
                    .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
                    .is_err()
                && self.armed.swap(false, Ordering::SeqCst)
            {
                let mut gate = self.gate.lock().unwrap();
                gate.0 = true;
                self.changed.notify_all();
                while !gate.1 {
                    gate = self.changed.wait(gate).unwrap();
                }
            }
            simcluster::time::SimDuration::ZERO
        }

        fn name(&self) -> &'static str {
            "hold-next-write"
        }
    }

    #[test]
    fn concurrent_unaligned_writers_to_one_page_keep_both_writes() {
        let hold = Arc::new(HoldNextWrite::default());
        let topology = ClusterTopology::flat(2);
        let nodes: Vec<NodeId> = topology.all_nodes().collect();
        let sys = BlobSeer::with_transport(
            BlobSeerConfig::for_tests()
                .with_page_size(16)
                .with_providers(2)
                .with_page_replication(1),
            &topology,
            &nodes,
            Arc::new(WallClock::new()),
            hold.clone(),
        );
        let client = sys.client();
        let blob = client.create(None).unwrap();
        client.write(blob, 0, &[b'x'; 16]).unwrap();
        let vm = sys.version_manager();
        let waits = vm.contention_stats().cond_waits;
        hold.armed.store(true, Ordering::SeqCst);
        std::thread::scope(|s| {
            // Writer A (v2) overwrites the head of the page; its page push
            // is held on the wire.
            let a = s.spawn(|| client.write(blob, 0, b"AAAA").unwrap());
            hold.wait_until_holding();
            // Writer B (v3) overwrites the middle of the same page and
            // reaches its wait for A before A may go on.
            let b = s.spawn(|| client.write(blob, 8, b"BBBB").unwrap());
            while vm.contention_stats().cond_waits == waits {
                std::thread::yield_now();
            }
            hold.open();
            assert_eq!(a.join().unwrap(), Version(2));
            assert_eq!(b.join().unwrap(), Version(3));
        });
        assert_eq!(
            &client.read_latest(blob, 0, 16).unwrap()[..],
            b"AAAAxxxxBBBBxxxx",
            "both writes, applied in version order"
        );
    }

    /// DHT entries, provider pages, holder records and blobs: everything a
    /// deployment stores for its blobs. All four are 0 once every blob is
    /// deleted.
    fn holdings(sys: &Arc<BlobSeer>) -> [usize; 4] {
        let (entries, pages) = footprint(sys);
        [
            entries,
            pages,
            sys.provider_manager().announced_pages(),
            sys.version_manager().blob_ids().len(),
        ]
    }

    /// A two-provider deployment of 16-byte pages whose wire is `hold`.
    fn held_system(hold: &Arc<HoldNextWrite>) -> Arc<BlobSeer> {
        let topology = ClusterTopology::flat(2);
        let nodes: Vec<NodeId> = topology.all_nodes().collect();
        BlobSeer::with_transport(
            BlobSeerConfig::for_tests()
                .with_page_size(16)
                .with_providers(2)
                .with_page_replication(1),
            &topology,
            &nodes,
            Arc::new(WallClock::new()),
            hold.clone(),
        )
    }

    /// Writer A's write is held on the wire after `pass` write exchanges;
    /// the blob is deleted under it; then A goes on and must fail with
    /// `UnknownBlob`, leaving nothing behind.
    fn delete_under_a_held_write(pass: u64, data: &[u8]) {
        let hold = Arc::new(HoldNextWrite::default());
        let sys = held_system(&hold);
        let client = sys.client();
        let blob = client.create(None).unwrap();
        client.write(blob, 0, &[b'x'; 16]).unwrap();
        hold.pass.store(pass, Ordering::SeqCst);
        hold.armed.store(true, Ordering::SeqCst);
        std::thread::scope(|s| {
            let a = s.spawn(|| client.write(blob, 16, data));
            hold.wait_until_holding();
            client.delete(blob).unwrap();
            hold.open();
            assert!(matches!(
                a.join().unwrap(),
                Err(BlobSeerError::UnknownBlob(_))
            ));
        });
        assert_eq!(holdings(&sys), [0; 4], "DHT entries, pages, holders, blobs");
    }

    #[test]
    fn a_write_that_loses_its_blob_after_pushing_sweeps_its_pages() {
        // Held on its first page push: both pages are pushed by the time
        // `wait_for_predecessor` meets the deleted blob.
        delete_under_a_held_write(0, &[b'A'; 32]);
    }

    #[test]
    fn a_write_that_loses_its_blob_after_publishing_sweeps_its_tree() {
        // Held on its first metadata publication (after its one page push):
        // the tree lands after the delete, and `commit` meets the deleted
        // blob.
        delete_under_a_held_write(1, &[b'A'; 16]);
    }

    #[test]
    fn a_delete_frees_every_page_node_and_holder_record() {
        let sys = BlobSeer::new(BlobSeerConfig::for_tests().with_page_replication(2));
        let client = sys.client();
        let kept = client.create(Some(16)).unwrap();
        client.write(kept, 0, &[7u8; 64]).unwrap();
        let baseline = holdings(&sys);

        let blob = client.create(Some(16)).unwrap();
        let v1 = client.write(blob, 0, &[1u8; 128]).unwrap();
        client.write(blob, 32, &[2u8; 40]).unwrap();
        client.append(blob, &[3u8; 20]).unwrap();
        // Neither a pin nor a retention override keeps a deleted blob.
        sys.pin_snapshot(blob, v1).unwrap();
        sys.with_gc_keep_last_for(blob, 1).unwrap();
        let before = sys.provider_wire().snapshot();
        client.delete(blob).unwrap();

        assert_eq!(holdings(&sys), baseline, "only the kept blob remains");
        assert!(!sys.clear_gc_keep_last_for(blob), "the override went too");
        assert!(matches!(
            client.read(blob, v1, 0, 16),
            Err(BlobSeerError::UnknownBlob(_))
        ));
        assert!(matches!(
            client.delete(blob),
            Err(BlobSeerError::UnknownBlob(_))
        ));
        // The page deletes are charged, one write exchange per provider.
        let swept = sys.provider_wire().snapshot().since(&before);
        assert!((1..=4).contains(&swept.write_messages), "{swept:?}");
        assert_eq!(
            client.read_latest(kept, 0, 64).unwrap().to_vec(),
            vec![7u8; 64]
        );
    }

    #[test]
    fn retention_racing_deletes_reclaims_everything_without_errors() {
        let sys = BlobSeer::new(BlobSeerConfig::for_tests().with_gc_keep_last(1));
        let client = sys.client();
        // Partial overwrites: every retired version shares nodes and pages
        // with the surviving one.
        let blobs: Vec<BlobId> = (0..100u8)
            .map(|i| {
                let blob = client.create(Some(16)).unwrap();
                client.write(blob, 0, &[i; 128]).unwrap();
                client.write(blob, 16, &[i ^ 1; 32]).unwrap();
                client.write(blob, 96, &[i ^ 2; 16]).unwrap();
                blob
            })
            .collect();
        let start = std::sync::Barrier::new(4);
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    start.wait();
                    for _ in 0..5 {
                        sys.collect_garbage().expect("a GC cycle racing deletes");
                    }
                });
            }
            for half in blobs.chunks(50) {
                let (client, start) = (&client, &start);
                s.spawn(move || {
                    start.wait();
                    for &blob in half {
                        client.delete(blob).unwrap();
                    }
                });
            }
        });
        sys.collect_garbage().unwrap();
        assert_eq!(holdings(&sys), [0; 4], "DHT entries, pages, holders, blobs");
    }

    #[test]
    fn reads_racing_a_delete_fail_or_return_their_snapshot() {
        let sys = BlobSeer::new(BlobSeerConfig::for_tests());
        let client = sys.client();
        let blobs: Vec<(BlobId, Vec<u8>)> = (0..40u8)
            .map(|i| {
                let blob = client.create(Some(16)).unwrap();
                let data: Vec<u8> = (0..96).map(|j| i.wrapping_mul(31) ^ j).collect();
                client.write(blob, 0, &data).unwrap();
                (blob, data)
            })
            .collect();
        std::thread::scope(|s| {
            s.spawn(|| {
                for (blob, _) in &blobs {
                    client.delete(*blob).unwrap();
                }
            });
            for _ in 0..2 {
                s.spawn(|| {
                    for (blob, data) in blobs.iter().cycle().take(400) {
                        if let Ok(got) = client.read(*blob, Version(1), 0, 96) {
                            assert_eq!(&got[..], &data[..], "a racing read returned wrong bytes");
                        }
                    }
                });
            }
        });
        assert_eq!(holdings(&sys), [0; 4]);
    }

    /// A transport that records the thread every write exchange is charged
    /// on.
    #[derive(Default)]
    struct WriteThreads(std::sync::Mutex<Vec<std::thread::ThreadId>>);

    impl Transport for WriteThreads {
        fn exchange(
            &self,
            _src: NodeId,
            _dst: NodeId,
            dir: Direction,
            _bytes_out: u64,
            _bytes_in: u64,
        ) -> simcluster::time::SimDuration {
            if dir == Direction::Write {
                self.0.lock().unwrap().push(std::thread::current().id());
                // Slow enough that an idle pool worker would wake up and
                // take a share of the pushes if any were queued.
                std::thread::sleep(Duration::from_millis(1));
            }
            simcluster::time::SimDuration::ZERO
        }

        fn name(&self) -> &'static str {
            "write-threads"
        }
    }

    #[test]
    fn a_write_pushes_every_page_on_the_calling_thread() {
        let threads = Arc::new(WriteThreads::default());
        let config = BlobSeerConfig::for_tests();
        let topology = ClusterTopology::flat(config.providers as u32);
        let nodes: Vec<NodeId> = topology.all_nodes().collect();
        let sys = BlobSeer::with_transport(
            config,
            &topology,
            &nodes,
            Arc::new(WallClock::new()),
            threads.clone(),
        );
        let client = sys.client();
        let blob = client.create(Some(64)).unwrap();
        let data: Vec<u8> = (0..64 * 16).map(|i| (i % 251) as u8).collect();
        client.write(blob, 0, &data).unwrap();
        assert_eq!(sys.provider_wire().snapshot().write_messages, 16);
        let seen = threads.0.lock().unwrap();
        assert!(seen.len() >= 16, "{} write exchanges", seen.len());
        let me = std::thread::current().id();
        assert!(
            seen.iter().all(|id| *id == me),
            "a write exchange was charged off the writer's thread"
        );
    }

    #[test]
    fn a_ticket_for_an_empty_range_is_an_error_not_a_panic() {
        let sys = small_system();
        let client = sys.client();
        let blob = client.create(Some(16)).unwrap();
        let ticket = WriteTicket {
            blob,
            version: Version(1),
            range: ByteRange::new(0, 0),
            new_size: 0,
            prev_size: 0,
        };
        assert!(matches!(
            client.write_reserved(
                blob,
                &ticket,
                &[],
                &PageMath::new(16),
                &mut Stored::default()
            ),
            Err(BlobSeerError::InvalidArgument(_))
        ));
    }

    #[test]
    fn per_blob_gc_retention_override_collects_without_global_policy() {
        // No deployment-wide gc_keep_last: only the overridden blob is
        // eligible for collection.
        let sys = small_system();
        let client = sys.client();
        let kept = client.create(Some(64)).unwrap();
        let trimmed = client.create(Some(64)).unwrap();
        for i in 0..4 {
            client.write(kept, 0, &[i as u8; 64]).unwrap();
            client.write(trimmed, 0, &[i as u8; 64]).unwrap();
        }
        assert!(sys.collect_garbage().unwrap().versions_retired == 0);

        sys.with_gc_keep_last_for(trimmed, 1).unwrap();
        let report = sys.collect_garbage().unwrap();
        assert!(
            report.versions_retired >= 3,
            "retired {}",
            report.versions_retired
        );
        assert_eq!(client.versions(kept).unwrap().len(), 5); // v0..v4 intact
        assert_eq!(client.versions(trimmed).unwrap().len(), 1);
        // The override is droppable; afterwards nothing further is retired.
        assert!(sys.clear_gc_keep_last_for(trimmed));
        assert!(!sys.clear_gc_keep_last_for(trimmed));
        client.write(trimmed, 0, &[9u8; 64]).unwrap();
        assert_eq!(sys.collect_garbage().unwrap().versions_retired, 0);
    }

    #[test]
    fn override_tightens_the_global_policy_per_blob() {
        let sys = BlobSeer::new(BlobSeerConfig::for_tests().with_gc_keep_last(3));
        let client = sys.client();
        let blob = client.create(Some(64)).unwrap();
        for i in 0..5 {
            client.write(blob, 0, &[i as u8; 64]).unwrap();
        }
        sys.with_gc_keep_last_for(blob, 1).unwrap();
        sys.collect_garbage().unwrap();
        assert_eq!(client.versions(blob).unwrap().len(), 1);
        assert!(matches!(
            sys.with_gc_keep_last_for(blob, 0),
            Err(BlobSeerError::InvalidArgument(_))
        ));
    }

    #[test]
    fn doc_example_from_lib_rs() {
        // Mirror of the lib.rs doctest, kept as a unit test so failures are
        // easier to localise.
        let system = BlobSeer::new(BlobSeerConfig::for_tests());
        let client = system.client();
        let blob = client.create(None).unwrap();
        let v1 = client.append(blob, b"hello ").unwrap();
        let v2 = client.append(blob, b"world").unwrap();
        assert_eq!(
            &client.read_latest(blob, 0, 11).unwrap()[..],
            b"hello world"
        );
        assert_eq!(&client.read(blob, v1, 0, 6).unwrap()[..], b"hello ");
        assert!(v2 > v1);
    }
}
