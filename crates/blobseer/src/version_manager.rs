//! The centralized version manager.
//!
//! "Versions are assigned by a centralized version manager, which is also
//! responsible for ensuring consistency when concurrent writes to the same
//! blob are issued" (paper §III-A). This module implements that entity:
//!
//! * it creates blobs and hands out their ids,
//! * it *reserves* a version number (and, for appends, the offset at which
//!   the append will land) before the writer starts pushing pages, so that
//!   concurrent writers to the same blob never collide,
//! * it *commits* versions in order: a version becomes visible (published)
//!   only after every earlier version of the same blob has been published,
//!   which gives readers a totally ordered, gap-free version history,
//! * it answers "what is the latest published version?" and "what are the
//!   root/size of version v?" queries for readers.
//!
//! Only the version-number assignment and the publication step are
//! centralized and serialized — and even those are serialized *per blob*, not
//! globally: the manager is sharded by blob id, so commits and waits on
//! different blobs touch independent locks and condition variables. Notify
//! storms on a hot blob stay inside its shard instead of waking every waiter
//! in the system. Per-shard contention counters expose how often threads
//! actually collided, which the bench harness reports.

use crate::error::{BlobResult, BlobSeerError};
use crate::metadata::NodeKey;
use crate::types::{BlobId, ByteRange, Version};
use parking_lot::{Condvar, Mutex, MutexGuard};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};

/// Default number of shards used by [`VersionManager::new`].
pub const DEFAULT_SHARDS: usize = 16;

/// What a writer intends to do; used by [`VersionManager::reserve`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteIntent {
    /// Overwrite (or sparsely extend) the blob at a fixed offset.
    WriteAt { offset: u64, len: u64 },
    /// Append `len` bytes at the current end of the blob; the actual offset is
    /// chosen at reservation time so concurrent appends serialize correctly.
    Append { len: u64 },
}

/// A reservation handed to a writer. The writer pushes its pages to
/// providers, builds the metadata tree, and then commits the ticket.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WriteTicket {
    /// Blob being written.
    pub blob: BlobId,
    /// The version this write will become.
    pub version: Version,
    /// Byte range the write covers (offset is resolved for appends).
    pub range: ByteRange,
    /// Size of the blob once this version is published.
    pub new_size: u64,
    /// Size of the blob at the predecessor version (used for boundary
    /// read-modify-write decisions).
    pub prev_size: u64,
}

/// Descriptor of a published version.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VersionInfo {
    /// The version number.
    pub version: Version,
    /// Root of its segment tree (`None` for the empty version 0).
    pub root: Option<NodeKey>,
    /// Blob size in bytes at this version.
    pub size: u64,
}

/// One blob's versions, split for a sweep ([`crate::gc`]): the versions
/// whose nodes and pages may go, and the versions that stay. Handed out by
/// [`VersionManager::retire_expired`] and [`VersionManager::delete_blob`],
/// each from one hold of the blob's shard lock, so the split is never torn
/// by a concurrent retention pass, delete or commit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reclaim {
    /// The blob.
    pub blob: BlobId,
    /// Versions to reclaim, oldest first: the ones a retention pass retired,
    /// or a deleted blob's whole chain.
    pub dead: Vec<VersionInfo>,
    /// What the blob still holds, oldest first: its remaining published
    /// versions and any committed-but-pending ones. Empty for a deleted
    /// blob.
    pub surviving: Vec<VersionInfo>,
}

/// Lock/condvar traffic counters for one shard (or, summed, for the whole
/// manager). All counters are monotonic.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Times the shard lock was taken.
    pub lock_acquisitions: u64,
    /// Lock acquisitions that found the lock held and had to block.
    pub contended_acquisitions: u64,
    /// Condition-variable wait episodes (a waiter can wake and re-wait
    /// several times for one predecessor; each sleep counts).
    pub cond_waits: u64,
    /// `notify_all` calls issued by commits, aborts and deletes.
    pub notifies: u64,
}

impl ShardStats {
    fn add(&mut self, other: &ShardStats) {
        self.lock_acquisitions += other.lock_acquisitions;
        self.contended_acquisitions += other.contended_acquisitions;
        self.cond_waits += other.cond_waits;
        self.notifies += other.notifies;
    }
}

/// Per-blob bookkeeping.
struct BlobState {
    /// Next version number to hand out.
    next_version: u64,
    /// Size the blob will have once all reserved writes commit (used to place
    /// concurrent appends one after another).
    reserved_size: u64,
    /// Published versions: version -> (root, size). Version 0 is always here.
    published: BTreeMap<u64, (Option<NodeKey>, u64)>,
    /// Highest version v such that every version <= v is published.
    published_up_to: u64,
    /// Committed but not yet publishable versions (a predecessor is missing).
    pending: BTreeMap<u64, (Option<NodeKey>, u64)>,
    /// Tickets that have been reserved but not yet committed/aborted.
    outstanding: HashMap<u64, WriteTicket>,
    /// Aborted tickets whose size reservation has not been reclaimed yet:
    /// version -> (prev_size, new_size).
    aborted: BTreeMap<u64, (u64, u64)>,
    /// Versions pinned against retention: [`VersionManager::retire_expired`]
    /// never retires them regardless of the keep-last-K policy.
    pinned: BTreeSet<u64>,
}

impl BlobState {
    fn new() -> Self {
        let mut published = BTreeMap::new();
        published.insert(0, (None, 0));
        BlobState {
            next_version: 1,
            reserved_size: 0,
            published,
            published_up_to: 0,
            pending: BTreeMap::new(),
            outstanding: HashMap::new(),
            aborted: BTreeMap::new(),
            pinned: BTreeSet::new(),
        }
    }

    /// The versions a sweep must account for, oldest first: every published
    /// version and every committed one parked in `pending` — its writer has
    /// already been told `Ok`. Outstanding tickets are not part of it: their
    /// writers clean up after themselves.
    fn chain(&self) -> Vec<VersionInfo> {
        let mut chain: Vec<VersionInfo> = self
            .published
            .iter()
            .chain(&self.pending)
            .map(|(&v, &(root, size))| VersionInfo {
                version: Version(v),
                root,
                size,
            })
            .collect();
        chain.sort_by_key(|info| info.version);
        chain
    }

    /// Move consecutive pending versions into the published map.
    fn advance(&mut self) {
        while let Some(entry) = self.pending.remove(&(self.published_up_to + 1)) {
            self.published_up_to += 1;
            self.published.insert(self.published_up_to, entry);
        }
    }

    /// Unwind the size reservations of aborted tickets sitting at the top of
    /// the reservation stack (newest version downwards, through consecutive
    /// aborts only). A reservation below a committed or still-outstanding
    /// version can never be reclaimed: the later version's placement — and,
    /// once published, its recorded blob size — already builds on it, so
    /// rolling it back would regress published sizes.
    fn reclaim_aborted(&mut self) {
        let mut top = self.next_version - 1;
        while let Some(&(prev_size, new_size)) = self.aborted.get(&top) {
            // Consecutive reservations always chain (prev of k == new of
            // k-1), so this equality holds for every popped entry.
            if self.reserved_size == new_size {
                self.reserved_size = prev_size;
            }
            self.aborted.remove(&top);
            if top == 0 {
                break;
            }
            top -= 1;
        }
    }
}

/// One shard: an independent lock + condvar over a slice of the blob space.
struct Shard {
    blobs: Mutex<HashMap<BlobId, BlobState>>,
    /// Notified whenever a version of a blob in this shard is published (or
    /// the blob is deleted), so waiters can re-check.
    published_cond: Condvar,
    lock_acquisitions: AtomicU64,
    contended_acquisitions: AtomicU64,
    cond_waits: AtomicU64,
    notifies: AtomicU64,
}

impl Shard {
    fn new() -> Self {
        Shard {
            blobs: Mutex::new(HashMap::new()),
            published_cond: Condvar::new(),
            lock_acquisitions: AtomicU64::new(0),
            contended_acquisitions: AtomicU64::new(0),
            cond_waits: AtomicU64::new(0),
            notifies: AtomicU64::new(0),
        }
    }

    /// Lock the shard, counting whether we had to block to get it.
    fn lock(&self) -> MutexGuard<'_, HashMap<BlobId, BlobState>> {
        self.lock_acquisitions.fetch_add(1, Ordering::Relaxed);
        match self.blobs.try_lock() {
            Some(guard) => guard,
            None => {
                self.contended_acquisitions.fetch_add(1, Ordering::Relaxed);
                self.blobs.lock()
            }
        }
    }

    fn notify_published(&self) {
        self.notifies.fetch_add(1, Ordering::Relaxed);
        self.published_cond.notify_all();
    }

    fn stats(&self) -> ShardStats {
        ShardStats {
            lock_acquisitions: self.lock_acquisitions.load(Ordering::Relaxed),
            contended_acquisitions: self.contended_acquisitions.load(Ordering::Relaxed),
            cond_waits: self.cond_waits.load(Ordering::Relaxed),
            notifies: self.notifies.load(Ordering::Relaxed),
        }
    }
}

/// The centralized version manager, sharded by blob id.
pub struct VersionManager {
    shards: Box<[Shard]>,
    next_blob_id: AtomicU64,
    /// Monotonic counters for instrumentation.
    reservations: AtomicU64,
    commits: AtomicU64,
}

impl Default for VersionManager {
    fn default() -> Self {
        Self::new()
    }
}

impl VersionManager {
    /// Create an empty version manager with [`DEFAULT_SHARDS`] shards.
    pub fn new() -> Self {
        Self::with_shards(DEFAULT_SHARDS)
    }

    /// Create an empty version manager with an explicit shard count.
    pub fn with_shards(shards: usize) -> Self {
        assert!(shards >= 1, "at least one shard is required");
        VersionManager {
            shards: (0..shards).map(|_| Shard::new()).collect(),
            next_blob_id: AtomicU64::new(0),
            reservations: AtomicU64::new(0),
            commits: AtomicU64::new(0),
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    fn shard_of(&self, blob: BlobId) -> &Shard {
        // Blob ids are dense (a monotone counter), so modulo spreads them
        // uniformly without hashing.
        &self.shards[(blob.0 as usize) % self.shards.len()]
    }

    /// Create a new blob and return its id. The blob starts at version 0 with
    /// size 0.
    pub fn create_blob(&self) -> BlobId {
        let id = BlobId(self.next_blob_id.fetch_add(1, Ordering::Relaxed));
        self.shard_of(id).lock().insert(id, BlobState::new());
        id
    }

    /// Does the blob exist?
    pub fn blob_exists(&self, blob: BlobId) -> bool {
        self.shard_of(blob).lock().contains_key(&blob)
    }

    /// All blob ids currently known, sorted.
    pub fn blob_ids(&self) -> Vec<BlobId> {
        let mut ids: Vec<BlobId> = Vec::new();
        for shard in self.shards.iter() {
            ids.extend(shard.lock().keys().copied());
        }
        ids.sort();
        ids
    }

    /// Delete a blob entirely (BSFS uses this for file deletion) and return
    /// its chain — published plus committed-but-pending versions — as the
    /// `dead` half of a [`Reclaim`], taken under the same lock hold as the
    /// removal. Its pins go with it: a pin guards a version against
    /// retention, not against deletion. Outstanding tickets are invalidated,
    /// and any writer blocked in [`VersionManager::wait_for_predecessor`] on
    /// this blob is woken so its `UnknownBlob` re-check can fire instead of
    /// hanging forever.
    pub fn delete_blob(&self, blob: BlobId) -> BlobResult<Reclaim> {
        let shard = self.shard_of(blob);
        let removed = shard.lock().remove(&blob);
        match removed {
            Some(state) => {
                shard.notify_published();
                Ok(Reclaim {
                    blob,
                    dead: state.chain(),
                    surviving: Vec::new(),
                })
            }
            None => Err(BlobSeerError::UnknownBlob(blob)),
        }
    }

    /// Reserve a version (and offset, for appends) for an upcoming write.
    pub fn reserve(&self, blob: BlobId, intent: WriteIntent) -> BlobResult<WriteTicket> {
        let mut blobs = self.shard_of(blob).lock();
        let state = blobs
            .get_mut(&blob)
            .ok_or(BlobSeerError::UnknownBlob(blob))?;

        let (offset, len) = match intent {
            WriteIntent::WriteAt { offset, len } => (offset, len),
            WriteIntent::Append { len } => (state.reserved_size, len),
        };
        if len == 0 {
            return Err(BlobSeerError::InvalidArgument("zero-length write".into()));
        }
        // `checked_add`: a huge offset must be rejected here, before any
        // state changes, instead of wrapping in release builds (which would
        // reserve a bogus tiny size and crash the writer mid-build).
        let new_end = offset.checked_add(len).ok_or_else(|| {
            BlobSeerError::InvalidArgument(format!(
                "write range [{offset}, {offset} + {len}) overflows the blob address space"
            ))
        })?;

        let version = Version(state.next_version);
        state.next_version += 1;
        let prev_size = state.reserved_size;
        let new_size = state.reserved_size.max(new_end);
        state.reserved_size = new_size;

        let ticket = WriteTicket {
            blob,
            version,
            range: ByteRange::new(offset, len),
            new_size,
            prev_size,
        };
        state.outstanding.insert(version.0, ticket);
        self.reservations.fetch_add(1, Ordering::Relaxed);
        Ok(ticket)
    }

    /// Wait until version `ticket.version - 1` of the blob is published, and
    /// return its descriptor. Writers call this before building their
    /// metadata tree so they can share subtrees with their predecessor.
    ///
    /// The wait is a condvar wait on the blob's shard, on the pool or off
    /// it: a predecessor's writer does its page pushes on its own thread, so
    /// nothing it needs can be queued behind this one.
    pub fn wait_for_predecessor(&self, ticket: &WriteTicket) -> BlobResult<VersionInfo> {
        let prev = ticket.version.0 - 1;
        let shard = self.shard_of(ticket.blob);
        loop {
            let mut blobs = shard.lock();
            let state = blobs
                .get(&ticket.blob)
                .ok_or(BlobSeerError::UnknownBlob(ticket.blob))?;
            if let Some((root, size)) = state.published.get(&prev) {
                return Ok(VersionInfo {
                    version: Version(prev),
                    root: *root,
                    size: *size,
                });
            }
            shard.cond_waits.fetch_add(1, Ordering::Relaxed);
            shard.published_cond.wait(&mut blobs);
        }
    }

    /// Publish a committed version: record its tree root and size, and make
    /// it (and any consecutive successors already committed) visible.
    pub fn commit(&self, ticket: &WriteTicket, root: Option<NodeKey>) -> BlobResult<VersionInfo> {
        let shard = self.shard_of(ticket.blob);
        let mut blobs = shard.lock();
        let state = blobs
            .get_mut(&ticket.blob)
            .ok_or(BlobSeerError::UnknownBlob(ticket.blob))?;
        if state.outstanding.remove(&ticket.version.0).is_none() {
            return Err(BlobSeerError::InvalidTicket {
                blob: ticket.blob,
                version: ticket.version,
            });
        }
        state
            .pending
            .insert(ticket.version.0, (root, ticket.new_size));
        // Aborted reservations below a committed version are dead: the
        // unwind in `reclaim_aborted` can never reach past this commit.
        let committed = ticket.version.0;
        state.aborted.retain(|&v, _| v > committed);
        state.advance();
        drop(blobs);
        self.commits.fetch_add(1, Ordering::Relaxed);
        shard.notify_published();
        Ok(VersionInfo {
            version: ticket.version,
            root,
            size: ticket.new_size,
        })
    }

    /// Abandon a reservation. The version still needs to exist so that later
    /// versions can publish; it becomes an alias of its predecessor (same
    /// root, same size). When the aborted ticket is the newest reservation
    /// (or completes a fully-aborted suffix of reservations), its size
    /// contribution is also reclaimed, so the next append lands at the end of
    /// the data that was actually written instead of leaving a phantom hole
    /// covered by the published blob size.
    pub fn abort(&self, ticket: &WriteTicket) -> BlobResult<()> {
        // Wait for the predecessor so we can alias it.
        let prev = self.wait_for_predecessor(ticket)?;
        let shard = self.shard_of(ticket.blob);
        let mut blobs = shard.lock();
        let state = blobs
            .get_mut(&ticket.blob)
            .ok_or(BlobSeerError::UnknownBlob(ticket.blob))?;
        if state.outstanding.remove(&ticket.version.0).is_none() {
            return Err(BlobSeerError::InvalidTicket {
                blob: ticket.blob,
                version: ticket.version,
            });
        }
        state
            .aborted
            .insert(ticket.version.0, (ticket.prev_size, ticket.new_size));
        state.reclaim_aborted();
        state
            .pending
            .insert(ticket.version.0, (prev.root, prev.size));
        state.advance();
        drop(blobs);
        shard.notify_published();
        Ok(())
    }

    /// Latest published version of a blob.
    pub fn latest(&self, blob: BlobId) -> BlobResult<VersionInfo> {
        let blobs = self.shard_of(blob).lock();
        let state = blobs.get(&blob).ok_or(BlobSeerError::UnknownBlob(blob))?;
        let v = state.published_up_to;
        let (root, size) = state.published[&v];
        Ok(VersionInfo {
            version: Version(v),
            root,
            size,
        })
    }

    /// Descriptor of a specific published version.
    pub fn get_version(&self, blob: BlobId, version: Version) -> BlobResult<VersionInfo> {
        let blobs = self.shard_of(blob).lock();
        let state = blobs.get(&blob).ok_or(BlobSeerError::UnknownBlob(blob))?;
        match state.published.get(&version.0) {
            Some((root, size)) if version.0 <= state.published_up_to => Ok(VersionInfo {
                version,
                root: *root,
                size: *size,
            }),
            _ => Err(BlobSeerError::UnknownVersion { blob, version }),
        }
    }

    /// All published versions of a blob, oldest first.
    pub fn published_versions(&self, blob: BlobId) -> BlobResult<Vec<VersionInfo>> {
        let blobs = self.shard_of(blob).lock();
        let state = blobs.get(&blob).ok_or(BlobSeerError::UnknownBlob(blob))?;
        Ok(state
            .published
            .iter()
            .filter(|(v, _)| **v <= state.published_up_to)
            .map(|(v, (root, size))| VersionInfo {
                version: Version(*v),
                root: *root,
                size: *size,
            })
            .collect())
    }

    /// Pin a published version: it survives [`VersionManager::retire_expired`]
    /// regardless of the retention policy (a long-lived snapshot a consumer
    /// still reads, e.g. the input version of a running MapReduce job).
    pub fn pin_version(&self, blob: BlobId, version: Version) -> BlobResult<()> {
        let mut blobs = self.shard_of(blob).lock();
        let state = blobs
            .get_mut(&blob)
            .ok_or(BlobSeerError::UnknownBlob(blob))?;
        if !state.published.contains_key(&version.0) || version.0 > state.published_up_to {
            return Err(BlobSeerError::UnknownVersion { blob, version });
        }
        state.pinned.insert(version.0);
        Ok(())
    }

    /// Drop a pin; returns whether the version was pinned. The version
    /// becomes eligible for retention again at the next GC cycle.
    pub fn unpin_version(&self, blob: BlobId, version: Version) -> BlobResult<bool> {
        let mut blobs = self.shard_of(blob).lock();
        let state = blobs
            .get_mut(&blob)
            .ok_or(BlobSeerError::UnknownBlob(blob))?;
        Ok(state.pinned.remove(&version.0))
    }

    /// Currently pinned versions of a blob, oldest first.
    pub fn pinned_versions(&self, blob: BlobId) -> BlobResult<Vec<Version>> {
        let blobs = self.shard_of(blob).lock();
        let state = blobs.get(&blob).ok_or(BlobSeerError::UnknownBlob(blob))?;
        Ok(state.pinned.iter().map(|&v| Version(v)).collect())
    }

    /// Apply the keep-last-`keep` retention policy to a blob: atomically
    /// remove every published version except the newest `keep`, the pinned
    /// ones, and anything not yet fully published. Retired versions become
    /// unreadable immediately ([`VersionManager::get_version`] reports
    /// `UnknownVersion`). Returns them as the `dead` half of a [`Reclaim`]
    /// whose `surviving` half is the chain left behind, both read under the
    /// one lock hold, so the caller can reclaim the metadata nodes and pages
    /// only the retired versions referenced.
    ///
    /// Retirement never touches a version an in-flight write could still
    /// alias or wait on: an outstanding ticket's predecessor is at least
    /// `published_up_to`, which the policy always keeps (`keep >= 1`; a
    /// `keep` of 0 is an `InvalidArgument`).
    pub fn retire_expired(&self, blob: BlobId, keep: usize) -> BlobResult<Reclaim> {
        if keep == 0 {
            return Err(BlobSeerError::InvalidArgument(
                "snapshot retention must keep at least one version".into(),
            ));
        }
        let mut blobs = self.shard_of(blob).lock();
        let state = blobs
            .get_mut(&blob)
            .ok_or(BlobSeerError::UnknownBlob(blob))?;
        let visible: Vec<u64> = state
            .published
            .keys()
            .copied()
            .filter(|&v| v <= state.published_up_to)
            .collect();
        let mut dead = Vec::new();
        if visible.len() > keep {
            let cutoff = visible[visible.len() - keep];
            let pinned = &state.pinned;
            state.published.retain(|&v, &mut (root, size)| {
                let stays = v >= cutoff || pinned.contains(&v);
                if !stays {
                    dead.push(VersionInfo {
                        version: Version(v),
                        root,
                        size,
                    });
                }
                stays
            });
        }
        Ok(Reclaim {
            blob,
            dead,
            surviving: state.chain(),
        })
    }

    /// Number of reservations handed out (instrumentation).
    pub fn reservation_count(&self) -> u64 {
        self.reservations.load(Ordering::Relaxed)
    }

    /// Number of commits performed (instrumentation).
    pub fn commit_count(&self) -> u64 {
        self.commits.load(Ordering::Relaxed)
    }

    /// Lock/condvar traffic summed over all shards.
    pub fn contention_stats(&self) -> ShardStats {
        let mut total = ShardStats::default();
        for shard in self.shards.iter() {
            total.add(&shard.stats());
        }
        total
    }

    /// Lock/condvar traffic per shard, indexed by shard number.
    pub fn shard_stats(&self) -> Vec<ShardStats> {
        self.shards.iter().map(|s| s.stats()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn leaf_key(blob: BlobId, v: u64) -> NodeKey {
        NodeKey {
            blob,
            version: Version(v),
            offset: 0,
            span: 1,
        }
    }

    #[test]
    fn create_blob_starts_at_version_zero() {
        let vm = VersionManager::new();
        let blob = vm.create_blob();
        assert!(vm.blob_exists(blob));
        let latest = vm.latest(blob).unwrap();
        assert_eq!(latest.version, Version::ZERO);
        assert_eq!(latest.size, 0);
        assert!(latest.root.is_none());
        assert_eq!(vm.blob_ids(), vec![blob]);
    }

    #[test]
    fn unknown_blob_errors() {
        let vm = VersionManager::new();
        let bogus = BlobId(77);
        assert!(matches!(
            vm.latest(bogus),
            Err(BlobSeerError::UnknownBlob(_))
        ));
        assert!(matches!(
            vm.reserve(bogus, WriteIntent::Append { len: 1 }),
            Err(BlobSeerError::UnknownBlob(_))
        ));
        assert!(matches!(
            vm.delete_blob(bogus),
            Err(BlobSeerError::UnknownBlob(_))
        ));
    }

    #[test]
    fn write_reserve_and_commit_publishes_in_order() {
        let vm = VersionManager::new();
        let blob = vm.create_blob();
        let t1 = vm
            .reserve(
                blob,
                WriteIntent::WriteAt {
                    offset: 0,
                    len: 100,
                },
            )
            .unwrap();
        assert_eq!(t1.version, Version(1));
        assert_eq!(t1.new_size, 100);
        let info = vm.commit(&t1, Some(leaf_key(blob, 1))).unwrap();
        assert_eq!(info.version, Version(1));
        assert_eq!(vm.latest(blob).unwrap().size, 100);
        assert_eq!(vm.commit_count(), 1);
        assert_eq!(vm.reservation_count(), 1);
    }

    #[test]
    fn appends_are_placed_back_to_back() {
        let vm = VersionManager::new();
        let blob = vm.create_blob();
        let t1 = vm.reserve(blob, WriteIntent::Append { len: 50 }).unwrap();
        let t2 = vm.reserve(blob, WriteIntent::Append { len: 30 }).unwrap();
        // The second append is placed after the first even though neither has
        // committed yet.
        assert_eq!(t1.range.offset, 0);
        assert_eq!(t2.range.offset, 50);
        assert_eq!(t2.new_size, 80);
    }

    #[test]
    fn out_of_order_commits_become_visible_in_order() {
        let vm = VersionManager::new();
        let blob = vm.create_blob();
        let t1 = vm.reserve(blob, WriteIntent::Append { len: 10 }).unwrap();
        let t2 = vm.reserve(blob, WriteIntent::Append { len: 10 }).unwrap();
        // Commit v2 first: it must NOT become visible yet.
        vm.commit(&t2, Some(leaf_key(blob, 2))).unwrap();
        assert_eq!(vm.latest(blob).unwrap().version, Version::ZERO);
        assert!(vm.get_version(blob, Version(2)).is_err());
        // Now commit v1: both become visible, v2 is the latest.
        vm.commit(&t1, Some(leaf_key(blob, 1))).unwrap();
        let latest = vm.latest(blob).unwrap();
        assert_eq!(latest.version, Version(2));
        assert_eq!(latest.size, 20);
        assert!(vm.get_version(blob, Version(1)).is_ok());
    }

    #[test]
    fn double_commit_is_rejected() {
        let vm = VersionManager::new();
        let blob = vm.create_blob();
        let t = vm.reserve(blob, WriteIntent::Append { len: 10 }).unwrap();
        vm.commit(&t, None).unwrap();
        assert!(matches!(
            vm.commit(&t, None),
            Err(BlobSeerError::InvalidTicket { .. })
        ));
    }

    #[test]
    fn zero_length_write_is_rejected() {
        let vm = VersionManager::new();
        let blob = vm.create_blob();
        assert!(matches!(
            vm.reserve(blob, WriteIntent::Append { len: 0 }),
            Err(BlobSeerError::InvalidArgument(_))
        ));
    }

    #[test]
    fn abort_aliases_the_predecessor() {
        let vm = VersionManager::new();
        let blob = vm.create_blob();
        let t1 = vm.reserve(blob, WriteIntent::Append { len: 10 }).unwrap();
        let t2 = vm.reserve(blob, WriteIntent::Append { len: 10 }).unwrap();
        let root1 = Some(leaf_key(blob, 1));
        vm.commit(&t1, root1).unwrap();
        vm.abort(&t2).unwrap();
        // Version 2 exists but is identical to version 1.
        let v2 = vm.get_version(blob, Version(2)).unwrap();
        assert_eq!(v2.root, root1);
        assert_eq!(v2.size, 10);
        assert_eq!(vm.latest(blob).unwrap().version, Version(2));
    }

    #[test]
    fn abort_of_newest_append_reclaims_the_reservation() {
        let vm = VersionManager::new();
        let blob = vm.create_blob();
        let t1 = vm.reserve(blob, WriteIntent::Append { len: 10 }).unwrap();
        vm.commit(&t1, Some(leaf_key(blob, 1))).unwrap();
        // Reserve an append, then abort it before writing anything.
        let t2 = vm.reserve(blob, WriteIntent::Append { len: 100 }).unwrap();
        assert_eq!(t2.range.offset, 10);
        vm.abort(&t2).unwrap();
        // The next append must land where the aborted one would have started,
        // not after its phantom range.
        let t3 = vm.reserve(blob, WriteIntent::Append { len: 5 }).unwrap();
        assert_eq!(t3.range.offset, 10, "aborted reservation leaked its size");
        assert_eq!(t3.new_size, 15);
        vm.commit(&t3, Some(leaf_key(blob, 3))).unwrap();
        assert_eq!(vm.latest(blob).unwrap().size, 15);
    }

    #[test]
    fn chained_aborts_unwind_the_reservation_completely() {
        let vm = VersionManager::new();
        let blob = vm.create_blob();
        let t1 = vm.reserve(blob, WriteIntent::Append { len: 8 }).unwrap();
        vm.commit(&t1, None).unwrap();
        let t2 = vm.reserve(blob, WriteIntent::Append { len: 16 }).unwrap();
        let t3 = vm.reserve(blob, WriteIntent::Append { len: 32 }).unwrap();
        // Abort both (in version order — abort waits for the predecessor to
        // publish): once the newest goes, the whole aborted suffix unwinds.
        vm.abort(&t2).unwrap();
        vm.abort(&t3).unwrap();
        let t4 = vm.reserve(blob, WriteIntent::Append { len: 4 }).unwrap();
        assert_eq!(t4.range.offset, 8);
        assert_eq!(t4.new_size, 12);
    }

    #[test]
    fn abort_in_the_middle_keeps_later_reservations_intact() {
        let vm = VersionManager::new();
        let blob = vm.create_blob();
        let t1 = vm.reserve(blob, WriteIntent::Append { len: 8 }).unwrap();
        vm.commit(&t1, None).unwrap();
        let t2 = vm.reserve(blob, WriteIntent::Append { len: 16 }).unwrap();
        let t3 = vm.reserve(blob, WriteIntent::Append { len: 32 }).unwrap();
        // t2 is not the newest reservation: its range cannot be reclaimed
        // (t3 was already placed after it).
        vm.abort(&t2).unwrap();
        vm.commit(&t3, None).unwrap();
        assert_eq!(vm.latest(blob).unwrap().size, 8 + 16 + 32);
    }

    #[test]
    fn published_versions_lists_full_history() {
        let vm = VersionManager::new();
        let blob = vm.create_blob();
        for i in 0..5 {
            let t = vm.reserve(blob, WriteIntent::Append { len: 10 }).unwrap();
            vm.commit(&t, Some(leaf_key(blob, i + 1))).unwrap();
        }
        let versions = vm.published_versions(blob).unwrap();
        assert_eq!(versions.len(), 6); // v0 .. v5
        assert_eq!(versions[0].version, Version::ZERO);
        assert_eq!(versions[5].size, 50);
    }

    #[test]
    fn wait_for_predecessor_blocks_until_commit() {
        let vm = Arc::new(VersionManager::new());
        let blob = vm.create_blob();
        let t1 = vm.reserve(blob, WriteIntent::Append { len: 10 }).unwrap();
        let t2 = vm.reserve(blob, WriteIntent::Append { len: 10 }).unwrap();

        let vm2 = Arc::clone(&vm);
        let waiter = std::thread::spawn(move || {
            // This blocks until t1 commits.
            let prev = vm2.wait_for_predecessor(&t2).unwrap();
            assert_eq!(prev.version, Version(1));
            assert_eq!(prev.size, 10);
        });
        // Give the waiter a moment to block, then commit v1.
        std::thread::sleep(std::time::Duration::from_millis(50));
        vm.commit(&t1, Some(leaf_key(blob, 1))).unwrap();
        waiter.join().unwrap();
    }

    #[test]
    fn delete_wakes_a_blocked_predecessor_waiter() {
        let vm = Arc::new(VersionManager::new());
        let blob = vm.create_blob();
        let _t1 = vm.reserve(blob, WriteIntent::Append { len: 10 }).unwrap();
        let t2 = vm.reserve(blob, WriteIntent::Append { len: 10 }).unwrap();

        let vm2 = Arc::clone(&vm);
        let (tx, rx) = miniexec::oneshot::channel();
        std::thread::spawn(move || {
            // v1 never commits; the blob is deleted instead. Pre-fix this
            // waiter hung forever because delete_blob never notified.
            tx.send(vm2.wait_for_predecessor(&t2)).ok();
        });
        std::thread::sleep(std::time::Duration::from_millis(50));
        vm.delete_blob(blob).unwrap();
        let result = rx
            .recv_timeout(std::time::Duration::from_secs(5))
            .expect("waiter must be woken by delete_blob, not hang");
        assert!(matches!(result, Err(BlobSeerError::UnknownBlob(_))));
    }

    #[test]
    fn concurrent_appends_from_many_threads_serialize_correctly() {
        let vm = Arc::new(VersionManager::new());
        let blob = vm.create_blob();
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let vm = Arc::clone(&vm);
                std::thread::spawn(move || {
                    for _ in 0..25 {
                        let t = vm.reserve(blob, WriteIntent::Append { len: 4 }).unwrap();
                        // Simulate data transfer latency out of order.
                        std::thread::yield_now();
                        vm.commit(&t, None).unwrap();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let latest = vm.latest(blob).unwrap();
        assert_eq!(latest.version, Version(8 * 25));
        assert_eq!(latest.size, 8 * 25 * 4);
        // Every intermediate version is published and has a monotone size.
        let versions = vm.published_versions(blob).unwrap();
        assert_eq!(versions.len(), 8 * 25 + 1);
        for pair in versions.windows(2) {
            assert!(pair[1].size >= pair[0].size);
        }
    }

    #[test]
    fn delete_blob_removes_state() {
        let vm = VersionManager::new();
        let blob = vm.create_blob();
        vm.delete_blob(blob).unwrap();
        assert!(!vm.blob_exists(blob));
        assert!(vm.latest(blob).is_err());
    }

    #[test]
    fn blobs_spread_over_shards() {
        let vm = VersionManager::with_shards(4);
        assert_eq!(vm.shard_count(), 4);
        let blobs: Vec<BlobId> = (0..16).map(|_| vm.create_blob()).collect();
        assert_eq!(vm.blob_ids(), blobs);
        for blob in &blobs {
            let t = vm.reserve(*blob, WriteIntent::Append { len: 1 }).unwrap();
            vm.commit(&t, None).unwrap();
        }
        // Every shard saw traffic: 16 sequential blob ids over 4 shards.
        let per_shard = vm.shard_stats();
        assert_eq!(per_shard.len(), 4);
        assert!(per_shard.iter().all(|s| s.lock_acquisitions > 0));
        let total = vm.contention_stats();
        assert_eq!(
            total.lock_acquisitions,
            per_shard.iter().map(|s| s.lock_acquisitions).sum::<u64>()
        );
        // 16 commits notified their shards.
        assert_eq!(total.notifies, 16);
    }

    #[test]
    fn single_shard_manager_still_works() {
        let vm = VersionManager::with_shards(1);
        let a = vm.create_blob();
        let b = vm.create_blob();
        let ta = vm.reserve(a, WriteIntent::Append { len: 3 }).unwrap();
        let tb = vm.reserve(b, WriteIntent::Append { len: 5 }).unwrap();
        vm.commit(&tb, None).unwrap();
        vm.commit(&ta, None).unwrap();
        assert_eq!(vm.latest(a).unwrap().size, 3);
        assert_eq!(vm.latest(b).unwrap().size, 5);
    }

    #[test]
    fn cond_waits_are_counted() {
        let vm = Arc::new(VersionManager::new());
        let blob = vm.create_blob();
        let t1 = vm.reserve(blob, WriteIntent::Append { len: 1 }).unwrap();
        let t2 = vm.reserve(blob, WriteIntent::Append { len: 1 }).unwrap();
        let vm2 = Arc::clone(&vm);
        let waiter = std::thread::spawn(move || vm2.wait_for_predecessor(&t2).unwrap());
        std::thread::sleep(std::time::Duration::from_millis(50));
        vm.commit(&t1, None).unwrap();
        waiter.join().unwrap();
        assert!(vm.contention_stats().cond_waits >= 1);
    }

    #[test]
    fn a_pool_resident_writer_waits_for_its_predecessor_without_polling() {
        let vm = Arc::new(VersionManager::new());
        let blob = vm.create_blob();
        let t1 = vm.reserve(blob, WriteIntent::Append { len: 1 }).unwrap();
        let t2 = vm.reserve(blob, WriteIntent::Append { len: 1 }).unwrap();
        let vm2 = Arc::clone(&vm);
        let waiter = miniexec::spawn(move || vm2.wait_for_predecessor(&t2).unwrap());
        std::thread::sleep(std::time::Duration::from_millis(50));
        vm.commit(&t1, None).unwrap();
        assert_eq!(waiter.join().version, Version(1));
        // One sleep until the commit (two if the condvar wakes spuriously);
        // a polling wait would count one per poll.
        let waits = vm.contention_stats().cond_waits;
        assert!(waits <= 2, "{waits} waits");
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_is_rejected() {
        let _ = VersionManager::with_shards(0);
    }

    #[test]
    fn retention_retires_old_versions_but_keeps_pinned_and_newest() {
        let vm = VersionManager::new();
        let blob = vm.create_blob();
        for i in 0..6 {
            let t = vm.reserve(blob, WriteIntent::Append { len: 10 }).unwrap();
            vm.commit(&t, Some(leaf_key(blob, i + 1))).unwrap();
        }
        vm.pin_version(blob, Version(2)).unwrap();
        assert_eq!(vm.pinned_versions(blob).unwrap(), vec![Version(2)]);

        // Visible history is v0..v6; keep the newest 2 plus the pin.
        let retired = vm.retire_expired(blob, 2).unwrap();
        let retired_vs: Vec<u64> = retired.dead.iter().map(|i| i.version.0).collect();
        assert_eq!(retired_vs, vec![0, 1, 3, 4]);
        let surviving: Vec<u64> = retired.surviving.iter().map(|i| i.version.0).collect();
        assert_eq!(surviving, vec![2, 5, 6]);
        assert!(vm.get_version(blob, Version(1)).is_err());
        assert!(vm.get_version(blob, Version(2)).is_ok());
        assert!(vm.get_version(blob, Version(5)).is_ok());
        assert_eq!(vm.latest(blob).unwrap().version, Version(6));
        assert_eq!(vm.published_versions(blob).unwrap().len(), 3);

        // Retention is idempotent until history grows again.
        assert!(vm.retire_expired(blob, 2).unwrap().dead.is_empty());

        // Dropping the pin frees the version at the next cycle.
        assert!(vm.unpin_version(blob, Version(2)).unwrap());
        let retired2 = vm.retire_expired(blob, 2).unwrap().dead;
        assert_eq!(retired2.len(), 1);
        assert_eq!(retired2[0].version, Version(2));
        assert_eq!(retired2[0].root, Some(leaf_key(blob, 2)));
    }

    #[test]
    fn retention_of_zero_versions_is_an_error_not_a_panic() {
        let vm = VersionManager::new();
        let blob = vm.create_blob();
        assert!(matches!(
            vm.retire_expired(blob, 0),
            Err(BlobSeerError::InvalidArgument(_))
        ));
        assert_eq!(vm.published_versions(blob).unwrap().len(), 1);
    }

    #[test]
    fn delete_hands_back_the_whole_chain_pending_included_and_drops_the_pins() {
        let vm = VersionManager::new();
        let blob = vm.create_blob();
        let t1 = vm.reserve(blob, WriteIntent::Append { len: 10 }).unwrap();
        let t2 = vm.reserve(blob, WriteIntent::Append { len: 10 }).unwrap();
        let _t3 = vm.reserve(blob, WriteIntent::Append { len: 10 }).unwrap();
        let t4 = vm.reserve(blob, WriteIntent::Append { len: 10 }).unwrap();
        vm.commit(&t1, Some(leaf_key(blob, 1))).unwrap();
        vm.commit(&t2, Some(leaf_key(blob, 2))).unwrap();
        vm.pin_version(blob, Version(1)).unwrap();
        // v4 has told its writer `Ok` but waits in `pending` behind the
        // outstanding v3: its tree is the deleted blob's to reclaim; v3's
        // writer cleans up after itself.
        vm.commit(&t4, Some(leaf_key(blob, 4))).unwrap();
        let chain = vm.delete_blob(blob).unwrap();
        assert_eq!(chain.blob, blob);
        assert!(chain.surviving.is_empty());
        let versions: Vec<u64> = chain.dead.iter().map(|i| i.version.0).collect();
        assert_eq!(versions, vec![0, 1, 2, 4]);
        assert_eq!(chain.dead[3].root, Some(leaf_key(blob, 4)));
        // The pins went with the blob.
        assert!(matches!(
            vm.pinned_versions(blob),
            Err(BlobSeerError::UnknownBlob(_))
        ));
    }

    #[test]
    fn retention_never_touches_unpublished_versions() {
        let vm = VersionManager::new();
        let blob = vm.create_blob();
        let t1 = vm.reserve(blob, WriteIntent::Append { len: 10 }).unwrap();
        let t2 = vm.reserve(blob, WriteIntent::Append { len: 10 }).unwrap();
        // v2 committed out of order: it is pending, not visible, and must not
        // be counted by (or retired through) the retention policy.
        vm.commit(&t2, Some(leaf_key(blob, 2))).unwrap();
        let held = vm.retire_expired(blob, 1).unwrap();
        assert!(held.dead.is_empty());
        // ...but it survives: a sweep must not take nodes it shares.
        assert_eq!(held.surviving.last().map(|i| i.version), Some(Version(2)));
        vm.commit(&t1, Some(leaf_key(blob, 1))).unwrap();
        let retired = vm.retire_expired(blob, 1).unwrap().dead;
        let retired_vs: Vec<u64> = retired.iter().map(|i| i.version.0).collect();
        assert_eq!(retired_vs, vec![0, 1]);
        assert_eq!(vm.latest(blob).unwrap().version, Version(2));
    }

    #[test]
    fn pinning_an_unpublished_version_is_rejected() {
        let vm = VersionManager::new();
        let blob = vm.create_blob();
        assert!(matches!(
            vm.pin_version(blob, Version(3)),
            Err(BlobSeerError::UnknownVersion { .. })
        ));
        assert!(!vm.unpin_version(blob, Version(3)).unwrap());
    }
}
