//! Layer probes: after the timed passes, the traced binary times a fixed
//! number of calls into each layer's public functions, one caller at a
//! time, on the deployment the workload just used and with the workload's
//! own shapes (page size, read size, write size). A probe gives what a
//! layer costs when nothing else is asking for it; set against the latency
//! the workload saw under load, the difference is what concurrency added.
//!
//! Everything a probe creates (blobs, pages, DHT entries, files) is its own,
//! under names no workload uses.

use crate::pattern::{Rng, Stream};
use crate::report::Metric;
use crate::stats;
use crate::workloads::{Deployment, ProbeTarget, Shapes};
use blobseer::metadata::segment_tree::{lookup_range, PageMeta};
use blobseer::provider::{page_key, PageRequest};
use blobseer::types::next_power_of_two;
use blobseer::{BlobId, PageMath, ProviderId, VersionInfo, WriteIntent};
use bsfs::{Bsfs, BsfsConfig};
use bytes::Bytes;
use kvstore::{MemStore, PageStore};
use mapreduce::job::{InputSpec, JobConfig};
use mapreduce::{shuffle, BsfsFs, DistFs, Job, JobTracker, Mapper, MrResult};
use simcluster::topology::ClusterTopology;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;
use workloads::TextGenerator;

/// Calls per probe (fewer for probes that move a mebibyte or more a call).
const CALLS: usize = 200;
const SMOKE_CALLS: usize = 20;
/// Bytes a probe may move in all: caps the calls of large-shape probes.
const BYTE_BUDGET: u64 = 64 * 1024 * 1024;
/// Keys per DHT batch where the workload writes nothing: about the width of
/// one tree level of a block read. Where it writes, a batch has as many
/// keys as a write publishes tree nodes.
const DHT_BATCH: usize = 16;
/// Tasks of the no-op job.
const NOOP_TASKS: usize = 64;
/// Records of the shuffle probes.
const SHUFFLE_RECORDS: usize = 20_000;
const SHUFFLE_RUNS: usize = 8;

fn time_ns<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_nanos() as u64)
}

fn p50_us(ns: &[u64]) -> f64 {
    stats::median_us(ns).unwrap_or(0.0)
}

/// What the probes found, as metrics and as the terms of the layer table.
pub struct Probed {
    pub metrics: Vec<Metric>,
    /// One unloaded client read of `read_len` bytes, microseconds.
    pub client_read_us: f64,
    /// One unloaded client append of `write_len` bytes, microseconds.
    pub client_append_us: f64,
    /// One unloaded BSFS positioned read of a block, microseconds.
    pub bsfs_read_at_us: f64,
    pub metadata_lookup_us: f64,
    pub provider_download_us_per_read: f64,
    pub vm_reserve_commit_us: f64,
    pub provider_put_us_per_write: f64,
    pub dht_put_us_per_write: f64,
    /// Probe calls that failed (they fail the run like any operation).
    pub attempted: u64,
    pub failed: u64,
}

struct Counter {
    attempted: u64,
    failed: u64,
}

impl Counter {
    fn ok(&mut self, ok: bool) -> bool {
        self.attempted += 1;
        self.failed += u64::from(!ok);
        ok
    }
}

/// The blob and version the read-side probes read.
fn resolve(deployment: &Deployment, target: &ProbeTarget) -> Option<(BlobId, VersionInfo)> {
    let vm = deployment.storage.version_manager();
    match target {
        ProbeTarget::Blob(blob, version) => vm
            .get_version(*blob, *version)
            .ok()
            .map(|info| (*blob, info)),
        ProbeTarget::File(path) => {
            let blob = deployment
                .bsfs
                .as_ref()?
                .namespace()
                .lookup(path)
                .ok()?
                .blob;
            vm.latest(blob).ok().map(|info| (blob, info))
        }
    }
}

/// A mapper that does nothing, for the scheduling-overhead job.
struct NoopMapper;

impl Mapper for NoopMapper {
    fn map(
        &self,
        _offset: u64,
        _line: &str,
        _emit: &mut dyn FnMut(String, String),
    ) -> MrResult<()> {
        Ok(())
    }
}

/// Run every probe on `deployment`.
pub fn run(
    deployment: &Deployment,
    shapes: Shapes,
    target: Option<&ProbeTarget>,
    dht_bytes_per_entry: f64,
    nodes_written_per_write: f64,
    seed: u64,
    smoke: bool,
) -> Probed {
    let storage = &deployment.storage;
    let client = storage.client();
    let mut count = Counter {
        attempted: 0,
        failed: 0,
    };
    let calls_for = |bytes_per_call: u64| {
        let calls = if smoke { SMOKE_CALLS } else { CALLS };
        calls.min((BYTE_BUDGET / bytes_per_call.max(1)).max(8) as usize)
    };
    let mut rng = Rng::new(seed, 0x70_726f_6265); // "probe"
    let pm = PageMath::new(shapes.page_size);

    // --- read side: client, metadata, provider -----------------------------
    let mut client_read = Vec::new();
    let mut lookup = Vec::new();
    let mut download = Vec::new();
    let mut pages_per_read = 0.0;
    if let Some((blob, info)) = target.and_then(|t| resolve(deployment, t)) {
        let read_len = shapes.read_len.min(info.size);
        let slots = ((info.size - read_len) / shapes.page_size + 1).max(1);
        let span = next_power_of_two(pm.pages_for(info.size));
        let mut pages = 0u64;
        for _ in 0..calls_for(read_len) {
            let offset = rng.below(slots) * shapes.page_size;
            let (got, ns) = time_ns(|| client.read(blob, info.version, offset, read_len));
            if count.ok(matches!(&got, Ok(d) if d.len() as u64 == read_len)) {
                client_read.push(ns);
            }
            let first = pm.page_of(offset);
            let last = pm.page_of(offset + read_len - 1);
            let (metas, ns) =
                time_ns(|| lookup_range(storage.metadata(), info.root, span, first, last));
            let Ok(metas) = metas else {
                count.ok(false);
                continue;
            };
            count.ok(true);
            lookup.push(ns);
            // Whole pages, one message per provider: the shape of a read's
            // coalesced fetch.
            let mut by_provider: BTreeMap<ProviderId, Vec<PageRequest>> = BTreeMap::new();
            for PageMeta {
                page,
                created,
                providers,
            } in &metas
            {
                if let (Some(created), Some(pid)) = (created, providers.first()) {
                    by_provider.entry(*pid).or_default().push(PageRequest {
                        key: page_key(blob, *created, *page),
                        offset: 0,
                        len: None,
                    });
                }
            }
            let fetched: u64 = by_provider.values().map(|r| r.len() as u64).sum();
            let (ok, ns) = time_ns(|| {
                by_provider.into_iter().all(|(pid, requests)| {
                    storage
                        .provider_manager()
                        .provider(pid)
                        .is_some_and(|p| p.download_many(requests).is_ok())
                })
            });
            if count.ok(ok) && fetched > 0 {
                download.push(ns / fetched);
                pages += fetched;
            }
        }
        pages_per_read = pages as f64 / download.len().max(1) as f64;
    }

    // --- write side: version manager, provider, client ----------------------
    let vm = storage.version_manager();
    let vm_blob = vm.create_blob();
    let mut reserve_commit = Vec::new();
    for _ in 0..calls_for(1) {
        let (ok, ns) = time_ns(|| {
            let ticket = vm.reserve(
                vm_blob,
                WriteIntent::Append {
                    len: shapes.write_len,
                },
            )?;
            vm.wait_for_predecessor(&ticket)?;
            vm.commit(&ticket, None)
        });
        if count.ok(ok.is_ok()) {
            reserve_commit.push(ns);
        }
    }
    count.ok(vm.delete_blob(vm_blob).is_ok());

    let page = Bytes::from(Stream::new(seed, 1).bytes(0, shapes.page_size as usize));
    let mut put_page = Vec::new();
    if let Some(provider) = storage.provider_manager().providers().first() {
        let calls = calls_for(shapes.page_size);
        for i in 0..calls {
            let key = format!("probe/page-{i}").into_bytes();
            let (ok, ns) = time_ns(|| provider.put_page(&key, page.clone()).is_ok());
            if count.ok(ok) {
                put_page.push(ns);
            }
        }
        for i in 0..calls {
            count.ok(provider
                .delete_page(format!("probe/page-{i}").as_bytes())
                .is_ok());
        }
    }

    let mut append = Vec::new();
    let record = Stream::new(seed, 2).bytes(0, shapes.write_len as usize);
    match client.create(Some(shapes.page_size)) {
        Ok(blob) => {
            for _ in 0..calls_for(shapes.write_len) {
                let (ok, ns) = time_ns(|| client.append(blob, &record).is_ok());
                if count.ok(ok) {
                    append.push(ns);
                }
            }
        }
        Err(_) => {
            count.ok(false);
        }
    }

    // --- kvstore: the floor under the provider ------------------------------
    let store = MemStore::new();
    let mut kv_put = Vec::new();
    let mut kv_get = Vec::new();
    let calls = calls_for(shapes.page_size);
    for i in 0..calls {
        let key = format!("probe/{i}").into_bytes();
        let (ok, ns) = time_ns(|| store.put(&key, page.clone()).is_ok());
        if count.ok(ok) {
            kv_put.push(ns);
        }
    }
    for i in 0..calls {
        let key = format!("probe/{i}").into_bytes();
        let (ok, ns) = time_ns(|| matches!(store.get(&key), Ok(Some(_))));
        if count.ok(ok) {
            kv_get.push(ns);
        }
    }

    // --- dht: batches of values the size the tree's nodes really are --------
    let dht = storage.metadata().dht();
    let value = Bytes::from(vec![
        0x5a_u8;
        (dht_bytes_per_entry.round() as usize).clamp(16, 4096)
    ]);
    let mut dht_put = Vec::new();
    let mut dht_get = Vec::new();
    let dht_batch = match nodes_written_per_write.round() as usize {
        0 => DHT_BATCH,
        n => n.min(64),
    };
    for batch in 0..calls_for(1) / 4 {
        let keys: Vec<Vec<u8>> = (0..dht_batch)
            .map(|i| format!("probe/{batch}/{i}").into_bytes())
            .collect();
        let entries: Vec<(&[u8], Bytes)> =
            keys.iter().map(|k| (k.as_slice(), value.clone())).collect();
        let (ok, ns) = time_ns(|| dht.put_many(&entries).is_ok());
        if count.ok(ok) {
            dht_put.push(ns / dht_batch as u64);
        }
        let (ok, ns) =
            time_ns(|| matches!(dht.get_many(&keys), Ok(v) if v.iter().all(Option::is_some)));
        if count.ok(ok) {
            dht_get.push(ns / dht_batch as u64);
        }
        for key in &keys {
            count.ok(dht.remove(key).is_ok());
        }
    }

    // --- bsfs: a file of the workload's block and page size ------------------
    let probe_fs = Bsfs::new(
        Arc::clone(storage),
        BsfsConfig::default()
            .with_block_size(shapes.block_size)
            .with_page_size(shapes.page_size),
    );
    let blocks = calls_for(shapes.block_size).min(32) as u64;
    let block = Stream::new(seed, 3).bytes(0, shapes.block_size as usize);
    let mut bsfs_read = Vec::new();
    let (written, write_ns) = time_ns(|| {
        let mut writer = probe_fs.create("/probe/file")?;
        for _ in 0..blocks {
            writer.write(&block)?;
        }
        writer.close()
    });
    count.ok(written.is_ok());
    if let Ok(mut reader) = probe_fs.open("/probe/file") {
        // Back to front, so the reader's own block cache never helps.
        for b in (0..blocks).rev() {
            let (ok, ns) = time_ns(
                || matches!(reader.read_at(b * shapes.block_size, shapes.block_size), Ok(d) if d.len() as u64 == shapes.block_size),
            );
            if count.ok(ok) {
                bsfs_read.push(ns);
            }
        }
    } else {
        count.ok(false);
    }
    let bsfs_write_us_per_mib =
        write_ns as f64 / 1e3 / ((blocks * shapes.block_size) as f64 / (1024.0 * 1024.0));

    // --- jobtracker and tasktrackers: a job whose tasks do nothing -----------
    let sched_ms_per_task = {
        let line = "x".repeat(1023) + "\n";
        let noop_fs = BsfsFs::new(Bsfs::new(
            Arc::clone(storage),
            BsfsConfig::default().with_block_size(64 * 1024),
        ));
        count.ok(noop_fs
            .write_file("/probe/noop-input", line.repeat(NOOP_TASKS).as_bytes())
            .is_ok());
        let job = Job::map_only(
            JobConfig::new(
                "probe-noop",
                InputSpec::Files(vec!["/probe/noop-input".into()]),
                "/probe/noop-out",
            )
            .with_split_size(line.len() as u64),
            Arc::new(NoopMapper),
        );
        let tracker = JobTracker::new(&ClusterTopology::flat(deployment.nodes.len() as u32));
        let (result, ns) = time_ns(|| tracker.run(&noop_fs, &job));
        match result {
            Ok(r) if count.ok(r.map_tasks > 0) => ns as f64 / 1e6 / r.map_tasks as f64,
            _ => {
                count.ok(false);
                0.0
            }
        }
    };

    // --- shuffle: the three pure functions a record passes through ----------
    let mut generator = TextGenerator::new(seed);
    let records: Vec<(String, String)> = (0..if smoke { 2_000 } else { SHUFFLE_RECORDS })
        .map(|_| (generator.sentence(), String::new()))
        .collect();
    let krec = records.len() as f64 / 1e3;
    let mut run = records.clone();
    let (_, sort_ns) = time_ns(|| shuffle::sort_run(&mut run));
    let buckets: Vec<Vec<(String, String)>> = run
        .chunks(run.len().div_ceil(4))
        .map(<[_]>::to_vec)
        .collect();
    let ((image, _), encode_ns) = time_ns(|| shuffle::encode_spill(&buckets));
    let runs: Vec<Vec<(String, String)>> = (0..SHUFFLE_RUNS)
        .map(|r| {
            let mut part: Vec<_> = records
                .iter()
                .skip(r)
                .step_by(SHUFFLE_RUNS)
                .cloned()
                .collect();
            shuffle::sort_run(&mut part);
            part
        })
        .collect();
    let (merged, merge_ns) = time_ns(|| shuffle::merge_runs(runs));
    count.ok(merged.len() == records.len() && merged.windows(2).all(|w| w[0].0 <= w[1].0));

    // --- derived -------------------------------------------------------------
    let client_read_us = p50_us(&client_read);
    let client_append_us = p50_us(&append);
    let metadata_lookup_us = p50_us(&lookup);
    let download_us_per_page = p50_us(&download);
    let provider_download_us_per_read = download_us_per_page * pages_per_read;
    let vm_reserve_commit_us = p50_us(&reserve_commit);
    let put_page_us = p50_us(&put_page);
    let pages_per_write = pm.pages_for(shapes.write_len).max(1) as f64;
    let dht_put_us_per_key = p50_us(&dht_put);
    let bsfs_read_at_us = p50_us(&bsfs_read);
    // A block read through BSFS asks the blob layer for a whole block, so
    // the blob-layer cost to set against it is scaled to the block.
    let client_us_per_block = client_read_us * shapes.block_size as f64 / shapes.read_len as f64;
    let self_share = |whole: f64, inner: f64| {
        if whole > 0.0 {
            1.0 - inner / whole
        } else {
            0.0
        }
    };

    let metrics = vec![
        Metric::new("bsfs.read_at_us", bsfs_read_at_us, "us"),
        Metric::new("bsfs.write_us_per_mib", bsfs_write_us_per_mib, "us/MiB"),
        Metric::new(
            "bsfs.self_share",
            self_share(bsfs_read_at_us, client_us_per_block),
            "share",
        ),
        Metric::new("client.read_us", client_read_us, "us"),
        Metric::new("client.append_us", client_append_us, "us"),
        Metric::new(
            "client.read_self_us",
            client_read_us - metadata_lookup_us - provider_download_us_per_read,
            "us",
        ),
        Metric::new("vm.reserve_commit_us", vm_reserve_commit_us, "us"),
        Metric::new("metadata.lookup_us", metadata_lookup_us, "us"),
        Metric::new("dht.get_many_us_per_key", p50_us(&dht_get), "us"),
        Metric::new("dht.put_many_us_per_key", dht_put_us_per_key, "us"),
        Metric::new("provider.put_page_us", put_page_us, "us"),
        Metric::new("provider.download_us_per_page", download_us_per_page, "us"),
        Metric::new("kvstore.put_us", p50_us(&kv_put), "us"),
        Metric::new("kvstore.get_us", p50_us(&kv_get), "us"),
        Metric::new("mr.sched_overhead_ms_per_task", sched_ms_per_task, "ms"),
        Metric::new(
            "shuffle.sort_run_us_per_krec",
            sort_ns as f64 / 1e3 / krec,
            "us",
        ),
        Metric::new(
            "shuffle.encode_spill_us_per_mib",
            encode_ns as f64 / 1e3 / (image.len() as f64 / (1024.0 * 1024.0)),
            "us/MiB",
        ),
        Metric::new(
            "shuffle.merge_runs_us_per_krec",
            merge_ns as f64 / 1e3 / krec,
            "us",
        ),
    ];
    Probed {
        metrics,
        client_read_us,
        client_append_us,
        bsfs_read_at_us,
        metadata_lookup_us,
        provider_download_us_per_read,
        vm_reserve_commit_us,
        provider_put_us_per_write: put_page_us * pages_per_write,
        dht_put_us_per_write: dht_put_us_per_key * nodes_written_per_write,
        attempted: count.attempted,
        failed: count.failed,
    }
}
