//! `snapshot_mixed` — the layers of the other workloads used differently:
//! reads of an old snapshot beside writes that keep publishing new versions
//! of the same blob.
//!
//! The blob's tree fits the metadata cache when the timed passes begin.
//! Every client repeats [`READS_PER_WRITE`] reads and then one write. Reads
//! name the version set-up produced and start at offsets that are not page
//! aligned, so the first and last page of each are fetched as ranges.
//! Writes replace one page at a seeded position and publish a version each;
//! their new tree nodes compete with the readers' for the cache, and the
//! two writers meet at the version manager. A change that speeds reads at
//! the cost of writes, or the reverse, moves the read latency one way and
//! the write throughput the other.
//!
//! Both clients do the same thing on purpose. With one client only reading
//! and the other only writing, the writer's latency on a two-core machine
//! flips between two values a factor of ten apart, depending on how the
//! cores happen to be shared, and no statistic of it repeats.

use super::{
    on_clients, Deployment, Observer, Params, Plan, ProbeTarget, Shapes, Tally, Workload, CLIENTS,
    MIB,
};
use crate::pattern::{Rng, Stream};
use crate::spans;
use blobseer::{BlobId, Version};
use std::time::Instant;

pub const NAME: &str = "snapshot_mixed";

const PAGE: u64 = 8 * 1024;
/// Bytes of one read: two pages, three when unaligned.
const READ: u64 = 16 * 1024;
/// Reads start on a multiple of this.
const READ_ALIGN: u64 = 1024;
/// Bytes of one write: one page.
const WRITE: u64 = PAGE;
const READS_PER_WRITE: u64 = 4;
/// 8 192 pages, 16 384 tree nodes: a quarter of the metadata cache.
const BLOB_BYTES: u64 = 64 * 1024 * 1024;
const SMOKE_BLOB_BYTES: u64 = 2 * 1024 * 1024;
/// Bytes per write while loading.
const LOAD_CHUNK: u64 = 1024 * 1024;
/// Writes per client in a pass (and `READS_PER_WRITE` times as many reads).
const WRITES_PER_PASS: u64 = 150;
const SMOKE_WRITES_PER_PASS: u64 = 20;
/// Stream numbers: the loaded data, then one stream per write.
const LOAD_STREAM: u64 = 0;
const WRITE_STREAM_BASE: u64 = 1 << 32;

/// One successful write: what the latest version must show at `offset`
/// unless a write with a higher version covered it later.
struct Written {
    version: Version,
    offset: u64,
    stream: u64,
}

pub struct SnapshotMixed {
    seed: u64,
    blob_bytes: u64,
    writes_per_pass: u64,
    deployment: Option<Deployment>,
    /// The blob and the version that holds exactly the loaded data.
    blob: Option<(BlobId, Version)>,
    written: Vec<Written>,
    passes_done: u64,
}

impl SnapshotMixed {
    pub fn new(params: &Params) -> Self {
        SnapshotMixed {
            seed: params.seed,
            blob_bytes: if params.smoke {
                SMOKE_BLOB_BYTES
            } else {
                BLOB_BYTES
            },
            writes_per_pass: if params.smoke {
                SMOKE_WRITES_PER_PASS
            } else {
                WRITES_PER_PASS
            },
            deployment: None,
            blob: None,
            written: Vec::new(),
            passes_done: 0,
        }
    }
}

impl Workload for SnapshotMixed {
    fn shapes(&self) -> Shapes {
        Shapes {
            page_size: PAGE,
            read_len: READ,
            write_len: WRITE,
            block_size: READ,
        }
    }

    fn plan(&self) -> Plan {
        Plan {
            setups: 3,
            fresh_deployment_per_pass: false,
        }
    }

    fn teardown(&mut self) {
        self.blob = None;
        self.written.clear();
        self.deployment = None;
    }

    fn setup(&mut self, _observer: &dyn Observer, tally: &mut Tally) {
        let deployment = Deployment::new(PAGE);
        let loaded = Stream::new(self.seed, LOAD_STREAM);
        match deployment.storage.client().create(Some(PAGE)) {
            Ok(blob) => {
                let chunks = self.blob_bytes / LOAD_CHUNK;
                // Client `c` writes chunks c, c + CLIENTS, ...: explicit
                // offsets, so the loaders need no agreement on order.
                let (results, _) = on_clients(|c| {
                    let client = deployment
                        .storage
                        .client_on(deployment.nodes[c % deployment.nodes.len()]);
                    let mut buf = vec![0u8; LOAD_CHUNK as usize];
                    let mut newest: Option<Version> = None;
                    let mut ok = true;
                    for chunk in (c as u64..chunks).step_by(CLIENTS) {
                        loaded.fill(chunk * LOAD_CHUNK, &mut buf);
                        match client.write(blob, chunk * LOAD_CHUNK, &buf) {
                            Ok(v) => newest = newest.max(Some(v)),
                            Err(_) => ok = false,
                        }
                    }
                    (ok, newest)
                });
                let ok = results.iter().all(|(ok, _)| *ok);
                // Versions publish in order, so the highest one returned
                // holds every chunk.
                let last = results.into_iter().filter_map(|(_, v)| v).max();
                tally.count(ok && last.is_some());
                self.blob = last.map(|v| (blob, v));
            }
            Err(_) => tally.count(false),
        }
        self.deployment = Some(deployment);
    }

    fn deployment(&self) -> &Deployment {
        self.deployment.as_ref().expect("set up first")
    }

    fn pass(&mut self, _observer: &dyn Observer, timed: bool, tally: &mut Tally) -> f64 {
        let deployment = self.deployment();
        let Some((blob, pinned)) = self.blob else {
            tally.count(false);
            return 0.0;
        };
        let loaded = Stream::new(self.seed, LOAD_STREAM);
        let pass = self.passes_done;
        let read_slots = (self.blob_bytes - READ) / READ_ALIGN + 1;
        let write_slots = self.blob_bytes / PAGE;
        let (results, wall_s) = on_clients(|c| {
            let mut t = Tally::default();
            let mut written = Vec::new();
            let client = deployment
                .storage
                .client_on(deployment.nodes[c % deployment.nodes.len()]);
            let mut rng = Rng::new(self.seed, (pass << 8) | c as u64);
            let mut buf = vec![0u8; WRITE as usize];
            for w in 0..self.writes_per_pass {
                for _ in 0..READS_PER_WRITE {
                    let offset = rng.below(read_slots) * READ_ALIGN;
                    let start = Instant::now();
                    let got = {
                        let _span = spans::enter("client.read");
                        client.read(blob, pinned, offset, READ)
                    };
                    let ns = start.elapsed().as_nanos() as u64;
                    t.count(
                        matches!(&got, Ok(d) if d.len() as u64 == READ && loaded.matches(offset, d)),
                    );
                    if timed {
                        t.op_ns.push(ns);
                    }
                }
                let offset = rng.below(write_slots) * PAGE;
                let stream = WRITE_STREAM_BASE
                    + (pass * CLIENTS as u64 + c as u64) * self.writes_per_pass
                    + w;
                Stream::new(self.seed, stream).fill(offset, &mut buf);
                let start = Instant::now();
                let result = {
                    let _span = spans::enter("client.write");
                    client.write(blob, offset, &buf)
                };
                let ns = start.elapsed().as_nanos() as u64;
                t.count(result.is_ok());
                if let Ok(version) = result {
                    written.push(Written {
                        version,
                        offset,
                        stream,
                    });
                }
                if timed {
                    t.other_op_ns.push(ns);
                    t.user_bytes += WRITE;
                }
            }
            (t, written)
        });
        for (t, written) in results {
            tally.merge(t);
            self.written.extend(written);
        }
        self.passes_done += 1;
        (CLIENTS as u64 * self.writes_per_pass * WRITE) as f64 / MIB / wall_s
    }

    /// The latest version must read as the loaded data with every write
    /// applied in version order.
    fn verify(&mut self, tally: &mut Tally) {
        let Some((blob, _)) = self.blob else {
            tally.count(false);
            return;
        };
        let mut shadow = Stream::new(self.seed, LOAD_STREAM).bytes(0, self.blob_bytes as usize);
        self.written.sort_by_key(|w| w.version);
        for w in &self.written {
            let at = w.offset as usize;
            Stream::new(self.seed, w.stream).fill(w.offset, &mut shadow[at..at + WRITE as usize]);
        }
        let client = self.deployment().storage.client();
        for (i, want) in shadow.chunks(LOAD_CHUNK as usize).enumerate() {
            let got = client.read_latest(blob, i as u64 * LOAD_CHUNK, want.len() as u64);
            tally.count(matches!(&got, Ok(d) if d[..] == *want));
        }
    }

    fn probe_target(&self) -> Option<ProbeTarget> {
        self.blob
            .map(|(blob, version)| ProbeTarget::Blob(blob, version))
    }
}
