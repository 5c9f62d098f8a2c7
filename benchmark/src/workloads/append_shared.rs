//! `append_shared` — the paper's concurrent-append case: clients append to
//! one shared blob.
//!
//! Every pass creates a fresh blob and has each client append
//! [`APPENDS_PER_CLIENT`] records of one page to it. Each append reserves a
//! version at the version manager, pushes its page to a provider, waits for
//! its predecessor to publish, builds its segment-tree nodes and commits —
//! so the version manager's ordering, the metadata write batches and the
//! provider uploads do the work, and the read path does none until the
//! untimed re-read that checks the pass. Every pass runs on a deployment of
//! its own, so none inherits a deeper tree or a fuller provider.

use super::{
    on_clients, Deployment, Observer, Params, Plan, ProbeTarget, Shapes, Tally, Workload, CLIENTS,
    MIB,
};
use crate::pattern::Stream;
use crate::spans;
use blobseer::{BlobId, Version};
use std::time::Instant;

pub const NAME: &str = "append_shared";

/// One record is one page.
const PAGE: u64 = 64 * 1024;
const APPENDS_PER_CLIENT: u64 = 500;
const SMOKE_APPENDS_PER_CLIENT: u64 = 40;
/// Bytes at the head of a record that say who wrote it and in what order.
const HEADER: usize = 16;
const MAGIC: u32 = 0x4150_5044; // "APPD"
/// Records fetched per read by the check.
const CHECK_BATCH: u64 = 16;

pub struct AppendShared {
    seed: u64,
    appends: u64,
    deployment: Option<Deployment>,
    /// The blob of the latest pass, its pass number and its last version.
    last: Option<(BlobId, u64, Version)>,
    passes_done: u64,
}

impl AppendShared {
    pub fn new(params: &Params) -> Self {
        AppendShared {
            seed: params.seed,
            appends: if params.smoke {
                SMOKE_APPENDS_PER_CLIENT
            } else {
                APPENDS_PER_CLIENT
            },
            deployment: None,
            last: None,
            passes_done: 0,
        }
    }

    fn stream(&self, pass: u64, client: usize) -> Stream {
        Stream::new(self.seed, (pass << 8) | client as u64)
    }

    fn record(&self, pass: u64, client: usize, seq: u64, buf: &mut [u8]) {
        buf[0..4].copy_from_slice(&MAGIC.to_le_bytes());
        buf[4..8].copy_from_slice(&(client as u32).to_le_bytes());
        buf[8..16].copy_from_slice(&seq.to_le_bytes());
        self.stream(pass, client)
            .fill(seq * PAGE + HEADER as u64, &mut buf[HEADER..]);
    }

    /// Re-read one pass's blob: every record of every client exactly once,
    /// intact, each client's records in the order it appended them.
    fn check_blob(&self, blob: BlobId, pass: u64, tally: &mut Tally) {
        let client = self.deployment().storage.client();
        let records = CLIENTS as u64 * self.appends;
        let mut next_seq = [0u64; CLIENTS];
        let mut at = 0u64;
        while at < records {
            let n = CHECK_BATCH.min(records - at);
            let data = match client.read_latest(blob, at * PAGE, n * PAGE) {
                Ok(d) if d.len() as u64 == n * PAGE => d,
                _ => {
                    tally.count(false);
                    return;
                }
            };
            for rec in data.chunks_exact(PAGE as usize) {
                let magic = u32::from_le_bytes(rec[0..4].try_into().expect("4 bytes"));
                let c = u32::from_le_bytes(rec[4..8].try_into().expect("4 bytes")) as usize;
                let seq = u64::from_le_bytes(rec[8..16].try_into().expect("8 bytes"));
                let ok = magic == MAGIC
                    && c < CLIENTS
                    && seq == next_seq[c]
                    && self
                        .stream(pass, c)
                        .matches(seq * PAGE + HEADER as u64, &rec[HEADER..]);
                if ok {
                    next_seq[c] += 1;
                }
                tally.count(ok);
            }
            at += n;
        }
        // A record that went missing shows as a short count here even if
        // every record present was well-formed.
        tally.count(next_seq.iter().all(|&n| n == self.appends));
    }
}

impl Workload for AppendShared {
    fn shapes(&self) -> Shapes {
        Shapes {
            page_size: PAGE,
            read_len: CHECK_BATCH * PAGE,
            write_len: PAGE,
            block_size: PAGE,
        }
    }

    fn plan(&self) -> Plan {
        Plan {
            setups: 1,
            fresh_deployment_per_pass: true,
        }
    }

    fn teardown(&mut self) {
        self.last = None;
        self.deployment = None;
    }

    fn setup(&mut self, _observer: &dyn Observer, _tally: &mut Tally) {
        self.deployment = Some(Deployment::new(PAGE));
    }

    fn deployment(&self) -> &Deployment {
        self.deployment.as_ref().expect("set up first")
    }

    fn pass(&mut self, _observer: &dyn Observer, timed: bool, tally: &mut Tally) -> f64 {
        let deployment = self.deployment();
        let pass = self.passes_done;
        let blob = match deployment.storage.client().create(Some(PAGE)) {
            Ok(b) => b,
            Err(_) => {
                tally.count(false);
                return 0.0;
            }
        };
        let (tallies, wall_s) = on_clients(|c| {
            let mut t = Tally::default();
            let client = deployment
                .storage
                .client_on(deployment.nodes[c % deployment.nodes.len()]);
            let mut buf = vec![0u8; PAGE as usize];
            let mut newest: Option<Version> = None;
            for seq in 0..self.appends {
                self.record(pass, c, seq, &mut buf);
                let start = Instant::now();
                let result = {
                    let _span = spans::enter("client.append");
                    client.append(blob, &buf)
                };
                let ns = start.elapsed().as_nanos() as u64;
                // The bytes are checked by the re-read after the pass; here
                // only the call's own verdict counts.
                t.count(result.is_ok());
                newest = newest.max(result.ok());
                if timed {
                    t.op_ns.push(ns);
                    t.user_bytes += PAGE;
                }
            }
            (t, newest)
        });
        let mut newest = None;
        for (t, v) in tallies {
            tally.merge(t);
            newest = newest.max(v);
        }
        self.last = newest.map(|v| (blob, pass, v));
        self.passes_done += 1;
        (CLIENTS as u64 * self.appends * PAGE) as f64 / MIB / wall_s
    }

    fn check_pass(&mut self, tally: &mut Tally) {
        // The deployment does not outlive the pass, so its blob is read back
        // now.
        match self.last {
            Some((blob, pass, _)) => self.check_blob(blob, pass, tally),
            None => tally.count(false),
        }
    }

    fn verify(&mut self, _tally: &mut Tally) {
        // Every pass re-read its own blob before its deployment went away.
    }

    fn probe_target(&self) -> Option<ProbeTarget> {
        self.last
            .map(|(blob, _, version)| ProbeTarget::Blob(blob, version))
    }
}
