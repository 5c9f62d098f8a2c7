//! `scan_distinct` — the paper's first microbenchmark: concurrent clients
//! each read their own file.
//!
//! Each client scans a file of its own, front to back and round again, with
//! one positioned read per BSFS block; a pass is the next quarter of each
//! file. Blocks are striped into small pages, so the two files together
//! hold more segment-tree nodes than the client-side metadata cache does:
//! by the time a scan comes round to a block again its nodes have been
//! evicted, and every pass descends the tree cold, as a wave of map tasks
//! over a fresh input does. Nothing is written during the timed
//! passes: the version manager and the shuffle are idle; metadata descent,
//! DHT batched reads, provider downloads and the client's assembly of pages
//! into a block do all the work.

use super::{
    on_clients, Deployment, Observer, Params, Plan, ProbeTarget, Shapes, Tally, Workload, CLIENTS,
    MIB,
};
use crate::pattern::{Rng, Stream};
use crate::spans;
use bsfs::{Bsfs, BsfsConfig};
use mapreduce::{BsfsFs, DistFs};
use std::sync::Arc;
use std::time::Instant;

pub const NAME: &str = "scan_distinct";

/// One positioned read, and the unit files are written in.
const BLOCK: u64 = 256 * 1024;
/// 32 pages per block.
const PAGE: u64 = 8 * 1024;
/// Per client. Two files of 20 480 pages make 40 960 leaves and as many
/// inner nodes again: 1.25 times the 65 536 nodes the metadata cache holds.
const FILE_BYTES: u64 = 160 * 1024 * 1024;
const SMOKE_FILE_BYTES: u64 = 4 * 1024 * 1024;
/// A pass reads this fraction of each file.
const PASSES_PER_CYCLE: u64 = 4;
/// Windows of a block checked inside the timed loop.
const SPOT_CHECKS: usize = 4;
const SPOT_LEN: usize = 64;

pub struct ScanDistinct {
    seed: u64,
    file_bytes: u64,
    deployment: Option<Deployment>,
    fs: Option<Arc<dyn DistFs>>,
    passes_done: u64,
}

fn path(client: usize) -> String {
    format!("/scan/file-{client}")
}

impl ScanDistinct {
    pub fn new(params: &Params) -> Self {
        ScanDistinct {
            seed: params.seed,
            file_bytes: if params.smoke {
                SMOKE_FILE_BYTES
            } else {
                FILE_BYTES
            },
            deployment: None,
            fs: None,
            passes_done: 0,
        }
    }

    fn stream(&self, client: usize) -> Stream {
        Stream::new(self.seed, client as u64)
    }

    /// Every client reads blocks `blocks` of its file; `full_check` compares
    /// every byte instead of [`SPOT_CHECKS`] windows per block.
    fn scan(
        &self,
        blocks: std::ops::Range<u64>,
        timed: bool,
        full_check: bool,
        tally: &mut Tally,
    ) -> f64 {
        let fs = self.fs.as_ref().expect("set up before scanning");
        let nodes = &self.deployment().nodes;
        let (tallies, wall_s) = on_clients(|c| {
            let mut t = Tally::default();
            let stream = self.stream(c);
            let mut rng = Rng::new(self.seed, (self.passes_done << 8) | c as u64);
            let local = fs.on_node(nodes[c % nodes.len()]);
            let mut reader = match local.open(&path(c)) {
                Ok(r) => r,
                Err(_) => {
                    t.count(false);
                    return t;
                }
            };
            for b in blocks.clone() {
                let offset = b * BLOCK;
                let start = Instant::now();
                let got = {
                    let _span = spans::enter("scan.read_block");
                    reader.read_at(offset, BLOCK)
                };
                let ns = start.elapsed().as_nanos() as u64;
                let ok = match &got {
                    Ok(data) if data.len() as u64 == BLOCK => {
                        if full_check {
                            stream.matches(offset, data)
                        } else {
                            (0..SPOT_CHECKS).all(|_| {
                                let at = rng.below(BLOCK - SPOT_LEN as u64) as usize;
                                stream.matches(offset + at as u64, &data[at..at + SPOT_LEN])
                            })
                        }
                    }
                    _ => false,
                };
                t.count(ok);
                if timed {
                    t.op_ns.push(ns);
                    t.user_bytes += BLOCK;
                }
            }
            t
        });
        for t in tallies {
            tally.merge(t);
        }
        wall_s
    }
}

impl Workload for ScanDistinct {
    fn shapes(&self) -> Shapes {
        Shapes {
            page_size: PAGE,
            read_len: BLOCK,
            write_len: BLOCK,
            block_size: BLOCK,
        }
    }

    fn plan(&self) -> Plan {
        Plan {
            setups: 1,
            fresh_deployment_per_pass: false,
        }
    }

    fn teardown(&mut self) {
        self.fs = None;
        self.deployment = None;
    }

    fn setup(&mut self, observer: &dyn Observer, tally: &mut Tally) {
        let mut deployment = Deployment::new(PAGE);
        let bsfs = Bsfs::new(
            Arc::clone(&deployment.storage),
            BsfsConfig::default()
                .with_block_size(BLOCK)
                .with_page_size(PAGE),
        );
        let fs = observer.wrap_fs(Arc::new(BsfsFs::new(bsfs.clone())));
        deployment.bsfs = Some(bsfs);

        let blocks = self.file_bytes / BLOCK;
        let (tallies, _) = on_clients(|c| {
            let mut t = Tally::default();
            let stream = self.stream(c);
            let local = fs.on_node(deployment.nodes[c % deployment.nodes.len()]);
            let mut buf = vec![0u8; BLOCK as usize];
            let mut ok = true;
            match local.create(&path(c)) {
                Ok(mut writer) => {
                    for b in 0..blocks {
                        stream.fill(b * BLOCK, &mut buf);
                        ok &= writer.write(&buf).is_ok();
                    }
                    ok &= writer.close().is_ok();
                }
                Err(_) => ok = false,
            }
            t.count(ok);
            t
        });
        for t in tallies {
            tally.merge(t);
        }
        self.deployment = Some(deployment);
        self.fs = Some(fs);
    }

    fn deployment(&self) -> &Deployment {
        self.deployment.as_ref().expect("set up first")
    }

    fn pass(&mut self, _observer: &dyn Observer, timed: bool, tally: &mut Tally) -> f64 {
        let per_pass = self.file_bytes / BLOCK / PASSES_PER_CYCLE;
        let first = (self.passes_done % PASSES_PER_CYCLE) * per_pass;
        let wall_s = self.scan(first..first + per_pass, timed, false, tally);
        self.passes_done += 1;
        (CLIENTS as u64 * per_pass * BLOCK) as f64 / MIB / wall_s
    }

    fn verify(&mut self, tally: &mut Tally) {
        self.scan(0..self.file_bytes / BLOCK, false, true, tally);
    }

    fn probe_target(&self) -> Option<ProbeTarget> {
        Some(ProbeTarget::File(path(0)))
    }
}
