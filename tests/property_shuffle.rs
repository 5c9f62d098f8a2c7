//! Differential property test of the storage-materialized shuffle: for
//! random jobs (word-count, combining word-count, grep and sort shapes, 1–8
//! reducers, both storage backends), `JobTracker::run` — spills, segment
//! fetches, k-way merges, rename commits — must produce byte-identical
//! `part-*` output to `JobTracker::run_inmem`, the sequential in-memory
//! oracle. This mirrors the `lookup_range` vs `lookup_range_walk` pattern of
//! the metadata read path.

use blobseer::{BlobSeer, BlobSeerConfig};
use bsfs::{Bsfs, BsfsConfig};
use hdfs_sim::{Hdfs, HdfsConfig};
use mapreduce::fs::{BsfsFs, DistFs, HdfsFs};
use mapreduce::jobtracker::JobTracker;
use mapreduce::Job;
use proptest::prelude::*;
use simcluster::ClusterTopology;
use workloads::{
    distributed_grep_job, distributed_sort_job, word_count_job, word_count_job_combining,
};

fn make_fs(use_hdfs: bool, topo: &ClusterTopology) -> Box<dyn DistFs> {
    let nodes: Vec<_> = topo.all_nodes().collect();
    if use_hdfs {
        Box::new(HdfsFs::new(Hdfs::with_topology(
            HdfsConfig {
                chunk_size: 512,
                datanodes: nodes.len(),
                replication: 1,
                seed: 1,
            },
            topo,
            &nodes,
        )))
    } else {
        let storage = BlobSeer::with_topology(
            BlobSeerConfig::default()
                .with_providers(nodes.len())
                .with_page_size(512),
            topo,
            &nodes,
        );
        Box::new(BsfsFs::new(Bsfs::new(
            storage,
            BsfsConfig::default().with_block_size(512),
        )))
    }
}

fn make_job(shape: usize, fs: &dyn DistFs, out: &str, reducers: usize, split_size: u64) -> Job {
    let input = vec!["/in/text.txt".to_string()];
    match shape {
        0 => word_count_job(input, out, reducers, split_size),
        1 => word_count_job_combining(input, out, reducers, split_size),
        2 => distributed_grep_job(input, out, "a", split_size),
        _ => distributed_sort_job(fs, input, out, reducers, split_size)
            .expect("sampling the sort input"),
    }
}

/// Arbitrary lowercase words of 1..8 chars.
fn word_strategy() -> impl Strategy<Value = String> {
    prop::collection::vec(prop::char::range('a', 'f'), 1..8).prop_map(|cs| cs.into_iter().collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn storage_shuffle_is_byte_identical_to_the_inmem_oracle(
        words in prop::collection::vec(word_strategy(), 1..250),
        split_size in 64u64..1_500,
        reducers in 1usize..8,
        // shape (wordcount / combining wordcount / grep / sort) x backend,
        // folded into one variable (the strategy tuple is limited to 5).
        shape_and_backend in 0usize..8,
        words_per_line in 1usize..10,
    ) {
        let shape = shape_and_backend % 4;
        let use_hdfs = shape_and_backend >= 4;
        let mut text = String::new();
        for line in words.chunks(words_per_line) {
            text.push_str(&line.join(" "));
            text.push('\n');
        }

        let topo = ClusterTopology::flat(4);
        let fs = make_fs(use_hdfs, &topo);
        fs.write_file("/in/text.txt", text.as_bytes()).unwrap();

        let jt = JobTracker::new(&topo);
        let dist_job = make_job(shape, &*fs, "/out-dist", reducers, split_size);
        let dist = jt.run(&*fs, &dist_job).unwrap();
        let oracle_job = make_job(shape, &*fs, "/out-inmem", reducers, split_size);
        let oracle = jt.run_inmem(&*fs, &oracle_job).unwrap();

        // Same part files (names relative to the output dir), same bytes.
        prop_assert_eq!(dist.output_files.len(), oracle.output_files.len());
        for (d, o) in dist.output_files.iter().zip(&oracle.output_files) {
            prop_assert_eq!(d.strip_prefix("/out-dist"), o.strip_prefix("/out-inmem"));
            prop_assert!(
                fs.read_file(d).unwrap() == fs.read_file(o).unwrap(),
                "content of {} diverges from the oracle (shape={}, reducers={}, hdfs={})",
                d, shape, reducers, use_hdfs
            );
        }
        prop_assert_eq!(dist.output_records, oracle.output_records);
        prop_assert_eq!(dist.output_bytes, oracle.output_bytes);

        // Multi-reducer jobs must report the shuffle they actually did.
        if dist.reduce_tasks > 0 {
            prop_assert_eq!(
                dist.shuffle.segments_fetched,
                (dist.map_tasks * dist.reduce_tasks) as u64
            );
            prop_assert!(dist.shuffle.spill_bytes > 0);
            // One exact read per non-empty segment, none for an index: every
            // spilled byte is fetched once.
            prop_assert_eq!(dist.shuffle.shuffle_read_round_trips, dist.shuffle.merge_runs);
            prop_assert_eq!(dist.shuffle.shuffle_read_bytes, dist.shuffle.spill_bytes);
            if dist.shuffle.spill_records > 0 {
                prop_assert!(dist.shuffle.merge_runs > 0);
            }
        }

        // The job scratch space is gone; only part files remain.
        let mut listed = fs.list("/out-dist").unwrap();
        listed.sort();
        let mut expected = dist.output_files.clone();
        expected.sort();
        prop_assert_eq!(listed, expected);
    }
}
