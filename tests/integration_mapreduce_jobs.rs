//! Integration tests running complete MapReduce jobs over both storage
//! backends and checking that the framework-level results are identical —
//! the property the paper's methodology (swap the storage layer, keep the
//! framework) relies on.

use blobseer::{BlobSeer, BlobSeerConfig};
use bsfs::{Bsfs, BsfsConfig};
use hdfs_sim::{Hdfs, HdfsConfig};
use mapreduce::fs::{BsfsFs, DistFs, HdfsFs};
use mapreduce::jobtracker::JobTracker;
use simcluster::ClusterTopology;
use workloads::{
    distributed_grep_job, distributed_sort_job, random_text_writer_job, word_count_job,
    TextGenerator,
};

fn backends(topo: &ClusterTopology, block: u64) -> (BsfsFs, HdfsFs) {
    let nodes: Vec<_> = topo.all_nodes().collect();
    let storage = BlobSeer::with_topology(
        BlobSeerConfig::default()
            .with_providers(nodes.len())
            .with_page_size(block),
        topo,
        &nodes,
    );
    let bsfs = BsfsFs::new(Bsfs::new(
        storage,
        BsfsConfig::default().with_block_size(block),
    ));
    let hdfs = HdfsFs::new(Hdfs::with_topology(
        HdfsConfig {
            chunk_size: block,
            datanodes: nodes.len(),
            replication: 2,
            seed: 3,
        },
        topo,
        &nodes,
    ));
    (bsfs, hdfs)
}

fn sorted_output(fs: &dyn DistFs, files: &[String]) -> Vec<String> {
    let mut lines = Vec::new();
    for f in files {
        let content = fs.read_file(f).unwrap();
        lines.extend(
            String::from_utf8_lossy(&content)
                .lines()
                .map(str::to_string),
        );
    }
    lines.sort();
    lines
}

#[test]
fn word_count_identical_on_both_backends() {
    let topo = ClusterTopology::flat(6);
    let (bsfs, hdfs) = backends(&topo, 16 * 1024);
    let mut generator = TextGenerator::new(11);
    let text = generator.sentences(3_000);

    let mut outputs = Vec::new();
    for fs in [&bsfs as &dyn DistFs, &hdfs as &dyn DistFs] {
        fs.write_file("/in/corpus.txt", text.as_bytes()).unwrap();
        let job = word_count_job(vec!["/in/corpus.txt".into()], "/wc", 4, 16 * 1024);
        let result = JobTracker::new(&topo).run(fs, &job).unwrap();
        assert_eq!(result.reduce_tasks, 4);
        assert!(result.map_tasks > 1);
        outputs.push(sorted_output(fs, &result.output_files));
    }
    assert_eq!(outputs[0], outputs[1]);
    assert!(!outputs[0].is_empty());
}

#[test]
fn grep_pipeline_after_random_text_writer() {
    // Chain the paper's two applications: generate data with Random Text
    // Writer, then grep the generated data — all through the framework.
    let topo = ClusterTopology::flat(4);
    let (bsfs, _) = backends(&topo, 32 * 1024);
    let fs: &dyn DistFs = &bsfs;

    let generate = random_text_writer_job("/generated", 4, 16, 2048, 77);
    let gen_result = JobTracker::new(&topo).run(fs, &generate).unwrap();
    assert_eq!(gen_result.output_files.len(), 4);
    assert!(gen_result.output_bytes >= 4 * 16 * 2048);

    // Grep for a word guaranteed to appear in the generated vocabulary.
    let grep = distributed_grep_job(vec!["/generated".into()], "/matches", "storage", 32 * 1024);
    let grep_result = JobTracker::new(&topo).run(fs, &grep).unwrap();
    let output = fs.read_file(&grep_result.output_files[0]).unwrap();
    let text = String::from_utf8_lossy(&output);
    if !text.trim().is_empty() {
        let count: u64 = text.trim().split('\t').nth(1).unwrap().parse().unwrap();
        assert!(count > 0);
    }
    assert_eq!(grep_result.fs_name, "BSFS");
    assert!(grep_result.input_records >= gen_result.output_records);
}

#[test]
fn jobs_survive_a_storage_node_failure_with_replication() {
    let topo = ClusterTopology::flat(6);
    let (_, hdfs) = backends(&topo, 8 * 1024);
    let fs: &dyn DistFs = &hdfs;
    let mut generator = TextGenerator::new(5);
    let mut text = String::new();
    for i in 0..500 {
        if i % 10 == 0 {
            text.push_str("the needle sentence appears here\n");
        } else {
            text.push_str(&generator.sentence());
            text.push('\n');
        }
    }
    fs.write_file("/in/data.txt", text.as_bytes()).unwrap();

    // Kill one datanode after load: chunk replication (2) covers reads.
    hdfs.inner().namenode().datanodes()[0].kill();

    let job = distributed_grep_job(vec!["/in/data.txt".into()], "/out", "needle", 8 * 1024);
    let result = JobTracker::new(&topo).run(fs, &job).unwrap();
    let output = fs.read_file(&result.output_files[0]).unwrap();
    assert_eq!(String::from_utf8_lossy(&output), "needle\t50\n");
}

#[test]
fn sort_jobs_deleting_their_predecessors_output_hold_a_flat_footprint() {
    // A job's shuffle and attempt scratch goes with the job, and a deleted
    // output goes with its delete: twenty jobs in, BlobSeer stores what it
    // stored after the second.
    let topo = ClusterTopology::flat(4);
    let (bsfs, _) = backends(&topo, 4 * 1024);
    let fs: &dyn DistFs = &bsfs;
    let text = TextGenerator::new(17).sentences(600);
    let lines = text.lines().count() as u64;
    fs.write_file("/in/text", text.as_bytes()).unwrap();
    let storage = bsfs.inner().storage();
    let footprint = || {
        let pages: usize = storage
            .provider_manager()
            .providers()
            .iter()
            .map(|p| p.stats().pages)
            .sum();
        (
            pages,
            storage.metadata().dht().stats().total_entries,
            storage.provider_manager().announced_pages(),
            storage.version_manager().blob_ids().len(),
        )
    };
    let tracker = JobTracker::new(&topo);
    let mut after_second = None;
    for job in 1..=20 {
        let out = format!("/sorted-{job}");
        let sort = distributed_sort_job(fs, vec!["/in/text".into()], &out, 2, 4 * 1024).unwrap();
        let result = tracker.run(fs, &sort).unwrap();
        assert_eq!(result.output_records, lines, "job {job}");
        if job > 1 {
            fs.delete(&format!("/sorted-{}", job - 1), true).unwrap();
        }
        if job == 2 {
            after_second = Some(footprint());
        }
    }
    assert_eq!(
        Some(footprint()),
        after_second,
        "(provider pages, DHT entries, holder records, blobs) after job 20 vs job 2"
    );
    // Only the input and the last output remain.
    let outputs = fs.list("/sorted-20").unwrap().len();
    assert_eq!(storage.version_manager().blob_ids().len(), 1 + outputs);
}

#[test]
fn locality_aware_scheduling_reports_data_local_tasks_on_bsfs() {
    let topo = ClusterTopology::flat(8);
    let (bsfs, _) = backends(&topo, 8 * 1024);
    let fs: &dyn DistFs = &bsfs;
    let mut generator = TextGenerator::new(9);
    let text = generator.sentences(2_000);
    fs.write_file("/in/big.txt", text.as_bytes()).unwrap();

    let job = word_count_job(vec!["/in/big.txt".into()], "/out", 2, 8 * 1024);
    let result = JobTracker::new(&topo).run(fs, &job).unwrap();
    assert_eq!(result.locality.total(), result.map_tasks);
    assert!(
        result.locality.data_local > 0,
        "locality-aware scheduling over the BSFS layout should produce data-local maps: {:?}",
        result.locality
    );
}
