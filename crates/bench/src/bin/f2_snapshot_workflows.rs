//! F2 — future-work experiment (paper §V): versioning lets "complex MapReduce
//! workflows run in parallel, on different snapshots of the same original
//! dataset". A grep-style scan runs against snapshot v1 of a dataset while a
//! concurrent writer keeps appending new data (creating later versions); the
//! scan's result must reflect exactly the snapshot it targets.
//!
//! Two footprint gates follow: snapshot GC under a rewrite loop, and the
//! delete loop — 1 000 small sort jobs on one deployment (20 under
//! `BENCH_SMOKE`), each job's output deleted once checked. Deleting frees,
//! so the storage a deployment holds before the loop, at its middle and at
//! its end must be identical, counted five ways.

use blobseer::{BlobSeer, BlobSeerConfig, Version};
use mapreduce::jobtracker::JobTracker;
use mapreduce::DistFs;
use simcluster::topology::ClusterTopology;
use std::time::Instant;
use workloads::TextGenerator;

fn count_matches(data: &[u8], pattern: &str) -> usize {
    String::from_utf8_lossy(data)
        .lines()
        .filter(|l| l.contains(pattern))
        .count()
}

/// What a deployment stores at one point of the delete loop.
#[derive(serde::Serialize, Clone, Copy, PartialEq, Eq, Debug)]
struct Reading {
    provider_pages: usize,
    dht_entries: usize,
    holder_records: usize,
    blobs: usize,
    metadata_cache_entries: u64,
}

impl Reading {
    fn of(sys: &BlobSeer) -> Reading {
        Reading {
            provider_pages: sys
                .provider_manager()
                .providers()
                .iter()
                .map(|p| p.stats().pages)
                .sum(),
            dht_entries: sys.metadata().dht().stats().total_entries,
            holder_records: sys.provider_manager().announced_pages(),
            blobs: sys.version_manager().blob_ids().len(),
            metadata_cache_entries: sys.metadata().cache_stats().entries,
        }
    }
}

#[derive(serde::Serialize)]
struct DeleteLoop {
    jobs: usize,
    before: Reading,
    middle: Reading,
    end: Reading,
    flat: bool,
    /// Wall-clock seconds the loop took.
    wall_s: f64,
}

/// `jobs` sort jobs over one small text on one deployment; each job's
/// output is checked, then deleted.
fn delete_loop(jobs: usize) -> DeleteLoop {
    let nodes = 4u32;
    let block = 4 * 1024u64;
    let fs = bench::small_bsfs(nodes, block);
    let topo = ClusterTopology::flat(nodes);
    let text = TextGenerator::new(2026).sentences(400);
    let lines = text.lines().count() as u64;
    fs.write_file("/input/text", text.as_bytes()).unwrap();
    let sys = fs.inner().storage();
    let tracker = JobTracker::new(&topo);

    let before = Reading::of(sys);
    let mut middle = before;
    let start = Instant::now();
    for job in 1..=jobs {
        let sort =
            workloads::distributed_sort_job(&fs, vec!["/input/text".into()], "/sorted", 2, block)
                .expect("sampling the sort input");
        let result = tracker.run(&fs, &sort).expect("the sort job");
        assert_eq!(result.output_records, lines, "job {job} lost records");
        fs.delete("/sorted", true).unwrap();
        if job == jobs / 2 {
            middle = Reading::of(sys);
        }
    }
    let wall_s = start.elapsed().as_secs_f64();
    let end = Reading::of(sys);
    DeleteLoop {
        jobs,
        before,
        middle,
        end,
        flat: before == middle && middle == end,
        wall_s,
    }
}

fn main() {
    let smoke = bench::smoke_mode();
    let block = 64 * 1024u64;
    let sys = BlobSeer::new(
        BlobSeerConfig::default()
            .with_providers(8)
            .with_page_size(block),
    );
    let client = sys.client();
    let blob = client.create(Some(block)).unwrap();

    // Version 1: the original dataset with a known number of marker lines.
    let mut generator = TextGenerator::new(7);
    let mut original = String::new();
    let mut expected_v1 = 0usize;
    for i in 0..5_000 {
        if i % 13 == 0 {
            original.push_str("marker line for snapshot one\n");
            expected_v1 += 1;
        } else {
            original.push_str(&generator.sentence());
            original.push('\n');
        }
    }
    let v1 = client.append(blob, original.as_bytes()).unwrap();
    let v1_size = client.size(blob).unwrap();
    println!(
        "snapshot v1 written: {} bytes, {} marker lines",
        v1_size, expected_v1
    );

    // Concurrently: a writer keeps appending (new versions), while a scan
    // runs over snapshot v1.
    let writer_client = sys.client_on(sys.topology().node(1));
    let scan_client = sys.client_on(sys.topology().node(2));
    let (snapshot_count, appended_versions) = std::thread::scope(|s| {
        let writer = s.spawn(move || {
            let mut g = TextGenerator::new(99);
            let mut latest = Version(0);
            for _ in 0..20 {
                let mut extra = String::from("marker line added after the snapshot\n");
                extra.push_str(&g.sentences(100));
                latest = writer_client.append(blob, extra.as_bytes()).unwrap();
            }
            latest
        });
        let scanner = s.spawn(move || {
            // Scan snapshot v1 block by block.
            let mut matches = 0usize;
            let mut offset = 0u64;
            while offset < v1_size {
                let n = block.min(v1_size - offset);
                let data = scan_client.read(blob, v1, offset, n).unwrap();
                matches += count_matches(&data, "marker line for snapshot one");
                offset += n;
            }
            matches
        });
        (scanner.join().unwrap(), writer.join().unwrap())
    });

    println!("concurrent writer advanced the blob to {appended_versions}");
    println!("scan over snapshot v1 found {snapshot_count} marker lines (expected ~{expected_v1})");
    let latest = client.latest_version(blob).unwrap();
    println!(
        "latest version is now {} with {} bytes",
        latest.version, latest.size
    );
    // Count on line boundaries can differ by the block-split lines; a scan on
    // whole data confirms the exact number.
    let all_v1 = client.read(blob, v1, 0, v1_size).unwrap();
    assert_eq!(
        count_matches(&all_v1, "marker line for snapshot one"),
        expected_v1
    );
    assert!(latest.size > v1_size);
    println!("snapshot isolation holds: the v1 scan was unaffected by 20 concurrent appends");
    println!();

    // Snapshot GC under a rewrite loop: the same blob fully rewritten round
    // after round, with the retention policy off (history grows without
    // bound) and on (keep-last-2: the footprint reaches a steady state and
    // stays there). The paper's versioning never overwrites data, so this is
    // the knob that makes snapshot workflows sustainable.
    println!("== F2: snapshot GC under a rewrite loop (full rewrite x 12 rounds) ==");
    #[derive(serde::Serialize)]
    struct GcRow {
        label: String,
        rounds: usize,
        metadata_entries_mid: usize,
        metadata_entries_end: usize,
        provider_pages_mid: usize,
        provider_pages_end: usize,
        versions_retired: u64,
        nodes_removed: u64,
        pages_deleted: u64,
    }
    let footprint = |sys: &std::sync::Arc<BlobSeer>| -> (usize, usize) {
        let entries = sys.metadata().dht().stats().total_entries;
        let pages = sys
            .provider_manager()
            .providers()
            .iter()
            .map(|p| p.stats().pages)
            .sum::<usize>();
        (entries, pages)
    };
    let rounds = 12usize;
    let mut gc_rows = Vec::new();
    for (label, keep) in [("gc off   ", None), ("gc keep-2", Some(2))] {
        let mut config = BlobSeerConfig::default()
            .with_providers(8)
            .with_page_size(1024);
        if let Some(keep) = keep {
            config = config.with_gc_keep_last(keep);
        }
        let sys = BlobSeer::new(config);
        let client = sys.client();
        let blob = client.create(Some(1024)).unwrap();
        let mut report = blobseer::GcReport::default();
        let mut mid = (0, 0);
        for round in 0..rounds {
            let data = vec![b'a' + (round % 26) as u8; 32 * 1024];
            client.write(blob, 0, &data).unwrap();
            report.absorb(&sys.collect_garbage().unwrap());
            if round == rounds / 2 - 1 {
                mid = footprint(&sys);
            }
        }
        let end = footprint(&sys);
        println!(
            "{label}: metadata entries {} -> {}, provider pages {} -> {} \
             (mid-loop -> end); retired {} versions, removed {} nodes, \
             deleted {} pages",
            mid.0,
            end.0,
            mid.1,
            end.1,
            report.versions_retired,
            report.nodes_removed,
            report.pages_deleted,
        );
        gc_rows.push(GcRow {
            label: label.trim().to_string(),
            rounds,
            metadata_entries_mid: mid.0,
            metadata_entries_end: end.0,
            provider_pages_mid: mid.1,
            provider_pages_end: end.1,
            versions_retired: report.versions_retired,
            nodes_removed: report.nodes_removed,
            pages_deleted: report.pages_deleted,
        });
    }
    assert!(
        gc_rows[0].metadata_entries_end > gc_rows[0].metadata_entries_mid
            && gc_rows[0].provider_pages_end > gc_rows[0].provider_pages_mid,
        "without GC the rewrite loop must keep growing the footprint"
    );
    assert!(
        gc_rows[1].metadata_entries_end == gc_rows[1].metadata_entries_mid
            && gc_rows[1].provider_pages_end == gc_rows[1].provider_pages_mid,
        "with keep-last-2 retention the footprint must be flat at steady state"
    );
    assert!(gc_rows[1].versions_retired > 0 && gc_rows[1].pages_deleted > 0);
    println!(
        "GC keeps the loop footprint flat ({} metadata entries, {} pages) where \
         the unbounded history reached {} entries and {} pages",
        gc_rows[1].metadata_entries_end,
        gc_rows[1].provider_pages_end,
        gc_rows[0].metadata_entries_end,
        gc_rows[0].provider_pages_end,
    );

    println!();

    let jobs = if smoke { 20 } else { 1_000 };
    println!("== F2: delete loop ({jobs} sort jobs on one deployment, each output deleted) ==");
    let deletes = delete_loop(jobs);
    for (at, r) in [
        ("before", &deletes.before),
        ("middle", &deletes.middle),
        ("end", &deletes.end),
    ] {
        println!(
            "{at:>6}: {} provider pages, {} DHT entries, {} holder records, {} blobs, \
             {} metadata-cache entries",
            r.provider_pages, r.dht_entries, r.holder_records, r.blobs, r.metadata_cache_entries
        );
    }
    println!("{jobs} jobs in {:.2} s (wall)", deletes.wall_s);
    assert!(
        deletes.flat,
        "deleting each job's output must hold the footprint flat"
    );
    println!("the loop's footprint is flat: every job's scratch and output was freed");

    #[derive(serde::Serialize)]
    struct Snapshot {
        experiment: &'static str,
        smoke: bool,
        snapshot_markers_expected: usize,
        snapshot_markers_found: usize,
        gc_loop: Vec<GcRow>,
        delete_loop: DeleteLoop,
    }
    bench::emit_bench_json(
        "F2",
        &Snapshot {
            experiment: "F2",
            smoke,
            snapshot_markers_expected: expected_v1,
            snapshot_markers_found: snapshot_count,
            gc_loop: gc_rows,
            delete_loop: deletes,
        },
    );
}
