//! E6 — shuffle-heavy workloads through the storage layer: Distributed Sort
//! (TeraSort-style) and word count with/without a combiner, BSFS vs HDFS.
//!
//! Unlike E4/E5 (whose jobs only touch storage for input and output), every
//! input byte of the sort crosses the shuffle: map tasks spill sorted,
//! partition-bucketed files through `DistFs`, and reducers pull their
//! partition's segment from every map file with positioned reads. The
//! shuffle counters reported here are therefore a *storage* workload
//! comparison — lots of concurrent small files and positioned reads, the
//! access pattern the paper's BlobSeer layer is built for.
//!
//! `BENCH_SMOKE=1` shrinks everything to a does-it-run configuration (CI).

use mapreduce::DistFs;
use simcluster::metrics::completion_table;
use workloads::TextGenerator;

fn main() {
    let smoke = bench::smoke_mode();
    let (lines, reducers, split_size) = if smoke {
        (1_000, 2, 4 * 1024)
    } else {
        (50_000, 4, 256 * 1024)
    };
    let block = 1u64 << 20;
    let (bsfs, hdfs) = bench::app_backends(block);

    let mut generator = TextGenerator::new(2026);
    let text = generator.sentences(lines);

    println!("== E6: Distributed Sort ({lines} lines, {reducers} reducers) ==");
    let mut records = Vec::new();
    for fs in [&bsfs as &dyn DistFs, &hdfs as &dyn DistFs] {
        fs.write_file("/input/unsorted.txt", text.as_bytes())
            .unwrap();
        let job = workloads::distributed_sort_job(
            fs,
            vec!["/input/unsorted.txt".into()],
            "/sort-out",
            reducers,
            split_size,
        )
        .expect("sampling the sort input");
        let (result, rec) = bench::run_job_on(fs, &bench::app_topology(), &job);

        // Verify the total order before reporting anything.
        let mut merged = Vec::new();
        for part in &result.output_files {
            let content = fs.read_file(part).unwrap();
            merged.extend(
                String::from_utf8_lossy(&content)
                    .lines()
                    .map(str::to_string),
            );
        }
        assert!(
            merged.windows(2).all(|w| w[0] <= w[1]),
            "{}: concatenated partitions must be globally sorted",
            rec.system
        );
        assert_eq!(merged.len(), text.lines().count());

        println!("{}", bench::shuffle_report(&result));
        records.push(rec);
    }
    println!();
    print!("{}", completion_table(&records));
    println!();

    println!("== E6: word count combiner ablation (shuffle bytes, BSFS vs HDFS) ==");
    for fs in [&bsfs as &dyn DistFs, &hdfs as &dyn DistFs] {
        for (label, combining) in [("plain    ", false), ("combining", true)] {
            let out = format!("/wc-{label}", label = label.trim());
            let input = vec!["/input/unsorted.txt".to_string()];
            let job = if combining {
                workloads::word_count_job_combining(input, &out, reducers, split_size)
            } else {
                workloads::word_count_job(input, &out, reducers, split_size)
            };
            let (result, _) = bench::run_job_on(fs, &bench::app_topology(), &job);
            println!("{label} {}", bench::shuffle_report(&result));
        }
    }
    println!();

    // Merge-spill compaction ablation: the same sort, through BSFS, with the
    // background compactor off and on. With compaction on, each reducer
    // fetches a handful of merged runs instead of one segment per map task,
    // so the positioned reads per reduce task must drop by at least half.
    println!("== E6: merge-spill compaction ablation (BSFS) ==");
    #[derive(serde::Serialize)]
    struct CompactionRow {
        label: String,
        maps: usize,
        reducers: usize,
        segments_fetched: u64,
        positioned_reads: u64,
        positioned_reads_per_reduce: f64,
        merge_runs: u64,
        compaction_runs: u64,
        compaction_merged_spills: u64,
        compaction_bytes: u64,
    }
    let mut compaction_rows = Vec::new();
    let mut outputs: Vec<Vec<u8>> = Vec::new();
    // Read amplification of the plain (uncompacted) sort: bytes the BlobSeer
    // deployment served over bytes the job's tasks asked the file system for.
    let mut storage_read_bytes_per_requested_byte = 0.0;
    for (label, threshold) in [("compaction off", None), ("compaction on ", Some(0))] {
        let out = format!("/sort-{label}", label = label.trim().replace(' ', "-"));
        let mut job = workloads::distributed_sort_job(
            &bsfs,
            vec!["/input/unsorted.txt".into()],
            &out,
            reducers,
            split_size,
        )
        .expect("sampling the sort input");
        job.config.compaction_threshold = threshold;
        let storage_bytes_read = || bsfs.inner().storage().stats().bytes_read;
        let read_before = storage_bytes_read();
        let (result, _) = bench::run_job_on(&bsfs, &bench::app_topology(), &job);
        if threshold.is_none() {
            let requested = result.input_bytes + result.shuffle.shuffle_read_bytes;
            storage_read_bytes_per_requested_byte =
                (storage_bytes_read() - read_before) as f64 / requested as f64;
            println!(
                "storage read {storage_read_bytes_per_requested_byte:.6} bytes per byte the \
                 job's tasks requested ({requested} B)"
            );
        }
        let mut merged = Vec::new();
        for part in &result.output_files {
            merged.extend_from_slice(&bsfs.read_file(part).unwrap());
        }
        outputs.push(merged);
        let s = &result.shuffle;
        let per_reduce = s.shuffle_read_round_trips as f64 / result.reduce_tasks as f64;
        println!(
            "{label}: {} segments fetched over {} positioned reads \
             ({per_reduce:.1}/reduce), {} merged runs from {} spills",
            s.segments_fetched,
            s.shuffle_read_round_trips,
            s.compaction_runs,
            s.compaction_merged_spills,
        );
        compaction_rows.push(CompactionRow {
            label: label.trim().to_string(),
            maps: result.map_tasks,
            reducers: result.reduce_tasks,
            segments_fetched: s.segments_fetched,
            positioned_reads: s.shuffle_read_round_trips,
            positioned_reads_per_reduce: per_reduce,
            merge_runs: s.merge_runs,
            compaction_runs: s.compaction_runs,
            compaction_merged_spills: s.compaction_merged_spills,
            compaction_bytes: s.compaction_bytes,
        });
    }
    assert_eq!(
        outputs[0], outputs[1],
        "compaction must not change the job output"
    );
    assert!(
        compaction_rows[1].positioned_reads_per_reduce
            <= 0.5 * compaction_rows[0].positioned_reads_per_reduce,
        "compaction must at least halve the positioned reads per reduce task \
         ({:.1} -> {:.1})",
        compaction_rows[0].positioned_reads_per_reduce,
        compaction_rows[1].positioned_reads_per_reduce,
    );
    println!(
        "compaction cut positioned reads per reduce task by {:.1}% \
         ({:.1} -> {:.1})",
        100.0
            * (1.0
                - compaction_rows[1].positioned_reads_per_reduce
                    / compaction_rows[0].positioned_reads_per_reduce),
        compaction_rows[0].positioned_reads_per_reduce,
        compaction_rows[1].positioned_reads_per_reduce,
    );

    #[derive(serde::Serialize)]
    struct Snapshot {
        experiment: &'static str,
        smoke: bool,
        storage_read_bytes_per_requested_byte: f64,
        compaction: Vec<CompactionRow>,
    }
    bench::emit_bench_json(
        "E6",
        &Snapshot {
            experiment: "E6",
            smoke,
            storage_read_bytes_per_requested_byte,
            compaction: compaction_rows,
        },
    );
}
