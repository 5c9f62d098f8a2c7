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

    // The BSFS sort's shuffle reads. The spill index travels with each map's
    // commit, so a positioned read fetches exactly one non-empty segment —
    // positioned reads equal merge runs — and storage serves exactly the
    // bytes the job's tasks asked for.
    println!("== E6: shuffle reads of the BSFS sort ==");
    #[derive(serde::Serialize)]
    struct SortReads {
        maps: usize,
        reducers: usize,
        segments_fetched: u64,
        positioned_reads: u64,
        positioned_reads_per_reduce: f64,
        merge_runs: u64,
    }
    let job = workloads::distributed_sort_job(
        &bsfs,
        vec!["/input/unsorted.txt".into()],
        "/sort-reads",
        reducers,
        split_size,
    )
    .expect("sampling the sort input");
    let storage_bytes_read = || bsfs.inner().storage().stats().bytes_read;
    let read_before = storage_bytes_read();
    let (result, _) = bench::run_job_on(&bsfs, &bench::app_topology(), &job);
    // Read amplification: bytes the BlobSeer deployment served over bytes
    // the job's tasks asked the file system for.
    let requested = result.input_bytes + result.shuffle.shuffle_read_bytes;
    let storage_read_bytes_per_requested_byte =
        (storage_bytes_read() - read_before) as f64 / requested as f64;
    println!(
        "storage read {storage_read_bytes_per_requested_byte:.6} bytes per byte the \
         job's tasks requested ({requested} B)"
    );
    let s = &result.shuffle;
    let sort = SortReads {
        maps: result.map_tasks,
        reducers: result.reduce_tasks,
        segments_fetched: s.segments_fetched,
        positioned_reads: s.shuffle_read_round_trips,
        positioned_reads_per_reduce: s.shuffle_read_round_trips as f64 / result.reduce_tasks as f64,
        merge_runs: s.merge_runs,
    };
    println!(
        "{} segments fetched over {} positioned reads ({:.1}/reduce), {} merge runs",
        sort.segments_fetched,
        sort.positioned_reads,
        sort.positioned_reads_per_reduce,
        sort.merge_runs,
    );
    assert_eq!(
        sort.positioned_reads, sort.merge_runs,
        "one positioned read per non-empty segment, none for an index"
    );

    #[derive(serde::Serialize)]
    struct Snapshot {
        experiment: &'static str,
        smoke: bool,
        storage_read_bytes_per_requested_byte: f64,
        sort: SortReads,
    }
    bench::emit_bench_json(
        "E6",
        &Snapshot {
            experiment: "E6",
            smoke,
            storage_read_bytes_per_requested_byte,
            sort,
        },
    );
}
