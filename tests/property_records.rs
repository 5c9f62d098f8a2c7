//! Properties of the two scanners that keep records as bytes: the
//! streaming merge over still-encoded segments must be, record for record,
//! the record-level `merge_runs` of the same runs decoded; and a file's
//! splits, scanned as views of their buffers, must yield every line of the
//! file exactly once, at the right offset — the same records the owning
//! `read_records` returns.

use blobseer::{BlobSeer, BlobSeerConfig};
use bsfs::{Bsfs, BsfsConfig};
use mapreduce::fs::{BsfsFs, DistFs};
use mapreduce::shuffle::{encode_spill, merge_runs, merge_segments, read_segment, sort_run};
use mapreduce::split::{read_records, SplitLines};
use proptest::prelude::*;

fn fs(block: u64) -> BsfsFs {
    let storage = BlobSeer::new(BlobSeerConfig::for_tests().with_page_size(block));
    BsfsFs::new(Bsfs::new(
        storage,
        BsfsConfig::for_tests().with_block_size(block),
    ))
}

fn text(bytes: &[u8]) -> String {
    String::from_utf8_lossy(bytes).into_owned()
}

/// Keys from a two-letter alphabet, so they repeat across and within runs;
/// the empty key included.
fn key_strategy() -> impl Strategy<Value = String> {
    prop::collection::vec(prop::char::range('a', 'b'), 0..3).prop_map(|cs| cs.into_iter().collect())
}

/// Values with tabs and newlines in them; the empty value included.
fn value_strategy() -> impl Strategy<Value = String> {
    let ch = prop_oneof![prop::char::range('\t', '\n'), prop::char::range('x', 'z')];
    prop::collection::vec(ch, 0..4).prop_map(|cs| cs.into_iter().collect())
}

/// Keys built to defeat the merge's eight-byte key prefix: pieces that fill
/// the prefix alike ("abcdefgh"), keys shorter than eight bytes, NUL bytes
/// (which the prefix's zero padding must not confuse with a shorter key)
/// and a two-byte character; the empty key included.
fn edge_key_strategy() -> impl Strategy<Value = String> {
    let piece = prop_oneof![
        Just("abcdefgh"),
        Just("abcdefg"),
        Just("a"),
        Just("\0"),
        Just("é"),
    ];
    prop::collection::vec(piece, 0..4).prop_map(|pieces| pieces.concat())
}

/// Lines over an alphabet with a space, a two-byte character and a byte
/// (0xFF) that is never valid UTF-8; the empty line included.
fn line_strategy() -> impl Strategy<Value = Vec<u8>> {
    let piece = prop_oneof![
        Just(b"a".to_vec()),
        Just(b" ".to_vec()),
        Just("é".as_bytes().to_vec()),
        Just(vec![0xFF]),
    ];
    prop::collection::vec(piece, 0..12).prop_map(|pieces| pieces.concat())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn streaming_merge_equals_merge_runs_record_for_record(
        runs in prop::collection::vec(
            prop::collection::vec(
                (prop_oneof![key_strategy(), edge_key_strategy()], value_strategy()),
                0..10,
            ),
            1..65,
        ),
    ) {
        let mut runs = runs;
        runs.iter_mut().for_each(|run| sort_run(run));
        // One spill per run, through storage, fetched through its index.
        let fs = fs(256);
        let segments: Vec<_> = (runs.iter().enumerate())
            .map(|(i, run)| {
                let path = format!("/shuffle/map-{i:05}");
                let (image, index) = encode_spill(std::slice::from_ref(run));
                fs.write_file(&path, &image).unwrap();
                read_segment(&fs, &path, index[0]).unwrap().0
            })
            .collect();

        let reference = merge_runs(runs.clone());
        let mut merged = Vec::new();
        let non_empty = merge_segments(&segments, |record| {
            merged.push((text(record.key), text(record.value)));
            Ok(())
        })
        .unwrap();
        prop_assert_eq!(&merged, &reference);
        prop_assert_eq!(non_empty, runs.iter().filter(|run| !run.is_empty()).count() as u64);
    }

    #[test]
    fn split_views_are_the_files_lines_exactly_once(
        lines in prop::collection::vec(line_strategy(), 0..40),
        // A line longer than most splits, and one whose tail takes more than
        // one 4 096-byte chunk to find the end of.
        long_line in (0usize..40, 0usize..9_500),
        trailing_newline in any::<bool>(),
        split_size in 1u64..6_000,
    ) {
        let mut lines = lines;
        let (long_at, long_len) = long_line;
        lines.insert(long_at.min(lines.len()), vec![b'x'; long_len]);
        let mut content = lines.join(&b'\n');
        if trailing_newline || content.is_empty() {
            content.push(b'\n');
        }
        let fs = fs(1024);
        fs.write_file("/in", &content).unwrap();

        let mut expected = Vec::new();
        let mut at = 0u64;
        for piece in content.split_inclusive(|b| *b == b'\n') {
            expected.push((at, text(piece.strip_suffix(b"\n").unwrap_or(piece))));
            at += piece.len() as u64;
        }

        let mut seen = Vec::new();
        let size = content.len() as u64;
        for offset in (0..size).step_by(split_size as usize) {
            let len = split_size.min(size - offset);
            let split = SplitLines::read(&fs, "/in", offset, len).unwrap();
            let views: Vec<(u64, String)> =
                split.iter().map(|(at, line)| (at, line.into_owned())).collect();
            let (owned, bytes_read) = read_records(&fs, "/in", offset, len).unwrap();
            prop_assert_eq!(&views, &owned);
            prop_assert_eq!(split.bytes_read(), bytes_read);
            seen.extend(views);
        }
        prop_assert_eq!(seen, expected);
    }
}
