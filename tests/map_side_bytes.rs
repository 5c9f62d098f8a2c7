//! The map side handles bytes, and each new path is pinned to the one it
//! replaced:
//!
//! * a split validated as a whole and cut with `memchr` yields exactly the
//!   `(offset, line)` pairs of the per-line lossy decoder, its splits
//!   together yield the whole file's lossy lines once each, and it reads
//!   exactly the bytes the split scan always read;
//! * a map attempt's [`MapOutputBuffer`] spills the same image and index as
//!   the record-level oracle (`sort_run`, `combine_run`, `encode_spill` over
//!   owned buckets), and writes the same map-only part file as
//!   `write_output_file`.

use blobseer::{BlobSeer, BlobSeerConfig};
use bsfs::{Bsfs, BsfsConfig};
use mapreduce::fs::{BsfsFs, DistFs};
use mapreduce::job::Reducer;
use mapreduce::shuffle::{combine_run, encode_spill, sort_run, MapOutputBuffer};
use mapreduce::split::SplitLines;
use mapreduce::tasktracker::write_output_file;
use mapreduce::MrResult;
use proptest::prelude::*;

fn fs(block: u64) -> BsfsFs {
    let storage = BlobSeer::new(BlobSeerConfig::for_tests().with_page_size(block));
    BsfsFs::new(Bsfs::new(
        storage,
        BsfsConfig::for_tests().with_block_size(block),
    ))
}

/// Text pieces: ASCII, one- to four-byte characters (which splits cut
/// through), newlines (two in a row make an empty line), and bytes that are
/// never valid UTF-8 where they stand: a stray continuation byte, a lead
/// byte with no continuation, 0xFF.
fn piece_strategy() -> impl Strategy<Value = Vec<u8>> {
    prop_oneof![
        Just(b"ab".to_vec()),
        Just(b" ".to_vec()),
        Just("é".as_bytes().to_vec()),
        Just("€".as_bytes().to_vec()),
        Just("𝄞".as_bytes().to_vec()),
        Just(b"\n".to_vec()),
        Just(vec![0x80]),
        Just(vec![0xC3]),
        Just(vec![0xFF]),
    ]
}

/// A text of pieces — in about half the cases without the invalid ones, so
/// that the fast path runs — holding one long line of three-byte characters
/// (longer than most splits, and often long enough that finding its end
/// takes more than one 4 KiB tail chunk), and ending with or without a
/// newline.
fn text_strategy() -> impl Strategy<Value = Vec<u8>> {
    let parts = (
        prop::collection::vec(piece_strategy(), 0..400),
        any::<bool>(),
        0usize..400,
        0usize..3_200,
        any::<bool>(),
    );
    parts.prop_map(|(pieces, invalid, long_at, long_chars, trailing_newline)| {
        let mut pieces: Vec<Vec<u8>> = (pieces.into_iter())
            .filter(|piece| invalid || std::str::from_utf8(piece).is_ok())
            .collect();
        let long_line = "€".repeat(long_chars).into_bytes();
        pieces.insert(long_at.min(pieces.len()), long_line);
        let mut text = pieces.concat();
        if trailing_newline {
            text.push(b'\n');
        } else if text.last() == Some(&b'\n') {
            text.pop();
        }
        text
    })
}

/// Every line of `text` with its offset, each decoded on its own.
fn lossy_lines(text: &[u8]) -> Vec<(u64, String)> {
    let mut at = 0;
    let pieces = text.split_inclusive(|b| *b == b'\n');
    (pieces.map(|piece| {
        let line = piece.strip_suffix(b"\n").unwrap_or(piece);
        let line_at = at;
        at += piece.len() as u64;
        (line_at, String::from_utf8_lossy(line).into_owned())
    }))
    .collect()
}

/// What the split scan reads for `[offset, offset + len)` of `text`: from
/// the byte before the split to the end of the split's last line, which is
/// searched for in 4 KiB tail chunks — at least one, however soon it ends.
fn expected_bytes_read(text: &[u8], offset: u64, len: u64) -> u64 {
    let size = text.len() as u64;
    let split_end = (offset + len).min(size);
    if offset >= split_end {
        return 0;
    }
    let last = &text[split_end as usize - 1..];
    let line_end = (last.iter().position(|b| *b == b'\n')).map_or(size, |nl| split_end + nl as u64);
    let chunks = (line_end - split_end).div_ceil(4096).max(1);
    (split_end + chunks * 4096).min(size) - offset.saturating_sub(1)
}

/// Keys from a small alphabet with a two-byte character, so they repeat
/// within and across partitions; the empty key included. A piece that
/// fills the buffer's eight-byte sort prefix alone ("abcdefgh") and a NUL
/// (which the prefix's zero padding must not confuse with a shorter key)
/// make keys whose prefixes tie while the keys differ.
fn key_strategy() -> impl Strategy<Value = String> {
    let piece = prop_oneof![
        Just("a"),
        Just("b"),
        Just("é"),
        Just("\0"),
        Just("abcdefgh"),
    ];
    prop::collection::vec(piece, 0..3).prop_map(|pieces| pieces.concat())
}

/// Values with tabs, newlines and non-ASCII in them; the empty value
/// included.
fn value_strategy() -> impl Strategy<Value = String> {
    let ch = prop_oneof![prop::char::range('\t', '\n'), Just('x'), Just('ß')];
    prop::collection::vec(ch, 0..4).prop_map(|cs| cs.into_iter().collect())
}

/// A combiner that keeps a run's key with its values joined, and — for a
/// run of more than one — also emits a record under the empty key, after
/// the run's own: output out of key order, which the spill must re-sort.
struct JoinCombiner;

impl Reducer for JoinCombiner {
    fn reduce(
        &self,
        key: &str,
        values: &[String],
        emit: &mut dyn FnMut(String, String),
    ) -> MrResult<()> {
        emit(key.to_string(), values.join("+"));
        if values.len() > 1 {
            emit(String::new(), values.len().to_string());
        }
        Ok(())
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn a_split_cut_with_memchr_yields_the_lossy_lines_and_reads_what_it_always_read(
        text in text_strategy(),
        split_size in 1u64..3_000,
    ) {
        let fs = fs(1024);
        fs.write_file("/in", &text).unwrap();
        let stored = || fs.inner().storage().stats().bytes_read;
        let size = text.len() as u64;
        let mut seen = Vec::new();
        for offset in (0..size).step_by(split_size as usize) {
            let len = split_size.min(size - offset);
            let before = stored();
            let split = SplitLines::read(&fs, "/in", offset, len).unwrap();
            prop_assert_eq!(split.bytes_read(), expected_bytes_read(&text, offset, len));
            prop_assert_eq!(stored() - before, split.bytes_read());
            let lines: Vec<(u64, String)> =
                split.iter().map(|(at, line)| (at, line.into_owned())).collect();
            let lossy: Vec<(u64, String)> =
                split.iter_lossy().map(|(at, line)| (at, line.into_owned())).collect();
            prop_assert_eq!(&lines, &lossy);
            seen.extend(lines);
        }
        prop_assert_eq!(seen, lossy_lines(&text));
    }

    #[test]
    fn the_map_output_buffer_spills_what_the_owned_bucket_oracle_encodes(
        emits in prop::collection::vec((0usize..7, key_strategy(), value_strategy()), 0..60),
        partitions in 1usize..8,
    ) {
        let mut buckets = vec![Vec::new(); partitions];
        let (mut plain, mut combined) =
            (MapOutputBuffer::new(partitions), MapOutputBuffer::new(partitions));
        for (p, key, value) in &emits {
            let p = p % partitions;
            plain.push(p, key, value);
            combined.push(p, key, value);
            buckets[p].push((key.clone(), value.clone()));
        }
        buckets.iter_mut().for_each(|bucket| sort_run(bucket));

        let spill = plain.spill(None).unwrap();
        let (image, index) = encode_spill(&buckets);
        prop_assert_eq!(&spill.image, &image);
        prop_assert_eq!(&spill.index, &index);
        prop_assert_eq!((spill.combine_input_records, spill.combine_output_records), (0, 0));

        let mut counts = (0, 0);
        for bucket in &mut buckets {
            let outcome = combine_run(std::mem::take(bucket), &JoinCombiner).unwrap();
            counts.0 += outcome.input_records;
            counts.1 += outcome.output_records;
            *bucket = outcome.records;
        }
        let spill = combined.spill(Some(&JoinCombiner)).unwrap();
        let (image, index) = encode_spill(&buckets);
        prop_assert_eq!(&spill.image, &image);
        prop_assert_eq!(&spill.index, &index);
        prop_assert_eq!((spill.combine_input_records, spill.combine_output_records), counts);
    }

    #[test]
    fn a_map_only_buffer_writes_the_part_file_write_output_file_writes(
        emits in prop::collection::vec((key_strategy(), value_strategy()), 0..60),
    ) {
        let fs = fs(256);
        let mut buffer = MapOutputBuffer::new(1);
        for (key, value) in &emits {
            buffer.push(0, key, value);
        }
        let bytes = buffer.write_output_file(&fs, "/out/buffer").unwrap();
        let expected = write_output_file(&fs, "/out/oracle", &emits).unwrap();
        prop_assert_eq!(bytes, expected);
        prop_assert_eq!(fs.read_file("/out/buffer").unwrap(), fs.read_file("/out/oracle").unwrap());
    }
}
