//! Property-based tests over the storage stack's core invariants.

use blobseer::{BlobSeer, BlobSeerConfig, Version};
use bsfs::{Bsfs, BsfsConfig};
use hdfs_sim::{Hdfs, HdfsConfig};
use proptest::prelude::*;

/// A reference model of a sparse, growing byte array.
fn apply_to_model(model: &mut Vec<u8>, offset: usize, data: &[u8]) {
    if offset + data.len() > model.len() {
        model.resize(offset + data.len(), 0);
    }
    model[offset..offset + data.len()].copy_from_slice(data);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Arbitrary sequences of writes and appends against one blob read back
    /// exactly like a plain in-memory byte array, at every intermediate
    /// version.
    #[test]
    fn blobseer_matches_reference_model(
        page_size in 16u64..200,
        ops in prop::collection::vec(
            (0usize..2_000, prop::collection::vec(any::<u8>(), 1..400), any::<bool>()),
            1..12,
        ),
    ) {
        let sys = BlobSeer::new(BlobSeerConfig::for_tests().with_page_size(page_size));
        let client = sys.client();
        let blob = client.create(None).unwrap();
        let mut model: Vec<u8> = Vec::new();
        let mut snapshots: Vec<(Version, Vec<u8>)> = Vec::new();

        for (offset, data, is_append) in &ops {
            let version = if *is_append {
                let v = client.append(blob, data).unwrap();
                let at = model.len();
                apply_to_model(&mut model, at, data);
                v
            } else {
                let v = client.write(blob, *offset as u64, data).unwrap();
                apply_to_model(&mut model, *offset, data);
                v
            };
            snapshots.push((version, model.clone()));
        }

        // The latest version matches the final model.
        let size = client.size(blob).unwrap();
        prop_assert_eq!(size, model.len() as u64);
        if size > 0 {
            prop_assert_eq!(client.read_latest(blob, 0, size).unwrap().to_vec(), model.clone());
        }
        // Every intermediate version still reads as it did when published.
        for (version, expected) in &snapshots {
            let got = client.read(blob, *version, 0, expected.len() as u64).unwrap();
            prop_assert_eq!(got.to_vec(), expected.clone());
        }
    }

    /// Whatever is written through BSFS is read back identically, for any
    /// block size and record segmentation.
    #[test]
    fn bsfs_write_read_roundtrip(
        block_size in 32u64..300,
        payload in prop::collection::vec(any::<u8>(), 1..5_000),
        chunking in 1usize..600,
    ) {
        let storage = BlobSeer::new(BlobSeerConfig::for_tests().with_page_size(block_size));
        let fs = Bsfs::new(storage, BsfsConfig::default().with_block_size(block_size));
        let mut writer = fs.create("/prop/file").unwrap();
        for chunk in payload.chunks(chunking) {
            writer.write(chunk).unwrap();
        }
        writer.close().unwrap();
        prop_assert_eq!(fs.len("/prop/file").unwrap(), payload.len() as u64);
        prop_assert_eq!(fs.read_file("/prop/file").unwrap().to_vec(), payload);
    }

    /// The HDFS baseline honours the same roundtrip property for closed files.
    #[test]
    fn hdfs_write_read_roundtrip(
        chunk_size in 32u64..300,
        payload in prop::collection::vec(any::<u8>(), 1..5_000),
        chunking in 1usize..600,
    ) {
        let fs = Hdfs::new(HdfsConfig { chunk_size, datanodes: 4, replication: 2, seed: 5 });
        let mut writer = fs.create("/prop/file").unwrap();
        for chunk in payload.chunks(chunking) {
            writer.write(chunk).unwrap();
        }
        writer.close().unwrap();
        prop_assert_eq!(fs.len("/prop/file").unwrap(), payload.len() as u64);
        prop_assert_eq!(fs.read_file("/prop/file").unwrap().to_vec(), payload);
    }

    /// Sub-range reads agree with the full contents on both backends.
    #[test]
    fn subrange_reads_are_consistent(
        payload in prop::collection::vec(any::<u8>(), 100..3_000),
        ranges in prop::collection::vec((0.0f64..1.0, 0.0f64..1.0), 1..8),
    ) {
        let storage = BlobSeer::new(BlobSeerConfig::for_tests().with_page_size(64));
        let bsfs = Bsfs::new(storage, BsfsConfig::default().with_block_size(64));
        bsfs.write_file("/f", &payload).unwrap();
        let hdfs = Hdfs::new(HdfsConfig { chunk_size: 64, datanodes: 4, replication: 1, seed: 2 });
        hdfs.write_file("/f", &payload).unwrap();

        let mut bsfs_reader = bsfs.open("/f").unwrap();
        let mut hdfs_reader = hdfs.open("/f").unwrap();
        for (a, b) in &ranges {
            let offset = (a * (payload.len() - 1) as f64) as usize;
            let len = 1 + (b * (payload.len() - offset - 1) as f64) as usize;
            let expected = payload[offset..offset + len].to_vec();
            prop_assert_eq!(
                bsfs_reader.read_at(offset as u64, len as u64).unwrap().to_vec(),
                expected.clone()
            );
            prop_assert_eq!(
                hdfs_reader.read_at(offset as u64, len as u64).unwrap().to_vec(),
                expected
            );
        }
    }
}
