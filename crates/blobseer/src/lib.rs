//! # blobseer — a versioning-oriented blob store for heavy access concurrency
//!
//! This crate is a from-scratch Rust implementation of **BlobSeer**, the
//! data-management service the paper builds its storage layer on
//! ("Large-Scale Distributed Storage for Highly Concurrent MapReduce
//! Applications", Moise et al., IPDPS 2010 workshops, §III-A). The design
//! follows the paper's description:
//!
//! * data is organised in **blobs** — huge sequences of bytes identified by a
//!   [`types::BlobId`] — split into fixed-size **pages** (configurable per
//!   blob);
//! * **providers** ([`provider::Provider`]) store pages, as assigned by the
//!   **provider manager** ([`provider_manager::ProviderManager`]), whose
//!   allocation strategy aims at load balancing;
//! * page locations for each blob version live in a **distributed hash
//!   table** of metadata providers ([`metadata`]), organised as versioned
//!   segment trees that share unchanged subtrees between versions, each
//!   version's new nodes stored as one record;
//! * metadata providers and data providers are two roles of the same
//!   machines: each machine runs one [`dht::StorageNode`], DHT ring member
//!   `i` and provider `i` at once, so a crash ([`BlobSeer::kill`]) takes
//!   out a machine's metadata and its pages together;
//! * a centralized **version manager** ([`version_manager::VersionManager`])
//!   assigns version numbers and guarantees that concurrent writes to the
//!   same blob publish in a consistent, gap-free order;
//! * **data is never overwritten**: every write or append produces a new
//!   snapshot version, and every past version stays readable;
//! * fault tolerance comes from page-level replication (pages live in an
//!   in-memory [`kvstore`] store standing in for BerkeleyDB), kept effective
//!   under churn by heartbeat failure detection and an active re-replication
//!   repair loop on both storage tiers (see [`BlobSeer::repair`]; every
//!   deployment detects failures, and repair runs when a caller asks).
//!
//! The whole deployment runs in one process: storage nodes and the version
//! manager are objects, and clients are plain values that can
//! be moved across threads. The concurrency is real (threads, locks,
//! atomics); only the network is replaced by function calls, with the
//! `simcluster` crate supplying a network *model* when experiments need
//! paper-scale numbers.
//!
//! ## Quick example
//!
//! ```
//! use blobseer::{BlobSeer, BlobSeerConfig};
//!
//! let system = BlobSeer::new(BlobSeerConfig::for_tests());
//! let client = system.client();
//!
//! let blob = client.create(None).unwrap();
//! let v1 = client.append(blob, b"hello ").unwrap();
//! let v2 = client.append(blob, b"world").unwrap();
//!
//! // The latest version sees both writes...
//! assert_eq!(&client.read_latest(blob, 0, 11).unwrap()[..], b"hello world");
//! // ...while the older snapshot still reads exactly as it was.
//! assert_eq!(&client.read(blob, v1, 0, 6).unwrap()[..], b"hello ");
//! assert!(v2 > v1);
//! ```

pub mod client;
pub mod config;
pub mod error;
pub mod gc;
pub mod metadata;
pub mod provider;
pub mod provider_manager;
pub mod types;
pub mod version_manager;

pub use client::{BlobSeer, BlobSeerClient, PageLocation};
pub use config::BlobSeerConfig;
pub use dht::{DhtNodeId, StorageNode};
pub use error::{BlobResult, BlobSeerError};
pub use gc::GcReport;
pub use metadata::store::MetadataStats;
pub use provider::{Provider, ProviderStats};
pub use provider_manager::{PlacementStrategy, ProviderManager};
pub use simcluster::replica::RepairReport;
pub use types::{BlobId, ByteRange, PageMath, ProviderId, Version};
pub use version_manager::{
    Reclaim, ShardStats, VersionInfo, VersionManager, WriteIntent, WriteTicket,
};
