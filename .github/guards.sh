#!/usr/bin/env bash
# Tree guards: each one greps the names of a retired mechanism out of the
# tree, so a deleted design cannot come back unnoticed. Run from the
# repository root (`bash .github/guards.sh`). Every guard runs; each failing
# guard prints its matches and its name, and the script exits non-zero if
# any failed.
set -u
failed=0
fail() {
  echo "guard failed: $1"
  failed=1
}

# One shuffle path (no spill compaction).
# Merge-spill compaction was retired: a map token hosts a map attempt and
# nothing else, and reducers fetch one segment per spill.
name="One shuffle path (no spill compaction)"
grep -rni compact crates/mapreduce/src && fail "$name"

# One-call data plane (no actors, no mailboxes).
# Providers and DHT nodes serve each call on the caller's thread; the actor
# module and its mailbox channel were deleted.
name="One-call data plane (no actors, no mailboxes)"
grep -rn "actor::\|mpsc::" crates/shims/miniexec/src crates/dht/src crates/blobseer/src && fail "$name"

# One hasher on the storage path (no SipHash).
# Keys are binary and system-generated: the page store, the DHT and the
# metadata layer hash them with kvstore's one unkeyed FastHasher.
name="One hasher on the storage path (no SipHash)"
grep -rn "DefaultHasher\|RandomState" crates/kvstore/src crates/dht/src crates/blobseer/src && fail "$name"

# One namespace (BSFS and HDFS share simcluster::fs).
# The namespace tree and its path rules are written once; both file systems
# keep their files in it. (-w: `fn normalize_paths`, a test, is not a copy.)
name="One namespace (BSFS and HDFS share simcluster::fs)"
test "$(grep -rnw "fn normalize" crates | wc -l)" -eq 1 || fail "$name"
test "$(grep -rnw "fn parent_of" crates | wc -l)" -eq 1 || fail "$name"

# One cache (BSFS's stream holds one block).
# The tree's one cache is BlobSeer's metadata cache; a BSFS record stream is
# served from one held block, with no size and no stats.
name="One cache (BSFS's stream holds one block)"
grep -rnw "ReadCache\|CacheStats\|read_cache_blocks" crates src tests examples && fail "$name"

# One eviction policy (no clock hand).
# The metadata cache evicts at slots drawn from a seeded per-shard generator
# under second chance; a hand sweeping slots in fill order evicts exactly
# what a repeating scan needs next.
name="One eviction policy (no clock hand)"
grep -nw hand crates/blobseer/src/metadata/cache.rs && fail "$name"

# No read-ahead, no background cadence.
# A block's full root answers its pages, so metadata read-ahead had nothing
# left to prefetch; GC and repair run when a caller calls them, and every
# deployment attaches one failure detector, keyed by machine and fed by both
# tiers, with one fixed suspicion timeout.
name="No read-ahead, no background cadence"
grep -rnw "metadata_readahead\|gc_interval_ms\|repair_interval_ms\|lookup_range_readahead\|get_nodes_readahead\|insert_prefetched\|DetectorConfig" crates src tests examples && fail "$name"

# One failure path (no revive reconciliation, no tombstones, no retry knob).
# A killed metadata node stays dead and a join places its keys before it
# returns, so a remove reaches every live copy without a marker; clients
# fail over within one attempt. Every storage node owns its in-memory store.
name="One failure path (no revive reconciliation, no tombstones, no retry knob)"
grep -rn "RetryPolicy\|retry_attempts\|retry_backoff_ms\|with_retry\|set_retry_policy\|[Tt]ombstone\|compact_tombstones\|new_with_backends\|with_store" crates src tests examples && fail "$name"

# One fail-over path (a refused request moves on as a batch).
# Both tiers fail over rank by rank, one batch per node per rank: the
# per-key DHT write, the per-page read fallback, the DHT's own kill and the
# standalone metadata store's constructor are gone.
name="One fail-over path (a refused request moves on as a batch)"
grep -rn "fetch_page_window\|try_put_on\|UnknownNode\|MetadataStore::new" crates src tests examples && fail "$name"

# One page write path (a write is one UploadMany per provider).
# A provider serves three batches, UploadMany, DownloadMany and DeleteMany
# (put_page and delete_page are batches of one). A write's push and its
# fail-over send one UploadMany per provider per rank, so the client stores
# no page one call at a time, and the one-page read verbs and the callerless
# counter reset are gone.
name="One page write path (a write is one UploadMany per provider)"
if grep -rn "fn get_page\|fn download_page\|fn query_page\|reset_allocation_counters" crates src tests examples; then
  echo "a one-page provider verb or the allocation-counter reset is back"
  fail "$name"
fi
if grep -n "\.put_page(" crates/blobseer/src/client.rs; then
  echo "the client stores a page one call at a time"
  fail "$name"
fi

# One metadata record per version.
# Every tree node a version creates is stored in one DHT entry keyed by
# (blob, version), so a write publishes one entry per replica: the per-node
# DHT key tag and the store's one-node put and remove are gone. (The hash
# ring's remove_node removes a ring member.)
name="One metadata record per version"
if grep -rn "NODE_KEY_TAG\|fn put_node\b" crates src tests examples; then
  echo "a per-node metadata key or one-node put is back"
  fail "$name"
fi
if grep -rn "fn remove_node\b" crates src tests examples | grep -v "^crates/dht/src/ring.rs:"; then
  echo "a one-node metadata removal is back"
  fail "$name"
fi

# No wall-clock sleep in the storage libraries.
# Library code (before a file's first #[cfg(test)]) of blobseer and dht
# never sleeps: waiting out an outage on the wall clock has no meaning under
# a SimClock.
name="No wall-clock sleep in the storage libraries"
for f in $(find crates/blobseer/src crates/dht/src -name '*.rs'); do
  if sed '/#\[cfg(test)\]/q' "$f" | grep -n "thread::sleep"; then
    echo "$f sleeps outside its tests"
    fail "$name"
  fi
done

# One membership path.
# A machine is one storage node, a DHT ring member and a page provider at
# once: BlobSeer::{kill, join} are a deployment's only membership calls, and
# no library code revives a node (the bare node's flag flip, for tests, is
# the one revive).
name="One membership path"
if grep -rn "metadata_providers\|join_in_memory" crates src tests examples; then
  echo "a separate metadata fleet or provider-only join is back"
  fail "$name"
fi
revives="$(grep -rln "fn revive" crates src tests examples)"
if [ "$revives" != "crates/dht/src/node.rs" ]; then
  echo "fn revive outside crates/dht/src/node.rs: $revives"
  fail "$name"
fi
# No deployment revives a machine (bare-node tests in crates/dht, blobseer's
# provider and provider-manager units and linearizable_calls flip a lone
# node's flag), and only BlobSeer::join changes a deployment's ring (a DHT
# has no kill: whoever built the nodes kills one through its handle).
if grep -rn "\.revive()" src tests examples crates/bench crates/bsfs crates/workloads crates/mapreduce crates/blobseer/src/client.rs; then
  echo "a deployment revives a machine"
  fail "$name"
fi
calls="$(grep -rln "dht()\.join(" crates src tests examples | sort | tr '\n' ' ')"
if [ "$calls" != "crates/blobseer/src/client.rs " ]; then
  echo "Dht::join on a deployment's DHT outside BlobSeer::join: $calls"
  fail "$name"
fi

# A write is a call (no fan-out, no helping waits, no polled waits).
# Page pushes run on the writer's thread, so no pool task waits on another
# and the executor needs no helping machinery. The durable page store went
# with it: no deployment used one.
name="A write is a call (no fan-out, no helping waits, no polled waits)"
grep -rn "poll_wait\|run_one_queued_task\|scope_blocking\|io_parallelism\|fan_out\|LogStore" crates src tests examples && fail "$name"

# One node type per machine (HDFS datanodes are storage nodes).
# An HDFS deployment's datanodes are its machines' StorageNodes, as a
# BlobSeer deployment's providers are, and every DHT ring is built over
# machines: the datanode type and its stats, and the standalone DHT
# constructor and its config, are gone.
name="One node type per machine (HDFS datanodes are storage nodes)"
grep -rnw "Datanode\|DatanodeStats\|DatanodeId\|DhtConfig" crates src tests examples && fail "$name"
grep -rn "Dht::new(" crates src tests examples && fail "$name"

exit $failed
