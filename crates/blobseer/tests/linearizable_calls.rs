//! A call into a storage node — its metadata map directly, or its page
//! store through the machine's provider — is served on the caller's
//! thread, and it is linearizable with the node's `kill` and `revive`, the
//! one liveness flag both roles read: an operation
//! that starts after `kill` returns is refused until `revive` starts, one
//! that runs wholly between a `revive` and the next `kill` is served, and no
//! acknowledged write is lost across any number of crashes.
//!
//! Worker threads hammer one component while a controller thread kills and
//! revives it. The controller publishes each transition on a phase counter
//! that every operation reads before and after it runs, which is how an
//! operation knows which window it ran in; the controller waits for a fixed
//! number of completed operations inside each window, so every window is
//! exercised whatever the scheduling.

use blobseer::provider::{page_key, PageRequest};
use blobseer::{BlobId, Provider, ProviderId, Version};
use bytes::Bytes;
use dht::{DhtNodeId, NodeDown, StorageNode};
use simcluster::NodeId;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering::SeqCst};
use std::sync::Arc;

const WORKERS: usize = 3;
const CYCLES: usize = 20;
/// Operations completed inside each dead and each live window.
const WINDOW: u64 = 16;

/// The kill/revive schedule. `phase` counts transitions: `4k + 1` while
/// `kill` runs, `4k + 2` once it has returned, `4k + 3` while `revive` runs,
/// `4k + 4` once it has returned.
struct Schedule {
    phase: AtomicU64,
    ops: AtomicU64,
    done: AtomicBool,
    /// Workers still running: one that fails an assertion stops counting,
    /// so the controller never waits for operations that will not come.
    running: AtomicUsize,
}

/// Held by a worker for as long as it runs.
struct Running<'a>(&'a AtomicUsize);

impl Drop for Running<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, SeqCst);
    }
}

impl Schedule {
    fn new() -> Self {
        Schedule {
            phase: AtomicU64::new(0),
            ops: AtomicU64::new(0),
            done: AtomicBool::new(false),
            running: AtomicUsize::new(WORKERS),
        }
    }

    /// Each of the `WORKERS` workers calls this once, first.
    fn enlist(&self) -> Running<'_> {
        Running(&self.running)
    }

    /// The controller: `CYCLES` kill/revive rounds, each window held open
    /// until `WINDOW` more operations have completed. Ends alive.
    fn run(&self, kill: impl Fn(), revive: impl Fn()) {
        for _ in 0..CYCLES {
            self.phase.fetch_add(1, SeqCst);
            kill();
            self.phase.fetch_add(1, SeqCst);
            self.wait_for_ops();
            self.phase.fetch_add(1, SeqCst);
            revive();
            self.phase.fetch_add(1, SeqCst);
            self.wait_for_ops();
        }
        self.done.store(true, SeqCst);
    }

    fn wait_for_ops(&self) {
        let target = self.ops.load(SeqCst) + WINDOW;
        while self.ops.load(SeqCst) < target && self.running.load(SeqCst) > 0 {
            std::thread::yield_now();
        }
    }

    fn done(&self) -> bool {
        self.done.load(SeqCst)
    }

    /// Run one operation (`true` = served, `false` = refused) and check it
    /// against the window it ran in.
    fn check(&self, op: impl FnOnce() -> bool) -> bool {
        let before = self.phase.load(SeqCst);
        let served = op();
        let after = self.phase.load(SeqCst);
        if before == after {
            match before % 4 {
                2 => assert!(!served, "served after kill returned (phase {before})"),
                0 => assert!(served, "refused while alive (phase {before})"),
                _ => {}
            }
        }
        self.ops.fetch_add(1, SeqCst);
        served
    }
}

#[test]
fn a_dht_node_call_is_linearizable_with_kill_and_revive() {
    let node = StorageNode::new(DhtNodeId(0), NodeId(0));
    let sched = Schedule::new();
    let per_worker: Vec<(u64, u64, Vec<Vec<u8>>)> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..WORKERS)
            .map(|w| {
                let (node, sched) = (&node, &sched);
                s.spawn(move || {
                    let _running = sched.enlist();
                    let (mut served, mut refused) = (0u64, 0u64);
                    let mut acked: Vec<Vec<u8>> = Vec::new();
                    let mut i = 0u64;
                    while !sched.done() {
                        let key = format!("w{w}/k{i}").into_bytes();
                        let ok = if i.is_multiple_of(2) {
                            let ok =
                                sched.check(|| node.put(&key, Bytes::from(key.clone())).is_ok());
                            if ok {
                                acked.push(key);
                            }
                            ok
                        } else {
                            // The newest acknowledged write reads back, or a
                            // never-written key reads as absent.
                            let probe = acked.last().unwrap_or(&key);
                            let want = acked.last().map(|k| Bytes::from(k.clone()));
                            sched.check(|| match node.get(probe) {
                                Ok(got) => {
                                    assert_eq!(got, want);
                                    true
                                }
                                Err(NodeDown) => false,
                            })
                        };
                        if ok {
                            served += 1;
                        } else {
                            refused += 1;
                        }
                        i += 1;
                    }
                    (served, refused, acked)
                })
            })
            .collect();
        sched.run(|| node.kill(), || node.revive());
        workers.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let served: u64 = per_worker.iter().map(|(s, _, _)| s).sum();
    let refused: u64 = per_worker.iter().map(|(_, r, _)| r).sum();
    assert!(served > 0 && refused > 0, "both windows were exercised");
    assert_eq!(node.batches_handled(), served + refused);
    for key in per_worker.iter().flat_map(|(_, _, acked)| acked) {
        assert_eq!(node.get(key).unwrap(), Some(Bytes::from(key.clone())));
    }
}

#[test]
fn a_provider_call_is_linearizable_with_kill_and_revive() {
    let machine = Arc::new(StorageNode::new(DhtNodeId(0), NodeId(0)));
    let provider = Provider::new(Arc::clone(&machine));
    assert_eq!(provider.id(), ProviderId(0));
    let sched = Schedule::new();
    let per_worker: Vec<(u64, Vec<Vec<u8>>)> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..WORKERS)
            .map(|w| {
                let (provider, machine, sched) = (&provider, &machine, &sched);
                s.spawn(move || {
                    let _running = sched.enlist();
                    let mut refused = 0u64;
                    let mut acked: Vec<Vec<u8>> = Vec::new();
                    let mut i = 0u64;
                    while !sched.done() {
                        let key = page_key(BlobId(w as u64), Version(1), i);
                        let ok = match i % 4 {
                            0 => {
                                let data = Bytes::from(key.clone());
                                let ok = sched.check(|| provider.put_page(&key, data).is_ok());
                                if ok {
                                    acked.push(key);
                                }
                                ok
                            }
                            1 => {
                                let probe = acked.last().unwrap_or(&key);
                                let want = acked.last().map(|k| Bytes::from(k.clone()));
                                let whole = vec![PageRequest {
                                    key: probe.clone(),
                                    offset: 0,
                                    len: None,
                                }];
                                sched.check(|| match provider.download_many(whole) {
                                    Ok(got) => {
                                        assert_eq!(got, vec![want]);
                                        true
                                    }
                                    Err(_) => false,
                                })
                            }
                            2 => {
                                // A ranged window of up to three acknowledged
                                // pages in one batch.
                                let keys: Vec<&Vec<u8>> = acked.iter().rev().take(3).collect();
                                let requests = keys
                                    .iter()
                                    .map(|k| PageRequest {
                                        key: (*k).clone(),
                                        offset: 1,
                                        len: Some(2),
                                    })
                                    .collect();
                                sched.check(|| match provider.download_many(requests) {
                                    Ok(slots) => {
                                        for (k, slot) in keys.iter().zip(slots) {
                                            assert_eq!(slot.as_deref(), Some(&k[1..3]));
                                        }
                                        true
                                    }
                                    Err(_) => false,
                                })
                            }
                            // The same machine's metadata role reads the
                            // same flag.
                            _ => sched.check(|| match machine.get(&key) {
                                Ok(got) => {
                                    assert_eq!(got, None);
                                    true
                                }
                                Err(NodeDown) => false,
                            }),
                        };
                        refused += u64::from(!ok);
                        i += 1;
                    }
                    (refused, acked)
                })
            })
            .collect();
        sched.run(|| machine.kill(), || machine.revive());
        workers.into_iter().map(|h| h.join().unwrap()).collect()
    });
    assert!(per_worker.iter().any(|(refused, _)| *refused > 0));
    let acked: Vec<&Vec<u8>> = per_worker.iter().flat_map(|(_, a)| a).collect();
    assert!(!acked.is_empty());
    // Refused uploads stored nothing and counted nothing.
    assert_eq!(provider.stats().writes, acked.len() as u64);
    assert_eq!(provider.stats().pages, acked.len());
    for key in acked {
        let whole = vec![PageRequest {
            key: key.clone(),
            offset: 0,
            len: None,
        }];
        assert_eq!(
            provider.download_many(whole).unwrap(),
            vec![Some(Bytes::from(key.clone()))]
        );
    }
}
