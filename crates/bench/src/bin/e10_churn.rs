//! E10 — churn tolerance: appends and version reads under a machine
//! kill/join stream, with the repair loop (not `revive`) restoring
//! replication.
//!
//! The fault model the robustness tier targets: machines crash *without
//! telling anyone* (a dead machine refuses operations on its pages and its
//! metadata alike; heartbeats and refused calls feed the machines' one
//! timeout/suspicion detector), and fresh machines join to replace them.
//! Each machine is one storage node, both a DHT ring member and a page
//! provider, so a kill loses a share of the tree nodes and of the pages
//! together. This harness drives a deterministic
//! [`ChurnSchedule`] on a `SimClock`, running an F1-style append workload
//! and E1-style snapshot reads between events, and calls [`BlobSeer::repair`]
//! once per round: repair runs only when a caller asks for it.
//!
//! Two properties are asserted, and recorded in `BENCH_E10.json` for CI:
//!
//! * **zero lost committed versions** — every append that returned a version
//!   is re-read and byte-compared at the end, after every kill has landed,
//!   with its tree read back from the DHT (the metadata cache is dropped
//!   before every round's reads and before the final sweep);
//! * **replication restored by repair** — the final repair pass on both
//!   tiers reports nothing left under-replicated, and no machine was ever
//!   revived (dead machines stay dead; only joins add capacity).
//!
//! It also records what the repair passes read from the providers
//! (`repair_page_reads`, `repair_page_bytes_read`): a pass lists each
//! member's keys and reads one copy of each page it re-replicates, so the
//! bytes stay within `repaired_page_copies × page_bytes`.
//!
//! `BENCH_SMOKE=1` shrinks the schedule to a does-it-run configuration.

use blobseer::{BlobSeer, BlobSeerConfig, ProviderId, ProviderManager, RepairReport};
use simcluster::topology::ClusterTopology;
use simcluster::{ChurnEventKind, ChurnSchedule, NodeId, SimClock, SimDuration, SimTime};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Pages and bytes the providers have served so far, summed.
fn provider_reads(pm: &ProviderManager) -> (u64, u64) {
    pm.providers().iter().fold((0, 0), |(reads, bytes), p| {
        let s = p.stats();
        (reads + s.reads, bytes + s.bytes_read)
    })
}

/// One repair pass over both tiers, adding what it read from the providers
/// to `traffic`.
fn repair(sys: &BlobSeer, traffic: &mut (u64, u64)) -> (RepairReport, RepairReport) {
    let before = provider_reads(sys.provider_manager());
    let reports = sys.repair();
    let after = provider_reads(sys.provider_manager());
    traffic.0 += after.0 - before.0;
    traffic.1 += after.1 - before.1;
    reports
}

/// One committed append: enough to re-read and byte-compare it later.
struct Committed {
    version: blobseer::Version,
    offset: u64,
    fill: u8,
}

fn main() {
    let smoke = bench::smoke_mode();
    let (rounds, writers, readers_per_round) = if smoke { (12usize, 2, 2) } else { (48, 4, 4) };
    let page = 16 * 1024u64;
    let replication = 2usize;
    let step = SimDuration::from_millis(250);

    let clock = Arc::new(SimClock::new());
    let topo = ClusterTopology::flat(8);
    let provider_nodes: Vec<NodeId> = topo.all_nodes().collect();
    let sys = BlobSeer::with_topology_and_clock(
        BlobSeerConfig::default()
            .with_providers(provider_nodes.len())
            .with_page_size(page)
            .with_page_replication(replication),
        &topo,
        &provider_nodes,
        Arc::clone(&clock) as Arc<dyn simcluster::Clock>,
    );
    let pm = sys.provider_manager();
    let dht = sys.metadata().dht();
    let dht_replication = dht.replication();
    // A kill must leave every page and every tree node a live copy.
    let quorum = replication.max(dht_replication);

    // 50/50 kill/join mix, one event per round boundary.
    let schedule = ChurnSchedule::uniform(rounds, step, 500, 0xE10);
    let client = sys.client();
    let blob = client.create(Some(page)).unwrap();

    // Membership as the harness sees it: the schedule says *when* a kill
    // lands, the harness picks the victim machine from the live set.
    let mut live: Vec<ProviderId> = (0..provider_nodes.len() as u32).map(ProviderId).collect();
    let (mut kills_applied, mut kills_skipped, mut joins_applied) = (0u64, 0u64, 0u64);
    let mut victim_seed = 0x9E37_79B9u64;

    let mut committed: Vec<Committed> = Vec::new();
    let mut verified_reads = 0u64;
    let mut repair_traffic = (0u64, 0u64);
    let (mut append_secs, mut read_secs) = (0f64, 0f64);
    let mut now = SimTime::from_micros(0);

    println!(
        "== E10: churn tolerance ({} rounds x {}ms, {} machines, page replication \
         {replication}, DHT replication {dht_replication}, {} kills / {} joins scheduled) ==",
        rounds,
        step.as_micros() / 1000,
        live.len(),
        schedule.kill_count(),
        schedule.join_count(),
    );
    println!();

    for round in 0..rounds {
        let next = SimTime::from_micros(now.as_micros() + step.as_micros());
        clock.advance(Duration::from_micros(step.as_micros()));
        for event in schedule.events_between(now, next) {
            match event.kind {
                ChurnEventKind::Kill => {
                    // Never drop the machines to the replication factor
                    // (the schedule fixes when kills happen, the harness
                    // keeps them survivable).
                    if live.len() > quorum {
                        victim_seed ^= victim_seed << 13;
                        victim_seed ^= victim_seed >> 7;
                        victim_seed ^= victim_seed << 17;
                        let victim = live.remove(victim_seed as usize % live.len());
                        sys.kill(victim).unwrap();
                        kills_applied += 1;
                    } else {
                        kills_skipped += 1;
                    }
                }
                ChurnEventKind::Join => {
                    let node = topo.node((joins_applied % 8) as u32);
                    live.push(sys.join(node));
                    joins_applied += 1;
                }
            }
        }
        now = next;

        // F1-style appends: each writer commits one page-sized version.
        let t0 = Instant::now();
        for w in 0..writers {
            let fill = ((round * 31 + w * 7) % 251) as u8 + 1;
            let offset = committed.len() as u64 * page;
            let version = client.append(blob, &vec![fill; page as usize]).unwrap();
            committed.push(Committed {
                version,
                offset,
                fill,
            });
        }
        append_secs += t0.elapsed().as_secs_f64();

        // E1-style reads: sample earlier snapshots — including ones whose
        // recorded replicas have since died, which must fail over to the
        // announced repair copies, and whose tree nodes lost copies with
        // their machines.
        sys.metadata().drop_cached_nodes();
        let t0 = Instant::now();
        for r in 0..readers_per_round {
            let c = &committed[(round * 13 + r * 5) % committed.len()];
            let data = client.read(blob, c.version, c.offset, page).unwrap();
            assert!(
                data.iter().all(|b| *b == c.fill),
                "round {round}: version {:?} read back corrupt",
                c.version
            );
            verified_reads += 1;
        }
        read_secs += t0.elapsed().as_secs_f64();

        // The repair loop's pass for this round: probe both tiers, then
        // re-replicate everything the kills left under factor.
        repair(&sys, &mut repair_traffic);
    }

    // Final sweep: every committed version must still read back intact, and
    // a closing repair pass must find both tiers fully replicated.
    sys.metadata().drop_cached_nodes();
    let t0 = Instant::now();
    let mut lost = 0u64;
    for c in &committed {
        match client.read(blob, c.version, c.offset, page) {
            Ok(data) if data.iter().all(|b| *b == c.fill) => verified_reads += 1,
            _ => lost += 1,
        }
    }
    read_secs += t0.elapsed().as_secs_f64();
    let (dht_report, provider_report) = repair(&sys, &mut repair_traffic);
    let (repair_page_reads, repair_page_bytes_read) = repair_traffic;

    let append_mib = (committed.len() as u64 * page) as f64 / (1024.0 * 1024.0);
    let read_mib = (verified_reads * page) as f64 / (1024.0 * 1024.0);
    let append_mibps = append_mib / append_secs.max(1e-9);
    let read_mibps = read_mib / read_secs.max(1e-9);
    // Both tiers feed the machines' one detector, which the DHT's stats read.
    let dht_stats = dht.stats();
    let machine_failures_detected = dht_stats.failures_detected;

    println!(
        "churn applied: {kills_applied} machine kills ({kills_skipped} skipped to keep quorum), \
         {joins_applied} machine joins; live now: {} machines",
        live.len(),
    );
    println!(
        "committed {} versions, verified {verified_reads} reads, lost {lost}",
        committed.len(),
    );
    println!("appends: {append_mibps:.1} MiB/s sustained; reads: {read_mibps:.1} MiB/s sustained");
    println!(
        "repair: {} page copies over {} passes (final under-replicated {}), \
         dht {} entries re-replicated (final under-replicated {}), \
         machine failures detected: {machine_failures_detected}",
        pm.health().copies(),
        pm.health().runs(),
        provider_report.still_under_replicated,
        dht_stats.repaired_entries,
        dht_report.still_under_replicated,
    );
    println!(
        "repair traffic: {repair_page_reads} pages / {repair_page_bytes_read} bytes read \
         from providers"
    );

    assert_eq!(lost, 0, "a committed version became unreadable under churn");
    assert_eq!(
        provider_report.still_under_replicated, 0,
        "repair must restore page replication with the live machines"
    );
    assert_eq!(
        dht_report.still_under_replicated, 0,
        "repair must restore metadata replication with the live machines"
    );
    assert!(
        kills_applied > 0 && joins_applied > 0,
        "the schedule must actually exercise churn"
    );
    assert!(
        repair_page_bytes_read <= pm.health().copies() * page,
        "repair reads at most one page per copy it makes"
    );

    #[derive(serde::Serialize)]
    struct Snapshot {
        experiment: &'static str,
        smoke: bool,
        rounds: usize,
        page_bytes: u64,
        replication: usize,
        dht_replication: usize,
        kills_applied: u64,
        kills_skipped: u64,
        joins_applied: u64,
        committed_versions: usize,
        verified_reads: u64,
        lost_versions: u64,
        append_mibps: f64,
        read_mibps: f64,
        repaired_page_copies: u64,
        repair_page_reads: u64,
        repair_page_bytes_read: u64,
        repaired_dht_entries: u64,
        provider_under_replicated_final: usize,
        dht_under_replicated_final: usize,
        machine_failures_detected: u64,
    }
    bench::emit_bench_json(
        "E10",
        &Snapshot {
            experiment: "E10",
            smoke,
            rounds,
            page_bytes: page,
            replication,
            dht_replication,
            kills_applied,
            kills_skipped,
            joins_applied,
            committed_versions: committed.len(),
            verified_reads,
            lost_versions: lost,
            append_mibps,
            read_mibps,
            repaired_page_copies: pm.health().copies(),
            repair_page_reads,
            repair_page_bytes_read,
            repaired_dht_entries: dht_stats.repaired_entries,
            provider_under_replicated_final: provider_report.still_under_replicated,
            dht_under_replicated_final: dht_report.still_under_replicated,
            machine_failures_detected,
        },
    );
}
