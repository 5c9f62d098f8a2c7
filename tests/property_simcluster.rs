//! Property-based tests of the cluster/network simulator's invariants.

use proptest::prelude::*;
use simcluster::flowsim::{ClientProcess, Flow, FlowSimulator, Step};
use simcluster::netmodel::NetworkModel;
use simcluster::time::SimDuration;
use simcluster::topology::ClusterTopology;

fn topo() -> ClusterTopology {
    ClusterTopology::builder()
        .sites(2)
        .racks_per_site(2)
        .nodes_per_rack(4)
        .build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Every byte handed to the simulator is accounted for in the report, and
    /// no process finishes before its isolated (contention-free) lower bound.
    #[test]
    fn bytes_are_conserved_and_durations_respect_lower_bounds(
        transfers in prop::collection::vec((0u32..16, 0u32..16, 1u64..4_000_000), 1..12),
    ) {
        let topo = topo();
        let net = NetworkModel::grid5000_like();
        let mut expected_total = 0u64;
        let processes: Vec<ClientProcess> = transfers
            .iter()
            .enumerate()
            .map(|(i, (src, dst, bytes))| {
                expected_total += *bytes;
                ClientProcess::new(topo.node(*src))
                    .labelled(format!("p{i}"))
                    .then(Step::transfer(topo.node(*src), topo.node(*dst), *bytes))
            })
            .collect();
        let lower_bounds: Vec<f64> = transfers
            .iter()
            .map(|(src, dst, bytes)| {
                net.isolated_transfer_time(&topo, topo.node(*src), topo.node(*dst), *bytes)
                    .as_secs_f64()
            })
            .collect();

        let report = FlowSimulator::new(&topo, net).run(processes);
        prop_assert_eq!(report.total_bytes(), expected_total);
        for (outcome, lower) in report.processes.iter().zip(lower_bounds) {
            let measured = outcome.duration().as_secs_f64();
            prop_assert!(
                measured + 1e-6 >= lower,
                "process {} finished in {measured}s, below its contention-free bound {lower}s",
                outcome.label
            );
        }
    }

    /// Adding more competing flows never makes the makespan shorter.
    #[test]
    fn more_contention_never_shortens_the_makespan(
        base_clients in 1usize..6,
        extra_clients in 1usize..6,
        bytes in 100_000u64..2_000_000,
    ) {
        let topo = topo();
        let net = NetworkModel::uniform(50.0e6, SimDuration::ZERO);
        // All clients read from the same server node 0.
        let build = |count: usize| -> Vec<ClientProcess> {
            (0..count)
                .map(|i| {
                    let me = topo.node(1 + (i as u32 % 7));
                    ClientProcess::new(me).then(Step::parallel(vec![Flow::new(
                        topo.node(0),
                        me,
                        bytes,
                    )]))
                })
                .collect()
        };
        let few = FlowSimulator::new(&topo, net.clone()).run(build(base_clients));
        let many = FlowSimulator::new(&topo, net).run(build(base_clients + extra_clients));
        prop_assert!(many.makespan() >= few.makespan());
    }
}
