//! Distributed experiment E8: gossip-policy sweeps over the level-5
//! algebra — traffic vs. progress for each summary-propagation strategy.

use crate::cells;
use crate::table::Table;
use rnt_distributed::{Level5, Topology};
use rnt_sim::gen::{random_universe, UniverseConfig};
use rnt_sim::gossip::{run_gossip, GossipConfig, GossipPolicy};
use std::sync::Arc;

/// E8: message counts and volumes per gossip policy, for 2–8 nodes.
pub fn e8_gossip(quick: bool) -> Table {
    let mut t = Table::new(
        "E8",
        "Distributed gossip policies: traffic to reach quiescence",
        &["nodes", "policy", "tx events", "sends", "entries shipped", "quiescent"],
    );
    let cfg = UniverseConfig {
        objects: 4,
        top_actions: if quick { 3 } else { 5 },
        max_fanout: 2,
        max_depth: 3,
        inner_prob: 0.5,
    };
    let seeds: Vec<u64> = if quick { vec![3, 7] } else { (0..10).collect() };
    let mut all_quiescent = true;
    for nodes in [2usize, 4, 8] {
        for policy in
            [GossipPolicy::EagerFull, GossipPolicy::DeltaOnChange, GossipPolicy::Periodic(8)]
        {
            let (mut tx, mut sends, mut entries, mut quiescent) = (0, 0, 0, true);
            for &seed in &seeds {
                let u = Arc::new(random_universe(seed, &cfg));
                let topo = Arc::new(Topology::round_robin(&u, nodes));
                let alg = Level5::new(u, topo);
                let (rep, _) = run_gossip(
                    &alg,
                    &GossipConfig { policy, seed, max_steps: 200_000, crash: None },
                );
                tx += rep.tx_events;
                sends += rep.sends;
                entries += rep.entries_shipped;
                quiescent &= rep.quiescent;
            }
            all_quiescent &= quiescent;
            t.row(cells![nodes, format!("{policy:?}"), tx, sends, entries, quiescent]);
        }
    }
    t.verdict(if all_quiescent {
        "expected shape: delta ships far fewer entries than eager; traffic grows with node count"
            .to_string()
    } else {
        "MISMATCH: some run failed to quiesce".to_string()
    });
    t
}

/// E8b: fail-stop crash of one node — the survivors still quiesce; the
/// crashed node's pending work never completes (resilience at the
/// distributed level: partial progress instead of global failure).
pub fn e8b_crash(quick: bool) -> Table {
    let mut t = Table::new(
        "E8b",
        "Fail-stop node crash: surviving progress and quiescence",
        &[
            "nodes",
            "crash after",
            "tx events (healthy)",
            "tx events (crashed)",
            "survivors quiesce",
        ],
    );
    let cfg = UniverseConfig {
        objects: 4,
        top_actions: if quick { 3 } else { 5 },
        max_fanout: 2,
        max_depth: 3,
        inner_prob: 0.5,
    };
    let seeds: Vec<u64> = if quick { vec![3, 7] } else { (0..10).collect() };
    let mut all_ok = true;
    for nodes in [2usize, 4] {
        for after in [0usize, 10, 40] {
            let (mut healthy_tx, mut crashed_tx, mut quiescent) = (0, 0, true);
            for &seed in &seeds {
                let mk = || {
                    let u = Arc::new(random_universe(seed, &cfg));
                    let topo = Arc::new(Topology::round_robin(&u, nodes));
                    Level5::new(u, topo)
                };
                let (h, _) = run_gossip(&mk(), &GossipConfig::new(GossipPolicy::EagerFull, seed));
                let (c, _) = run_gossip(
                    &mk(),
                    &GossipConfig {
                        policy: GossipPolicy::EagerFull,
                        seed,
                        max_steps: 200_000,
                        crash: Some((0, after)),
                    },
                );
                healthy_tx += h.tx_events;
                crashed_tx += c.tx_events;
                quiescent &= c.quiescent;
            }
            all_ok &= quiescent;
            t.row(cells![nodes, after, healthy_tx, crashed_tx, quiescent]);
        }
    }
    t.verdict(if all_ok {
        "expected shape: survivors always quiesce; later crashes cost less unfinished work"
            .to_string()
    } else {
        "MISMATCH: survivors failed to quiesce after a crash".to_string()
    });
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e8b_quick_survivors_quiesce() {
        let t = e8b_crash(true);
        assert!(t.verdict.starts_with("expected"), "{}", t.verdict);
        assert_eq!(t.rows.len(), 6);
    }

    #[test]
    fn e8_quick_quiesces() {
        let t = e8_gossip(true);
        assert!(t.verdict.starts_with("expected"), "{}", t.verdict);
        assert_eq!(t.rows.len(), 9);
    }
}
