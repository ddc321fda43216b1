//! The ISSUE-10 acceptance sweep: a 4-node [`rnt_cluster::Cluster`] runs
//! 540 seeded chaos walks (180 per fault class — node-crash,
//! delayed-gossip, partition) and every run must come back clean: the
//! differential oracle, the per-node Theorem-9 oracle, the Theorem-29
//! order embedding, and the level-5 trace checker all pass.
//!
//! Set `CLUSTER_SWEEP_SEEDS` to shrink or grow the per-class seed count
//! (CI smoke uses a small value; the default is the full sweep).

use rnt_chaos::{run_cluster_chaos, ClusterChaosConfig, ClusterChaosReport, ClusterFaultClass};

fn seeds_per_class() -> u64 {
    std::env::var("CLUSTER_SWEEP_SEEDS").ok().and_then(|s| s.parse().ok()).unwrap_or(180)
}

/// Run one fault class's seeds. First-touch homing sends nothing for a
/// single-node footprint, so the sweep also has to show it still routes:
/// a class whose walks never leave their home node would pass every
/// oracle vacuously.
fn sweep(fault: ClusterFaultClass, base: u64) -> Vec<ClusterChaosReport> {
    let reports: Vec<ClusterChaosReport> = (0..seeds_per_class())
        .map(|i| {
            let seed = base + i;
            let cfg = ClusterChaosConfig { seed, nodes: 4, fault, ..Default::default() };
            match run_cluster_chaos(&cfg) {
                Ok(report) => report,
                Err(e) => panic!("seed {seed} ({fault:?}): {e}"),
            }
        })
        .collect();
    let (sends, commits): (u64, u64) =
        reports.iter().fold((0, 0), |(s, c), r| (s + r.sends, c + r.commits));
    assert!(sends > 0, "{fault:?}: {commits} commits never had a remote participant");
    reports
}

#[test]
fn sweep_node_crash() {
    let reports = sweep(ClusterFaultClass::NodeCrash, 0x10_0000);
    let crashes: u32 = reports.iter().map(|r| r.crashes).sum();
    let recoveries: u32 = reports.iter().map(|r| r.recoveries).sum();
    let commits: u64 = reports.iter().map(|r| r.commits).sum();
    assert!(crashes > 0, "the crash class must actually crash nodes");
    assert_eq!(crashes, recoveries, "every crash must be recovered by quiescence");
    assert!(commits > 0);
    // The redo path (committed-but-undelivered status surviving a crash
    // of its recipient) must be exercised somewhere in the sweep.
    let redo: u64 = reports.iter().map(|r| r.redo_applied).sum();
    assert!(redo > 0, "sweep never exercised crash-redo of queued commits");
}

#[test]
fn sweep_delayed_gossip() {
    let reports = sweep(ClusterFaultClass::DelayedGossip, 0x20_0000);
    assert!(reports.iter().map(|r| r.link_faults).sum::<u32>() > 0);
    assert!(reports.iter().map(|r| r.commits).sum::<u64>() > 0);
    assert!(reports.iter().all(|r| r.crashes == 0));
}

#[test]
fn sweep_partition() {
    let reports = sweep(ClusterFaultClass::Partition, 0x30_0000);
    assert!(reports.iter().map(|r| r.link_faults).sum::<u32>() > 0);
    assert!(reports.iter().map(|r| r.commits).sum::<u64>() > 0);
    // Partitioned links force natural NoWait deaths on held locks.
    assert!(reports.iter().map(|r| r.aborts).sum::<u64>() > 0);
}

#[test]
fn sweep_is_deterministic() {
    for fault in [
        ClusterFaultClass::NodeCrash,
        ClusterFaultClass::DelayedGossip,
        ClusterFaultClass::Partition,
        ClusterFaultClass::Mixed,
    ] {
        let cfg = ClusterChaosConfig { seed: 0xD5, nodes: 4, fault, ..Default::default() };
        let a = run_cluster_chaos(&cfg).expect("first run");
        let b = run_cluster_chaos(&cfg).expect("second run");
        assert_eq!(a, b, "{fault:?}: same seed must replay identically");
    }
}

#[test]
fn sweep_scales_with_node_count() {
    for nodes in [2, 3, 4, 6] {
        let cfg = ClusterChaosConfig {
            seed: 0xA0 + nodes as u64,
            nodes,
            fault: ClusterFaultClass::Mixed,
            ..Default::default()
        };
        if let Err(e) = run_cluster_chaos(&cfg) {
            panic!("{nodes}-node mixed run: {e}");
        }
    }
}
