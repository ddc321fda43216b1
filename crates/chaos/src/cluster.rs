//! Chaos driver for the sharded multi-node engine: seeded randomized
//! nested workloads against [`rnt_cluster::Cluster`] under the fault
//! classes of the paper's Section 9 — node crashes (fail-stop with WAL
//! recovery), delayed gossip, and network partitions — checked by four
//! oracles:
//!
//! * **differential**: every read is compared against a reference
//!   interpreter's view (committed map + the transaction's own pending
//!   writes), and the final cluster-wide snapshot must equal the
//!   reference's committed map exactly;
//! * **Theorem 9** per node: each (non-recovered) node's audit log must
//!   replay rw-data-serializably with clean orphan views, and the engine
//!   lock invariants must hold ([`crate::oracle::check`]);
//! * **Theorem 29 embedding**: each node's remote-commit apply order
//!   must be a strictly increasing subsequence of the cluster commit
//!   log;
//! * **level-5 trace**: the run's journal must validate under the
//!   distributed checker (event preconditions + `summary_le_tree`).
//!
//! Every run is a pure function of its seed: the report's fingerprint is
//! replay-stable, which the sweep asserts.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rnt_cluster::{Cluster, ClusterConfig, ClusterTxn, GossipPolicy};
use rnt_core::{DbConfig, DeadlockPolicy, Durability};
use std::collections::BTreeMap;

/// Which fault class a run injects.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ClusterFaultClass {
    /// No injected faults (baseline; lazy gossip still stresses lock
    /// retention).
    None,
    /// Fail-stop node crashes with WAL recovery, including crashes that
    /// strand committed-but-undelivered statuses (redo path) and crashes
    /// under live transactions (cluster-wide force-abort).
    NodeCrash,
    /// Per-link delivery delays (head-of-line, order preserving).
    DelayedGossip,
    /// Blocked links; deliveries pile up until healed.
    Partition,
    /// All of the above, chosen per injection point.
    Mixed,
}

/// Configuration of one cluster chaos run.
#[derive(Clone, Copy, Debug)]
pub struct ClusterChaosConfig {
    /// The seed — the run is a pure function of it.
    pub seed: u64,
    /// Node count.
    pub nodes: usize,
    /// Cluster transactions to attempt.
    pub txns: usize,
    /// Key-space size (keys `0..keys`, all seeded to 0).
    pub keys: u64,
    /// The fault class to inject.
    pub fault: ClusterFaultClass,
}

impl Default for ClusterChaosConfig {
    fn default() -> Self {
        ClusterChaosConfig {
            seed: 0,
            nodes: 4,
            txns: 14,
            keys: 24,
            fault: ClusterFaultClass::Mixed,
        }
    }
}

/// The outcome of one run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ClusterChaosReport {
    /// Cluster transactions committed.
    pub commits: u64,
    /// Cluster transactions aborted (injected, forced, or natural
    /// NoWait deaths).
    pub aborts: u64,
    /// Node crashes injected.
    pub crashes: u32,
    /// Node recoveries performed.
    pub recoveries: u32,
    /// Link faults (delays/partitions) injected.
    pub link_faults: u32,
    /// Commit statuses handed to the router (remote participants).
    pub sends: u64,
    /// Committed deliveries re-applied as redo after a crash.
    pub redo_applied: u64,
    /// Level-5 events the validated journal expanded to.
    pub trace_events: usize,
    /// Order-sensitive hash of the final committed state and the commit
    /// and delivery logs: equal ⇔ identical runs.
    pub fingerprint: u64,
}

fn fnv(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
}

/// What one (sub)transaction level did.
enum LevelOutcome {
    /// Still live; its pending writes (to merge on commit).
    Live(BTreeMap<u64, i64>),
    /// Died mid-flight (lock death, unavailable node, doomed txn).
    Dead,
}

struct Driver {
    cluster: Cluster<u64, i64>,
    rng: StdRng,
    cfg: ClusterChaosConfig,
    durable: bool,
    reference: BTreeMap<u64, i64>,
    tainted: Vec<bool>,
    /// node → txn index at which to recover it.
    down_until: BTreeMap<usize, usize>,
    heal_at: Option<usize>,
    next_value: i64,
    commits: u64,
    aborts: u64,
    crashes: u32,
    recoveries: u32,
    link_faults: u32,
}

impl Driver {
    fn up_count(&self) -> usize {
        (0..self.cfg.nodes).filter(|&n| self.cluster.node_up(n)).count()
    }

    /// Inject (maybe) one fault before a transaction.
    fn inject(&mut self, now: usize) {
        let class = match self.cfg.fault {
            ClusterFaultClass::None => return,
            ClusterFaultClass::Mixed => match self.rng.gen_range(0..3u8) {
                0 => ClusterFaultClass::NodeCrash,
                1 => ClusterFaultClass::DelayedGossip,
                _ => ClusterFaultClass::Partition,
            },
            other => other,
        };
        if !self.rng.gen_bool(0.35) {
            return;
        }
        match class {
            ClusterFaultClass::NodeCrash if self.durable && self.up_count() > 1 => {
                let victim = loop {
                    let n = self.rng.gen_range(0..self.cfg.nodes);
                    if self.cluster.node_up(n) {
                        break n;
                    }
                };
                self.cluster.crash_node(victim);
                self.tainted[victim] = true;
                self.crashes += 1;
                let back = now + self.rng.gen_range(1..4usize);
                self.down_until.insert(victim, back);
            }
            ClusterFaultClass::DelayedGossip => {
                let from = self.rng.gen_range(0..self.cfg.nodes);
                let to = self.rng.gen_range(0..self.cfg.nodes);
                let rounds = self.rng.gen_range(1..4);
                self.cluster.set_link_delay(from, to, rounds);
                self.link_faults += 1;
                self.heal_at = Some(now + self.rng.gen_range(1..4usize));
            }
            ClusterFaultClass::Partition => {
                let from = self.rng.gen_range(0..self.cfg.nodes);
                let to = self.rng.gen_range(0..self.cfg.nodes);
                self.cluster.set_link_blocked(from, to, true);
                self.link_faults += 1;
                self.heal_at = Some(now + self.rng.gen_range(1..5usize));
            }
            _ => {}
        }
    }

    /// Recover nodes and heal links whose schedule came due.
    fn service_schedules(&mut self, now: usize) -> Result<(), String> {
        let due: Vec<usize> =
            self.down_until.iter().filter(|&(_, &at)| at <= now).map(|(&n, _)| n).collect();
        for node in due {
            self.down_until.remove(&node);
            self.cluster.recover_node(node).map_err(|e| format!("recovery failed: {e}"))?;
            self.recoveries += 1;
        }
        if self.heal_at.is_some_and(|at| at <= now) {
            self.heal_at = None;
            self.cluster.heal_links();
        }
        Ok(())
    }

    /// The reference view of `key` under the pending-write stack.
    fn view(&self, outer: &[&BTreeMap<u64, i64>], key: u64) -> i64 {
        for level in outer.iter().rev() {
            if let Some(&v) = level.get(&key) {
                return v;
            }
        }
        self.reference.get(&key).copied().unwrap_or(0)
    }

    /// Run one nesting level of one transaction. `Err` means an oracle
    /// violation (differential mismatch); `Dead` is a legitimate death.
    fn exec_level(
        &mut self,
        handle: &ClusterTxn<u64, i64>,
        depth: usize,
        outer: &[&BTreeMap<u64, i64>],
    ) -> Result<LevelOutcome, String> {
        let mut writes: BTreeMap<u64, i64> = BTreeMap::new();
        let steps = self.rng.gen_range(1..=5);
        for _ in 0..steps {
            let key = self.rng.gen_range(0..self.cfg.keys);
            let roll = self.rng.gen_range(0..100u32);
            if roll < 45 {
                let value = self.next_value;
                self.next_value += 1;
                match handle.put(&key, value) {
                    Ok(_) => {
                        writes.insert(key, value);
                    }
                    Err(_) => return Ok(LevelOutcome::Dead),
                }
            } else if roll < 75 {
                let mut stack: Vec<&BTreeMap<u64, i64>> = outer.to_vec();
                stack.push(&writes);
                let expected = self.view(&stack, key);
                match handle.get(&key) {
                    Ok(seen) if seen == expected => {}
                    Ok(seen) => {
                        return Err(format!(
                            "differential mismatch: key {key} read {seen}, expected {expected}"
                        ));
                    }
                    Err(_) => return Ok(LevelOutcome::Dead),
                }
            } else if roll < 88 && depth < 2 {
                let Ok(child) = handle.child() else { return Ok(LevelOutcome::Dead) };
                let mut stack: Vec<&BTreeMap<u64, i64>> = outer.to_vec();
                stack.push(&writes);
                let outcome = self.exec_level(&child, depth + 1, &stack)?;
                match outcome {
                    LevelOutcome::Live(child_writes) => {
                        if self.rng.gen_bool(0.25) {
                            child.abort();
                        } else if child.commit().is_ok() {
                            writes.extend(child_writes);
                        }
                    }
                    LevelOutcome::Dead => child.abort(),
                }
            } else if self.durable
                && matches!(self.cfg.fault, ClusterFaultClass::NodeCrash | ClusterFaultClass::Mixed)
                && self.up_count() > 1
                && self.rng.gen_bool(0.3)
            {
                // Mid-transaction crash: dooms this very transaction if
                // the victim hosts one of its participants.
                let victim = loop {
                    let n = self.rng.gen_range(0..self.cfg.nodes);
                    if self.cluster.node_up(n) {
                        break n;
                    }
                };
                self.cluster.crash_node(victim);
                self.tainted[victim] = true;
                self.crashes += 1;
                self.down_until.insert(victim, usize::MAX); // re-scheduled below
            }
        }
        Ok(LevelOutcome::Live(writes))
    }

    fn exec_txn(&mut self, now: usize) -> Result<(), String> {
        let txn = self.cluster.begin();
        match self.exec_level(&txn, 0, &[])? {
            LevelOutcome::Live(writes) => {
                if self.rng.gen_bool(0.15) {
                    txn.abort();
                    self.aborts += 1;
                } else {
                    match txn.commit() {
                        Ok(()) => {
                            self.reference.extend(writes);
                            self.commits += 1;
                        }
                        Err(_) => self.aborts += 1,
                    }
                }
            }
            LevelOutcome::Dead => {
                txn.abort();
                self.aborts += 1;
            }
        }
        // Give mid-transaction crash victims a concrete comeback time.
        let comebacks: Vec<usize> =
            self.down_until.iter().filter(|&(_, &at)| at == usize::MAX).map(|(&n, _)| n).collect();
        for node in comebacks {
            self.down_until.insert(node, now + self.rng.gen_range(1..4usize));
        }
        Ok(())
    }
}

/// Run one seeded cluster chaos walk; `Err` carries the first oracle
/// violation.
pub fn run_cluster_chaos(cfg: &ClusterChaosConfig) -> Result<ClusterChaosReport, String> {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let durable = matches!(cfg.fault, ClusterFaultClass::NodeCrash | ClusterFaultClass::Mixed);
    let gossip = match rng.gen_range(0..3u8) {
        0 => GossipPolicy::EagerFull,
        1 => GossipPolicy::DeltaOnChange,
        _ => GossipPolicy::Periodic(rng.gen_range(1..4)),
    };
    let node_config = DbConfig::builder()
        .policy(DeadlockPolicy::NoWait)
        .audit(true)
        .durability(if durable { Durability::Wal } else { Durability::None })
        .build();
    let cluster_config =
        ClusterConfig::new(cfg.nodes).gossip(gossip).node_config(node_config).trace(true);
    let cluster: Cluster<u64, i64> = if durable {
        Cluster::new_durable(cluster_config).map_err(|e| format!("open failed: {e}"))?
    } else {
        Cluster::new(cluster_config)
    };
    for k in 0..cfg.keys {
        cluster.insert(k, 0);
    }
    let mut reference = BTreeMap::new();
    for k in 0..cfg.keys {
        reference.insert(k, 0);
    }

    let mut driver = Driver {
        cluster,
        rng,
        cfg: *cfg,
        durable,
        reference,
        tainted: vec![false; cfg.nodes],
        down_until: BTreeMap::new(),
        heal_at: None,
        next_value: 1,
        commits: 0,
        aborts: 0,
        crashes: 0,
        recoveries: 0,
        link_faults: 0,
    };

    for now in 0..cfg.txns {
        driver.service_schedules(now)?;
        driver.inject(now);
        driver.exec_txn(now)?;
        if driver.rng.gen_bool(0.5) {
            driver.cluster.pump();
        }
        // Mid-run Theorem-9 oracle on pristine (never-crashed) nodes.
        if now % 8 == 7 {
            for node in 0..cfg.nodes {
                if !driver.tainted[node] && driver.cluster.node_up(node) {
                    crate::oracle::check(&driver.cluster.node(node))
                        .map_err(|e| format!("node {node} oracle (mid-run): {e}"))?;
                }
            }
        }
    }

    // Quiesce: everyone back up, links healed, router drained.
    let down: Vec<usize> = driver.down_until.keys().copied().collect();
    for node in down {
        driver.cluster.recover_node(node).map_err(|e| format!("final recovery: {e}"))?;
        driver.recoveries += 1;
    }
    driver.down_until.clear();
    driver.cluster.heal_links();
    driver.cluster.flush();

    // Differential: the cluster-wide snapshot equals the reference map.
    let snap = driver.cluster.snapshot().map_err(|e| format!("final snapshot: {e:?}"))?;
    for k in 0..cfg.keys {
        let got = snap.read(&k);
        let want = driver.reference.get(&k).copied();
        if got != want {
            return Err(format!("final differential mismatch: key {k} is {got:?}, want {want:?}"));
        }
    }

    // Theorem-9 oracle per pristine node.
    for node in 0..cfg.nodes {
        if !driver.tainted[node] {
            crate::oracle::check(&driver.cluster.node(node))
                .map_err(|e| format!("node {node} oracle: {e}"))?;
        }
    }

    // Theorem-29 embedding: per-node apply order ⊑ cluster commit order.
    let commit_log = driver.cluster.commit_log()?;
    for node in 0..cfg.nodes {
        let log = driver.cluster.delivery_log(node)?;
        if !log.windows(2).all(|w| w[0].0 < w[1].0) {
            return Err(format!("node {node} applied remote commits out of order: {log:?}"));
        }
        let mut walk = commit_log.iter();
        for entry in &log {
            if !walk.any(|e| e == entry) {
                return Err(format!(
                    "delivery {entry:?} at node {node} does not embed into the commit log"
                ));
            }
        }
    }

    // Level-5 trace validation (deep for small journals).
    let report =
        driver.cluster.validate_trace(false).map_err(|e| format!("level-5 trace invalid: {e}"))?;
    if report.events <= 2000 {
        driver
            .cluster
            .validate_trace(true)
            .map_err(|e| format!("level-5 composed simulation failed: {e}"))?;
    }

    let stats = driver.cluster.stats();
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for (k, v) in &driver.reference {
        fnv(&mut h, &k.to_le_bytes());
        fnv(&mut h, &v.to_le_bytes());
    }
    for (cseq, ctid) in &commit_log {
        fnv(&mut h, &cseq.to_le_bytes());
        fnv(&mut h, &ctid.to_le_bytes());
    }
    for node in 0..cfg.nodes {
        for (cseq, _) in driver.cluster.delivery_log(node)? {
            fnv(&mut h, &cseq.to_le_bytes());
        }
    }
    fnv(&mut h, &stats.router.sends.to_le_bytes());
    fnv(&mut h, &(report.events as u64).to_le_bytes());

    Ok(ClusterChaosReport {
        commits: driver.commits,
        aborts: driver.aborts,
        crashes: driver.crashes,
        recoveries: driver.recoveries,
        link_faults: driver.link_faults,
        sends: stats.router.sends,
        redo_applied: stats.router.redo_applied,
        trace_events: report.events,
        fingerprint: h,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_run_is_clean() {
        let report = run_cluster_chaos(&ClusterChaosConfig {
            seed: 7,
            fault: ClusterFaultClass::None,
            ..Default::default()
        })
        .expect("clean run");
        assert!(report.commits > 0);
        assert_eq!(report.crashes, 0);
    }

    #[test]
    fn deterministic_replay() {
        let cfg = ClusterChaosConfig { seed: 42, ..Default::default() };
        let a = run_cluster_chaos(&cfg).expect("run a");
        let b = run_cluster_chaos(&cfg).expect("run b");
        assert_eq!(a, b, "same seed must replay identically");
    }
}
