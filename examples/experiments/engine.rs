//! Engine experiments E4–E7: correctness under contention and failures,
//! throughput against baselines, the read/write-lock ablation, and the
//! resilience (abort-locality) benefit of nesting.

use crate::cells;
use crate::table::Table;
use rnt_core::{DbConfig, DeadlockPolicy};
use rnt_sim::engine::{run_workload, seeded_db, KeyDist, RunResult, TxnShape, Workload};

fn base_workload(quick: bool) -> Workload {
    Workload {
        threads: 4,
        txns_per_thread: if quick { 150 } else { 1500 },
        ops_per_txn: 4,
        read_ratio: 0.5,
        keys: 512,
        dist: KeyDist::Uniform,
        shape: TxnShape::Nested { children: 4, depth: 1 },
        abort_prob: 0.0,
        exclusive_reads: false,
        op_abort_prob: 0.0,
        sorted_ops: false,
        seed: 42,
    }
}

fn run(config: DbConfig, w: &Workload) -> RunResult {
    let db = seeded_db(config, w.keys);
    run_workload(&db, w)
}

/// E4: audited concurrent executions stay serializable across policies,
/// thread counts and failure rates.
pub fn e4_audit(quick: bool) -> Table {
    let mut t = Table::new(
        "E4",
        "Engine serializability audit (Theorem 14 on live executions)",
        &["policy", "threads", "abort %", "txns", "audit events", "serializable"],
    );
    let mut all_ok = true;
    for policy in [DeadlockPolicy::Detect, DeadlockPolicy::WaitDie, DeadlockPolicy::NoWait] {
        for (threads, abort_prob) in [(2, 0.0), (4, 0.1), (8, 0.25)] {
            let mut w = base_workload(quick);
            w.threads = threads;
            w.abort_prob = abort_prob;
            w.txns_per_thread = if quick { 25 } else { 200 };
            w.keys = 32; // contended, so the audit is adversarial
            let db = seeded_db(DbConfig::builder().audit(true).policy(policy).build(), w.keys);
            let r = run_workload(&db, &w);
            let log = db.audit_log().expect("audit on");
            let (universe, aat) = log.reconstruct().expect("well-formed log");
            let ok = aat.perm().is_rw_data_serializable(&universe);
            all_ok &= ok;
            t.row(cells![
                format!("{policy:?}"),
                threads,
                format!("{:.0}", abort_prob * 100.0),
                r.committed,
                log.len(),
                ok
            ]);
        }
    }
    t.verdict(if all_ok {
        "matches the paper: every audited execution is serializable".to_string()
    } else {
        "MISMATCH: serializability violated".to_string()
    });
    t
}

/// E4b: deterministic schedule sweep — seeded interleavings of logical
/// workers, each audited against the formal model (reproducible, unlike
/// OS-thread schedules).
pub fn e4b_schedule_sweep(quick: bool) -> Table {
    use rnt_sim::interleave::{run_interleaved, InterleaveConfig};
    let mut t = Table::new(
        "E4b",
        "Deterministic interleaving sweep: every seeded schedule serializable",
        &["workers", "seeds", "scheduler steps", "retries", "violations"],
    );
    let seeds = if quick { 25 } else { 200 };
    let mut all_ok = true;
    for workers in [2usize, 4, 8] {
        let (mut steps, mut retries, mut violations) = (0u64, 0u64, 0u64);
        for seed in 0..seeds {
            let cfg = InterleaveConfig {
                workers,
                txns_per_worker: 6,
                children: 2,
                ops_per_child: 2,
                keys: 6,
                read_ratio: 0.4,
                abort_prob: 0.15,
                seed,
            };
            let (db, r) = run_interleaved(&cfg);
            steps += r.steps;
            retries += r.retries;
            let (universe, aat) = db.audit_log().expect("audit on").reconstruct().expect("ok");
            if !aat.perm().is_rw_data_serializable(&universe) {
                violations += 1;
            }
        }
        all_ok &= violations == 0;
        t.row(cells![workers, seeds, steps, retries, violations]);
    }
    t.verdict(if all_ok {
        "matches the paper: every explored schedule is serializable".to_string()
    } else {
        "MISMATCH: non-serializable schedule found".to_string()
    });
    t
}

/// E5: throughput — serial vs flat 2PL vs nested, thread and contention
/// sweeps.
pub fn e5_throughput(quick: bool) -> Table {
    let mut t = Table::new(
        "E5",
        "Throughput: serial vs flat vs nested Moss locking",
        &["shape", "threads", "keys", "committed/s", "retries", "ops"],
    );
    // Equal work per top-level transaction: 16 operations, either flat or
    // split into 4 subtransactions of 4.
    let shapes: [(&str, TxnShape, u32); 3] = [
        ("serial", TxnShape::Serial, 16),
        ("flat", TxnShape::Flat, 16),
        ("nested 4x1", TxnShape::Nested { children: 4, depth: 1 }, 4),
    ];
    for (name, shape, ops) in &shapes {
        for threads in [1usize, 2, 4, 8] {
            let mut w = base_workload(quick);
            w.shape = *shape;
            w.ops_per_txn = *ops;
            w.threads = threads;
            let r = run(DbConfig::default(), &w);
            t.row(cells![name, threads, w.keys, format!("{:.0}", r.throughput), r.retries, r.ops]);
        }
    }
    // Contention sweep at 4 threads, equal-work shapes.
    for keys in [16u64, 256, 4096] {
        for (name, shape, ops) in &shapes[1..] {
            let mut w = base_workload(quick);
            w.shape = *shape;
            w.ops_per_txn = *ops;
            w.keys = keys;
            let r = run(DbConfig::default(), &w);
            t.row(cells![name, 4, keys, format!("{:.0}", r.throughput), r.retries, r.ops]);
        }
    }
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    t.verdict(format!(
        "host has {cores} core(s): with a single core the thread sweep measures \
         scheduling/contention overhead rather than parallel speedup; the valid readings are \
         the per-shape overhead ranking (serial ≈ flat > nested, which pays ~5 registry \
         transitions per 4 ops) and throughput falling as the key space shrinks (contention)"
    ));
    t
}

/// E6: read/write locks vs the paper's simplified exclusive-only variant,
/// across read ratios.
pub fn e6_rw_vs_exclusive(quick: bool) -> Table {
    let mut t = Table::new(
        "E6",
        "Read/write locks (Moss full) vs exclusive-only (paper's simplified variant)",
        &["read %", "rw committed/s", "excl committed/s", "rw/excl"],
    );
    let mut last_ratio = 0.0;
    for read_pct in [0u32, 25, 50, 75, 95] {
        let mut w = base_workload(quick);
        w.read_ratio = read_pct as f64 / 100.0;
        w.keys = 64; // contended so locking mode matters
        let rw = run(DbConfig::default(), &w);
        w.exclusive_reads = true;
        let excl = run(DbConfig::default(), &w);
        let ratio = rw.throughput / excl.throughput.max(1e-9);
        last_ratio = ratio;
        t.row(cells![
            read_pct,
            format!("{:.0}", rw.throughput),
            format!("{:.0}", excl.throughput),
            format!("{:.2}x", ratio)
        ]);
    }
    t.verdict(format!(
        "expected shape: advantage grows with read share (at 95% reads: {last_ratio:.2}x)"
    ));
    t
}

/// E7: resilience — wasted work under a *per-operation* failure hazard.
/// Each completed operation fails its enclosing work unit with probability
/// q; flat transactions then redo all 16 operations, while nested shapes
/// redo only the failing subtransaction's 4 (or the failing subtree) —
/// the abort-locality benefit that motivates resilient nesting.
pub fn e7_resilience(quick: bool) -> Table {
    let mut t = Table::new(
        "E7",
        "Resilience: wasted work under a per-op failure hazard (abort locality)",
        &["shape", "op hazard %", "committed", "ops run", "ops committed", "waste ratio"],
    );
    let shapes: [(&str, TxnShape, u64); 3] = [
        ("flat (16 ops)", TxnShape::Flat, 16),
        ("nested 4x1 (4x4 ops)", TxnShape::Nested { children: 4, depth: 1 }, 4),
        ("nested 2x2 (4x4 ops)", TxnShape::Nested { children: 2, depth: 2 }, 4),
    ];
    let mut flat_waste_at_max = 0.0;
    let mut nested_waste_at_max = 0.0;
    for (name, shape, ops) in &shapes {
        for hazard_pct in [0u32, 1, 3, 6] {
            let mut w = base_workload(quick);
            w.shape = *shape;
            w.ops_per_txn = *ops as u32;
            w.op_abort_prob = hazard_pct as f64 / 100.0;
            w.txns_per_thread = if quick { 60 } else { 600 };
            let r = run(DbConfig::default(), &w);
            // Every committed top-level txn ran exactly 16 useful ops in
            // all three shapes; anything beyond that is redone work.
            let useful = r.committed * 16;
            let waste = r.ops as f64 / useful.max(1) as f64;
            if hazard_pct == 6 {
                match *name {
                    "flat (16 ops)" => flat_waste_at_max = waste,
                    "nested 4x1 (4x4 ops)" => nested_waste_at_max = waste,
                    _ => {}
                }
            }
            t.row(cells![name, hazard_pct, r.committed, r.ops, useful, format!("{waste:.2}")]);
        }
    }
    t.verdict(format!(
        "expected shape: nested wastes less redone work than flat as the hazard rises (at 6%: flat {flat_waste_at_max:.2} vs nested {nested_waste_at_max:.2})"
    ));
    t
}

/// E5b (ablation): deadlock policies compared on a deadlock-prone workload.
pub fn e5b_policies(quick: bool) -> Table {
    let mut t = Table::new(
        "E5b",
        "Deadlock-policy ablation on a contended read-write workload",
        &["policy", "committed/s", "retries", "deadlocks", "dies", "timeouts"],
    );
    for policy in [
        DeadlockPolicy::Detect,
        DeadlockPolicy::WaitDie,
        DeadlockPolicy::NoWait,
        DeadlockPolicy::Timeout(std::time::Duration::from_millis(100)),
    ] {
        let mut w = base_workload(quick);
        w.keys = 16;
        w.read_ratio = 0.2;
        w.txns_per_thread = if quick { 80 } else { 800 };
        let db = seeded_db(DbConfig::builder().policy(policy).build(), w.keys);
        let r = run_workload(&db, &w);
        let s = db.stats();
        t.row(cells![
            format!("{policy:?}"),
            format!("{:.0}", r.throughput),
            r.retries,
            s.deadlocks,
            s.dies,
            s.timeouts
        ]);
    }
    t.verdict("expected shape: all policies complete; NoWait trades retries for zero waiting");
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e4_quick_serializable() {
        let t = e4_audit(true);
        assert!(t.verdict.starts_with("matches"), "{}", t.verdict);
    }

    #[test]
    fn e4b_quick_serializable() {
        let t = e4b_schedule_sweep(true);
        assert!(t.verdict.starts_with("matches"), "{}", t.verdict);
    }

    #[test]
    fn e5_quick_runs() {
        let t = e5_throughput(true);
        assert_eq!(t.rows.len(), 18);
    }

    #[test]
    fn e6_quick_runs() {
        let t = e6_rw_vs_exclusive(true);
        assert_eq!(t.rows.len(), 5);
    }

    #[test]
    fn e7_quick_runs() {
        let t = e7_resilience(true);
        assert_eq!(t.rows.len(), 12);
    }

    #[test]
    fn e5b_quick_runs() {
        let t = e5b_policies(true);
        assert_eq!(t.rows.len(), 4);
    }
}
