//! The benchmark's vocabulary — workloads, end-to-end metrics with their
//! bounds, per-layer metrics — and the two output forms: `BENCHMARK.json`
//! (generated from these tables by the `manifest` subcommand) and a run's
//! report, whose last line is the machine-readable result.

/// Length of the measured window the driver asks for, in seconds (and in
/// one-second slices).
pub const RUN_SECONDS: u64 = 24;

/// `(name, why)` of every workload.
pub const WORKLOADS: [(&str, &str); 5] = [
    (
        "nested-hot",
        "the paper's shape: 2 sequential children per txn, Zipf-hot keys, 1 child in 10 aborts; \
         lock inheritance, version restore, waits and deadlocks do the work, WAL/OCC/cluster none",
    ),
    (
        "occ-scan",
        "optimistic mode: 64-key range scan then one rmw inside it; MVCC reads, appends and \
         validation serve scans and writes at once with zero lock-manager traffic",
    ),
    (
        "durable-commit",
        "flat 4-rmw txns forced through group commit to a modelled disk (100 us per fsync): WAL \
         framing, pipeline batching and fsync count are the critical path, locks are uncontended",
    ),
    (
        "cluster-local",
        "2-node cluster, flat 8 gets + 1 rmw all homed on one node: what the ClusterTxn wrapper \
         costs when the footprint needs no second node; mechanism-off partner of cluster-cross",
    ),
    (
        "cluster-cross",
        "2-node cluster, flat 4 uniform rmw's (94 % touch both nodes): router enqueue, pump, \
         delivery and remote locks held until delivery are on every commit's path",
    ),
];

/// One end-to-end metric: what a caller of the engine sees.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Relative worsening that counts as a regression.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> EndToEnd {
    EndToEnd { name, unit, better, bound }
}

/// The end-to-end metrics, the same on every workload.
pub const END_TO_END: [EndToEnd; 5] = [
    e2e("txn_per_s", "1/s", "higher", 0.25),
    e2e("txn_p50_us", "us", "lower", 0.25),
    e2e("attempts_per_commit", "ratio", "lower", 0.02),
    e2e("setup_s", "s", "lower", 0.25),
    e2e("peak_rss_mb", "MiB", "lower", 0.1),
];

const LOWER: &str = "lower";
const HIGHER: &str = "higher";

/// `(name, unit, better)` of every per-layer metric. A metric whose call or
/// layer a workload does not use reads 0 there.
pub const PER_LAYER: [(&str, &str, &str); 62] = [
    // Spans of the traced run: median time per call, from outside.
    ("core.db.begin_us", "us", LOWER),
    ("core.db.read_us", "us", LOWER),
    ("core.db.rmw_us", "us", LOWER),
    ("core.db.range_us", "us", LOWER),
    ("core.db.child_begin_us", "us", LOWER),
    ("core.db.child_commit_us", "us", LOWER),
    ("core.db.child_abort_us", "us", LOWER),
    ("core.db.commit_us", "us", LOWER),
    ("core.db.commit_p99_us", "us", LOWER),
    ("core.db.abort_us", "us", LOWER),
    ("cluster.cluster.begin_us", "us", LOWER),
    ("cluster.cluster.get_us", "us", LOWER),
    ("cluster.cluster.rmw_us", "us", LOWER),
    ("cluster.cluster.commit_us", "us", LOWER),
    ("cluster.cluster.commit_p99_us", "us", LOWER),
    ("cluster.cluster.abort_us", "us", LOWER),
    // Differences of the public counters over the untraced window.
    ("core.lock.conflicts_per_txn", "ratio", LOWER),
    ("core.lock.waits_per_txn", "ratio", LOWER),
    ("core.lock.wait_us_per_txn", "us", LOWER),
    ("core.lock.spurious_wakeup_share", "ratio", LOWER),
    ("core.deadlock.deadlocks_per_ktxn", "ratio", LOWER),
    ("core.db.occ_conflicts_per_ktxn", "ratio", LOWER),
    ("core.commit_pipeline.batch_mean", "ratio", HIGHER),
    ("wal.vfs.fsyncs_per_commit", "ratio", LOWER),
    ("wal.log.appends_per_commit", "ratio", LOWER),
    ("wal.log.bytes_per_commit", "B", LOWER),
    ("mvcc.store.versions_per_commit", "ratio", LOWER),
    ("mvcc.store.reclaim_share", "ratio", HIGHER),
    ("mvcc.store.pins_live_at_end", "count", LOWER),
    ("cluster.router.sends_per_commit", "ratio", LOWER),
    ("cluster.router.receives_per_commit", "ratio", LOWER),
    ("cluster.router.entries_per_send", "ratio", LOWER),
    ("cluster.router.remote_commit_failures", "count", LOWER),
    ("cluster.router.pending_at_end", "count", LOWER),
    // Single-threaded probes of one public function each.
    ("core.registry.begin_top_ns", "ns", LOWER),
    ("core.registry.begin_child_ns", "ns", LOWER),
    ("core.registry.status_ns", "ns", LOWER),
    ("core.lock.try_read_ns", "ns", LOWER),
    ("core.lock.try_write_ns", "ns", LOWER),
    ("core.lock.commit_to_parent_ns", "ns", LOWER),
    ("mvcc.store.pin_unpin_ns", "ns", LOWER),
    ("mvcc.store.read_at_ns", "ns", LOWER),
    ("mvcc.store.range_at_64_us", "us", LOWER),
    ("mvcc.store.publish_append_ns", "ns", LOWER),
    ("wal.log.frame_ns", "ns", LOWER),
    ("wal.log.append_mem_ns", "ns", LOWER),
    ("wal.log.scan_mb_per_s", "MiB/s", HIGHER),
    ("wal.vfs.real_fsync_us", "us", LOWER),
    ("core.recover.replay_ms", "ms", LOWER),
    ("core.recover.checkpoint_ms", "ms", LOWER),
    ("cluster.partition.home_ns", "ns", LOWER),
    ("cluster.cluster.local_tax", "ratio", HIGHER),
    // The run itself.
    ("run.txn_p99_us", "us", LOWER),
    ("run.txn_p999_us", "us", LOWER),
    ("run.txn_max_us", "us", LOWER),
    ("run.txn_samples", "count", HIGHER),
    ("run.slice_spread", "ratio", LOWER),
    ("run.rate_decay", "ratio", HIGHER),
    ("run.timer_ns", "ns", LOWER),
    ("trace.spans_per_txn", "ratio", LOWER),
    ("trace.coverage", "ratio", HIGHER),
    ("trace.overhead", "ratio", HIGHER),
];

/// The text of `BENCHMARK.json`.
pub fn manifest() -> String {
    let join = |rows: Vec<String>| rows.join(",\n");
    let workloads = join(
        WORKLOADS
            .iter()
            .map(|(name, why)| format!("    {{\"name\": \"{name}\", \"why\": \"{why}\"}}"))
            .collect(),
    );
    let end_to_end = join(
        END_TO_END
            .iter()
            .map(|m| {
                format!(
                    "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                    m.name, m.unit, m.better, m.bound
                )
            })
            .collect(),
    );
    let per_layer = join(
        PER_LAYER
            .iter()
            .map(|(name, unit, better)| {
                format!(
                    "    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"}}"
                )
            })
            .collect(),
    );
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n  \"paths\": [\"benchmark\"],\n  \
         \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{workloads}\n  ],\n  \
         \"end_to_end\": [\n{end_to_end}\n  ],\n  \"per_layer\": [\n{per_layer}\n  ]\n}}\n"
    )
}

/// What one run of one workload produced.
pub struct Outcome {
    /// Every output check passed.
    pub correct: bool,
    /// Transactions started inside the window, and those given up.
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value)` in table order.
    pub metrics: Vec<(&'static str, f64)>,
}

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|(n, u, _)| (*n, *u)))
        .find(|(n, _)| *n == name)
        .unwrap_or_else(|| panic!("metric {name} is not in the tables"))
        .1
}

/// Print the metrics as a table, then the result line.
pub fn print_outcome(outcome: &Outcome) {
    for (name, value) in &outcome.metrics {
        println!("{name:<42} {value:>16.4} {}", unit_of(name));
    }
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|(name, value)| {
            assert!(value.is_finite(), "metric {name} is not a number");
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{}\"}}", unit_of(name))
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct,
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    );
}
