//! One run of one workload: the untraced pass that yields the end-to-end
//! metrics, and the traced pass that yields the per-layer ones.

use crate::disk::FSYNC_LATENCY;
use crate::gen::Inputs;
use crate::hist::{median, Hist};
use crate::probes;
use crate::report::{Outcome, PER_LAYER};
use crate::run::{calibrate_timer, drive, Plan, INPUT_POOL, MAX_ATTEMPTS, RSS_AT_COMMITS};
use crate::trace::{write_jsonl, NoTrace, SpanLog, SPAN_NAMES};
use crate::workload::{
    BareLocal, ClusterCross, ClusterLocal, Counters, DurableCommit, NestedHot, OccScan, Totals,
    Used, Workload,
};
use std::path::PathBuf;
use std::time::Instant;

/// Closed-loop client threads, unless the command line says otherwise.
pub const CLIENTS: usize = 2;
/// `setup_s` is the median over this many builds of the initial state.
const SETUP_BUILDS: usize = 5;
/// Slices run and discarded before each window.
const WARMUP_SLICES: usize = 2;
/// Window of the bare-`Db` arm of `cluster.cluster.local_tax`, in seconds;
/// its traced window is half as long.
const BARE_SECONDS: u64 = 4;

/// Everything the command line fixes for a run.
pub struct RunArgs {
    pub seed: u64,
    pub seconds: u64,
    /// Client threads; 0 for the workload's own count.
    pub clients: usize,
    /// Windows ÷ 100 and fixed counts ÷ 100: for tests, never for numbers.
    pub smoke: bool,
    /// Where the trace file and probe scratch files go.
    pub out_dir: PathBuf,
}

impl RunArgs {
    fn div(&self) -> usize {
        if self.smoke {
            100
        } else {
            1
        }
    }
}

fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

fn inputs_for<W: Workload>(args: &RunArgs) -> Vec<Inputs> {
    let pool = INPUT_POOL / args.div();
    (0..args.clients).map(|c| W::inputs(args.seed, c, pool)).collect()
}

fn used(before: &Counters, after: &Counters) -> Used {
    Used {
        lock_waits: after.since(before, |s| s.waits),
        lock_conflicts: after.since(before, |s| s.conflicts),
        wal_appends: after.since(before, |s| s.wal_appends),
    }
}

/// Run `w`'s output checks and report a failure on stderr. Transactions
/// that gave up are reported as `failed`, not as a wrong output.
fn checked<W: Workload>(w: &W, totals: &Totals, failed: u64, used: &Used) -> bool {
    if failed > 0 {
        eprintln!("{failed} transactions gave up after {MAX_ATTEMPTS} attempts");
    }
    match w.check(totals, used) {
        Ok(()) => true,
        Err(why) => {
            eprintln!("CHECK FAILED: {why}");
            false
        }
    }
}

/// The untraced pass: build the state several times, run the last build
/// through warm-up and the window, check it.
fn untraced<W: Workload>(args: &RunArgs) -> Outcome {
    let mut setup = Vec::new();
    let mut built = None;
    for _ in 0..if args.smoke { 1 } else { SETUP_BUILDS } {
        drop(built.take());
        let t0 = Instant::now();
        built = Some(W::build());
        setup.push(t0.elapsed().as_secs_f64());
    }
    let w = built.expect("at least one build");
    let inputs = inputs_for::<W>(args);
    let timer_ns = calibrate_timer();
    let mut plan = Plan::new(args.seconds, WARMUP_SLICES, args.smoke);
    plan.rss_at_commits = Some(RSS_AT_COMMITS / args.div() as u64);
    let before = w.counters();
    let run = drive(&w, &inputs, plan, timer_ns, |_| NoTrace);
    let rates: Vec<String> = run.slice_rates().iter().map(|r| format!("{r:.0}")).collect();
    println!("# txn/s by slice: {}", rates.join(" "));
    println!("# slice_spread: {:.4}   rate_decay: {:.4}", run.slice_spread(), run.rate_decay());
    let correct = checked(&w, &run.totals, run.failed, &used(&before, &w.counters()));
    // The process ends after the report; taking the state apart node by
    // node first would cost seconds.
    std::mem::forget(w);
    Outcome {
        correct,
        attempted: run.started,
        failed: run.failed,
        metrics: vec![
            ("txn_per_s", run.txn_per_s()),
            ("txn_p50_us", run.slice_median_us(0.5)),
            ("attempts_per_commit", run.attempts_per_commit()),
            ("setup_s", median(&setup)),
            ("peak_rss_mb", run.rss_mb.expect("the plan asked for it")),
        ],
    }
}

/// Merge the per-call histograms of every client.
fn merged_calls(logs: &[SpanLog]) -> Vec<Hist> {
    let mut merged = vec![Hist::default(); SPAN_NAMES.len()];
    for log in logs {
        for (m, h) in merged.iter_mut().zip(&log.by_call) {
            m.merge(h);
        }
    }
    merged
}

/// Per-layer values by name; anything not set reads 0.
pub struct Layers(Vec<(&'static str, f64)>);

impl Layers {
    fn set(&mut self, name: &str, value: f64) {
        let slot = self.0.iter_mut().find(|(n, _)| *n == name);
        slot.unwrap_or_else(|| panic!("metric {name} is not in the table")).1 = value;
    }

    /// `<span>_us` medians (and `commit_p99_us`) of every call that occurred.
    fn set_spans(&mut self, logs: &[SpanLog]) {
        for (name, hist) in SPAN_NAMES.iter().zip(merged_calls(logs)) {
            if hist.count() == 0 {
                continue;
            }
            self.set(&format!("{name}_us"), hist.quantile(0.5) / 1e3);
            if name.ends_with(".commit") {
                self.set(&format!("{name}_p99_us"), hist.quantile(0.99) / 1e3);
            }
        }
    }

    /// Counter differences over a run that committed `commits` transactions.
    fn set_counters(&mut self, before: &Counters, after: &Counters, commits: u64) {
        let d = |f: fn(&rnt_core::StatsSnapshot) -> u64| after.since(before, f);
        self.set("core.lock.conflicts_per_txn", ratio(d(|s| s.conflicts), commits));
        self.set("core.lock.waits_per_txn", ratio(d(|s| s.waits), commits));
        self.set("core.lock.wait_us_per_txn", ratio(d(|s| s.wait_nanos), commits) / 1e3);
        let spurious = d(|s| s.wakeups_spurious);
        self.set(
            "core.lock.spurious_wakeup_share",
            ratio(spurious, spurious + d(|s| s.wakeups_productive)),
        );
        self.set("core.deadlock.deadlocks_per_ktxn", 1e3 * ratio(d(|s| s.deadlocks), commits));
        self.set("core.db.occ_conflicts_per_ktxn", 1e3 * ratio(d(|s| s.occ_conflicts), commits));
        self.set(
            "core.commit_pipeline.batch_mean",
            ratio(d(|s| s.commits_batched), d(|s| s.commit_batches)),
        );
        self.set(
            "wal.vfs.fsyncs_per_commit",
            ratio(after.disk.fsyncs - before.disk.fsyncs, commits),
        );
        self.set("wal.log.appends_per_commit", ratio(d(|s| s.wal_appends), commits));
        self.set("wal.log.bytes_per_commit", ratio(after.disk.bytes - before.disk.bytes, commits));
        let created = d(|s| s.versions_created);
        self.set("mvcc.store.versions_per_commit", ratio(created, commits));
        self.set("mvcc.store.reclaim_share", ratio(d(|s| s.versions_reclaimed), created));
        self.set("mvcc.store.pins_live_at_end", after.sum(|s| s.snapshot_pins_live) as f64);
        if let (Some((r0, _)), Some((r1, pending))) = (&before.router, &after.router) {
            let sends = r1.sends - r0.sends;
            self.set("cluster.router.sends_per_commit", ratio(sends, commits));
            self.set(
                "cluster.router.receives_per_commit",
                ratio(r1.receives - r0.receives, commits),
            );
            self.set(
                "cluster.router.entries_per_send",
                ratio(r1.entries_shipped - r0.entries_shipped, sends),
            );
            self.set(
                "cluster.router.remote_commit_failures",
                (r1.remote_commit_failures - r0.remote_commit_failures) as f64,
            );
            self.set("cluster.router.pending_at_end", *pending as f64);
        }
    }
}

/// What a workload adds to its traced pass beyond the common measurements.
pub trait Extras: Workload {
    /// Extra per-layer values; `rate` is the workload's own untraced
    /// `txn_per_s`. Returns false if an output check of its own failed.
    fn extras(_args: &RunArgs, _timer_ns: u64, _rate: f64, _layers: &mut Layers) -> bool {
        true
    }
}

impl Extras for NestedHot {}
impl Extras for OccScan {}
impl Extras for ClusterCross {}

impl Extras for DurableCommit {
    fn extras(args: &RunArgs, _timer_ns: u64, _rate: f64, layers: &mut Layers) -> bool {
        for (name, value) in probes::recovery_probes(args.div()) {
            layers.set(name, value);
        }
        true
    }
}

impl Extras for ClusterLocal {
    /// The same inputs on one bare `Db`: untraced for the rate that
    /// `local_tax` divides by, then traced for the `core.db.*` spans that
    /// sit under the `cluster.cluster.*` ones.
    fn extras(args: &RunArgs, timer_ns: u64, rate: f64, layers: &mut Layers) -> bool {
        let w = BareLocal::build();
        let inputs = inputs_for::<BareLocal>(args);
        let before = w.counters();
        let plan = Plan::new(BARE_SECONDS, 1, args.smoke);
        let bare = drive(&w, &inputs, plan, timer_ns, |_| NoTrace);
        let plan = Plan::new(BARE_SECONDS / 2, 1, args.smoke);
        let traced = drive(&w, &inputs, plan, timer_ns, |epoch| SpanLog::new(epoch, timer_ns));
        layers.set("cluster.cluster.local_tax", rate / bare.txn_per_s());
        layers.set_spans(&traced.tracers);
        let mut all = bare.totals;
        all.add(&traced.totals);
        checked(&w, &all, bare.failed + traced.failed, &used(&before, &w.counters()))
    }
}

/// The traced pass: one build, an untraced window a quarter of `--seconds`
/// long for the counters and gauges, a traced one as long for the spans, the
/// checks, then the probes.
fn traced<W: Extras>(args: &RunArgs) -> Outcome {
    let mut layers = Layers(PER_LAYER.iter().map(|(name, _, _)| (*name, 0.0)).collect());
    let w = W::build();
    let inputs = inputs_for::<W>(args);
    let timer_ns = calibrate_timer();
    let plan = Plan::new((args.seconds / 4).max(1), 1, args.smoke);

    let before = w.counters();
    let plain = drive(&w, &inputs, plan, timer_ns, |_| NoTrace);
    let after = w.counters();
    layers.set_counters(&before, &after, plain.totals.commits);
    let all = plain.whole_window();
    layers.set("run.txn_p99_us", plain.slice_median_us(0.99));
    layers.set("run.txn_p999_us", all.quantile(0.999) / 1e3);
    layers.set("run.txn_max_us", all.max() as f64 / 1e3);
    layers.set("run.txn_samples", all.count() as f64);
    layers.set("run.slice_spread", plain.slice_spread());
    layers.set("run.rate_decay", plain.rate_decay());
    layers.set("run.timer_ns", timer_ns as f64);

    let spans = drive(&w, &inputs, plan, timer_ns, |epoch| SpanLog::new(epoch, timer_ns));
    layers.set_spans(&spans.tracers);
    let sum = |f: fn(&SpanLog) -> u64| spans.tracers.iter().map(f).sum::<u64>();
    layers.set("trace.spans_per_txn", ratio(sum(|l| l.calls), sum(|l| l.txns)));
    layers.set("trace.coverage", ratio(sum(|l| l.call_ns), sum(|l| l.txn_ns)));
    layers.set("trace.overhead", spans.txn_per_s() / plain.txn_per_s());
    let trace_file = args.out_dir.join(format!("trace-{}.jsonl", W::NAME));
    if let Err(e) = write_jsonl(&trace_file, &spans.tracers) {
        eprintln!("could not write {}: {e}", trace_file.display());
    }

    // The checks see both halves: the state carries the increments of both.
    let mut totals = plain.totals;
    totals.add(&spans.totals);
    let failed = plain.failed + spans.failed;
    let mut correct = checked(&w, &totals, failed, &used(&before, &w.counters()));
    drop(w);

    correct &= W::extras(args, timer_ns, plain.txn_per_s(), &mut layers);
    for (name, value) in probes::layer_probes(args.div(), &args.out_dir) {
        layers.set(name, value);
    }
    Outcome { correct, attempted: plain.started + spans.started, failed, metrics: layers.0 }
}

/// The checked-out revision, read from `.git` without running git.
fn git_revision() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let rev = match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}")).unwrap_or_default(),
        None => head.to_string(),
    };
    if rev.trim().is_empty() {
        "unknown".into()
    } else {
        rev.trim().to_string()
    }
}

/// Run `workload` once, traced or not, after printing the report's header.
/// `Err` for an unknown workload or more clients than the host has cores.
pub fn run_workload(workload: &str, trace: bool, args: RunArgs) -> Result<Outcome, String> {
    fn pass<W: Extras>(trace: bool, mut args: RunArgs) -> Result<Outcome, String> {
        let cores = std::thread::available_parallelism().map_or(1, usize::from);
        if args.clients == 0 {
            args.clients = CLIENTS;
        }
        if args.clients > cores {
            return Err(format!("{} clients on a host with {cores} cores", args.clients));
        }
        println!("# workload: {}   trace: {}   smoke: {}", W::NAME, trace as u8, args.smoke);
        println!(
            "# seed: {}   run_seconds: {}   clients: {}   host_cores: {cores}   oversubscribed: {}",
            args.seed,
            args.seconds,
            args.clients,
            cores < 2
        );
        println!(
            "# revision: {}   model_disk_fsync_us: {}",
            git_revision(),
            FSYNC_LATENCY.as_micros()
        );
        Ok(if trace { traced::<W>(&args) } else { untraced::<W>(&args) })
    }
    match workload {
        NestedHot::NAME => pass::<NestedHot>(trace, args),
        OccScan::NAME => pass::<OccScan>(trace, args),
        DurableCommit::NAME => pass::<DurableCommit>(trace, args),
        ClusterLocal::NAME => pass::<ClusterLocal>(trace, args),
        ClusterCross::NAME => pass::<ClusterCross>(trace, args),
        _ => Err(format!("no workload `{workload}`")),
    }
}
