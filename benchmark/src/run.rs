//! The closed-loop driver: `clients` threads, each submitting its next
//! pre-generated transaction as soon as the previous one finishes, over a
//! warm-up and then a window cut into equal slices.
//!
//! A transaction is timed from before its first `begin` to after its
//! successful top-level `commit`, retries included. Each timing metric is the
//! median over slices of that slice's value, so one burst of interference
//! from a neighbour moves at most one slice.

use crate::gen::Inputs;
use crate::hist::{median, quartiles, Hist};
use crate::trace::Tracer;
use crate::workload::{Incs, Totals, Workload};
use std::time::{Duration, Instant};

/// Attempts after which a transaction is given up and counted as failed.
pub const MAX_ATTEMPTS: u32 = 64;

/// Transactions pre-generated per client; the loop wraps around the pool.
pub const INPUT_POOL: usize = 1 << 18;

/// `peak_rss_mb` is read when each client has committed this many
/// transactions since the run began, warm-up included: a fixed amount of
/// work on every host, so the metric shows what the loaded state and a
/// transaction's leftovers occupy, not how many transactions the window
/// had time for. The slowest workload passes it before half its window.
pub const RSS_AT_COMMITS: u64 = 50_000;

/// The shape of one measured run.
#[derive(Clone, Copy)]
pub struct Plan {
    /// Slices run and discarded before the window.
    pub warmup_slices: usize,
    pub slice: Duration,
    pub slices: usize,
    /// Each client reads the process's peak RSS at this many commits, and
    /// runs on past the window, untimed, if it has not got there.
    pub rss_at_commits: Option<u64>,
}

impl Plan {
    /// A window of `seconds` one-second slices after `warmup_slices` more;
    /// `smoke` divides every duration by 100.
    pub fn new(seconds: u64, warmup_slices: usize, smoke: bool) -> Self {
        let div = if smoke { 100 } else { 1 };
        Plan {
            warmup_slices,
            slice: Duration::from_secs(1) / div,
            slices: seconds as usize,
            rss_at_commits: None,
        }
    }
}

/// Peak resident set of this process so far (`VmHWM`), in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kib = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .unwrap_or(0.0);
    kib / 1024.0
}

/// What one client measured in one slice.
struct ClientSlice {
    hist: Hist,
    /// From the slice's start to the end of the last transaction started in it.
    secs: f64,
}

/// What one client measured.
struct ClientOut<T> {
    slices: Vec<ClientSlice>,
    /// Inside the window: transactions started, attempts made, given up.
    started: u64,
    attempts: u64,
    failed: u64,
    /// Over the whole run, warm-up included.
    totals: Totals,
    /// Peak RSS at this client's `Plan::rss_at_commits`-th commit.
    rss_mb: Option<f64>,
    tracer: T,
}

/// One slice of the window, merged over clients.
#[derive(Clone, Default)]
pub struct Slice {
    /// Latencies of the transactions committed in it.
    pub hist: Hist,
    /// Committed transactions per second: the sum of the clients' rates.
    pub rate: f64,
}

/// One run's results, merged over clients.
pub struct RunOut<T> {
    pub slices: Vec<Slice>,
    pub started: u64,
    pub attempts: u64,
    pub failed: u64,
    pub totals: Totals,
    /// Peak RSS when the last client reached `Plan::rss_at_commits`.
    pub rss_mb: Option<f64>,
    pub tracers: Vec<T>,
}

/// Wait before retry number `attempt`: yield at first, then sleep for
/// 20 µs doubling to 1.28 ms. All 64 attempts together outlast 70 ms, far
/// longer than the few milliseconds a lock holder's virtual CPU can be
/// descheduled for, which is the one way an uncontended workload meets a
/// conflict that does not clear.
fn backoff(attempt: u32) {
    if attempt <= 4 {
        std::thread::yield_now();
    } else {
        std::thread::sleep(Duration::from_micros(20 << (attempt - 5).min(6)));
    }
}

/// Run the transaction `input` describes until it commits or is given up:
/// the attempts made, and the increments it committed.
fn run_txn<W: Workload, T: Tracer>(w: &W, input: &[u32], tracer: &mut T) -> (u32, Option<Incs>) {
    let mut attempts = 0;
    loop {
        attempts += 1;
        match w.attempt(input, tracer) {
            Ok(incs) => return (attempts, Some(incs)),
            Err(e) if e.is_retryable() && attempts < MAX_ATTEMPTS => backoff(attempts),
            Err(_) => return (attempts, None),
        }
    }
}

fn client<W: Workload, T: Tracer>(
    w: &W,
    inputs: &Inputs,
    plan: Plan,
    start: Instant,
    timer_ns: u64,
    tracer: T,
) -> ClientOut<T> {
    let mut out = ClientOut {
        slices: Vec::with_capacity(plan.slices),
        started: 0,
        attempts: 0,
        failed: 0,
        totals: Totals::default(),
        rss_mb: None,
        tracer,
    };
    while Instant::now() < start {
        std::hint::spin_loop();
    }
    let mut next_input = 0;
    for s in 0..plan.warmup_slices + plan.slices {
        let measuring = s >= plan.warmup_slices;
        if s == plan.warmup_slices {
            out.tracer.reset();
        }
        let mut hist = Hist::default();
        let slice_start = Instant::now();
        let slice_end = slice_start + plan.slice;
        let mut last_end = slice_start;
        loop {
            let t0 = Instant::now();
            if t0 >= slice_end {
                break;
            }
            let (attempts, done) = run_txn(w, inputs.get(next_input), &mut out.tracer);
            next_input += 1;
            let t1 = Instant::now();
            last_end = t1;
            out.tracer.end_txn(t0, t1);
            out.totals.add(&Totals::of(attempts, done));
            if Some(out.totals.commits) == plan.rss_at_commits {
                out.rss_mb = Some(peak_rss_mb());
            }
            if !measuring {
                continue;
            }
            out.started += 1;
            out.attempts += attempts as u64;
            if done.is_none() {
                out.failed += 1;
                continue;
            }
            hist.record(((t1 - t0).as_nanos() as u64).saturating_sub(timer_ns));
        }
        if measuring {
            out.slices.push(ClientSlice { hist, secs: (last_end - slice_start).as_secs_f64() });
        }
    }
    if let Some(at) = plan.rss_at_commits {
        // At most `at` untimed transactions more.
        for _ in out.totals.commits..at {
            let (attempts, done) = run_txn(w, inputs.get(next_input), &mut out.tracer);
            next_input += 1;
            out.totals.add(&Totals::of(attempts, done));
        }
        out.rss_mb.get_or_insert_with(peak_rss_mb);
    }
    out
}

/// Drive `w` with one thread per element of `inputs`.
pub fn drive<W: Workload, T: Tracer + Send>(
    w: &W,
    inputs: &[Inputs],
    plan: Plan,
    timer_ns: u64,
    tracer: impl Fn(Instant) -> T,
) -> RunOut<T> {
    // Far enough ahead that every client is spinning on it when it passes.
    let start = Instant::now() + Duration::from_millis(20);
    let outs: Vec<ClientOut<T>> = std::thread::scope(|s| {
        let handles: Vec<_> = inputs
            .iter()
            .map(|inp| {
                let tracer = tracer(start);
                s.spawn(move || client(w, inp, plan, start, timer_ns, tracer))
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("a client thread panicked")).collect()
    });
    let mut run = RunOut {
        slices: vec![Slice::default(); plan.slices],
        started: 0,
        attempts: 0,
        failed: 0,
        totals: Totals::default(),
        rss_mb: None,
        tracers: Vec::new(),
    };
    for out in outs {
        for (merged, own) in run.slices.iter_mut().zip(&out.slices) {
            merged.hist.merge(&own.hist);
            merged.rate += own.hist.count() as f64 / own.secs;
        }
        run.started += out.started;
        run.attempts += out.attempts;
        run.failed += out.failed;
        run.totals.add(&out.totals);
        run.rss_mb = out.rss_mb.map(|mb| mb.max(run.rss_mb.unwrap_or(0.0)));
        run.tracers.push(out.tracer);
    }
    run
}

impl<T> RunOut<T> {
    /// Committed transactions per second in each slice.
    pub fn slice_rates(&self) -> Vec<f64> {
        self.slices.iter().map(|s| s.rate).collect()
    }

    /// Median over slices of committed transactions per second.
    pub fn txn_per_s(&self) -> f64 {
        median(&self.slice_rates())
    }

    /// Median over slices of the slice's `q`-quantile latency, in µs.
    pub fn slice_median_us(&self, q: f64) -> f64 {
        let per_slice: Vec<f64> = self.slices.iter().map(|s| s.hist.quantile(q)).collect();
        median(&per_slice) / 1e3
    }

    /// Attempts per committed transaction, over the transactions started
    /// inside the window.
    pub fn attempts_per_commit(&self) -> f64 {
        self.attempts as f64 / (self.started - self.failed).max(1) as f64
    }

    /// Every slice's latencies in one histogram (whole-run tails).
    pub fn whole_window(&self) -> Hist {
        let mut all = Hist::default();
        self.slices.iter().for_each(|s| all.merge(&s.hist));
        all
    }

    /// Quartile spread of the per-slice rates as a share of their median:
    /// the run's own noise.
    pub fn slice_spread(&self) -> f64 {
        let rates = self.slice_rates();
        if rates.len() < 2 {
            return 0.0;
        }
        let [q1, q2, q3] = quartiles(&rates);
        (q3 - q1) / q2
    }

    /// Mean rate of the last quarter of the slices over that of the first:
    /// about 1 unless a transaction's cost grows with history.
    pub fn rate_decay(&self) -> f64 {
        let rates = self.slice_rates();
        let q = (rates.len() / 4).max(1);
        let mean = |r: &[f64]| r.iter().sum::<f64>() / r.len() as f64;
        mean(&rates[rates.len() - q..]) / mean(&rates[..q])
    }
}

/// Cost of one `Instant::now()` in nanoseconds: the median of 9 batches.
pub fn calibrate_timer() -> u64 {
    const READS: u32 = 100_000;
    let batches: Vec<f64> = (0..9)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..READS {
                std::hint::black_box(Instant::now());
            }
            t0.elapsed().as_nanos() as f64 / READS as f64
        })
        .collect();
    median(&batches).round() as u64
}
