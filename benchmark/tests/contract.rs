//! The benchmark's contract with `BENCHMARK.json` and with its own arithmetic.

use rnt_benchmark::gen::{Rng, Zipf};
use rnt_benchmark::hist::Hist;
use rnt_benchmark::repeat::parse_metrics;
use rnt_benchmark::report::{manifest, END_TO_END, PER_LAYER, WORKLOADS};
use rnt_benchmark::run::{RunOut, Slice};
use rnt_benchmark::workload::{ClusterCross, NestedHot, Totals, Workload};
use std::collections::HashSet;
use std::process::Command;

fn well_formed(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(ok)
}

#[test]
fn benchmark_json_is_the_manifest_of_the_tables() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let committed = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repo root");
    assert_eq!(committed, manifest(), "regenerate with `rnt-benchmark manifest > BENCHMARK.json`");

    let names: Vec<&str> = WORKLOADS
        .iter()
        .map(|(n, _)| *n)
        .chain(END_TO_END.iter().map(|m| m.name))
        .chain(PER_LAYER.iter().map(|(n, _, _)| *n))
        .collect();
    assert!(names.iter().all(|n| well_formed(n)), "a name is malformed");
    assert_eq!(names.iter().collect::<HashSet<_>>().len(), names.len(), "a name is used twice");
    for (name, why) in WORKLOADS {
        assert!(why.len() <= 200 && !why.contains('\n'), "{name}: why is {} chars", why.len());
    }
    // What the driver's reader of the file accepts, not a target: the bounds
    // themselves are read off `REPEAT.md`.
    for m in &END_TO_END {
        assert!(m.bound > 0.0 && m.bound <= 0.25, "{}: bound {}", m.name, m.bound);
    }
}

/// A `--smoke` pass over every workload, untraced and traced, reports exactly
/// the metrics `BENCHMARK.json` lists — none missing, none extra — and
/// passes its own output checks.
#[test]
fn smoke_pass_emits_exactly_the_listed_metrics() {
    let out_dir = concat!(env!("CARGO_TARGET_TMPDIR"), "/contract-out");
    for (workload, _) in WORKLOADS {
        for trace in ["0", "1"] {
            let out = Command::new(env!("CARGO_BIN_EXE_rnt-benchmark"))
                .args(["--workload", workload, "--seed", "5", "--seconds", "24", "--trace", trace])
                .args(["--smoke", "--out", out_dir])
                .output()
                .expect("the benchmark binary runs");
            let stdout = String::from_utf8_lossy(&out.stdout);
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(out.status.success(), "{workload} trace {trace} failed:\n{stdout}\n{stderr}");
            let last = stdout.lines().last().expect("a result line");
            assert!(last.starts_with("{\"correct\": true, \"attempted\": "), "{last}");
            let got: Vec<String> =
                parse_metrics(last).expect("a JSON result").into_iter().map(|(n, _)| n).collect();
            let want: Vec<&str> = if trace == "0" {
                END_TO_END.iter().map(|m| m.name).collect()
            } else {
                PER_LAYER.iter().map(|(n, _, _)| *n).collect()
            };
            assert_eq!(got, want, "{workload} trace {trace}");
        }
        let trace_file = format!("{out_dir}/trace-{workload}.jsonl");
        let spans = std::fs::read_to_string(&trace_file).expect("the traced pass wrote its spans");
        assert!(spans.lines().any(|l| l.contains("\"name\":\"txn\"")), "{trace_file}");
    }
}

#[test]
fn an_unknown_workload_or_too_many_clients_is_refused() {
    let run = |args: &[&str]| {
        let out = Command::new(env!("CARGO_BIN_EXE_rnt-benchmark")).args(args).output().unwrap();
        (out.status.code(), out.stdout.is_empty())
    };
    assert_eq!(run(&["--workload", "no-such", "--smoke"]), (Some(2), true));
    assert_eq!(run(&["--workload", "occ-scan", "--clients", "100000"]), (Some(2), true));
}

#[test]
fn histogram_percentiles_are_within_two_percent_of_a_sorted_vector() {
    let mut rng = Rng::new(11, 0);
    // Log-uniform over 100 ns .. 100 ms: every octave the run can meet.
    let mut values: Vec<u64> =
        (0..200_000).map(|_| (100.0 * 1e6f64.powf(rng.unit())) as u64).collect();
    let mut hist = Hist::default();
    values.iter().for_each(|v| hist.record(*v));
    values.sort_unstable();
    for q in [0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0] {
        let exact = values[((q * values.len() as f64).ceil() as usize).max(1) - 1] as f64;
        let got = hist.quantile(q);
        assert!((got - exact).abs() <= 0.02 * exact, "q{q}: histogram {got}, sorted {exact}");
    }
    assert_eq!(hist.count(), 200_000);
    assert_eq!(hist.max(), *values.last().unwrap());
}

#[test]
fn slice_medians_ignore_one_disturbed_slice() {
    // Four quiet one-second slices of 100 commits at 10 µs, and one
    // disturbed slice of 10 commits at 1 ms.
    let slice = |n: u64, nanos: u64| {
        let mut hist = Hist::default();
        (0..n).for_each(|_| hist.record(nanos));
        Slice { hist, rate: n as f64 }
    };
    let mut slices = vec![slice(100, 10_000); 4];
    slices.insert(2, slice(10, 1_000_000));
    let run = RunOut {
        slices,
        started: 420,
        attempts: 441,
        failed: 10,
        totals: Totals::default(),
        rss_mb: None,
        tracers: Vec::<()>::new(),
    };
    assert_eq!(run.txn_per_s(), 100.0);
    assert!((run.slice_median_us(0.5) - 10.0).abs() < 0.2);
    assert!((run.slice_median_us(0.99) - 10.0).abs() < 0.2);
    assert!((run.attempts_per_commit() - 441.0 / 410.0).abs() < 1e-12);
    assert!(run.whole_window().quantile(0.99) > 900_000.0, "the whole-run tail does see it");
    assert_eq!(run.rate_decay(), 1.0);
}

#[test]
fn inputs_depend_only_on_seed_and_client() {
    let words = |seed, client| NestedHot::inputs(seed, client, 4096).words().to_vec();
    assert_eq!(words(3, 0), words(3, 0));
    assert_ne!(words(3, 0), words(4, 0));
    assert_ne!(words(3, 0), words(3, 1));
    assert_eq!(ClusterCross::inputs(9, 1, 512).words(), ClusterCross::inputs(9, 1, 512).words());
}

#[test]
fn zipf_head_mass_is_within_one_percent() {
    let zipf = Zipf::new(NestedHot::HOT_KEYS, NestedHot::ZIPF_S);
    let head: f64 = (0..8).map(|r| zipf.mass(r)).sum();
    // Words 0 and 2 of a nested-hot transaction are its two hot keys.
    let inputs = NestedHot::inputs(1, 0, 1 << 18);
    let hot: Vec<u32> = inputs.words().chunks(5).flat_map(|t| [t[0], t[2]]).collect();
    assert!(hot.iter().all(|k| *k < NestedHot::HOT_KEYS));
    let drawn = hot.iter().filter(|k| **k < 8).count() as f64 / hot.len() as f64;
    assert!((drawn - head).abs() <= 0.01 * head, "head mass {drawn}, expected {head}");
}
