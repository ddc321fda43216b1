//! `repeat`: run the untraced pass of every workload several times in each
//! of several sets, and judge the benchmark's own repeatability the way a
//! later performance change will be judged against it.
//!
//! Every run is a fresh process (peak RSS is per process) with its own seed.

use crate::hist::quartiles;
use crate::report::{END_TO_END, WORKLOADS};
use serde::Content;
use std::process::{Command, Stdio};

/// Run this executable with `args`, passing its report through to stderr
/// when `echo` is set; the last stdout line and whether it exited with 0.
pub fn spawn_run(args: &[String], echo: bool) -> Result<(String, bool), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?;
    let out = Command::new(exe)
        .args(args)
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start a run: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if echo {
        print!("{stdout}");
    }
    let last = stdout.lines().last().unwrap_or_default().to_string();
    Ok((last, out.status.success()))
}

/// The `metrics` of a result line as `(name, value)` pairs.
pub fn parse_metrics(line: &str) -> Result<Vec<(String, f64)>, String> {
    let field = |map: &Content, key: &str| match map {
        Content::Map(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v.clone()),
        _ => None,
    };
    let root = serde_json::parse_content(line).map_err(|e| format!("bad result line: {e}"))?;
    let Some(Content::Map(metrics)) = field(&root, "metrics") else {
        return Err("result line has no metrics".into());
    };
    metrics
        .iter()
        .map(|(name, m)| match field(m, "value") {
            Some(Content::F64(v)) => Ok((name.clone(), v)),
            Some(Content::I64(v)) => Ok((name.clone(), v as f64)),
            Some(Content::U64(v)) => Ok((name.clone(), v as f64)),
            _ => Err(format!("metric {name} has no numeric value")),
        })
        .collect()
}

/// Run `sets` × `runs` untraced passes of every workload in `only` (all when
/// empty) and print the verdict as Markdown. Returns false on any FAIL.
pub fn repeat(
    sets: usize,
    runs: usize,
    seed: u64,
    seconds: u64,
    only: &[String],
) -> Result<bool, String> {
    if sets < 2 || runs < 2 {
        return Err("`repeat` compares sets of runs: --sets and --runs must be at least 2".into());
    }
    let workloads: Vec<&str> = WORKLOADS
        .iter()
        .map(|(name, _)| *name)
        .filter(|name| only.is_empty() || only.iter().any(|o| o == name))
        .collect();
    // by_set[set][workload][metric] = one value per run
    let mut by_set = Vec::new();
    let mut next_seed = seed;
    for set in 0..sets {
        let mut values = vec![vec![Vec::new(); END_TO_END.len()]; workloads.len()];
        for run in 0..runs {
            for (w, workload) in workloads.iter().enumerate() {
                let (run_seed, secs) = (next_seed.to_string(), seconds.to_string());
                let args = ["--workload", workload, "--seed", &run_seed, "--seconds", &secs]
                    .map(String::from);
                eprintln!("set {} run {} {workload} seed {next_seed}", set + 1, run + 1);
                next_seed += 1;
                let (line, ok) = spawn_run(&args, false)?;
                if !ok {
                    return Err(format!("{workload} failed: {line}"));
                }
                let metrics = parse_metrics(&line)?;
                for (m, metric) in END_TO_END.iter().enumerate() {
                    let (_, v) = metrics
                        .iter()
                        .find(|(name, _)| name == metric.name)
                        .ok_or_else(|| format!("{workload} did not report {}", metric.name))?;
                    values[w][m].push(*v);
                }
            }
        }
        by_set.push(values);
    }

    println!("{sets} sets of {runs} runs, {seconds} s window, seeds {seed}..{next_seed}.\n");
    println!("`spread` is (q3 − q1) ÷ median of a set's runs; `drift` is how far the last");
    println!("set's median is from the first's, in either direction, as a share of the first.");
    println!("A row FAILs when its spread is above a third of the metric's bound (the bound");
    println!("must be at least 3 × the spread) or its drift is above the bound.\n");
    println!("| workload | metric | bound | set | q1 | median | q3 | spread | bound ÷ spread | drift | verdict |");
    println!("|---|---|---|---|---|---|---|---|---|---|---|");
    let mut pass = true;
    for (w, workload) in workloads.iter().enumerate() {
        for (m, metric) in END_TO_END.iter().enumerate() {
            let quart: Vec<[f64; 3]> = by_set.iter().map(|v| quartiles(&v[w][m])).collect();
            let (first, last) = (quart[0][1], quart[sets - 1][1]);
            let drift = (last - first).abs() / first;
            for (set, [q1, q2, q3]) in quart.iter().enumerate() {
                let spread = (q3 - q1) / q2;
                let verdict = match (spread > metric.bound / 3.0, drift > metric.bound) {
                    (false, false) => "PASS",
                    (true, false) => "FAIL spread",
                    (false, true) => "FAIL drift",
                    (true, true) => "FAIL spread, drift",
                };
                pass &= verdict == "PASS";
                println!(
                    "| {workload} | {} | {} | {} | {q1:.4} | {q2:.4} | {q3:.4} | {spread:.4} | {:.1} | {drift:.4} | {verdict} |",
                    metric.name,
                    metric.bound,
                    set + 1,
                    metric.bound / spread
                );
            }
        }
    }
    println!("\nOverall: {}", if pass { "PASS" } else { "FAIL" });
    Ok(pass)
}
