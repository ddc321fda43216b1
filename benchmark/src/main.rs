//! Command line of the benchmark. The driver's form is
//! `--workload <name> --seed <n> --seconds <s> --trace <0|1>`; see
//! `README.md` for `all`, `repeat` and `manifest`.

use rnt_benchmark::bench::{run_workload, RunArgs};
use rnt_benchmark::repeat::{repeat, spawn_run};
use rnt_benchmark::report::{manifest, print_outcome, RUN_SECONDS, WORKLOADS};
use std::process::ExitCode;

const USAGE: &str = "usage:
  rnt-benchmark --workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>]
                [--clients <n>] [--out <dir>] [--smoke]
  rnt-benchmark all [--seed <n>] [--seconds <s>]
  rnt-benchmark repeat [--sets <n>] [--runs <n>] [--seed <n>] [--seconds <s>] [--only <workload>]...
  rnt-benchmark manifest";

/// `--key value` pairs and bare `--flag`s after the optional subcommand.
struct Options(Vec<(String, Option<String>)>);

impl Options {
    fn parse(args: &[String], flags: &[&str]) -> Result<Self, String> {
        let mut out = Vec::new();
        let mut it = args.iter();
        while let Some(key) = it.next() {
            if !key.starts_with("--") {
                return Err(format!("unexpected argument `{key}`"));
            }
            let value = if flags.contains(&key.as_str()) {
                None
            } else {
                Some(it.next().ok_or(format!("`{key}` needs a value"))?.clone())
            };
            out.push((key.clone(), value));
        }
        Ok(Options(out))
    }

    fn all(&self, key: &str) -> Vec<String> {
        self.0.iter().filter(|(k, _)| k == key).filter_map(|(_, v)| v.clone()).collect()
    }

    fn flag(&self, key: &str) -> bool {
        self.0.iter().any(|(k, _)| k == key)
    }

    fn number(&self, key: &str, default: u64) -> Result<u64, String> {
        match self.all(key).last() {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("`{key}` needs a whole number, got `{v}`")),
        }
    }

    fn check_known(&self, known: &[&str]) -> Result<(), String> {
        match self.0.iter().find(|(k, _)| !known.contains(&k.as_str())) {
            Some((k, _)) => Err(format!("unknown option `{k}`")),
            None => Ok(()),
        }
    }
}

fn single(opts: &Options) -> Result<bool, String> {
    opts.check_known(&[
        "--workload",
        "--seed",
        "--seconds",
        "--trace",
        "--clients",
        "--out",
        "--smoke",
    ])?;
    let workload = opts.all("--workload").pop().ok_or("`--workload` is required")?;
    let seconds = opts.number("--seconds", RUN_SECONDS)?;
    if !(1..=60).contains(&seconds) {
        return Err(format!("--seconds {seconds} is outside 1..=60"));
    }
    let trace = match opts.number("--trace", 0)? {
        0 => false,
        1 => true,
        other => return Err(format!("--trace {other} is neither 0 nor 1")),
    };
    let args = RunArgs {
        seed: opts.number("--seed", 1)?,
        seconds,
        clients: opts.number("--clients", 0)? as usize,
        smoke: opts.flag("--smoke"),
        out_dir: opts.all("--out").pop().unwrap_or_else(|| "benchmark/out".into()).into(),
    };
    let outcome = run_workload(&workload, trace, args)?;
    print_outcome(&outcome);
    Ok(outcome.correct)
}

/// Every workload, untraced then traced, each in its own process.
fn all(opts: &Options) -> Result<bool, String> {
    opts.check_known(&["--seed", "--seconds"])?;
    let seed = opts.number("--seed", 1)?.to_string();
    let seconds = opts.number("--seconds", RUN_SECONDS)?.to_string();
    let mut ok = true;
    for trace in ["0", "1"] {
        for (workload, _) in WORKLOADS {
            let args =
                ["--workload", workload, "--seed", &seed, "--seconds", &seconds, "--trace", trace];
            ok &= spawn_run(&args.map(String::from), true)?.1;
            println!();
        }
    }
    Ok(ok)
}

fn dispatch(args: &[String]) -> Result<bool, String> {
    match args.first().map(String::as_str) {
        Some("manifest") => {
            print!("{}", manifest());
            Ok(true)
        }
        Some("all") => all(&Options::parse(&args[1..], &[])?),
        Some("repeat") => {
            let opts = Options::parse(&args[1..], &[])?;
            opts.check_known(&["--sets", "--runs", "--seed", "--seconds", "--only"])?;
            repeat(
                opts.number("--sets", 2)? as usize,
                opts.number("--runs", 5)? as usize,
                opts.number("--seed", 1)?,
                opts.number("--seconds", RUN_SECONDS)?,
                &opts.all("--only"),
            )
        }
        _ => single(&Options::parse(args, &["--smoke"])?),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(why) => {
            eprintln!("{why}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
