//! Regenerate the E1–E10 experiment tables of EXPERIMENTS.md: the checks
//! that re-establish what the paper proves (Theorems 9/14/29 and the
//! simulation lemmas) on generated instances and on the running engine.
//!
//! Usage: `cargo run --release --example experiments -- [--quick] [ids...]`,
//! e.g. `-- --quick e2 e5`. With no ids, all experiments run. Markdown goes
//! to stdout; a JSON dump is written to `experiments.json` in the working
//! directory. Exits non-zero if any table's verdict is a `MISMATCH`.

mod dist;
mod engine;
mod table;
mod theory;

use std::process::ExitCode;
use table::Table;

/// The process's exit status: failure if any table's verdict refutes the
/// claim it checks, naming those tables on stderr.
fn exit_code(tables: &[Table]) -> ExitCode {
    let refuted: Vec<&str> = tables
        .iter()
        .filter(|t| t.verdict.starts_with("MISMATCH"))
        .map(|t| t.id.as_str())
        .collect();
    if refuted.is_empty() {
        return ExitCode::SUCCESS;
    }
    eprintln!("MISMATCH in {}", refuted.join(", "));
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let ids: Vec<String> =
        args.iter().filter(|a| !a.starts_with("--")).map(|a| a.to_lowercase()).collect();
    let want = |id: &str| ids.is_empty() || ids.iter().any(|w| w == &id.to_lowercase());

    type Job = Box<dyn Fn(bool) -> Table>;
    let mut tables: Vec<Table> = Vec::new();
    let jobs: Vec<(&str, Job)> = vec![
        ("e1", Box::new(theory::e1_exhaustive)),
        ("e2", Box::new(theory::e2_theorem9)),
        ("e3", Box::new(theory::e3_simulation_chain)),
        ("f1-f3", Box::new(theory::figures_diagram_chase)),
        ("e4", Box::new(engine::e4_audit)),
        ("e4b", Box::new(engine::e4b_schedule_sweep)),
        ("e5", Box::new(engine::e5_throughput)),
        ("e5b", Box::new(engine::e5b_policies)),
        ("e6", Box::new(engine::e6_rw_vs_exclusive)),
        ("e7", Box::new(engine::e7_resilience)),
        ("e8", Box::new(dist::e8_gossip)),
        ("e8b", Box::new(dist::e8b_crash)),
        ("e9", Box::new(theory::e9_orphan_views)),
        ("e10", Box::new(theory::e10_schedulers)),
    ];
    for (id, job) in jobs {
        let figure_alias = id == "f1-f3" && want("figures");
        if !want(id) && !figure_alias {
            continue;
        }
        eprintln!("running {id}{}...", if quick { " (quick)" } else { "" });
        let t = job(quick);
        println!("{}", t.to_markdown());
        tables.push(t);
    }
    let json = serde_json::to_string_pretty(&tables).expect("tables serialize");
    std::fs::write("experiments.json", json).expect("write experiments.json");
    eprintln!("wrote experiments.json ({} tables)", tables.len());
    exit_code(&tables)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_mismatch_verdict_fails_the_process() {
        let mut ok = Table::new("E1", "holds", &["a"]);
        ok.verdict("matches the paper: no violations");
        let mut bad = Table::new("E2", "broken", &["a"]);
        bad.verdict("MISMATCH: 3 disagreements");
        assert_eq!(exit_code(std::slice::from_ref(&ok)), ExitCode::SUCCESS);
        assert_eq!(exit_code(&[ok, bad]), ExitCode::FAILURE);
    }
}
