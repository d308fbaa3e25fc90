//! Runs the paper's experiments at the configured scale and prints their
//! markdown on stdout (progress on stderr).
//!
//! * With no arguments it runs every experiment in paper order and
//!   prints the EXPERIMENTS.md body.
//! * `repro_all fig7 table1` runs only the named experiments, in the
//!   order given.
//! * An unknown name stops the binary with exit status 2 and lists the
//!   valid ones.
//!
//! Scale via `AMOEBA_SCALE=paper` (default: CPU-sized).
use std::process::exit;
use std::time::Instant;

use amoeba_bench::{experiments, Context, Scale};

type Exp = (&'static str, fn(&mut Context) -> String);

fn table3(ctx: &mut Context) -> String {
    experiments::table3(ctx)
}

/// Every experiment, in the order a bare `repro_all` runs them.
const EXPERIMENTS: [Exp; 13] = [
    ("table1", experiments::table1),
    ("fig4", experiments::fig4),
    ("fig5", experiments::fig5),
    ("fig6", experiments::fig6),
    ("fig7", experiments::fig7),
    ("fig8", experiments::fig8),
    ("fig9", experiments::fig9),
    ("fig10", experiments::fig10),
    ("fig11", experiments::fig11),
    ("table2", experiments::table2),
    ("fig13", experiments::fig13),
    ("fig14", experiments::fig14),
    ("table3", table3),
];

/// The experiments named on the command line, in order; all of them when
/// none is named. An unknown name is an error listing the valid ones.
fn select(names: &[String]) -> Result<Vec<Exp>, String> {
    if names.is_empty() {
        return Ok(EXPERIMENTS.to_vec());
    }
    names
        .iter()
        .map(|n| {
            EXPERIMENTS
                .into_iter()
                .find(|(name, _)| name == n)
                .ok_or_else(|| {
                    let valid: Vec<&str> = EXPERIMENTS.iter().map(|(name, _)| *name).collect();
                    format!("unknown experiment {n:?}; valid: {}", valid.join(" "))
                })
        })
        .collect()
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let selected = select(&argv).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        exit(2)
    });
    let scale = Scale::from_env().unwrap_or_else(|e| e.exit());
    eprintln!(
        "# scale: {} flows/class, {} PPO steps/censor",
        scale.n_per_class, scale.amoeba_timesteps
    );
    let mut ctx = Context::new(scale);
    let t0 = Instant::now();
    for (name, f) in selected {
        eprintln!("[{:>8.1?}] running {name}…", t0.elapsed());
        println!("{}", f(&mut ctx));
    }
    eprintln!("[{:>8.1?}] done", t0.elapsed());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(args: &[&str]) -> Result<Vec<&'static str>, String> {
        let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        select(&args).map(|exps| exps.into_iter().map(|(name, _)| name).collect())
    }

    #[test]
    fn no_arguments_selects_every_experiment_in_paper_order() {
        let all = names(&[]).unwrap();
        assert_eq!(all.len(), 13);
        assert_eq!(all.first(), Some(&"table1"));
        assert_eq!(all.last(), Some(&"table3"));
    }

    #[test]
    fn named_experiments_run_in_the_given_order() {
        assert_eq!(names(&["fig7", "table1"]).unwrap(), ["fig7", "table1"]);
        assert_eq!(names(&["table3"]).unwrap(), ["table3"]);
    }

    #[test]
    fn unknown_name_is_an_error_listing_the_valid_ones() {
        let err = names(&["fig7", "fig12"]).unwrap_err();
        assert!(err.contains("\"fig12\""), "{err}");
        assert!(err.contains("table1") && err.contains("fig14"), "{err}");
    }
}
