//! Runs every experiment at the configured scale and emits the
//! EXPERIMENTS.md body on stdout (progress on stderr).
use std::time::Instant;

use amoeba_bench::{experiments, Context, Scale};

fn main() {
    let scale = Scale::from_env().unwrap_or_else(|e| e.exit());
    eprintln!(
        "# scale: {} flows/class, {} PPO steps/censor",
        scale.n_per_class, scale.amoeba_timesteps
    );
    let mut ctx = Context::new(scale);
    let t0 = Instant::now();
    type Exp = (&'static str, fn(&mut Context) -> String);
    let experiments: Vec<Exp> = vec![
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
    ];
    for (name, f) in experiments {
        eprintln!("[{:>8.1?}] running {name}…", t0.elapsed());
        let block = f(&mut ctx);
        println!("{block}");
    }
    println!("{}", experiments::table3(&ctx));
    eprintln!("[{:>8.1?}] done", t0.elapsed());
}
