//! Prints the live hyperparameter defaults against the paper's Table 3.
use amoeba_bench::{experiments, Context, Scale};

fn main() {
    let ctx = Context::new(Scale::from_env().unwrap_or_else(|e| e.exit()));
    print!("{}", experiments::table3(&ctx));
}
