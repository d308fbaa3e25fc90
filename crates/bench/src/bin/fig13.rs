//! Regenerates the paper's fig13 (see DESIGN.md experiment index).
//! Scale via `AMOEBA_SCALE=paper` (default: CPU-sized).
use amoeba_bench::{experiments, Context, Scale};

fn main() {
    let mut ctx = Context::new(Scale::from_env().unwrap_or_else(|e| e.exit()));
    print!("{}", experiments::fig13(&mut ctx));
}
