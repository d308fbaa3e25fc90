//! Regenerates the paper's table2 (see DESIGN.md experiment index).
//! Scale via `AMOEBA_SCALE=paper` (default: CPU-sized).
use amoeba_bench::{experiments, Context, Scale};

fn main() {
    let mut ctx = Context::new(Scale::from_env().unwrap_or_else(|e| e.exit()));
    print!("{}", experiments::table2(&mut ctx));
}
