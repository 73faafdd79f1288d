//! Regenerates the paper's **Figure 2**: the distribution of `nmin(gj)`
//! for faults with large `nmin` on one circuit (the paper uses `dvram`
//! with a floor of 100).
//!
//! Usage: `figure2 [--circuits dvram] [--floor 100]`.

use ndetect_bench::tables::{self, Context};
use ndetect_bench::Args;

fn main() {
    let args = Args::parse();
    let name = args
        .circuits()
        .and_then(|c| c.first().cloned())
        .unwrap_or_else(|| tables::FIGURE2_CIRCUIT.to_string());
    let floor: u32 = args.get_or("floor", tables::FIGURE2_FLOOR);
    let mut ctx = Context::new(&args);
    print!("{}", tables::figure2(&mut ctx, &name, floor));
}
