//! Regenerates the paper's **Table 2**: worst-case percentages of
//! untargeted (four-way bridging) faults guaranteed to be detected by
//! any n-detection test set, for n ≤ 1, 2, 3, 4, 5, 10.
//!
//! Usage: `table2 [--circuits a,b,c]` (default: the full 35-circuit
//! suite in paper order).

use ndetect_bench::tables::{self, Context};
use ndetect_bench::{selected_circuits, Args};

fn main() {
    let args = Args::parse();
    let circuits = selected_circuits(&args);
    print!("{}", tables::table2(&mut Context::new(&args), &circuits));
}
