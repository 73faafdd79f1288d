//! Regenerates the paper's **Table 1**: the target faults whose test
//! vectors overlap `T(g0)` for `g0 = (9,0,10,1)` in the Figure 1
//! example circuit, with `T(f_i)` and `nmin(g0, f_i)`.
//!
//! This table is reproduced **exactly** (same fault indices, same
//! detection sets, same nmin values) — it is the ground truth that pins
//! down the fault semantics of the whole reproduction.
//!
//! Usage: `table1 [--threads N] [--cache-dir DIR]`.

use ndetect_bench::tables::{self, Context};
use ndetect_bench::Args;

fn main() {
    let args = Args::parse();
    print!("{}", tables::table1(&mut Context::new(&args)));
}
