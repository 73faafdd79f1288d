//! Regenerates the paper's **Table 3**: worst-case numbers (and
//! percentages) of untargeted faults that require `nmin ≥ 100, 20, 11`
//! to be guaranteed detected. Like the paper, only circuits that have
//! faults with `nmin ≥ 11` are listed.
//!
//! Usage: `table3 [--circuits a,b,c]`.

use ndetect_bench::tables::{self, Context};
use ndetect_bench::{selected_circuits, Args};

fn main() {
    let args = Args::parse();
    let circuits = selected_circuits(&args);
    print!("{}", tables::table3(&mut Context::new(&args), &circuits));
}
