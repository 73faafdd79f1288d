//! Regenerates the paper's **Table 4**: K = 10 random n-detection test
//! sets for the Figure 1 example circuit, at n = 1 and n = 2
//! (Procedure 1, Definition 1).
//!
//! Absolute test choices depend on the RNG stream (ours is seeded and
//! reproducible, the paper's is unspecified); the *structure* matches:
//! every printed set is a valid n-detection set, and the n = 2 sets
//! extend the n = 1 sets.
//!
//! Usage: `table4 [--k 10] [--seed 1] [--cache-dir DIR]`.

use ndetect_bench::tables::{self, Context};
use ndetect_bench::Args;

fn main() {
    let args = Args::parse();
    let k: usize = args.get_or("k", tables::TABLE4_K);
    let seed: u64 = args.get_or("seed", tables::TABLE4_SEED);
    print!("{}", tables::table4(&mut Context::new(&args), k, seed));
}
