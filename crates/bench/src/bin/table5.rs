//! Regenerates the paper's **Table 5**: average-case probabilities of
//! detection. For every circuit with faults not guaranteed detected by
//! a 10-detection test set (`nmin ≥ 11`), K random 10-detection test
//! sets are built with Procedure 1 (Definition 1) and the number of
//! tail faults with `p(10, gj) ≥ 1.0, 0.9, …, 0.0` is tabulated.
//!
//! The paper uses K = 10000; the default here is 1000 for a quick run —
//! pass `--k 10000` for the paper's setting. On a shared 2-core machine
//! the default run over the suite takes about 1.7 s, and `--k 10000`
//! about 10 s.
//!
//! Usage: `table5 [--circuits a,b,c] [--k 1000] [--nmax 10] [--seed ...]`.

use ndetect_bench::tables::{self, Context};
use ndetect_bench::{selected_circuits, Args};

fn main() {
    let args = Args::parse();
    let k: usize = args.get_or("k", tables::TABLE5_K);
    let nmax: u32 = args.get_or("nmax", tables::NMAX);
    let seed: u64 = args.get_or("seed", tables::TABLE5_SEED);
    let circuits = selected_circuits(&args);
    let mut ctx = Context::new(&args);
    print!("{}", tables::table5(&mut ctx, &circuits, k, nmax, seed));
}
