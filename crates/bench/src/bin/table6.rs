//! Regenerates the paper's **Table 6**: the Table-5 probability
//! histogram under **Definition 1** vs **Definition 2** (two tests only
//! count as different detections of a fault if their common bits do not
//! already detect it).
//!
//! The paper uses K = 1000; the default here is 200 for a quick run —
//! pass `--k 1000` for the paper's setting. Definition 2 construction
//! costs more than Definition 1 (three-valued similarity checks, 64 per
//! kernel pass): the default run over the whole suite takes about 45 s
//! on a shared 2-core machine, nearly all of it Definition 2 on the 13-
//! and 14-input circuits.
//!
//! Usage: `table6 [--circuits a,b,c] [--k 200] [--nmax 10] [--seed ...]`.

use ndetect_bench::tables::{self, Context};
use ndetect_bench::{selected_circuits, Args};

fn main() {
    let args = Args::parse();
    let k: usize = args.get_or("k", tables::TABLE6_K);
    let nmax: u32 = args.get_or("nmax", tables::NMAX);
    let seed: u64 = args.get_or("seed", tables::TABLE6_SEED);
    let circuits = selected_circuits(&args);
    let mut ctx = Context::new(&args);
    print!("{}", tables::table6(&mut ctx, &circuits, k, nmax, seed));
}
