//! Regenerates every table and figure of the paper in paper order. Each
//! section is the stdout of its own binary (`table1` … `table6`,
//! `figure2`) at that binary's defaults, one blank line apart; Figure 2
//! appears when `dvram` is selected. `--circuits` selects the circuits of
//! Tables 2, 3, 5 and 6, and `--k5` and `--k6` are the `--k` of Tables 5
//! and 6. Each worst-case pass runs once per run; at most one universe
//! is in memory, so Tables 4–6 build theirs again (or, with
//! `--cache-dir` or `NDETECT_CACHE_DIR`, read it from the store, where a
//! warm second run performs **zero** universe builds).
//!
//! Usage: `all_tables [--k5 1000] [--k6 200] [--circuits a,b,c]
//! [--threads N] [--cache-dir DIR]`.

use ndetect_bench::tables::{
    self, Context, FIGURE2_CIRCUIT, FIGURE2_FLOOR, NMAX, TABLE4_K, TABLE4_SEED, TABLE5_K,
    TABLE5_SEED, TABLE6_K, TABLE6_SEED,
};
use ndetect_bench::{selected_circuits, Args};

fn main() {
    let args = Args::parse();
    let k5: usize = args.get_or("k5", TABLE5_K);
    let k6: usize = args.get_or("k6", TABLE6_K);
    let circuits = selected_circuits(&args);
    let mut ctx = Context::new(&args);

    let mut separator = "";
    let mut emit = |section: String| {
        print!("{separator}{section}");
        separator = "\n";
    };
    emit(tables::table1(&mut ctx));
    emit(tables::table2(&mut ctx, &circuits));
    emit(tables::table3(&mut ctx, &circuits));
    if circuits.iter().any(|c| c == FIGURE2_CIRCUIT) {
        emit(tables::figure2(&mut ctx, FIGURE2_CIRCUIT, FIGURE2_FLOOR));
    }
    emit(tables::table4(&mut ctx, TABLE4_K, TABLE4_SEED));
    emit(tables::table5(&mut ctx, &circuits, k5, NMAX, TABLE5_SEED));
    emit(tables::table6(&mut ctx, &circuits, k6, NMAX, TABLE6_SEED));
}
