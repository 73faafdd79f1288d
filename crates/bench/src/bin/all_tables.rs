//! Regenerates every table and figure of the paper in order, with
//! modest default sample counts (suitable for a single sitting; see the
//! individual binaries for paper-scale settings).
//!
//! Every circuit's fault universe is built **once** (via
//! [`ndetect_bench::UniverseCache`]) and shared across all tables that
//! need it — including the figure1 example, which Tables 1 and 4 reuse.
//! With `--cache-dir` (or `NDETECT_CACHE_DIR`) universes and `nmin`
//! vectors additionally persist to the content-addressed on-disk store,
//! so a warm second run performs **zero** universe builds.
//!
//! Usage: `all_tables [--k5 1000] [--k6 200] [--circuits a,b,c]
//! [--threads N] [--cache-dir DIR]`.

use ndetect_bench::{open_store, selected_circuits, Args, UniverseCache};
use ndetect_core::report::{
    render_table2, render_table3, render_table5, render_table6, table2_row, table3_row, table5_row,
    table6_row,
};
use ndetect_core::{
    estimate_detection_probabilities, DetectionDefinition, NminDistribution, Procedure1Config,
    WorstCaseAnalysis,
};
use ndetect_faults::FaultUniverse;

fn main() {
    let args = Args::parse();
    let k5: usize = args.get_or("k5", 1000);
    let k6: usize = args.get_or("k6", 200);
    let threads = args.threads();
    let store = open_store(&args);
    let nmax: u32 = 10;
    let mut cache = UniverseCache::new(threads);

    // Table 1 + Table 4 + Figure 1 example data are exact and cheap and
    // share one cached figure1 universe.
    println!("=== Table 1 (figure1 example; exact reproduction) ===\n");
    table1_section(&cache.get_stored("figure1", store.as_ref()).1);

    // Suite passes: compute each universe once, reuse for tables 2/3/5/6
    // and figure 2.
    let mut rows2 = Vec::new();
    let mut rows3 = Vec::new();
    let mut rows5 = Vec::new();
    let mut rows6 = Vec::new();
    let mut figure2_text: Option<String> = None;

    for name in selected_circuits(&args) {
        let (_netlist, universe) = cache.get_stored(&name, store.as_ref());
        let wc = WorstCaseAnalysis::compute_stored(universe, threads, store.as_ref());
        rows2.push(table2_row(&name, &wc));
        if wc.tail_count(11) > 0 {
            rows3.push(table3_row(&name, &wc));
        }
        if name == "dvram" {
            let dist = NminDistribution::collect(&wc, 100);
            let text = if dist.is_empty() {
                NminDistribution::collect(&wc, 11).render_ascii(30)
            } else {
                dist.render_ascii(30)
            };
            figure2_text = Some(text);
        }
        let tracked = wc.tail_indices(nmax + 1);
        if tracked.is_empty() {
            continue;
        }
        let base = Procedure1Config {
            nmax,
            num_test_sets: k5,
            threads,
            ..Default::default()
        };
        let d1 = estimate_detection_probabilities(universe, &tracked, &base).expect("valid config");
        rows5.push(table5_row(&name, &d1));
        let base6 = Procedure1Config {
            num_test_sets: k6,
            ..base
        };
        let d1s =
            estimate_detection_probabilities(universe, &tracked, &base6).expect("valid config");
        let d2s = estimate_detection_probabilities(
            universe,
            &tracked,
            &Procedure1Config {
                definition: DetectionDefinition::SufficientlyDifferent,
                ..base6
            },
        )
        .expect("valid config");
        rows6.push(table6_row(&name, &d1s, &d2s));
    }

    println!("\n=== Table 2 (worst case, small n) ===\n");
    print!("{}", render_table2(&rows2));
    println!("\n=== Table 3 (worst case, large n) ===\n");
    print!("{}", render_table3(&rows3));
    if let Some(text) = figure2_text {
        println!("\n=== Figure 2 (nmin distribution, dvram) ===\n");
        print!("{text}");
    }
    println!("\n=== Table 4 (example test sets) ===\n");
    table4_section(&cache.get_stored("figure1", store.as_ref()).1);
    println!("\n=== Table 5 (average case, Definition 1, K = {k5}) ===\n");
    print!("{}", render_table5(&rows5));
    println!("\n=== Table 6 (Definition 1 vs 2, K = {k6}) ===\n");
    print!("{}", render_table6(&rows6));
}

fn table1_section(universe: &FaultUniverse) {
    use ndetect_circuits::figure1;
    let g0 = universe.find_bridge("9", false, "10", true).expect("g0");
    for row in ndetect_core::report::table1(universe, g0) {
        let fault = universe.targets()[row.index];
        println!(
            "f{:<3} {:>5}/{} T={:?} nmin={}",
            row.index,
            figure1::paper_line_label(fault.line),
            u8::from(fault.value),
            row.t_set,
            row.nmin
        );
    }
}

fn table4_section(universe: &FaultUniverse) {
    use ndetect_core::construct_test_set_series;
    let config = Procedure1Config {
        nmax: 2,
        num_test_sets: 10,
        seed: 1,
        ..Default::default()
    };
    let series = construct_test_set_series(universe, &config).expect("valid config");
    for k in 0..10 {
        let mut t1 = series.sets[0][k].vectors().to_vec();
        let mut t2 = series.sets[1][k].vectors().to_vec();
        t1.sort_unstable();
        t2.sort_unstable();
        println!("{k:>2}  n=1: {t1:?}   n=2: {t2:?}");
    }
}
