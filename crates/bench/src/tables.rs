//! The paper's Tables 1–6 and Figure 2, one function per output.
//!
//! Each function returns exactly the bytes its binary (`table1` …
//! `table6`, `figure2`) prints on stdout; the binaries' docs describe
//! the tables. `all_tables` prints the same strings in paper order, so
//! its sections equal the single binaries' output by construction.
//! Every function reads its circuits through one [`Context`] per run,
//! panics on an unknown circuit name as [`Context::universe`] does (and
//! the Procedure-1 tables on a `k` of 0), and prints timing and
//! diagnostic lines to stderr.

use crate::{open_store, Args};
use ndetect_circuits::figure1;
use ndetect_core::report::{
    render_table2, render_table3, render_table5, render_table6, table2_row, table3_row, table5_row,
    table6_row,
};
use ndetect_core::{
    construct_test_set_series, estimate_detection_probabilities, report, DetectionDefinition,
    NminDistribution, Procedure1Config, WorstCaseAnalysis,
};
use ndetect_faults::{FaultUniverse, UniverseOptions};
use ndetect_store::Store;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::time::Instant;

/// The `n` of Tables 5 and 6 (`--nmax`), the paper's practical bound.
pub const NMAX: u32 = 10;
/// Test sets of Table 4 (`--k`).
pub const TABLE4_K: usize = 10;
/// Seed of Table 4 (`--seed`).
pub const TABLE4_SEED: u64 = 1;
/// Test sets of Table 5 (`table5 --k`, `all_tables --k5`).
pub const TABLE5_K: usize = 1000;
/// Seed of Table 5 (`--seed`).
pub const TABLE5_SEED: u64 = 0x5EED_0001;
/// Test sets of Table 6 (`table6 --k`, `all_tables --k6`).
pub const TABLE6_K: usize = 200;
/// Seed of Table 6 (`--seed`).
pub const TABLE6_SEED: u64 = 0x5EED_0002;
/// The circuit of Figure 2 (`--circuits`), as in the paper.
pub const FIGURE2_CIRCUIT: &str = "dvram";
/// The `nmin` floor of Figure 2 (`--floor`), as in the paper.
pub const FIGURE2_FLOOR: u32 = 100;

/// The circuits of one run. A circuit's worst-case analysis is
/// computed once, when a table first asks for it, and kept for the run;
/// its fault universe is built when a table needs it and stays resident
/// only until a table asks for another circuit's, so at most one
/// universe is in memory. Both go through the on-disk store when
/// `--cache-dir` (or `NDETECT_CACHE_DIR`) is set, so a warm run builds
/// no universe.
pub struct Context {
    threads: usize,
    store: Option<Store>,
    /// The resident universe and its circuit's name.
    universe: Option<(String, FaultUniverse)>,
    worst_cases: HashMap<String, WorstCaseAnalysis>,
}

impl Context {
    /// An empty context with the `--threads` and `--cache-dir` of
    /// `args`.
    ///
    /// # Panics
    ///
    /// Panics if `--threads` does not parse or the cache directory
    /// cannot be created.
    #[must_use]
    pub fn new(args: &Args) -> Self {
        Context {
            threads: args.threads(),
            store: open_store(args),
            universe: None,
            worst_cases: HashMap::new(),
        }
    }

    /// The fault universe of the circuit `name` under the default
    /// options. Each build (or store load) prints `# <circuit>:
    /// <universe> (<time>)` to stderr.
    ///
    /// # Panics
    ///
    /// Panics if the circuit name is unknown or the universe cannot be
    /// built (suite circuits always can).
    pub fn universe(&mut self, name: &str) -> &FaultUniverse {
        self.load(name);
        &self.universe.as_ref().expect("loaded").1
    }

    /// The worst-case analysis of the circuit `name`, computed on the
    /// first call for that circuit.
    ///
    /// # Panics
    ///
    /// As [`Self::universe`].
    pub fn worst_case(&mut self, name: &str) -> &WorstCaseAnalysis {
        if !self.worst_cases.contains_key(name) {
            self.load(name);
            let universe = &self.universe.as_ref().expect("loaded").1;
            let wc = WorstCaseAnalysis::compute_stored(universe, self.threads, self.store.as_ref());
            self.worst_cases.insert(name.to_string(), wc);
        }
        &self.worst_cases[name]
    }

    /// The universe of the circuit `name` and its worst-case analysis.
    ///
    /// # Panics
    ///
    /// As [`Self::universe`].
    pub fn analysis(&mut self, name: &str) -> (&FaultUniverse, &WorstCaseAnalysis) {
        self.worst_case(name);
        self.load(name);
        (
            &self.universe.as_ref().expect("loaded").1,
            &self.worst_cases[name],
        )
    }

    /// Makes `name`'s universe the resident one.
    fn load(&mut self, name: &str) {
        if self
            .universe
            .as_ref()
            .is_some_and(|(loaded, _)| loaded == name)
        {
            return;
        }
        // Drop the previous universe first, so two are never resident.
        self.universe = None;
        let t0 = Instant::now();
        let netlist = ndetect_circuits::build(name)
            .unwrap_or_else(|e| panic!("cannot build circuit `{name}`: {e}"));
        let options = UniverseOptions::with_threads(self.threads);
        let (universe, _) =
            FaultUniverse::build_stored(&netlist, None, options, self.store.as_ref())
                .unwrap_or_else(|e| panic!("cannot build universe for `{name}`: {e}"));
        eprintln!("# {name}: {universe} ({:.1?})", t0.elapsed());
        self.universe = Some((name.to_string(), universe));
    }
}

/// Table 1 on the Figure-1 circuit, in the paper's line labels.
pub fn table1(ctx: &mut Context) -> String {
    let (universe, wc) = ctx.analysis("figure1");
    let g0 = universe
        .find_bridge("9", false, "10", true)
        .expect("g0 is detectable");
    let mut out = format!(
        "Table 1: faults with test vectors that overlap with T(g0) = {:?}\n\
         (paper line labels; g0 = (9,0,10,1))\n\n{:>3}  {:<6} {:<42} nmin(g0,f_i)\n",
        universe.bridge_set(g0).to_vec(),
        "i",
        "f_i",
        "T(f_i)"
    );
    for row in report::table1(universe, g0) {
        let fault = universe.targets()[row.index];
        let label = format!(
            "{}/{}",
            figure1::paper_line_label(fault.line),
            u8::from(fault.value)
        );
        let ts = join(&row.t_set);
        let _ = writeln!(out, "{:>3}  {label:<6} {ts:<42} {}", row.index, row.nmin);
    }
    let g6 = universe
        .find_bridge("11", false, "9", true)
        .expect("g6 is detectable");
    let _ = write!(
        out,
        "\nnmin(g0) = {}\ng6 = (11,0,9,1): T(g6) = {:?}, nmin(g6) = {}\n",
        wc.nmin(g0).expect("g0 has a bound"),
        universe.bridge_set(g6).to_vec(),
        wc.nmin(g6).expect("g6 has a bound")
    );
    out
}

/// Table 2 over `circuits`.
pub fn table2(ctx: &mut Context, circuits: &[String]) -> String {
    let rows: Vec<_> = circuits
        .iter()
        .map(|name| table2_row(name, ctx.worst_case(name)))
        .collect();
    format!(
        "Table 2: worst-case percentages of detected faults (small n)\n\
         (percent of G with nmin(gj) <= n; blank after a column reaches 100%)\n\n{}",
        render_table2(&rows)
    )
}

/// Table 3 over those of `circuits` with faults at `nmin ≥ 11`, as in
/// the paper.
pub fn table3(ctx: &mut Context, circuits: &[String]) -> String {
    let mut rows = Vec::new();
    for name in circuits {
        let wc = ctx.worst_case(name);
        if wc.tail_count(11) > 0 {
            rows.push(table3_row(name, wc));
        }
    }
    format!(
        "Table 3: worst-case numbers of detected faults (large n)\n\
         (count (percent) of G with nmin(gj) >= n; includes faults never guaranteed)\n\n{}",
        render_table3(&rows)
    )
}

/// Table 4: `k` Procedure-1 test sets of the Figure-1 circuit from
/// `seed`, then `d(n,g6)` and `p(n,g6)` over them.
pub fn table4(ctx: &mut Context, k: usize, seed: u64) -> String {
    let universe = ctx.universe("figure1");
    let config = Procedure1Config {
        nmax: 2,
        num_test_sets: k,
        seed,
        ..Default::default()
    };
    let series = construct_test_set_series(universe, &config).expect("valid config");
    let sorted = |n: usize, ki: usize| {
        let mut v = series.sets[n - 1][ki].vectors().to_vec();
        v.sort_unstable();
        join(&v)
    };
    let mut out = format!(
        "Table 4: test sets for example circuit (K = {k}, Procedure 1, Definition 1)\n\n\
         {:>2}  {:<28} n=2\n",
        "k", "n=1"
    );
    for ki in 0..k {
        let _ = writeln!(out, "{ki:>2}  {:<28} {}", sorted(1, ki), sorted(2, ki));
    }
    let g6 = universe
        .find_bridge("11", false, "9", true)
        .expect("g6 is detectable");
    let t_g6 = universe.bridge_set(g6);
    for n in 1..=2 {
        let d = series.sets[n - 1]
            .iter()
            .filter(|s| s.detects(t_g6))
            .count();
        let _ = writeln!(
            out,
            "\nd({n},g6) = {d}, p({n},g6) = {:.1}   (g6 = (11,0,9,1), T(g6) = {:?})",
            d as f64 / k as f64,
            t_g6.to_vec()
        );
    }
    out
}

/// Table 5 over those of `circuits` with faults at `nmin > nmax`, from
/// `k` Definition-1 test sets each.
pub fn table5(ctx: &mut Context, circuits: &[String], k: usize, nmax: u32, seed: u64) -> String {
    let config = Procedure1Config {
        nmax,
        num_test_sets: k,
        seed,
        threads: ctx.threads,
        ..Default::default()
    };
    let mut rows = Vec::new();
    for name in circuits {
        let (universe, wc) = ctx.analysis(name);
        // No nmin exceeds |U|, so `nmax = u32::MAX` tracks nothing, as
        // any `nmax` of at least |U| does.
        let tracked = wc.tail_indices(nmax.saturating_add(1));
        if tracked.is_empty() {
            continue; // the paper lists only circuits with tail faults
        }
        let probs =
            estimate_detection_probabilities(universe, &tracked, &config).expect("valid config");
        rows.push(table5_row(name, &probs));
        if let Some((pos, p)) = probs.min_probability(nmax) {
            eprintln!(
                "# {name}: lowest p({nmax},g) = {p:.3} for {}",
                universe.bridges()[tracked[pos]].name(universe.netlist())
            );
        }
    }
    format!(
        "Table 5: average-case probabilities of detection (K = {k}, n = {nmax})\n\
         (faults with nmin >= {}; count with p(n,gj) >= threshold)\n\n{}",
        nmax.saturating_add(1),
        render_table5(&rows)
    )
}

/// Table 6 over those of `circuits` with faults at `nmin > nmax`, from
/// `k` test sets under each definition.
pub fn table6(ctx: &mut Context, circuits: &[String], k: usize, nmax: u32, seed: u64) -> String {
    let def1 = Procedure1Config {
        nmax,
        num_test_sets: k,
        seed,
        threads: ctx.threads,
        ..Default::default()
    };
    let def2 = Procedure1Config {
        definition: DetectionDefinition::SufficientlyDifferent,
        ..def1
    };
    let mut rows = Vec::new();
    for name in circuits {
        let (universe, wc) = ctx.analysis(name);
        let tracked = wc.tail_indices(nmax.saturating_add(1));
        if tracked.is_empty() {
            continue;
        }
        let [d1, d2] = [def1, def2].map(|config| {
            estimate_detection_probabilities(universe, &tracked, &config).expect("valid config")
        });
        rows.push(table6_row(name, &d1, &d2));
    }
    format!(
        "Table 6: average-case probabilities under Definitions 1 and 2 (K = {k}, n = {nmax})\n\n{}",
        render_table6(&rows)
    )
}

/// Figure 2: the distribution of `nmin(gj)` at or above `floor` on one
/// circuit, or of the `nmin ≥ 11` tail when no fault reaches `floor`.
pub fn figure2(ctx: &mut Context, name: &str, floor: u32) -> String {
    let wc = ctx.worst_case(name);
    let dist = NminDistribution::collect(wc, floor);
    let mut out = format!("Figure 2: distribution of nmin(gj) for {name} (nmin >= {floor})\n\n");
    if dist.is_empty() && dist.num_unbounded() == 0 {
        let _ = write!(
            out,
            "(no faults with nmin >= {floor}; showing the nmin >= 11 tail instead)\n\n{}\n\
             tail faults (nmin >= 11): {}; max finite nmin = {:?}\n",
            NminDistribution::collect(wc, 11).render_ascii(30),
            wc.tail_count(11),
            wc.max_finite()
        );
    } else {
        let _ = write!(
            out,
            "{}\nfaults plotted: {} (+ {} never guaranteed); max finite nmin = {:?}\n",
            dist.render_ascii(30),
            dist.total(),
            dist.num_unbounded(),
            wc.max_finite()
        );
    }
    out
}

/// Space-separated vector indices.
fn join<T: ToString>(values: &[T]) -> String {
    values
        .iter()
        .map(ToString::to_string)
        .collect::<Vec<_>>()
        .join(" ")
}
