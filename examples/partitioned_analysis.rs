//! Partitioned analysis for circuits too wide for exhaustive
//! simulation (the paper's Section-4 scaling suggestion): analyse the
//! fanin cone of each primary output independently.
//!
//! The demo circuit is a 12-bit ripple-carry adder: 25 primary inputs
//! (beyond the exhaustive limit), but every output cone is narrow
//! enough on its own.
//!
//! Run with: `cargo run --release --example partitioned_analysis`

use ndetect::analysis::partition::analyze_output_cones;
use ndetect::circuits::extra::ripple_adder;
use ndetect::sim::{PatternSpace, MAX_EXHAUSTIVE_INPUTS};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let adder = ripple_adder(12);
    println!("{adder}");

    // The whole circuit cannot be analysed exhaustively:
    assert!(PatternSpace::new(adder.num_inputs()).is_err());
    println!(
        "{} inputs > exhaustive limit of {MAX_EXHAUSTIVE_INPUTS}: analysing output cones instead\n",
        adder.num_inputs()
    );

    // But each output cone can (sum bit i depends on 2i+3 inputs); auto
    // thread count, no on-disk store.
    let reports = analyze_output_cones(&adder, 16, 0, None)?;
    println!(
        "{:<8} {:>6} {:>6} {:>8} {:>8} {:>8} {:>8} {:>8}",
        "output", "inputs", "gates", "targets", "bridges", "cov@1", "cov@10", "tail11"
    );
    for r in &reports {
        let cov = |n: u32| {
            r.coverage
                .iter()
                .find(|(t, _)| *t == n)
                .map_or(100.0, |(_, pct)| *pct)
        };
        println!(
            "{:<8} {:>6} {:>6} {:>8} {:>8} {:>7.2}% {:>7.2}% {:>8}",
            r.output_name,
            r.num_inputs,
            r.num_gates,
            r.num_targets,
            r.num_bridges,
            cov(1),
            cov(10),
            r.tail_11
        );
    }
    println!(
        "\n{} of {} output cones fit the exhaustive analysis",
        reports.len(),
        adder.num_outputs()
    );
    println!("(cone results are conservative: other outputs may also observe a fault)");
    Ok(())
}
