//! Criterion benchmarks for Procedure 1: Definition 1 vs Definition 2
//! construction cost — the efficiency side of the paper's Section-4
//! ablation. `cse` is the circuit of perfbench's `average-def12`
//! workload; its Definition-2 sets cost milliseconds each, so its series
//! builds `K = 2`. On `cse` an estimate also tracks every bridge, where
//! the first-detection tallies are widest.

use criterion::{criterion_group, criterion_main, Criterion};
use ndetect_core::estimate_detection_probabilities;
use ndetect_core::{
    construct_test_set_series, DetectionDefinition, Procedure1Config, WorstCaseAnalysis,
};
use ndetect_faults::FaultUniverse;

fn bench_average_case(c: &mut Criterion) {
    let mut group = c.benchmark_group("average_case");
    for (name, series_k) in [("bbara", 10), ("opus", 10), ("cse", 2)] {
        let netlist = ndetect_circuits::build(name).expect("suite circuit builds");
        let universe = FaultUniverse::build(&netlist).expect("fits");

        for (label, definition) in [
            ("def1", DetectionDefinition::Standard),
            ("def2", DetectionDefinition::SufficientlyDifferent),
        ] {
            let config = Procedure1Config {
                nmax: 10,
                num_test_sets: series_k,
                definition,
                ..Default::default()
            };
            group.bench_function(format!("procedure1_{label}/{name}"), |b| {
                b.iter(|| construct_test_set_series(&universe, &config));
            });
        }

        let wc = WorstCaseAnalysis::compute(&universe);
        let tracked = wc.tail_indices(11);
        if !tracked.is_empty() {
            let config = Procedure1Config {
                nmax: 10,
                num_test_sets: 50,
                threads: 1,
                ..Default::default()
            };
            group.bench_function(format!("estimate_k50/{name}"), |b| {
                b.iter(|| estimate_detection_probabilities(&universe, &tracked, &config));
            });
        }
        // Every bridge tracked (19,701 in 1,638 classes on cse): the
        // widest first-detection tallies.
        if name == "cse" {
            let every: Vec<usize> = (0..universe.bridges().len()).collect();
            let config = Procedure1Config {
                nmax: 10,
                num_test_sets: 50,
                threads: 1,
                ..Default::default()
            };
            group.bench_function(format!("estimate_k50_every_bridge/{name}"), |b| {
                b.iter(|| estimate_detection_probabilities(&universe, &every, &config));
            });
        }
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(500))
        .measurement_time(std::time::Duration::from_secs(5));
    targets = bench_average_case
}
criterion_main!(benches);
