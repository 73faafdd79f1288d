//! Criterion benchmark for the multi-threaded fault-simulation engine:
//! `universe_build` times [`FaultUniverse::build_with`] at 1 vs 4 worker
//! threads (fault-parallel tiling over the collapsed fault list) on the
//! widest suite circuits.
//!
//! Outputs are bit-identical across thread counts; only wall-clock
//! should differ. On a single-core host the threaded variants measure
//! pure scheduling overhead instead of speedup.

use criterion::{criterion_group, criterion_main, Criterion};
use ndetect_faults::{FaultUniverse, UniverseOptions};

const THREAD_COUNTS: [usize; 2] = [1, 4];

fn bench_universe_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("universe_build");
    group.sample_size(3);
    for name in ["s1a", "rie"] {
        let netlist = ndetect_circuits::build(name).expect("suite circuit builds");
        for threads in THREAD_COUNTS {
            group.bench_function(format!("{name}/threads={threads}"), |b| {
                b.iter(|| {
                    FaultUniverse::build_with(
                        &netlist,
                        UniverseOptions {
                            threads,
                            ..UniverseOptions::default()
                        },
                    )
                    .expect("suite circuits fit exhaustive sim")
                });
            });
        }
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(3)
        .warm_up_time(std::time::Duration::from_millis(500))
        .measurement_time(std::time::Duration::from_secs(5));
    targets = bench_universe_build
}
criterion_main!(benches);
