//! End-to-end degraded-but-correct equivalence: with every store-write
//! failpoint armed `always`, the full analysis pipeline — worst-case,
//! generation, Procedure 1 — must produce byte-identical results to an
//! unfailed run. The cache is an accelerator, never a correctness
//! dependency, so losing the write plane can only cost speed.
//!
//! Failpoints are process-global; this file is its own test binary and
//! each test holds one lock from its first line to its last, so no test
//! runs while another has failpoints armed.

use ndetect::analysis::WorstCaseAnalysis;
use ndetect::circuits::figure1;
use ndetect::faults::{FaultUniverse, UniverseOptions};
use ndetect::gen::{generate_stored, GenOptions};
use ndetect::store::Store;
use std::path::PathBuf;
use std::sync::Mutex;

/// Every failpoint on the store's write plane.
const ALL_WRITES_FAIL: &str = "store.save.create=always:return-err;\
                               store.save.write=always:torn-write;\
                               store.save.rename=always:return-err;\
                               store.counters.flush=always:return-err";

/// Holds this binary's failpoint lock for a whole test. Taking it and
/// dropping it (panic included) both disarm every failpoint, so the
/// unfailed steps of one test never meet the sites another test armed.
struct ChaosLock(#[allow(dead_code)] std::sync::MutexGuard<'static, ()>);

impl ChaosLock {
    fn take() -> Self {
        static LOCK: Mutex<()> = Mutex::new(());
        let guard = LOCK
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        ndetect::chaos::disarm_all();
        ChaosLock(guard)
    }

    fn arm(&self, config: &str) {
        ndetect::chaos::apply_config(config).expect("valid failpoint config");
    }
}

impl Drop for ChaosLock {
    fn drop(&mut self) {
        ndetect::chaos::disarm_all();
    }
}

fn temp_store(tag: &str) -> (Store, PathBuf) {
    let dir = std::env::temp_dir().join(format!("ndetect-e2e-chaos-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    (Store::open(&dir).unwrap(), dir)
}

#[test]
fn a_dead_write_plane_changes_no_analysis_result() {
    let chaos = ChaosLock::take();
    // Unfailed reference run, fully through the store.
    let circuit = figure1::netlist();
    let options = UniverseOptions::default();
    let gen_options = GenOptions {
        n: 3,
        compact: true,
        ..GenOptions::default()
    };
    let (clean_store, clean_dir) = temp_store("clean");
    let clean_universe = FaultUniverse::build_stored(&circuit, None, options, Some(&clean_store))
        .unwrap()
        .0;
    let clean_wc = WorstCaseAnalysis::compute_stored(&clean_universe, 0, Some(&clean_store));
    let clean_set = generate_stored(&clean_universe, &gen_options, Some(&clean_store)).0;
    assert_eq!(clean_store.session_write_errors(), 0);

    // Same pipeline with the entire write plane failing.
    chaos.arm(ALL_WRITES_FAIL);
    let (store, dir) = temp_store("degraded");
    let universe = FaultUniverse::build_stored(&circuit, None, options, Some(&store))
        .unwrap()
        .0;
    let wc = WorstCaseAnalysis::compute_stored(&universe, 0, Some(&store));
    let set = generate_stored(&universe, &gen_options, Some(&store)).0;

    // Identical results, down to the rendered test-set bytes.
    assert_eq!(clean_wc.nmin_values(), wc.nmin_values());
    for n in [1, 2, 3, 4, 10] {
        assert_eq!(clean_wc.coverage_percent(n), wc.coverage_percent(n));
    }
    assert_eq!(clean_set.to_string(), set.to_string());

    // The failures were absorbed and counted, nothing torn published.
    assert!(store.session_write_errors() > 0);
    let verify = store.verify().unwrap();
    assert!(verify.corrupt.is_empty(), "{:?}", verify.corrupt);
    assert_eq!(verify.valid, 0, "no publish can survive a dead write plane");
    let repair = store.repair().unwrap();
    assert!(repair.quarantined.is_empty(), "{:?}", repair.quarantined);

    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&clean_dir);
}

#[test]
fn a_degraded_run_warms_up_once_the_plane_heals() {
    let chaos = ChaosLock::take();
    // Cold run under failing writes caches nothing...
    let circuit = figure1::netlist();
    let options = UniverseOptions::default();
    let (store, dir) = temp_store("heal");
    chaos.arm(ALL_WRITES_FAIL);
    let universe = FaultUniverse::build_stored(&circuit, None, options, Some(&store))
        .unwrap()
        .0;
    let _ = WorstCaseAnalysis::compute_stored(&universe, 0, Some(&store));
    assert!(store.session_write_errors() > 0);
    ndetect::chaos::disarm_all();
    // ...so the next (healthy) run rebuilds and publishes, and the one
    // after that is fully warm.
    let universe = FaultUniverse::build_stored(&circuit, None, options, Some(&store))
        .unwrap()
        .0;
    let healthy_wc = WorstCaseAnalysis::compute_stored(&universe, 0, Some(&store));
    let hits_before = store.session_hits();
    let warm_universe = FaultUniverse::build_stored(&circuit, None, options, Some(&store))
        .unwrap()
        .0;
    let warm_wc = WorstCaseAnalysis::compute_stored(&warm_universe, 0, Some(&store));
    assert_eq!(store.session_hits(), hits_before + 2);
    assert_eq!(healthy_wc.nmin_values(), warm_wc.nmin_values());
    let _ = std::fs::remove_dir_all(&dir);
}
