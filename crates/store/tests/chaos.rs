//! Fault-injection tests for the store's degradation contract: every
//! injected I/O failure must degrade to a miss or an absorbed write
//! error — never a panic, never a corrupt published entry.
//!
//! Failpoints are process-global, so these tests live in their own
//! integration-test binary, and each holds one lock from its first line
//! to its last.

use ndetect_store::{decode_from_slice, encode_to_vec, ArtifactKey, Store};
use std::fs;
use std::sync::Mutex;

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
        ndetect_chaos::disarm_all();
        ChaosLock(guard)
    }

    fn arm(&self, config: &str) {
        ndetect_chaos::apply_config(config).expect("valid failpoint config");
    }
}

impl Drop for ChaosLock {
    fn drop(&mut self) {
        ndetect_chaos::disarm_all();
    }
}

fn temp_store(tag: &str) -> Store {
    let dir =
        std::env::temp_dir().join(format!("ndetect-store-chaos-{}-{tag}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    Store::open(dir).unwrap()
}

#[test]
fn every_save_failpoint_degrades_to_uncached_not_failed() {
    let chaos = ChaosLock::take();
    for site in ["store.save.create", "store.save.write", "store.save.rename"] {
        chaos.arm(&format!("{site}=return-err"));
        let store = temp_store("save-sites");
        let key = ArtifactKey(0xfa11);

        // The strict API surfaces the injected error...
        let err = store.save(key, 1, b"payload").unwrap_err();
        assert!(err.to_string().contains(site), "{site}: {err}");
        // ...the best-effort API absorbs it and counts it.
        store.save_best_effort(key, 1, b"payload");
        assert_eq!(store.session_write_errors(), 1, "{site}");
        // Nothing was published: the entry is a clean miss, and the
        // store's objects tree verifies clean.
        assert!(store.load(key, 1).is_none());
        let report = store.verify().unwrap();
        assert!(report.corrupt.is_empty(), "{site}: {report:?}");

        // Disarmed, the same store works again end to end.
        ndetect_chaos::disarm_all();
        store.save(key, 1, b"payload").unwrap();
        assert_eq!(store.load(key, 1).unwrap(), b"payload");
        let _ = fs::remove_dir_all(store.root());
    }
}

#[test]
fn torn_write_never_publishes_and_tmp_is_swept() {
    let chaos = ChaosLock::take();
    chaos.arm("store.save.write=torn-write");
    let store = temp_store("torn");
    let key = ArtifactKey(0x7041);
    store.save_best_effort(key, 1, &vec![0xabu8; 4096]);
    assert_eq!(store.session_write_errors(), 1);

    // The torn bytes exist — but only in tmp/, never in objects/.
    let tmp_files: Vec<_> = fs::read_dir(store.root().join("tmp"))
        .unwrap()
        .filter_map(Result::ok)
        .collect();
    assert_eq!(tmp_files.len(), 1, "torn staging file left behind");
    assert!(store.load(key, 1).is_none());
    assert!(store.verify().unwrap().corrupt.is_empty());
    assert!(store.repair().unwrap().quarantined.is_empty());

    // clear() sweeps the orphan like any crashed writer's leftovers.
    store.clear().unwrap();
    assert_eq!(fs::read_dir(store.root().join("tmp")).unwrap().count(), 0);
    let _ = fs::remove_dir_all(store.root());
}

#[test]
fn load_and_decode_failpoints_force_clean_misses() {
    let chaos = ChaosLock::take();
    let store = temp_store("load-miss");
    let key = ArtifactKey(0x10ad);
    store
        .save(key, 1, &encode_to_vec(&vec![1u64, 2, 3]))
        .unwrap();

    chaos.arm("store.load=return-err");
    assert!(
        store.load(key, 1).is_none(),
        "injected read error is a miss"
    );
    assert_eq!(store.session_misses(), 1);
    ndetect_chaos::disarm_all();
    chaos.arm("store.codec.decode=return-err");
    let bytes = store.load(key, 1).expect("load itself is unfailed");
    let decoded: Result<Vec<u64>, _> = decode_from_slice(&bytes);
    assert!(decoded
        .unwrap_err()
        .to_string()
        .contains("store.codec.decode"));
    ndetect_chaos::disarm_all();
    // Reality restored: the entry was never damaged.
    let decoded: Vec<u64> = decode_from_slice(&store.load(key, 1).unwrap()).unwrap();
    assert_eq!(decoded, vec![1, 2, 3]);
    let _ = fs::remove_dir_all(store.root());
}

#[test]
fn counter_flush_failure_is_absorbed_and_counted() {
    let chaos = ChaosLock::take();
    let store = temp_store("flush");
    let key = ArtifactKey(0xf1u64);
    store.save(key, 1, b"x").unwrap();
    chaos.arm("store.counters.flush=return-err");
    store.flush_counters(); // absorbs the injected failure
    assert!(
        !store.root().join("counters.bin").exists(),
        "failed flush persists nothing"
    );
    assert_eq!(store.session_write_errors(), 1);
    ndetect_chaos::disarm_all();
    // The next (unfailed) flush persists the absorbed error too.
    store.flush_counters();
    let stats = store.stats().unwrap();
    assert_eq!(stats.writes, 1);
    assert_eq!(stats.write_errors, 1);
    let _ = fs::remove_dir_all(store.root());
}

#[test]
fn one_shot_trigger_fails_exactly_one_save() {
    let chaos = ChaosLock::take();
    chaos.arm("store.save.rename=one-shot@2:return-err");
    let store = temp_store("oneshot");
    store.save_best_effort(ArtifactKey(1), 1, b"a"); // hit 1: passes
    store.save_best_effort(ArtifactKey(2), 1, b"b"); // hit 2: fails
    store.save_best_effort(ArtifactKey(3), 1, b"c"); // hit 3: passes
    assert_eq!(store.session_write_errors(), 1);
    assert!(store.load(ArtifactKey(1), 1).is_some());
    assert!(store.load(ArtifactKey(2), 1).is_none());
    assert!(store.load(ArtifactKey(3), 1).is_some());
    let _ = fs::remove_dir_all(store.root());
}
