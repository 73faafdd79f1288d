//! Cold-vs-warm equivalence of store-backed universe construction: a
//! warm load must be **bit-identical** to a fresh build — same faults,
//! same detection sets, same good values — and corruption of any kind
//! must degrade to a silent rebuild, never a panic or a wrong answer.

use ndetect_faults::{universe_key, FaultUniverse, UniverseOptions, KIND_UNIVERSE};
use ndetect_netlist::{Netlist, NetlistBuilder};
use ndetect_store::Store;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::PathBuf;

fn temp_store(tag: &str) -> (Store, PathBuf) {
    let dir =
        std::env::temp_dir().join(format!("ndetect-faults-store-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    (Store::open(&dir).unwrap(), dir)
}

/// The lone artifact file in a store directory: entries live in the
/// first-key-byte shard subdirectories under `objects/`.
fn sole_entry(dir: &std::path::Path) -> PathBuf {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir.join("objects"))
        .unwrap()
        .flat_map(|shard| std::fs::read_dir(shard.unwrap().path()).unwrap())
        .map(|e| e.unwrap().path())
        .collect();
    assert_eq!(files.len(), 1, "expected exactly one cache entry");
    files.pop().unwrap()
}

fn figure1() -> Netlist {
    let mut b = NetlistBuilder::new("figure1");
    let i1 = b.input("1");
    let i2 = b.input("2");
    let i3 = b.input("3");
    let i4 = b.input("4");
    let g9 = b.and("9", &[i1, i2]).unwrap();
    let g10 = b.and("10", &[i2, i3]).unwrap();
    let g11 = b.or("11", &[i3, i4]).unwrap();
    b.output(g9);
    b.output(g10);
    b.output(g11);
    b.build().unwrap()
}

/// Asserts every observable piece of two universes is identical.
fn assert_universes_identical(a: &FaultUniverse, b: &FaultUniverse) {
    assert_eq!(a.targets(), b.targets());
    assert_eq!(a.bridges(), b.bridges());
    assert_eq!(a.num_undetectable_bridges(), b.num_undetectable_bridges());
    assert_eq!(a.target_sets().len(), b.target_sets().len());
    for (x, y) in a.target_sets().iter().zip(b.target_sets()) {
        assert_eq!(x, y);
    }
    assert_eq!(a.bridge_classes(), b.bridge_classes());
    assert_eq!(a.bridge_class_of(), b.bridge_class_of());
    let (ga, gb) = (a.simulator().good_values(), b.simulator().good_values());
    assert_eq!(ga.words(), gb.words());
    assert_eq!(
        a.collapsed().representatives(),
        b.collapsed().representatives()
    );
}

#[test]
fn warm_load_is_bit_identical_to_cold_build() {
    let (store, dir) = temp_store("cold-warm");
    let n = figure1();
    let options = UniverseOptions::default();

    let cold = FaultUniverse::build_stored(&n, options, Some(&store)).unwrap();
    assert_eq!(store.session_misses(), 1);
    assert_eq!(store.session_hits(), 0);

    let warm = FaultUniverse::build_stored(&n, options, Some(&store)).unwrap();
    assert_eq!(store.session_hits(), 1);
    assert_universes_identical(&cold, &warm);

    // The warm universe still supports follow-up simulation (the
    // reconstructed simulator is fully functional).
    let f0 = warm.find_target("1", true).unwrap();
    assert_eq!(warm.target_set(f0).to_vec(), vec![4, 5, 6, 7]);
    let fresh = warm
        .simulator()
        .detection_set_stuck(&n, warm.targets()[f0])
        .to_vec();
    assert_eq!(fresh, vec![4, 5, 6, 7]);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn different_options_never_alias() {
    let (store, dir) = temp_store("options");
    let n = figure1();
    let with_bridges = UniverseOptions::default();
    let without = UniverseOptions {
        include_bridges: false,
        ..with_bridges
    };
    let a = FaultUniverse::build_stored(&n, with_bridges, Some(&store)).unwrap();
    let b = FaultUniverse::build_stored(&n, without, Some(&store)).unwrap();
    assert!(!a.bridges().is_empty());
    assert!(b.bridges().is_empty());
    // Warm loads preserve the distinction.
    let a2 = FaultUniverse::build_stored(&n, with_bridges, Some(&store)).unwrap();
    let b2 = FaultUniverse::build_stored(&n, without, Some(&store)).unwrap();
    assert_universes_identical(&a, &a2);
    assert_universes_identical(&b, &b2);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn thread_count_shares_one_entry() {
    let (store, dir) = temp_store("threads");
    let n = figure1();
    let one =
        FaultUniverse::build_stored(&n, UniverseOptions::with_threads(1), Some(&store)).unwrap();
    // A different worker count must *hit* the same entry (results are
    // bit-identical for every thread count).
    let four =
        FaultUniverse::build_stored(&n, UniverseOptions::with_threads(4), Some(&store)).unwrap();
    assert_eq!(store.session_hits(), 1);
    assert_universes_identical(&one, &four);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn every_corruption_mode_degrades_to_a_correct_rebuild() {
    let (store, dir) = temp_store("corruption");
    let n = figure1();
    let options = UniverseOptions::default();
    let reference = FaultUniverse::build_with(&n, options).unwrap();
    let key = universe_key(&n, options);

    // Seed the cache, then corrupt the entry in several ways; each time
    // the build must silently fall back to a fresh (identical) result.
    type Corruption = fn(&[u8]) -> Vec<u8>;
    let corruptions: &[(&str, Corruption)] = &[
        ("truncated header", |b| b[..10].to_vec()),
        ("truncated payload", |b| b[..b.len() - 7].to_vec()),
        ("flipped payload byte", |b| {
            let mut v = b.to_vec();
            let mid = v.len() / 2;
            v[mid] ^= 0x01;
            v
        }),
        ("wrong codec version", |b| {
            let mut v = b.to_vec();
            v[4] = v[4].wrapping_add(1);
            v
        }),
        ("bad magic", |b| {
            let mut v = b.to_vec();
            v[0] = b'X';
            v
        }),
        ("empty file", |_| Vec::new()),
    ];

    for (label, corrupt) in corruptions {
        let _ = FaultUniverse::build_stored(&n, options, Some(&store)).unwrap();
        let path = sole_entry(&dir);
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, corrupt(&bytes)).unwrap();

        assert!(
            store.load(key, KIND_UNIVERSE).is_none(),
            "{label}: corrupt entry must be a miss"
        );
        let rebuilt = FaultUniverse::build_stored(&n, options, Some(&store)).unwrap();
        assert_universes_identical(&reference, &rebuilt);
        // The rebuild repopulated the store; remove so the next round
        // starts from a fresh valid entry.
        let _ = std::fs::remove_file(sole_entry(&dir));
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Local random DAG generator (mirrors the other fault test suites;
/// ndetect-testutil is not a dev-dependency here to keep the workspace
/// dev-graph acyclic).
fn random_netlist(seed: u64, num_inputs: usize, num_gates: usize) -> Netlist {
    use ndetect_netlist::{GateKind, NodeId};
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = NetlistBuilder::new(format!("r{seed}"));
    let mut nodes: Vec<NodeId> = (0..num_inputs).map(|i| b.input(format!("i{i}"))).collect();
    const KINDS: [GateKind; 8] = [
        GateKind::And,
        GateKind::Nand,
        GateKind::Or,
        GateKind::Nor,
        GateKind::Xor,
        GateKind::Xnor,
        GateKind::Not,
        GateKind::Buf,
    ];
    for g in 0..num_gates {
        let kind = KINDS[rng.gen_range(0..KINDS.len())];
        let arity = if matches!(kind, GateKind::Not | GateKind::Buf) {
            1
        } else {
            rng.gen_range(2..=3)
        };
        let fanins: Vec<NodeId> = (0..arity)
            .map(|_| nodes[rng.gen_range(0..nodes.len())])
            .collect();
        nodes.push(b.gate(kind, format!("g{g}"), &fanins).expect("valid"));
    }
    let outs = rng.gen_range(1..=2usize);
    for k in 0..outs {
        b.output(nodes[nodes.len() - 1 - k]);
    }
    b.build().expect("valid DAG")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]
    #[test]
    fn cold_warm_equivalence_on_random_circuits(seed in any::<u64>(),
                                                inputs in 1usize..7,
                                                gates in 1usize..16) {
        let (store, dir) = temp_store(&format!("prop-{seed}-{inputs}-{gates}"));
        let n = random_netlist(seed, inputs, gates);
        let options = UniverseOptions::default();
        let cold = FaultUniverse::build_stored(&n, options, Some(&store)).unwrap();
        let warm = FaultUniverse::build_stored(&n, options, Some(&store)).unwrap();
        prop_assert_eq!(store.session_hits(), 1);
        assert_universes_identical(&cold, &warm);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
