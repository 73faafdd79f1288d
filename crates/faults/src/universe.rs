//! The complete fault picture of one circuit: targets `F` and untargeted
//! faults `G` with their detection sets.

// Hot module: universe building drives the row data plane; any word
// buffer it allocates must come from `ndetect_sim::rows`.
#![deny(clippy::disallowed_methods)]

use crate::artifact::{
    explicit_universe_key, universe_key, UniverseArtifact, UniverseArtifactRef, KIND_UNIVERSE,
};
use crate::bridging::{enumerate_bridges_among, BridgeModel, BridgingFault};
use crate::collapse::CollapsedFaults;
use crate::error::FaultError;
use crate::sim::{intersect_activation, FaultSimulator};
use crate::stuck_at::{all_stuck_at_faults, StuckAtFault};
use ndetect_netlist::{LineId, Netlist, NodeId};
use ndetect_obs::trace;
use ndetect_sim::rows::{zeroed_counts, zeroed_words, RowMatrix};
use ndetect_sim::{parallel, PatternSpace, VectorSet};
use ndetect_store::{decode_from_slice, encode_to_vec, ArtifactKey, Store};
use std::collections::HashMap;
use std::fmt;
use std::ops::Index;
use std::sync::OnceLock;

/// Configuration for [`FaultUniverse::build_with`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct UniverseOptions {
    /// Apply equivalence collapsing to the target stuck-at faults (the
    /// paper's setting). With `false`, every stuck-at fault on every line
    /// is a target — useful for the collapsing ablation, since a larger
    /// `F` can only lower `nmin` values.
    pub collapse_targets: bool,
    /// Enumerate and simulate the bridging fault population. With
    /// `false` the universe carries only target faults (faster when only
    /// test-set construction is needed).
    pub include_bridges: bool,
    /// Which bridging behaviours to enumerate (the paper's four-way
    /// model by default; wired-AND / wired-OR subsets for the
    /// model-sensitivity ablation).
    pub bridge_model: BridgeModel,
    /// Worker threads for fault simulation; `0` means auto
    /// (`NDETECT_THREADS`, then the machine's available parallelism).
    /// The fault list is tiled across workers, each owning a read-only
    /// view of the simulator and producing its own slice of detection
    /// sets, so results are bit-identical for every thread count, and
    /// the store key excludes it.
    pub threads: usize,
}

impl Default for UniverseOptions {
    fn default() -> Self {
        UniverseOptions {
            collapse_targets: true,
            include_bridges: true,
            bridge_model: BridgeModel::FourWay,
            threads: 0,
        }
    }
}

impl UniverseOptions {
    /// The default options with an explicit worker count (`0` = auto) —
    /// the common case for thread plumbing.
    #[must_use]
    pub fn with_threads(threads: usize) -> Self {
        UniverseOptions {
            threads,
            ..UniverseOptions::default()
        }
    }
}

/// An explicitly chosen fault population for [`FaultUniverse::build_explicit`]:
/// the caller names the exact stuck-at targets and the candidate stems for
/// bridging enumeration, plus the canonical bytes that identify the *source*
/// model for store keying.
///
/// This is how lowered fault models ride the stuck-at machinery: time-frame
/// expansion lowers transition-delay faults to stuck-at faults on gadget
/// lines of the expanded netlist, and those gadget lines are meaningful
/// targets while the gadget instrumentation itself must stay out of the
/// bridging population.
#[derive(Clone, Debug)]
pub struct ExplicitTargets {
    /// The target stuck-at faults `F`, in the caller's order.
    pub targets: Vec<StuckAtFault>,
    /// Candidate stems for bridging-fault enumeration (the untargeted
    /// population `G`); pass an empty slice for no bridges.
    pub bridge_stems: Vec<ndetect_netlist::LineId>,
    /// Canonical bytes identifying the source model; the store key hashes
    /// these instead of the simulated netlist's canonical bytes.
    pub canonical: Vec<u8>,
}

/// The target fault set `F` (collapsed single stuck-at), the untargeted
/// fault set `G` (detectable non-feedback four-way bridging), and every
/// detection set `T(h) ⊆ U`, for one circuit.
///
/// This is the single input the worst-case and average-case analyses in
/// `ndetect-core` consume. Building it runs one exhaustive bit-parallel
/// fault simulation per target, with the fault list tiled across worker
/// threads (see [`UniverseOptions::threads`]). Bridges are not simulated
/// one by one: a bridge `(l1,a1,l2,a2)` flips `l1` exactly where the stem
/// fault `l1` stuck-at `ā1` does and the fault-free `l2` is `a2`, so the
/// build simulates that stem fault once per victim and masks its
/// detection set with one fault-free aggressor row per bridge.
///
/// Many bridges share a detection set (`rie` has 3,995 distinct sets
/// among 59,696 bridges), so each distinct `T(g)` is stored once, as a
/// class in [`Self::bridge_classes`], and [`Self::bridge_class_of`] maps
/// every bridge to its class.
///
/// # Memory
///
/// Detection sets are dense bitsets of `2^I` bits each. For `I` inputs,
/// `|F|` targets and `|C|` distinct bridging detection sets the universe
/// holds roughly `(|F| + |C|) * 2^I / 8` bytes plus 4 bytes per bridge —
/// e.g. ~10 MB for `rie` (`I = 14`, 1,227 targets, 3,995 classes among
/// 59,696 bridges). Keep `I ≤ 14` for large bridging populations.
///
/// Once generation or Procedure 1 asks for [`Self::target_index`], the
/// universe also holds that transpose of the target sets:
/// `|U| · ⌈|F| / 64⌉ · 8` bytes (2.5 MiB for `rie`, 0.6 MiB each for
/// `s1a` and `log`). The worst-case analysis never builds it.
pub struct FaultUniverse {
    netlist: Netlist,
    simulator: FaultSimulator,
    collapsed: CollapsedFaults,
    options: UniverseOptions,
    targets: Vec<StuckAtFault>,
    target_sets: Vec<VectorSet>,
    bridges: Vec<BridgingFault>,
    /// Each distinct bridging detection set once, in order of first
    /// occurrence over [`Self::bridges`].
    bridge_classes: Vec<VectorSet>,
    /// Per bridge, its index into [`Self::bridge_classes`].
    bridge_class_of: Vec<u32>,
    num_undetectable_bridges: usize,
    /// `Some` for explicit-target universes: overrides [`Self::store_key`]
    /// so derived artifacts are keyed by the source model's canonical
    /// bytes, not the simulated netlist's.
    explicit_key: Option<ArtifactKey>,
    /// [`Self::target_index`], built on first use. Derived from
    /// `target_sets`, so it stays out of the artifact and the store key.
    target_index: OnceLock<RowMatrix>,
}

impl FaultUniverse {
    /// Builds the full universe with default options (collapsed targets,
    /// bridging faults included).
    ///
    /// # Errors
    ///
    /// Returns [`FaultError::Sim`] if the circuit has too many inputs for
    /// exhaustive simulation.
    pub fn build(netlist: &Netlist) -> Result<Self, FaultError> {
        Self::build_with(netlist, UniverseOptions::default())
    }

    /// Builds the universe with explicit options.
    ///
    /// # Errors
    ///
    /// Returns [`FaultError::Sim`] if the circuit has too many inputs for
    /// exhaustive simulation.
    pub fn build_with(netlist: &Netlist, options: UniverseOptions) -> Result<Self, FaultError> {
        Self::build_inner(netlist, options, None)
    }

    /// Builds a universe over an explicitly chosen fault population: the
    /// targets `F` are exactly `explicit.targets` (no enumeration, no
    /// collapsing — `options.collapse_targets` is ignored) and the bridging
    /// candidates are `explicit.bridge_stems`. The resulting universe's
    /// [`Self::store_key`] hashes `explicit.canonical` instead of the
    /// netlist, so derived artifacts follow the source model's identity.
    ///
    /// # Errors
    ///
    /// Returns [`FaultError::Sim`] if the circuit has too many inputs for
    /// exhaustive simulation.
    ///
    /// # Panics
    ///
    /// Panics if a target line or bridge stem does not belong to `netlist`.
    pub fn build_explicit(
        netlist: &Netlist,
        explicit: &ExplicitTargets,
        options: UniverseOptions,
    ) -> Result<Self, FaultError> {
        Self::build_inner(netlist, options, Some(explicit))
    }

    fn build_inner(
        netlist: &Netlist,
        options: UniverseOptions,
        explicit: Option<&ExplicitTargets>,
    ) -> Result<Self, FaultError> {
        let num_lines = netlist.lines().len();
        if let Some(explicit) = explicit {
            assert!(
                explicit
                    .targets
                    .iter()
                    .map(|f| f.line)
                    .chain(explicit.bridge_stems.iter().copied())
                    .all(|l| l.index() < num_lines),
                "explicit fault population references lines outside the netlist"
            );
        }
        let mut build_span = trace::span("universe.build");
        build_span.field("circuit", netlist.name());
        let started = std::time::Instant::now();
        let threads = parallel::resolve_threads(options.threads);
        let simulator = FaultSimulator::with_threads(netlist, threads)?;
        let collapsed = {
            let _span = trace::span("universe.collapse");
            CollapsedFaults::compute(netlist)
        };

        let targets: Vec<StuckAtFault> = match explicit {
            Some(explicit) => explicit.targets.clone(),
            None if options.collapse_targets => collapsed.representatives().to_vec(),
            None => all_stuck_at_faults(netlist),
        };
        let target_sets: Vec<VectorSet> = {
            let mut span = trace::span("universe.target_sweep");
            span.field("faults", targets.len());
            stuck_sets(netlist, &simulator, threads, &targets)
        };

        let bridges = if options.include_bridges {
            let default_stems;
            let stems: &[LineId] = match explicit {
                Some(explicit) => &explicit.bridge_stems,
                None => {
                    default_stems = netlist.multi_input_gate_stems();
                    &default_stems
                }
            };
            BridgeClasses::sweep(netlist, &simulator, threads, options.bridge_model, stems)
        } else {
            BridgeClasses::default()
        };

        build_span.field("targets", targets.len());
        build_span.field("bridges", bridges.bridges.len());
        // Library-level metrics: builds across the whole process (the
        // serve engine separately counts *its* builds per instance).
        ndetect_obs::global().counter("universe_builds_total").inc();
        ndetect_obs::global()
            .histogram("universe_build_us")
            .record(started.elapsed().as_micros() as u64);
        Ok(FaultUniverse {
            netlist: netlist.clone(),
            simulator,
            collapsed,
            options,
            targets,
            target_sets,
            bridges: bridges.bridges,
            bridge_classes: bridges.classes,
            bridge_class_of: bridges.class_of,
            num_undetectable_bridges: bridges.num_undetectable,
            explicit_key: explicit.map(|x| explicit_universe_key(&x.canonical, options)),
            target_index: OnceLock::new(),
        })
    }

    /// Builds the universe with a content-addressed on-disk store as a
    /// fast path: a valid cache entry skips every fault simulation (only
    /// cheap structural tables are recomputed); a miss builds normally
    /// and then populates the store (best effort — a read-only cache
    /// directory degrades to plain [`Self::build_with`]).
    ///
    /// Corrupt, truncated, or version-mismatched entries are silently
    /// treated as misses; loaded results are bit-identical to a fresh
    /// build for any thread count.
    ///
    /// # Errors
    ///
    /// Returns [`FaultError::Sim`] if the circuit has too many inputs
    /// for exhaustive simulation.
    pub fn build_stored(
        netlist: &Netlist,
        options: UniverseOptions,
        store: Option<&Store>,
    ) -> Result<Self, FaultError> {
        let Some(store) = store else {
            return Self::build_with(netlist, options);
        };
        let key = universe_key(netlist, options);
        if let Some(payload) = store.load(key, KIND_UNIVERSE) {
            if let Some(universe) = Self::from_artifact_bytes(netlist, options, &payload) {
                return Ok(universe);
            }
            // Decoded but inconsistent with this netlist (hash collision
            // or stale shape): fall through to a fresh build.
        }
        let universe = Self::build_with(netlist, options)?;
        store.save_best_effort(key, KIND_UNIVERSE, &encode_to_vec(&universe.artifact_ref()));
        Ok(universe)
    }

    /// [`Self::build_explicit`] with the store fast path of
    /// [`Self::build_stored`]: the cache key is
    /// [`explicit_universe_key`]`(explicit.canonical, options)`, so warm
    /// runs skip every fault simulation on the expanded netlist.
    ///
    /// # Errors
    ///
    /// Returns [`FaultError::Sim`] if the circuit has too many inputs for
    /// exhaustive simulation.
    ///
    /// # Panics
    ///
    /// Panics if a target line or bridge stem does not belong to `netlist`.
    pub fn build_stored_explicit(
        netlist: &Netlist,
        explicit: &ExplicitTargets,
        options: UniverseOptions,
        store: Option<&Store>,
    ) -> Result<Self, FaultError> {
        let Some(store) = store else {
            return Self::build_explicit(netlist, explicit, options);
        };
        let key = explicit_universe_key(&explicit.canonical, options);
        if let Some(payload) = store.load(key, KIND_UNIVERSE) {
            if let Some(mut universe) = Self::from_artifact_bytes(netlist, options, &payload) {
                universe.explicit_key = Some(key);
                return Ok(universe);
            }
        }
        let universe = Self::build_explicit(netlist, explicit, options)?;
        store.save_best_effort(key, KIND_UNIVERSE, &encode_to_vec(&universe.artifact_ref()));
        Ok(universe)
    }

    /// The content-addressed store key of this universe (canonical
    /// netlist bytes + semantic options + codec version; for
    /// explicit-target universes, the source model's canonical bytes
    /// instead). Derived artifacts (e.g. `nmin` vectors) mix this into
    /// their own keys.
    #[must_use]
    pub fn store_key(&self) -> ArtifactKey {
        self.explicit_key
            .unwrap_or_else(|| universe_key(&self.netlist, self.options))
    }

    /// `true` when this universe was built over an explicitly chosen
    /// fault population ([`Self::build_explicit`]).
    #[must_use]
    pub fn is_explicit(&self) -> bool {
        self.explicit_key.is_some()
    }

    /// Borrowed serialization view — the save path encodes directly
    /// from the universe's own buffers, no clones.
    pub(crate) fn artifact_ref(&self) -> UniverseArtifactRef<'_> {
        UniverseArtifactRef {
            num_inputs: self.netlist.num_inputs(),
            num_nodes: self.netlist.num_nodes(),
            num_lines: self.netlist.lines().len(),
            options: self.options,
            targets: &self.targets,
            target_sets: &self.target_sets,
            bridges: &self.bridges,
            bridge_classes: &self.bridge_classes,
            bridge_class_of: &self.bridge_class_of,
            num_undetectable_bridges: self.num_undetectable_bridges,
            good: self.simulator.good_values(),
        }
    }

    /// Reconstructs a universe from serialized artifact bytes, or `None`
    /// when the bytes do not decode to a universe consistent with this
    /// netlist and these options.
    fn from_artifact_bytes(
        netlist: &Netlist,
        options: UniverseOptions,
        payload: &[u8],
    ) -> Option<Self> {
        let artifact: UniverseArtifact = decode_from_slice(payload).ok()?;
        if !artifact.is_consistent_with(netlist, options) {
            return None;
        }
        let simulator = FaultSimulator::with_good_values(netlist, artifact.good).ok()?;
        let collapsed = CollapsedFaults::compute(netlist);
        Some(FaultUniverse {
            netlist: netlist.clone(),
            simulator,
            collapsed,
            options,
            targets: artifact.targets,
            target_sets: artifact.target_sets,
            bridges: artifact.bridges,
            bridge_classes: artifact.bridge_classes,
            bridge_class_of: artifact.bridge_class_of,
            num_undetectable_bridges: artifact.num_undetectable_bridges,
            explicit_key: None,
            target_index: OnceLock::new(),
        })
    }

    /// The circuit this universe was built from.
    #[must_use]
    pub fn netlist(&self) -> &Netlist {
        &self.netlist
    }

    /// The exhaustive pattern space `U`.
    #[must_use]
    pub fn space(&self) -> &PatternSpace {
        self.simulator.space()
    }

    /// The underlying fault simulator (reusable for ad-hoc faults).
    #[must_use]
    pub fn simulator(&self) -> &FaultSimulator {
        &self.simulator
    }

    /// The options this universe was built with.
    #[must_use]
    pub fn options(&self) -> UniverseOptions {
        self.options
    }

    /// The equivalence-collapsing result (available even when targets are
    /// uncollapsed).
    #[must_use]
    pub fn collapsed(&self) -> &CollapsedFaults {
        &self.collapsed
    }

    /// The target faults `F`, ordered by (line id, stuck value).
    #[must_use]
    pub fn targets(&self) -> &[StuckAtFault] {
        &self.targets
    }

    /// `T(f_i)` for target index `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn target_set(&self, i: usize) -> &VectorSet {
        &self.target_sets[i]
    }

    /// All target detection sets, parallel to [`Self::targets`].
    #[must_use]
    pub fn target_sets(&self) -> &[VectorSet] {
        &self.target_sets
    }

    /// The vector→target index, the transpose of [`Self::target_sets`]:
    /// row `v` holds one bit per target, bit `f % 64` of word `f / 64`
    /// set when `v ∈ T(f)`, in `⌈|F| / 64⌉` words. It lets the
    /// generator and Procedure 1 read the targets of one vector without
    /// probing every `T(f)`.
    ///
    /// The first call builds it, inside a `universe.target_index` trace
    /// span; later calls, from any thread, return the same rows. See the
    /// type's `# Memory` section for its size.
    #[must_use]
    pub fn target_index(&self) -> &RowMatrix {
        self.target_index
            .get_or_init(|| transpose_targets(&self.target_sets, self.space().num_patterns()))
    }

    /// Number of target faults with a non-empty detection set — the
    /// population an n-detection test set can actually be required to
    /// detect (undetectable targets contribute nothing to the
    /// requirement `min(n, |T(f)|)`).
    #[must_use]
    pub fn num_detectable_targets(&self) -> usize {
        self.target_sets.iter().filter(|s| !s.is_empty()).count()
    }

    /// The untargeted faults `G`: detectable non-feedback four-way
    /// bridging faults, in enumeration order.
    #[must_use]
    pub fn bridges(&self) -> &[BridgingFault] {
        &self.bridges
    }

    /// `T(g_j)` for bridge index `j`.
    ///
    /// # Panics
    ///
    /// Panics if `j` is out of range.
    #[must_use]
    pub fn bridge_set(&self, j: usize) -> &VectorSet {
        &self.bridge_classes[self.bridge_class_of[j] as usize]
    }

    /// All bridging detection sets, parallel to [`Self::bridges`]: a
    /// per-bridge view over [`Self::bridge_classes`].
    #[must_use]
    pub fn bridge_sets(&self) -> BridgeSets<'_> {
        BridgeSets {
            classes: &self.bridge_classes,
            class_of: &self.bridge_class_of,
        }
    }

    /// The distinct bridging detection sets, each non-empty and stored
    /// once, in order of first occurrence over [`Self::bridges`].
    /// Per-set work (an `nmin` scan, an intersection test) done once per
    /// class and counted through [`Self::bridge_class_of`] covers every
    /// bridge.
    #[must_use]
    pub fn bridge_classes(&self) -> &[VectorSet] {
        &self.bridge_classes
    }

    /// Per bridge, parallel to [`Self::bridges`]: the index of its
    /// detection set in [`Self::bridge_classes`].
    #[must_use]
    pub fn bridge_class_of(&self) -> &[u32] {
        &self.bridge_class_of
    }

    /// Number of enumerated four-way bridging faults that turned out to be
    /// undetectable (excluded from [`Self::bridges`]).
    #[must_use]
    pub fn num_undetectable_bridges(&self) -> usize {
        self.num_undetectable_bridges
    }

    /// Finds a target fault index by the paper's `line/value` notation
    /// (using netlist line names).
    #[must_use]
    pub fn find_target(&self, line_name: &str, value: bool) -> Option<usize> {
        self.targets
            .iter()
            .position(|f| f.value == value && self.netlist.lines().line(f.line).name() == line_name)
    }

    /// Finds a bridging fault index by the paper's `(l1,a1,l2,a2)`
    /// notation (using netlist line names).
    #[must_use]
    pub fn find_bridge(
        &self,
        victim_name: &str,
        victim_value: bool,
        aggressor_name: &str,
        aggressor_value: bool,
    ) -> Option<usize> {
        let lines = self.netlist.lines();
        self.bridges.iter().position(|b| {
            b.victim_value == victim_value
                && b.aggressor_value == aggressor_value
                && lines.line(b.victim).name() == victim_name
                && lines.line(b.aggressor).name() == aggressor_name
        })
    }
}

/// The per-bridge view of a universe's bridging detection sets returned
/// by [`FaultUniverse::bridge_sets`]: `sets[j]` is `T(g_j)`, read through
/// the bridge's class.
#[derive(Clone, Copy, Debug)]
pub struct BridgeSets<'a> {
    classes: &'a [VectorSet],
    class_of: &'a [u32],
}

impl<'a> BridgeSets<'a> {
    /// Number of bridges.
    #[must_use]
    pub fn len(self) -> usize {
        self.class_of.len()
    }

    /// Returns `true` if the universe has no bridges.
    #[must_use]
    pub fn is_empty(self) -> bool {
        self.class_of.is_empty()
    }

    /// The detection sets in bridge order.
    #[must_use]
    pub fn iter(self) -> BridgeSetsIter<'a> {
        BridgeSetsIter {
            classes: self.classes,
            class_of: self.class_of.iter(),
        }
    }
}

impl Index<usize> for BridgeSets<'_> {
    type Output = VectorSet;

    fn index(&self, j: usize) -> &VectorSet {
        &self.classes[self.class_of[j] as usize]
    }
}

impl<'a> IntoIterator for BridgeSets<'a> {
    type Item = &'a VectorSet;
    type IntoIter = BridgeSetsIter<'a>;

    fn into_iter(self) -> BridgeSetsIter<'a> {
        self.iter()
    }
}

/// Iterator over [`BridgeSets`], in bridge order.
#[derive(Clone, Debug)]
pub struct BridgeSetsIter<'a> {
    classes: &'a [VectorSet],
    class_of: std::slice::Iter<'a, u32>,
}

impl<'a> Iterator for BridgeSetsIter<'a> {
    type Item = &'a VectorSet;

    fn next(&mut self) -> Option<&'a VectorSet> {
        self.class_of.next().map(|&c| &self.classes[c as usize])
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.class_of.size_hint()
    }
}

impl ExactSizeIterator for BridgeSetsIter<'_> {}

/// A bridge population after the sweep: the detectable bridges, their
/// distinct detection sets and each bridge's class.
#[derive(Default)]
struct BridgeClasses {
    bridges: Vec<BridgingFault>,
    classes: Vec<VectorSet>,
    class_of: Vec<u32>,
    num_undetectable: usize,
}

impl BridgeClasses {
    /// Enumerates the bridges among `stems` and builds their detection
    /// sets without simulating a single bridge: one stuck-at pass per
    /// distinct victim fault ([`BridgingFault::victim_fault`]), one good
    /// row per distinct aggressor, and per bridge one AND of the two
    /// rows ([`intersect_activation`]). Empty results are the
    /// undetectable bridges; the rest are grouped by content
    /// ([`group_by_content`]) and each group's set is materialized once.
    fn sweep(
        netlist: &Netlist,
        simulator: &FaultSimulator,
        threads: usize,
        model: BridgeModel,
        stems: &[LineId],
    ) -> Self {
        let mut span = trace::span("universe.bridge_sweep");
        let enumerated = enumerate_bridges_among(netlist, simulator.reachability(), model, stems);
        span.field("faults", enumerated.len());

        let (victim_faults, victim_of) = first_occurrence_index(
            enumerated.iter().map(BridgingFault::victim_fault),
            2 * netlist.lines().len(),
            |f| 2 * f.line.index() + usize::from(f.value),
        );
        let (aggressors, aggressor_of) = first_occurrence_index(
            enumerated
                .iter()
                .map(|b| netlist.lines().line(b.aggressor).driver()),
            netlist.num_nodes(),
            NodeId::index,
        );
        span.field("victims", victim_faults.len());
        let victim_sets = stuck_sets(netlist, simulator, threads, &victim_faults);
        let aggressor_rows: Vec<Vec<u64>> =
            aggressors.iter().map(|&a| simulator.good_row(a)).collect();

        let (classes, class_of) = group_by_content(
            threads,
            enumerated.len(),
            simulator.space().num_patterns(),
            word_hash,
            |j, row| {
                intersect_activation(
                    victim_sets[victim_of[j] as usize].words(),
                    &aggressor_rows[aggressor_of[j] as usize],
                    enumerated[j].aggressor_value,
                    row,
                )
            },
        );
        span.field("classes", classes.len());

        let mut out = BridgeClasses {
            classes,
            ..BridgeClasses::default()
        };
        for (fault, class) in enumerated.into_iter().zip(class_of) {
            match class {
                Some(c) => {
                    out.bridges.push(fault);
                    out.class_of.push(c);
                }
                None => out.num_undetectable += 1,
            }
        }
        out
    }
}

/// Numbers the distinct items in order of first occurrence: returns the
/// distinct items and every item's number. `key` maps an item to a
/// dense index below `key_space`.
fn first_occurrence_index<T: Copy>(
    items: impl Iterator<Item = T>,
    key_space: usize,
    key: impl Fn(T) -> usize,
) -> (Vec<T>, Vec<u32>) {
    // One past a key's number; 0 until the key is seen.
    let mut slot = zeroed_counts(key_space);
    let mut distinct = Vec::new();
    let numbers = items
        .map(|item| {
            let k = key(item);
            if slot[k] == 0 {
                distinct.push(item);
                slot[k] = u32::try_from(distinct.len()).expect("item count fits u32");
            }
            slot[k] - 1
        })
        .collect();
    (distinct, numbers)
}

/// Groups the sets `0..len` over a space of `num_patterns` vectors by
/// content. `fill(j, row)` writes set `j`'s words to `row` and returns
/// whether any bit is set; empty sets join no class. Returns the
/// distinct non-empty sets in order of first occurrence, and each set's
/// class.
///
/// A parallel pass hashes every set. Each distinct hash opens a
/// tentative class, materialized from its first set, and a second
/// parallel pass checks every set word by word against its class. If
/// any set differs from its class, two sets took one 64-bit hash, and
/// [`group_by_words`] redoes the grouping by full word equality. A
/// collision therefore costs a serial pass, never a merge.
fn group_by_content<F>(
    threads: usize,
    len: usize,
    num_patterns: usize,
    hash: fn(&[u64]) -> u64,
    fill: F,
) -> (Vec<VectorSet>, Vec<Option<u32>>)
where
    F: Fn(usize, &mut [u64]) -> bool + Sync,
{
    let width = num_patterns.div_ceil(64).max(1);
    let hashes: Vec<Option<u64>> = parallel::run_tiled_with(
        threads,
        len,
        || zeroed_words(width),
        |row, range| range.map(|j| fill(j, row).then(|| hash(row))).collect(),
    );
    let mut class_of_hash: HashMap<u64, u32> = HashMap::new();
    let mut firsts = Vec::new();
    let class_of: Vec<Option<u32>> = hashes
        .iter()
        .enumerate()
        .map(|(j, h)| {
            h.map(|h| {
                *class_of_hash.entry(h).or_insert_with(|| {
                    firsts.push(j);
                    u32::try_from(firsts.len() - 1).expect("class count fits u32")
                })
            })
        })
        .collect();
    let classes = parallel::parallel_map(threads, &firsts, |_, &j| {
        let mut words = zeroed_words(width);
        fill(j, &mut words);
        VectorSet::from_block_words(num_patterns, words)
    });
    // One flag per tile: whether any of its sets differs from its class.
    let collided = parallel::run_tiled_with(
        threads,
        len,
        || zeroed_words(width),
        |row, range| {
            let differs = |j: usize| {
                class_of[j].is_some_and(|c| {
                    fill(j, row);
                    row[..] != *classes[c as usize].words()
                })
            };
            vec![range.into_iter().any(differs)]
        },
    );
    if collided.contains(&true) {
        return group_by_words(len, num_patterns, fill);
    }
    (classes, class_of)
}

/// [`group_by_content`] after a hash collision: one serial pass keyed by
/// the sets themselves, so only equal words share a class.
fn group_by_words<F>(len: usize, num_patterns: usize, fill: F) -> (Vec<VectorSet>, Vec<Option<u32>>)
where
    F: Fn(usize, &mut [u64]) -> bool,
{
    let width = num_patterns.div_ceil(64).max(1);
    let mut class_of_set: HashMap<VectorSet, u32> = HashMap::new();
    let mut classes = Vec::new();
    let class_of = (0..len)
        .map(|j| {
            let mut words = zeroed_words(width);
            if !fill(j, &mut words) {
                return None;
            }
            let set = VectorSet::from_block_words(num_patterns, words);
            Some(*class_of_set.entry(set).or_insert_with_key(|set| {
                classes.push(set.clone());
                u32::try_from(classes.len() - 1).expect("class count fits u32")
            }))
        })
        .collect();
    (classes, class_of)
}

/// An FxHash-style multiply-rotate hash over the words of a set, in four
/// independent lanes so the multiply chains overlap.
fn word_hash(words: &[u64]) -> u64 {
    const K: u64 = 0x517c_c1b7_2722_0a95;
    let mix = |h: u64, w: u64| (h.rotate_left(5) ^ w).wrapping_mul(K);
    let mut lanes = [0u64; 4];
    let mut chunks = words.chunks_exact(4);
    for chunk in &mut chunks {
        for (h, &w) in lanes.iter_mut().zip(chunk) {
            *h = mix(*h, w);
        }
    }
    lanes
        .iter()
        .chain(chunks.remainder())
        .fold(words.len() as u64, |h, &w| mix(h, w))
}

/// The vector→target index of [`FaultUniverse::target_index`]: a
/// `num_patterns × ⌈|F| / 64⌉` word matrix with bit `f` of row `v` set
/// when `v ∈ T(f)`. Each group of 64 targets and block of 64 vectors is
/// one 64×64 bit-matrix transpose: word `b` of each target's set in,
/// word `w` of each vector's row out.
fn transpose_targets(sets: &[VectorSet], num_patterns: usize) -> RowMatrix {
    let width = sets.len().div_ceil(64);
    let mut span = trace::span("universe.target_index");
    span.field("vectors", num_patterns);
    span.field("words", width);
    span.field("bytes", 8 * num_patterns * width);
    let mut index = RowMatrix::zeroed(num_patterns, width);
    let rows = index.words_mut();
    let mut tile = [0u64; 64];
    for (w, group) in sets.chunks(64).enumerate() {
        for b in 0..num_patterns.div_ceil(64) {
            tile.fill(0);
            for (word, set) in tile.iter_mut().zip(group) {
                *word = set.words()[b];
            }
            if tile.iter().all(|&word| word == 0) {
                continue;
            }
            transpose64(&mut tile);
            // Rows past |U| come from tail bits, which the VectorSet
            // invariant keeps zero.
            for (v, &word) in (64 * b..num_patterns).zip(&tile) {
                rows[v * width + w] = word;
            }
        }
    }
    index
}

/// Transposes a 64×64 bit matrix in place: bit `j` of word `i` moves to
/// bit `i` of word `j`. Six rounds swap ever smaller off-diagonal
/// blocks, 32×32 first.
fn transpose64(tile: &mut [u64; 64]) {
    swap_blocks::<32>(tile, 0x0000_0000_FFFF_FFFF);
    swap_blocks::<16>(tile, 0x0000_FFFF_0000_FFFF);
    swap_blocks::<8>(tile, 0x00FF_00FF_00FF_00FF);
    swap_blocks::<4>(tile, 0x0F0F_0F0F_0F0F_0F0F);
    swap_blocks::<2>(tile, 0x3333_3333_3333_3333);
    swap_blocks::<1>(tile, 0x5555_5555_5555_5555);
}

/// One round of [`transpose64`]: in every `2J × 2J` block, swaps the
/// upper-right `J × J` quarter (high bits of the first `J` words) with
/// the lower-left one (low bits of the last `J`). `low` selects the low
/// `J` bits of every `2J`-bit group.
fn swap_blocks<const J: usize>(tile: &mut [u64; 64], low: u64) {
    for start in (0..64).step_by(2 * J) {
        for i in start..start + J {
            let t = ((tile[i] >> J) ^ tile[i + J]) & low;
            tile[i] ^= t << J;
            tile[i + J] ^= t;
        }
    }
}

/// Detection sets of stuck-at faults, in fault order: the target sweep
/// and the bridge sweep's victim pass. Each worker simulates a tile of
/// the fault list against the shared read-only simulator, reusing one
/// event-propagation scratch for its whole tile, and tiles reassemble in
/// fault order, so the sets are bit-identical to a serial pass.
fn stuck_sets(
    netlist: &Netlist,
    simulator: &FaultSimulator,
    threads: usize,
    faults: &[StuckAtFault],
) -> Vec<VectorSet> {
    parallel::parallel_map_with(
        threads,
        faults,
        || simulator.new_scratch(),
        |scratch, _, &f| simulator.detection_set_stuck_with(netlist, f, scratch),
    )
}

impl fmt::Debug for FaultUniverse {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FaultUniverse")
            .field("circuit", &self.netlist.name())
            .field("num_targets", &self.targets.len())
            .field("num_bridges", &self.bridges.len())
            .field("num_bridge_classes", &self.bridge_classes.len())
            .field("num_undetectable_bridges", &self.num_undetectable_bridges)
            .field("num_patterns", &self.space().num_patterns())
            .finish()
    }
}

impl fmt::Display for FaultUniverse {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let label = if self.explicit_key.is_some() {
            "explicit targets"
        } else {
            "collapsed stuck-at"
        };
        write!(
            f,
            "{}: |F| = {} {label}, |G| = {} bridging ({} undetectable excluded), |U| = {}",
            self.netlist.name(),
            self.targets.len(),
            self.bridges.len(),
            self.num_undetectable_bridges,
            self.space().num_patterns()
        )
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)] // tests may use raw vec! freely
mod tests {
    use super::*;
    use ndetect_circuits::figure1::netlist as figure1;

    #[test]
    fn figure1_universe_matches_paper() {
        let n = figure1();
        let u = FaultUniverse::build(&n).unwrap();
        assert_eq!(u.targets().len(), 16);
        // Paper's f0 = 1/1 has T = {4,5,6,7}.
        let f0 = u.find_target("1", true).unwrap();
        assert_eq!(f0, 0);
        assert_eq!(u.target_set(f0).to_vec(), vec![4, 5, 6, 7]);
        // g0 = (9,0,10,1) exists and T(g0) = {6,7}.
        let g0 = u.find_bridge("9", false, "10", true).unwrap();
        assert_eq!(u.bridge_set(g0).to_vec(), vec![6, 7]);
        // Of the 12 enumerated bridges, (10,1,11,0) and (11,0,10,1) are
        // undetectable: they require line 10 = 1 (input 3 = 1) and
        // line 11 = 0 (input 3 = 0) simultaneously.
        assert_eq!(u.bridges().len(), 10);
        assert_eq!(u.num_undetectable_bridges(), 2);
        assert!(u.find_bridge("10", true, "11", false).is_none());
        assert!(u.find_bridge("11", false, "10", true).is_none());
    }

    #[test]
    fn uncollapsed_universe_is_larger() {
        let n = figure1();
        let collapsed = FaultUniverse::build(&n).unwrap();
        let full = FaultUniverse::build_with(
            &n,
            UniverseOptions {
                collapse_targets: false,
                include_bridges: false,
                ..UniverseOptions::default()
            },
        )
        .unwrap();
        assert_eq!(full.targets().len(), 22); // 11 lines x 2
        assert!(full.targets().len() > collapsed.targets().len());
        assert!(full.bridges().is_empty());
    }

    #[test]
    fn equivalent_faults_have_identical_detection_sets() {
        let n = figure1();
        let u = FaultUniverse::build(&n).unwrap();
        let sim = u.simulator();
        for class in u.collapsed().classes() {
            let sets: Vec<Vec<usize>> = class
                .iter()
                .map(|&f| sim.detection_set_stuck(&n, f).to_vec())
                .collect();
            for pair in sets.windows(2) {
                assert_eq!(pair[0], pair[1], "class {class:?}");
            }
        }
    }

    #[test]
    fn detectable_target_count_excludes_empty_sets() {
        let n = figure1();
        let u = FaultUniverse::build(&n).unwrap();
        let manual = u.target_sets().iter().filter(|s| !s.is_empty()).count();
        assert_eq!(u.num_detectable_targets(), manual);
        // Every collapsed figure1 target is detectable.
        assert_eq!(u.num_detectable_targets(), u.targets().len());
    }

    #[test]
    fn explicit_population_is_taken_verbatim() {
        let n = figure1();
        let baseline = FaultUniverse::build(&n).unwrap();
        // Hand-pick two targets and restrict bridging to stems 9 and 10.
        let stems = n.multi_input_gate_stems();
        let explicit = ExplicitTargets {
            targets: vec![baseline.targets()[0], baseline.targets()[3]],
            bridge_stems: stems[..2].to_vec(),
            canonical: b"source-model-v1".to_vec(),
        };
        let u = FaultUniverse::build_explicit(&n, &explicit, UniverseOptions::default()).unwrap();
        assert!(u.is_explicit());
        assert_eq!(u.targets(), &explicit.targets[..]);
        // Detection sets match what the default build computed for the
        // same faults.
        assert_eq!(u.target_set(0).to_vec(), baseline.target_set(0).to_vec());
        assert_eq!(u.target_set(1).to_vec(), baseline.target_set(3).to_vec());
        // Only the {9,10} pair is enumerated: 4 four-way faults.
        assert_eq!(u.bridges().len() + u.num_undetectable_bridges(), 4);
        // The store key follows the caller's canonical bytes, not the
        // simulated netlist.
        assert_eq!(
            u.store_key(),
            crate::artifact::explicit_universe_key(b"source-model-v1", UniverseOptions::default())
        );
        assert_ne!(u.store_key(), baseline.store_key());
        assert!(u.to_string().contains("explicit targets"));
    }

    #[test]
    #[should_panic(expected = "explicit fault population")]
    fn explicit_population_validates_line_bounds() {
        let n = figure1();
        let explicit = ExplicitTargets {
            targets: vec![StuckAtFault::new(ndetect_netlist::LineId::new(999), true)],
            bridge_stems: Vec::new(),
            canonical: Vec::new(),
        };
        let _ = FaultUniverse::build_explicit(&n, &explicit, UniverseOptions::default());
    }

    #[test]
    fn a_hash_collision_never_merges_two_sets() {
        // 128 patterns (two words per set). Under a constant hash every
        // non-empty set collides, so only the word comparison can keep
        // them apart.
        let sets: Vec<VectorSet> = [
            &[][..],
            &[1, 2, 100],
            &[3],
            &[1, 2, 100],
            &[],
            &[3],
            &[1, 2, 101],
        ]
        .iter()
        .map(|vs| VectorSet::from_vectors(128, vs.iter().copied()))
        .collect();
        let fill = |j: usize, row: &mut [u64]| {
            row.copy_from_slice(sets[j].words());
            !sets[j].is_empty()
        };
        let constant: fn(&[u64]) -> u64 = |_| 0;
        for hash in [word_hash, constant] {
            for threads in [1, 4] {
                let (classes, class_of) = group_by_content(threads, sets.len(), 128, hash, fill);
                assert_eq!(classes, [&sets[1], &sets[2], &sets[6]].map(Clone::clone));
                assert_eq!(
                    class_of,
                    [None, Some(0), Some(1), Some(0), None, Some(1), Some(2)]
                );
            }
        }
    }

    #[test]
    fn display_summarizes() {
        let n = figure1();
        let u = FaultUniverse::build(&n).unwrap();
        let s = u.to_string();
        assert!(s.contains("|F| = 16"));
        assert!(s.contains("|G| = 10"));
        assert!(format!("{u:?}").contains("figure1"));
    }
}
