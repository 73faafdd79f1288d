//! Serialization of fault universes for the content-addressed on-disk
//! artifact store (`ndetect-store`).
//!
//! The cache key is `hash(canonical netlist bytes + universe options +
//! codec version + payload layout)` — see [`universe_key`]. The payload
//! carries everything expensive about a universe: the target and
//! bridging fault lists, every target detection set, each distinct
//! bridging detection set once plus every bridge's class index, and the
//! fault-free good-value blocks.
//! Cheap structural tables (equivalence collapsing, reachability, fanout
//! cones) are recomputed on load.
//!
//! Decoding is defensive: all shapes are validated against the netlist
//! the caller is building for, and any inconsistency is reported as
//! `None` — the store layer then treats the entry as a miss and the
//! universe is rebuilt from scratch.

use crate::bridging::{BridgeModel, BridgingFault};
use crate::stuck_at::StuckAtFault;
use crate::universe::UniverseOptions;
use ndetect_netlist::{LineId, Netlist};
use ndetect_sim::{GoodValues, VectorSet};
use ndetect_store::{
    ArtifactKey, ArtifactKind, CodecError, Decode, Decoder, Encode, Encoder, Fnv64, CODEC_VERSION,
};

/// Store kind tag for serialized fault universes.
pub const KIND_UNIVERSE: ArtifactKind = 1;

/// The payload layout, mixed into both universe keys: entries in an
/// older layout (one detection set per bridge) are misses, not decode
/// attempts.
const UNIVERSE_LAYOUT: &[u8] = b"layout:bridge-classes";

fn bridge_model_tag(model: BridgeModel) -> u8 {
    match model {
        BridgeModel::FourWay => 0,
        BridgeModel::WiredAnd => 1,
        BridgeModel::WiredOr => 2,
    }
}

fn bridge_model_from_tag(tag: u8) -> Option<BridgeModel> {
    match tag {
        0 => Some(BridgeModel::FourWay),
        1 => Some(BridgeModel::WiredAnd),
        2 => Some(BridgeModel::WiredOr),
        _ => None,
    }
}

/// The content-addressed key of a universe: the FNV-1a hash of the
/// canonical netlist bytes, the semantic universe options, the codec
/// version and the payload layout. [`UniverseOptions::threads`] is
/// deliberately excluded — universes are bit-identical for every worker
/// count, so a cache populated on one machine hits on another with a
/// different core count.
#[must_use]
pub fn universe_key(netlist: &Netlist, options: UniverseOptions) -> ArtifactKey {
    let mut h = Fnv64::new();
    h.update(b"ndetect.universe");
    h.update_u64(u64::from(CODEC_VERSION));
    h.update(UNIVERSE_LAYOUT);
    h.update(&netlist.canonical_bytes());
    h.update(&[
        u8::from(options.collapse_targets),
        u8::from(options.include_bridges),
        bridge_model_tag(options.bridge_model),
    ]);
    ArtifactKey(h.finish())
}

/// The content-addressed key of an **explicit-target** universe (see
/// [`crate::FaultUniverse::build_explicit`]): instead of hashing the
/// netlist the universe is simulated on, the caller supplies the
/// canonical bytes of the *source* model — for time-frame-expanded
/// circuits that is the sequential netlist's canonical bytes plus a
/// fault-model tag, so derived artifacts (worst-case, generated sets)
/// are keyed by the sequential circuit, not its expansion. Like
/// [`universe_key`], the thread count is excluded.
#[must_use]
pub fn explicit_universe_key(canonical: &[u8], options: UniverseOptions) -> ArtifactKey {
    let mut h = Fnv64::new();
    h.update(b"ndetect.universe.explicit");
    h.update_u64(u64::from(CODEC_VERSION));
    h.update(UNIVERSE_LAYOUT);
    h.update(canonical);
    h.update(&[
        u8::from(options.collapse_targets),
        u8::from(options.include_bridges),
        bridge_model_tag(options.bridge_model),
    ]);
    ArtifactKey(h.finish())
}

impl Encode for StuckAtFault {
    fn encode(&self, e: &mut Encoder) {
        e.put_usize(self.line.index());
        e.put_bool(self.value);
    }
}

/// A stored line id. An index past `u32` fits no netlist: it is a decode
/// error, and so a miss, where `LineId::new` would panic.
fn decode_line(d: &mut Decoder<'_>) -> Result<LineId, CodecError> {
    let index = u32::try_from(d.get_u64()?)
        .map_err(|_| CodecError::new("line index does not fit in u32"))?;
    Ok(LineId::new(index as usize))
}

impl Decode for StuckAtFault {
    fn decode(d: &mut Decoder<'_>) -> Result<Self, CodecError> {
        let line = decode_line(d)?;
        let value = d.get_bool()?;
        Ok(StuckAtFault::new(line, value))
    }
}

impl Encode for BridgingFault {
    fn encode(&self, e: &mut Encoder) {
        e.put_usize(self.victim.index());
        e.put_bool(self.victim_value);
        e.put_usize(self.aggressor.index());
        e.put_bool(self.aggressor_value);
    }
}

impl Decode for BridgingFault {
    fn decode(d: &mut Decoder<'_>) -> Result<Self, CodecError> {
        let victim = decode_line(d)?;
        let victim_value = d.get_bool()?;
        let aggressor = decode_line(d)?;
        let aggressor_value = d.get_bool()?;
        Ok(BridgingFault::new(
            victim,
            victim_value,
            aggressor,
            aggressor_value,
        ))
    }
}

impl Encode for UniverseOptions {
    fn encode(&self, e: &mut Encoder) {
        e.put_bool(self.collapse_targets);
        e.put_bool(self.include_bridges);
        e.put_u8(bridge_model_tag(self.bridge_model));
        // threads is a performance knob, not part of the result: it
        // encodes as the normalized value so warm loads compare equal.
        e.put_usize(0);
    }
}

impl Decode for UniverseOptions {
    fn decode(d: &mut Decoder<'_>) -> Result<Self, CodecError> {
        let collapse_targets = d.get_bool()?;
        let include_bridges = d.get_bool()?;
        let bridge_model = bridge_model_from_tag(d.get_u8()?)
            .ok_or_else(|| CodecError::new("unknown bridge model tag"))?;
        let threads = d.get_usize()?;
        Ok(UniverseOptions {
            collapse_targets,
            include_bridges,
            bridge_model,
            threads,
        })
    }
}

/// Borrowed view of a universe for the **save** path: encodes with the
/// exact wire format [`UniverseArtifact`] decodes, without cloning the
/// detection sets or the good-value table. Keep the two field orders in
/// lockstep.
pub(crate) struct UniverseArtifactRef<'a> {
    pub num_inputs: usize,
    pub num_nodes: usize,
    pub num_lines: usize,
    pub options: UniverseOptions,
    pub targets: &'a [StuckAtFault],
    pub target_sets: &'a [VectorSet],
    pub bridges: &'a [BridgingFault],
    pub bridge_classes: &'a [VectorSet],
    pub bridge_class_of: &'a [u32],
    pub num_undetectable_bridges: usize,
    pub good: &'a GoodValues,
}

impl Encode for UniverseArtifactRef<'_> {
    fn encode(&self, e: &mut Encoder) {
        e.put_usize(self.num_inputs);
        e.put_usize(self.num_nodes);
        e.put_usize(self.num_lines);
        self.options.encode(e);
        self.targets.encode(e);
        self.target_sets.encode(e);
        self.bridges.encode(e);
        self.bridge_classes.encode(e);
        self.bridge_class_of.encode(e);
        e.put_usize(self.num_undetectable_bridges);
        self.good.encode(e);
    }
}

/// The serialized body of a [`crate::FaultUniverse`]: everything that is
/// expensive to recompute, plus enough shape information to validate the
/// entry against the netlist it is being loaded for.
#[derive(Debug)]
pub(crate) struct UniverseArtifact {
    pub num_inputs: usize,
    pub num_nodes: usize,
    pub num_lines: usize,
    pub options: UniverseOptions,
    pub targets: Vec<StuckAtFault>,
    pub target_sets: Vec<VectorSet>,
    pub bridges: Vec<BridgingFault>,
    pub bridge_classes: Vec<VectorSet>,
    pub bridge_class_of: Vec<u32>,
    pub num_undetectable_bridges: usize,
    pub good: GoodValues,
}

impl Decode for UniverseArtifact {
    fn decode(d: &mut Decoder<'_>) -> Result<Self, CodecError> {
        Ok(UniverseArtifact {
            num_inputs: d.get_usize()?,
            num_nodes: d.get_usize()?,
            num_lines: d.get_usize()?,
            options: UniverseOptions::decode(d)?,
            targets: Vec::decode(d)?,
            target_sets: Vec::decode(d)?,
            bridges: Vec::decode(d)?,
            bridge_classes: Vec::decode(d)?,
            bridge_class_of: Vec::decode(d)?,
            num_undetectable_bridges: d.get_usize()?,
            good: GoodValues::decode(d)?,
        })
    }
}

impl UniverseArtifact {
    /// Checks every shape invariant against the netlist and options the
    /// caller is actually building for. `false` means the entry is stale
    /// or corrupt and must be treated as a miss.
    pub(crate) fn is_consistent_with(&self, netlist: &Netlist, options: UniverseOptions) -> bool {
        let num_patterns = 1usize << netlist.num_inputs();
        let semantic = UniverseOptions {
            threads: 0,
            ..options
        };
        let stored = UniverseOptions {
            threads: 0,
            ..self.options
        };
        self.num_inputs == netlist.num_inputs()
            && self.num_nodes == netlist.num_nodes()
            && self.num_lines == netlist.lines().len()
            && stored == semantic
            && self.targets.len() == self.target_sets.len()
            && self.bridges.len() == self.bridge_class_of.len()
            && self.targets.iter().all(|f| f.line.index() < self.num_lines)
            && self
                .bridges
                .iter()
                .all(|b| b.victim.index() < self.num_lines && b.aggressor.index() < self.num_lines)
            && self
                .target_sets
                .iter()
                .chain(self.bridge_classes.iter())
                .all(|s| s.num_patterns() == num_patterns)
            && self.bridge_classes.iter().all(|s| !s.is_empty())
            && classes_in_first_occurrence_order(&self.bridge_class_of, self.bridge_classes.len())
            && self.good.num_nodes() == netlist.num_nodes()
            && self.good.num_blocks() == num_patterns.div_ceil(64).max(1)
    }
}

/// Whether `class_of` opens the classes `0..num_classes` in order (each
/// index is at most one past every earlier one) and uses all of them:
/// no index is out of range and no class is unreferenced.
fn classes_in_first_occurrence_order(class_of: &[u32], num_classes: usize) -> bool {
    let mut opened = 0usize;
    for &c in class_of {
        let c = c as usize;
        if c == opened {
            opened += 1;
        } else if c > opened {
            return false;
        }
    }
    opened == num_classes
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::universe::FaultUniverse;
    use ndetect_circuits::figure1::netlist as figure1;
    use ndetect_netlist::NetlistBuilder;
    use ndetect_store::{decode_from_slice, encode_to_vec, Origin, Store};

    fn and2() -> Netlist {
        let mut b = NetlistBuilder::new("and2");
        let a = b.input("a");
        let c = b.input("c");
        let g = b.and("g", &[a, c]).unwrap();
        b.output(g);
        b.build().unwrap()
    }

    #[test]
    fn key_depends_on_structure_and_options() {
        let n = and2();
        let defaults = UniverseOptions::default();
        let k1 = universe_key(&n, defaults);
        // Thread count does not change the key.
        let k2 = universe_key(&n, UniverseOptions::with_threads(4));
        assert_eq!(k1, k2);
        // Any semantic option does.
        let k3 = universe_key(
            &n,
            UniverseOptions {
                include_bridges: false,
                ..defaults
            },
        );
        assert_ne!(k1, k3);
        let k4 = universe_key(
            &n,
            UniverseOptions {
                bridge_model: BridgeModel::WiredAnd,
                ..defaults
            },
        );
        assert_ne!(k1, k4);
        // A different circuit does too.
        let mut b = NetlistBuilder::new("or2");
        let a = b.input("a");
        let c = b.input("c");
        let g = b.or("g", &[a, c]).unwrap();
        b.output(g);
        let other = b.build().unwrap();
        assert_ne!(k1, universe_key(&other, defaults));
    }

    #[test]
    fn fault_codecs_round_trip() {
        let f = StuckAtFault::new(LineId::new(7), true);
        assert_eq!(
            decode_from_slice::<StuckAtFault>(&encode_to_vec(&f)).unwrap(),
            f
        );
        let b = BridgingFault::new(LineId::new(3), false, LineId::new(9), true);
        assert_eq!(
            decode_from_slice::<BridgingFault>(&encode_to_vec(&b)).unwrap(),
            b
        );
        let o = UniverseOptions {
            collapse_targets: false,
            include_bridges: true,
            bridge_model: BridgeModel::WiredOr,
            threads: 5,
        };
        let back = decode_from_slice::<UniverseOptions>(&encode_to_vec(&o)).unwrap();
        // threads is normalized away by the codec.
        assert_eq!(back, UniverseOptions { threads: 0, ..o });
    }

    #[test]
    fn fault_codecs_reject_line_indices_past_u32() {
        let last = u64::from(u32::MAX).to_le_bytes();
        let past = (1u64 << 32).to_le_bytes();
        let stuck = |line: &[u8]| decode_from_slice::<StuckAtFault>(&[line, &[1]].concat());
        assert!(stuck(&last).is_ok() && stuck(&past).is_err());
        let bridge = |victim: &[u8], aggressor: &[u8]| {
            decode_from_slice::<BridgingFault>(&[victim, &[0], aggressor, &[1]].concat())
        };
        assert!(bridge(&last, &last).is_ok());
        assert!(bridge(&past, &last).is_err() && bridge(&last, &past).is_err());
    }

    fn encode_artifact(a: &UniverseArtifact) -> Vec<u8> {
        encode_to_vec(&UniverseArtifactRef {
            num_inputs: a.num_inputs,
            num_nodes: a.num_nodes,
            num_lines: a.num_lines,
            options: a.options,
            targets: &a.targets,
            target_sets: &a.target_sets,
            bridges: &a.bridges,
            bridge_classes: &a.bridge_classes,
            bridge_class_of: &a.bridge_class_of,
            num_undetectable_bridges: a.num_undetectable_bridges,
            good: &a.good,
        })
    }

    #[test]
    fn bad_bridge_class_tables_are_rejected_and_rebuilt() {
        let n = figure1();
        let options = UniverseOptions::default();
        let fresh = FaultUniverse::build_with(&n, options).unwrap();
        let bytes = encode_to_vec(&fresh.artifact_ref());
        let decoded = decode_from_slice::<UniverseArtifact>(&bytes).unwrap();
        assert!(decoded.is_consistent_with(&n, options));

        let dir = std::env::temp_dir().join(format!(
            "ndetect-faults-artifact-classes-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let store = Store::open(&dir).unwrap();
        let key = universe_key(&n, options);
        type Damage = fn(&mut UniverseArtifact);
        let damages: [(&str, Damage); 4] = [
            ("out-of-range class index", |a| {
                let past_end = a.bridge_classes.len() as u32;
                *a.bridge_class_of.last_mut().unwrap() = past_end;
            }),
            ("empty class", |a| {
                let space = a.bridge_classes[0].num_patterns();
                a.bridge_classes[0] = VectorSet::new(space);
            }),
            ("unreferenced class", |a| {
                let copy = a.bridge_classes[0].clone();
                a.bridge_classes.push(copy);
            }),
            ("short class index", |a| {
                a.bridge_class_of.pop();
            }),
        ];
        for (label, damage) in damages {
            let mut bad = decode_from_slice::<UniverseArtifact>(&bytes).unwrap();
            damage(&mut bad);
            assert!(!bad.is_consistent_with(&n, options), "{label}");
            store.save_best_effort(key, KIND_UNIVERSE, &encode_artifact(&bad));
            assert!(store.load(key, KIND_UNIVERSE).is_some(), "{label}");
            let (rebuilt, origin) =
                FaultUniverse::build_stored(&n, None, options, Some(&store)).unwrap();
            assert_eq!(origin, Origin::Built, "{label}");
            assert_eq!(rebuilt.bridges(), fresh.bridges(), "{label}");
            assert_eq!(rebuilt.bridge_classes(), fresh.bridge_classes(), "{label}");
            assert_eq!(
                rebuilt.bridge_class_of(),
                fresh.bridge_class_of(),
                "{label}"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_line_index_past_u32_is_a_miss_and_rebuilt() {
        let n = figure1();
        let options = UniverseOptions::default();
        let fresh = FaultUniverse::build_with(&n, options).unwrap();
        let expected = encode_to_vec(&fresh.artifact_ref());
        // The first target's line follows the three shape fields, the
        // options and the target count.
        let at = 3 * 8 + encode_to_vec(&options).len() + 8;
        let first = fresh.targets()[0].line.index() as u64;
        assert_eq!(expected[at..at + 8], first.to_le_bytes());
        let mut bytes = expected.clone();
        bytes[at..at + 8].copy_from_slice(&(1u64 << 32).to_le_bytes());
        assert!(decode_from_slice::<UniverseArtifact>(&bytes).is_err());

        let dir = std::env::temp_dir().join(format!(
            "ndetect-faults-artifact-line-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let store = Store::open(&dir).unwrap();
        let key = universe_key(&n, options);
        store.save_best_effort(key, KIND_UNIVERSE, &bytes);
        assert!(store.load(key, KIND_UNIVERSE).is_some());
        let (rebuilt, origin) =
            FaultUniverse::build_stored(&n, None, options, Some(&store)).unwrap();
        assert_eq!(origin, Origin::Built);
        assert!(encode_to_vec(&rebuilt.artifact_ref()) == expected);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
