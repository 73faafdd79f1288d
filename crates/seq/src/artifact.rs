//! Serialization of expanded models for the content-addressed artifact
//! store.
//!
//! The payload carries the expanded netlist as `.bench` text plus the
//! lowered fault population. Because [`crate::expand`] canonicalizes
//! node numbering through the same `.bench` writer/parser round trip,
//! a decoded model is bit-identical to a fresh expansion — same
//! `LineId`s, same names, same canonical bytes — so universes and
//! derived artifacts built from either agree.
//!
//! Decoding is defensive: shapes are validated against the expected
//! canonical bytes and the parsed netlist, and any mismatch is treated
//! as a store miss (re-expand, overwrite).

use crate::error::SeqError;
use crate::expand::{canonical_for, expand, ExpandedModel, FaultModel, TransitionFault};
use ndetect_netlist::{bench_format, LineId, SeqNetlist};
use ndetect_store::{
    decode_from_slice, encode_to_vec, read_through, ArtifactKey, ArtifactKind, CodecError, Decode,
    Decoder, Encode, Encoder, Fnv64, Store, CODEC_VERSION,
};

/// Store kind tag for serialized expanded models.
pub const KIND_EXPANDED: ArtifactKind = 5;

/// The content-addressed key of an expanded model: hashes the
/// **sequential** netlist's canonical bytes plus the fault-model tag
/// and expansion version (via [`canonical_for`]), so the key survives
/// any refactor of the expansion that preserves semantics-relevant
/// versioning.
#[must_use]
pub fn expanded_key(seq: &SeqNetlist, model: FaultModel) -> ArtifactKey {
    let mut h = Fnv64::new();
    h.update(b"ndetect.seq.expanded");
    h.update_u64(u64::from(CODEC_VERSION));
    h.update(&canonical_for(seq, model));
    ArtifactKey(h.finish())
}

struct ExpandedArtifact {
    seq_name: String,
    model_tag: u8,
    num_true_inputs: usize,
    num_true_outputs: usize,
    num_state_bits: usize,
    bench_text: String,
    targets: Vec<(usize, bool)>,
    transition_faults: Vec<(String, bool)>,
    bridge_stems: Vec<usize>,
    canonical: Vec<u8>,
}

impl Encode for ExpandedArtifact {
    fn encode(&self, e: &mut Encoder) {
        self.seq_name.encode(e);
        e.put_u8(self.model_tag);
        e.put_usize(self.num_true_inputs);
        e.put_usize(self.num_true_outputs);
        e.put_usize(self.num_state_bits);
        self.bench_text.encode(e);
        self.targets.encode(e);
        self.transition_faults.encode(e);
        self.bridge_stems.encode(e);
        self.canonical.encode(e);
    }
}

impl Decode for ExpandedArtifact {
    fn decode(d: &mut Decoder<'_>) -> Result<Self, CodecError> {
        Ok(ExpandedArtifact {
            seq_name: String::decode(d)?,
            model_tag: d.get_u8()?,
            num_true_inputs: d.get_usize()?,
            num_true_outputs: d.get_usize()?,
            num_state_bits: d.get_usize()?,
            bench_text: String::decode(d)?,
            targets: Vec::decode(d)?,
            transition_faults: Vec::decode(d)?,
            bridge_stems: Vec::decode(d)?,
            canonical: Vec::decode(d)?,
        })
    }
}

/// Encodes an expanded model into the `KIND_EXPANDED` wire format.
#[must_use]
pub fn encode_expanded(model: &ExpandedModel) -> Vec<u8> {
    let artifact = ExpandedArtifact {
        seq_name: model.seq_name().to_string(),
        model_tag: model.fault_model().tag(),
        num_true_inputs: model.num_true_inputs(),
        num_true_outputs: model.num_true_outputs(),
        num_state_bits: model.num_state_bits(),
        bench_text: bench_format::write(model.netlist()),
        targets: model
            .targets()
            .iter()
            .map(|f| (f.line.index(), f.value))
            .collect(),
        transition_faults: model
            .transition_faults()
            .iter()
            .map(|t| (t.node.clone(), t.rising))
            .collect(),
        bridge_stems: model.bridge_stems().iter().map(|l| l.index()).collect(),
        canonical: model.canonical().to_vec(),
    };
    encode_to_vec(&artifact)
}

/// Decodes and validates a `KIND_EXPANDED` payload. `None` means the
/// entry is stale or corrupt — callers treat it as a store miss.
#[must_use]
pub fn decode_expanded(payload: &[u8], expected_canonical: &[u8]) -> Option<ExpandedModel> {
    let a: ExpandedArtifact = decode_from_slice(payload).ok()?;
    if a.canonical != expected_canonical {
        return None;
    }
    let fault_model = match a.model_tag {
        0 => FaultModel::StuckAt,
        1 => FaultModel::Transition,
        _ => return None,
    };
    let netlist = bench_format::parse(&format!("{}.x2", a.seq_name), &a.bench_text).ok()?;
    let num_lines = netlist.lines().len();
    if netlist.num_inputs() != a.num_true_inputs + a.num_state_bits
        || netlist.num_outputs() < a.num_true_outputs
        || a.targets.iter().any(|&(line, _)| line >= num_lines)
        || a.bridge_stems.iter().any(|&line| line >= num_lines)
    {
        return None;
    }
    match fault_model {
        FaultModel::Transition => {
            if a.transition_faults.len() != a.targets.len() {
                return None;
            }
        }
        FaultModel::StuckAt => {
            if !a.transition_faults.is_empty() {
                return None;
            }
        }
    }
    let targets = a
        .targets
        .iter()
        .map(|&(line, value)| ndetect_faults::StuckAtFault::new(LineId::new(line), value))
        .collect();
    let transition_faults = a
        .transition_faults
        .into_iter()
        .map(|(node, rising)| TransitionFault { node, rising })
        .collect();
    let bridge_stems = a.bridge_stems.into_iter().map(LineId::new).collect();
    Some(ExpandedModel::assemble(
        a.seq_name,
        fault_model,
        netlist,
        targets,
        transition_faults,
        bridge_stems,
        a.canonical,
        a.num_true_inputs,
        a.num_true_outputs,
        a.num_state_bits,
    ))
}

/// Expands `seq` with store-layer caching ([`read_through`]): a valid
/// cached entry is decoded without re-running the expansion (the `seq_expansions_total`
/// counter does not move on warm loads); a miss expands fresh and
/// saves best-effort.
///
/// # Errors
///
/// Propagates [`expand`] errors; store I/O problems silently degrade to
/// cold behaviour.
pub fn expand_stored(
    seq: &SeqNetlist,
    model: FaultModel,
    store: Option<&Store>,
) -> Result<ExpandedModel, SeqError> {
    read_through(
        store,
        expanded_key(seq, model),
        KIND_EXPANDED,
        |payload| decode_expanded(payload, &canonical_for(seq, model)),
        || expand(seq, model),
        encode_expanded,
    )
    .map(|(expanded, _)| expanded)
}
