//! Content-addressed on-disk artifact cache for the `ndetect` workspace.
//!
//! Every table, figure, and `ndet` invocation derives the same expensive
//! artifacts — fault universes, per-fault detection sets, `nmin`
//! vectors — from the same inputs. This crate makes those derivations
//! incremental *across processes*: artifacts are serialized with a small
//! hand-rolled versioned binary codec ([`Encode`]/[`Decode`]) and stored
//! in a directory keyed by the FNV-1a hash of their canonical inputs
//! ([`ArtifactKey`], [`Store`]).
//!
//! Design constraints (no registry access, many concurrent `ndet`
//! processes, caches live for months across code changes):
//!
//! * **Self-describing entries.** Each file carries magic bytes, the
//!   codec version, an artifact kind tag, the payload length, and an
//!   FNV-1a checksum. Anything stale or damaged validates as a *miss*
//!   and is recomputed — never a panic, never a wrong answer.
//! * **Atomic publication.** Writes stage into `tmp/` and `rename(2)`
//!   into place, so readers only ever see complete entries.
//! * **Bounded size.** [`Store::gc`] evicts least-recently-used entries
//!   (hits refresh mtime) down to a byte budget.
//! * **One read-through.** Every stored artifact (universes, `nmin`
//!   vectors, Procedure-1 estimates, generated sets, expanded models)
//!   is read with [`read_through`]: an entry its `accept` check takes is
//!   loaded, anything else is built and saved best effort, and the
//!   caller learns which ([`Origin`]).
//!
//! # Example
//!
//! ```
//! use ndetect_store::{
//!     decode_from_slice, encode_to_vec, fnv1a64, read_through, ArtifactKey, Origin, Store,
//! };
//!
//! # fn main() -> std::io::Result<()> {
//! let dir = std::env::temp_dir().join(format!("ndetect-store-doc-{}", std::process::id()));
//! let store = Store::open(&dir)?;
//! let key = ArtifactKey(fnv1a64(b"canonical inputs"));
//! let accept = |payload: &[u8]| decode_from_slice::<Vec<u64>>(payload).ok();
//! let build = || Ok::<_, std::io::Error>(vec![1u64, 2, 3]);
//! let get = || read_through(Some(&store), key, 1, accept, build, encode_to_vec);
//! assert_eq!(get()?, (vec![1, 2, 3], Origin::Built));
//! assert_eq!(get()?, (vec![1, 2, 3], Origin::Loaded));
//! # std::fs::remove_dir_all(&dir)?;
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod codec;
mod hash;
mod store;

pub use codec::{
    decode_from_slice, encode_to_vec, CodecError, Decode, Decoder, Encode, Encoder, CODEC_VERSION,
};
pub use hash::{fnv1a64, ArtifactKey, Fnv64};
pub use store::{
    read_through, ArtifactKind, GcReport, Origin, RepairReport, Store, StoreStats, VerifyReport,
};
