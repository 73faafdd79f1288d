//! Content addressing: a stable 64-bit FNV-1a hasher and the resulting
//! artifact keys.
//!
//! `std::hash` is deliberately not used — `DefaultHasher` is documented
//! to be unstable across releases, whereas cache keys must be stable
//! across processes, builds, and toolchains. FNV-1a over the canonical
//! input bytes is simple, fast, and fully specified.

use std::fmt;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// An incremental 64-bit FNV-1a hasher.
///
/// ```
/// use ndetect_store::Fnv64;
/// let mut h = Fnv64::new();
/// h.update(b"hello");
/// // Reference FNV-1a value for "hello".
/// assert_eq!(h.finish(), 0xa430_d846_80aa_bd0b);
/// ```
#[derive(Clone, Debug)]
pub struct Fnv64 {
    state: u64,
}

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64::new()
    }
}

impl Fnv64 {
    /// Creates a hasher in the standard FNV-1a initial state.
    #[must_use]
    pub fn new() -> Self {
        Fnv64 { state: FNV_OFFSET }
    }

    /// Absorbs bytes.
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= u64::from(b);
            self.state = self.state.wrapping_mul(FNV_PRIME);
        }
    }

    /// Absorbs a little-endian `u64` (convenience for length/version
    /// fields).
    pub fn update_u64(&mut self, v: u64) {
        self.update(&v.to_le_bytes());
    }

    /// The current hash value.
    #[must_use]
    pub fn finish(&self) -> u64 {
        self.state
    }
}

/// Hashes a byte slice in one call.
#[must_use]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = Fnv64::new();
    h.update(bytes);
    h.finish()
}

/// A content-addressed artifact key: the 64-bit hash of the canonical
/// inputs an artifact was derived from (e.g. canonical netlist bytes +
/// universe options + codec version).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct ArtifactKey(pub u64);

impl ArtifactKey {
    /// The fixed-width lowercase-hex form used in file names.
    #[must_use]
    pub fn to_hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

impl fmt::Display for ArtifactKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_hex())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn incremental_equals_oneshot() {
        let mut h = Fnv64::new();
        h.update(b"foo");
        h.update(b"bar");
        assert_eq!(h.finish(), fnv1a64(b"foobar"));
    }

    #[test]
    fn hex_round_trips() {
        let key = ArtifactKey(0x0123_4567_89ab_cdef);
        assert_eq!(key.to_hex(), "0123456789abcdef");
        assert_eq!(u64::from_str_radix(&key.to_hex(), 16), Ok(key.0));
        assert_eq!(ArtifactKey(0xab).to_hex(), "00000000000000ab");
    }
}
