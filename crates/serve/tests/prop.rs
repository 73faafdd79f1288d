//! Property tests for the request parser: a server that panics on a
//! malformed line hands any client a remote crash, so `Request::parse`
//! must map every possible input to `Ok` or a structured `err parse`.

use ndetect_serve::Request;
use proptest::prelude::*;

proptest! {
    #[test]
    fn request_parse_never_panics_on_arbitrary_bytes(
        raw in prop::collection::vec(any::<u8>(), 0..256),
    ) {
        let line = String::from_utf8_lossy(&raw);
        if let Err(error) = Request::parse(&line) {
            prop_assert_eq!(error.code, "parse");
        }
    }

    #[test]
    fn request_parse_never_panics_on_mangled_valid_lines(
        pick in any::<u64>(),
        flip in any::<u64>(),
        extra in prop::collection::vec(any::<u8>(), 0..24),
    ) {
        // Corrupt real request lines: bit flips and random suffixes are
        // what half-closed sockets and buggy clients actually send.
        const VALID: &[&str] = &[
            "ping",
            "worst figure1 floor=2",
            "gen figure1 n=3 compact seed=7",
            "corpus /tmp/x format=json recursive",
            "stats c17 threads=2 model=stuck-at",
            "chaos set store.save.write=one-shot@2:torn-write",
        ];
        let mut bytes = VALID[(pick as usize) % VALID.len()].as_bytes().to_vec();
        let pos = (flip as usize) % bytes.len();
        bytes[pos] ^= 1 << (flip % 8);
        bytes.extend_from_slice(&extra);
        let line = String::from_utf8_lossy(&bytes);
        let _ = Request::parse(&line);
    }
}
