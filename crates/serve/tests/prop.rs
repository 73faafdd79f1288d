//! Property tests for the request parser: a server that panics on a
//! malformed line hands any client a remote crash, so `Request::parse`
//! must map every possible input to `Ok` or a structured `err parse`.
//! Likewise the client's `read_reply` must turn any reply bytes into a
//! reply or an error.

use ndetect_serve::{read_reply, Request};
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

    #[test]
    fn read_reply_never_panics_on_arbitrary_replies(
        pick in any::<u64>(),
        count in any::<u64>(),
        raw in prop::collection::vec(any::<u8>(), 0..256),
    ) {
        // Arbitrary bytes, alone or behind a frame header whose count
        // may claim anything up to u64::MAX bytes.
        let count = if pick & 4 == 0 { count } else { count % 300 };
        let mut wire = match pick % 3 {
            0 => Vec::new(),
            1 => format!("ok {count}\n").into_bytes(),
            _ => format!("row {count}\n").into_bytes(),
        };
        wire.extend_from_slice(&raw);
        let _ = read_reply(&mut std::io::BufReader::new(wire.as_slice()));
    }
}
