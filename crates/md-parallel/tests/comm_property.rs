//! Property-based tests for ghost-payload framing: it must round-trip
//! arbitrary payloads and reject every single-byte corruption and every
//! truncation.

use md_core::wire::crc32;
use md_parallel::{frame_ghost_payload, verify_ghost_payload};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Framing then verifying returns the original payload bytes.
    #[test]
    fn ghost_frame_round_trips(payload in proptest::collection::vec(0u8..=255, 0..512)) {
        let frame = frame_ghost_payload(&payload);
        let back = verify_ghost_payload(&frame).expect("clean frame verifies");
        prop_assert_eq!(back, payload);
    }

    /// Flipping any single byte of the frame — tag, payload, or CRC
    /// trailer — is detected.
    #[test]
    fn any_single_byte_flip_is_detected(
        payload in proptest::collection::vec(0u8..=255, 1..256),
        pos_seed in 0usize..1_000_000,
        flip in 1u8..=255,
    ) {
        let mut frame = frame_ghost_payload(&payload);
        let pos = pos_seed % frame.len();
        frame[pos] ^= flip;
        prop_assert!(
            verify_ghost_payload(&frame).is_err(),
            "flip of byte {} survived verification",
            pos
        );
    }

    /// Truncating the frame anywhere is detected.
    #[test]
    fn truncation_is_detected(
        payload in proptest::collection::vec(0u8..=255, 0..128),
        cut_seed in 0usize..1_000_000,
    ) {
        let frame = frame_ghost_payload(&payload);
        let cut = cut_seed % frame.len();
        prop_assert!(verify_ghost_payload(&frame[..cut]).is_err());
    }

    /// The CRC the frame carries is the standard CRC-32 of everything
    /// before the trailer, so independent implementations interoperate.
    #[test]
    fn frame_trailer_is_plain_crc32(payload in proptest::collection::vec(0u8..=255, 0..64)) {
        let frame = frame_ghost_payload(&payload);
        let (body, trailer) = frame.split_at(frame.len() - 4);
        let stored = u32::from_le_bytes(trailer.try_into().unwrap());
        prop_assert_eq!(stored, crc32(body));
    }
}
