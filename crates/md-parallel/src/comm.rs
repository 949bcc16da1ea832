//! CRC framing of ghost payloads.
//!
//! A ghost payload travels as a tag, the length-prefixed bytes and a CRC-32
//! trailer over everything before it (via [`md_core::wire`]), so any single
//! damaged byte or a truncation is caught on arrival.

use md_core::wire::{crc32, Reader, Writer};
use md_core::CoreError;

/// Magic tag framing a ghost payload on the wire.
const GHOST_FRAME_TAG: u32 = 0x4d44_4746; // "MDGF"

/// Frames a ghost payload for the wire: tag, length-prefixed bytes, CRC-32
/// trailer over everything before it.
pub fn frame_ghost_payload(payload: &[u8]) -> Vec<u8> {
    let mut w = Writer::new();
    w.u32(GHOST_FRAME_TAG);
    w.blob(payload);
    let crc = crc32(w.bytes());
    w.u32(crc);
    w.into_bytes()
}

/// Verifies a framed ghost payload and returns the payload bytes.
///
/// # Errors
///
/// Returns [`CoreError::CorruptState`] when the frame is truncated, the
/// tag is wrong, or the CRC-32 trailer disagrees with the content.
pub fn verify_ghost_payload(frame: &[u8]) -> Result<Vec<u8>, CoreError> {
    let corrupt = |why: &'static str| CoreError::CorruptState {
        what: "ghost payload frame",
        detail: why.to_string(),
    };
    if frame.len() < 4 {
        return Err(corrupt("frame shorter than its CRC trailer"));
    }
    let (body, trailer) = frame.split_at(frame.len() - 4);
    let stored = u32::from_le_bytes(trailer.try_into().expect("4-byte trailer"));
    if crc32(body) != stored {
        return Err(corrupt("CRC-32 mismatch"));
    }
    let mut r = Reader::new(body, "ghost payload frame");
    if r.u32()? != GHOST_FRAME_TAG {
        return Err(corrupt("bad frame tag"));
    }
    let payload = r.blob()?.to_vec();
    r.expect_exhausted()?;
    Ok(payload)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn payload() -> Vec<u8> {
        (0..=255u8).step_by(7).collect()
    }

    #[test]
    fn frame_round_trips() {
        let frame = frame_ghost_payload(&payload());
        assert_eq!(verify_ghost_payload(&frame).unwrap(), payload());
    }

    #[test]
    fn any_corruption_is_detected() {
        let frame = frame_ghost_payload(&payload());
        for i in 0..frame.len() {
            let mut bad = frame.clone();
            bad[i] ^= 0x40;
            assert!(verify_ghost_payload(&bad).is_err(), "byte {i} undetected");
        }
        assert!(verify_ghost_payload(&frame[..3]).is_err(), "truncated");
    }
}
