//! An oracle for `Checkpoint::decode`, in the style of md-parallel's
//! `comm_property.rs`: the CRC-framed file format must round-trip any header
//! and payload, and reject every truncation and every single-byte change —
//! exhaustively, over every position of files small enough to afford it
//! (`decode` never looks inside the state blob, so a synthetic payload
//! exercises the same code as a 3 MB deck state).

use md_core::wire::{crc32, Writer};
use md_core::{KernelPath, Threads};
use md_resilience::checkpoint::{MAGIC, VERSION};
use md_resilience::{Checkpoint, CheckpointHeader};
use md_workloads::Benchmark;
use proptest::prelude::*;

fn checkpoint(
    (benchmark, lanes, deterministic): (usize, bool, bool),
    (scale, threads): (usize, usize),
    (seed, sort_every, step): (u64, u64, u64),
    state: Vec<u8>,
) -> Checkpoint {
    Checkpoint {
        header: CheckpointHeader {
            benchmark: Benchmark::ALL[benchmark % Benchmark::ALL.len()],
            scale,
            seed,
            threads: Threads {
                count: threads,
                deterministic,
            },
            kernel: if lanes {
                KernelPath::Lanes
            } else {
                KernelPath::Scalar
            },
            sort_every,
            step,
        },
        state,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Encoding then decoding returns the header and the payload.
    #[test]
    fn checkpoint_round_trips(
        kind in (0usize..5, proptest::bool::ANY, proptest::bool::ANY),
        size in (1usize..64, 1usize..64),
        counters in (0u64..u64::MAX, 0u64..1000, 0u64..u64::MAX),
        state in proptest::collection::vec(0u8..=255, 0..512),
    ) {
        let ckpt = checkpoint(kind, size, counters, state);
        let back = Checkpoint::decode(&ckpt.encode()).expect("clean file decodes");
        prop_assert_eq!(back.header, ckpt.header);
        prop_assert_eq!(back.state, ckpt.state);
    }

    /// Cutting the file anywhere is detected.
    #[test]
    fn every_truncation_is_rejected(
        kind in (0usize..5, proptest::bool::ANY, proptest::bool::ANY),
        state in proptest::collection::vec(0u8..=255, 0..256),
    ) {
        let good = checkpoint(kind, (1, 2), (7, 20, 40), state).encode();
        for cut in 0..good.len() {
            prop_assert!(Checkpoint::decode(&good[..cut]).is_err(), "cut to {} bytes", cut);
        }
    }

    /// Changing any one byte — magic, version, header, payload or CRC
    /// trailer — to any other value is detected.
    #[test]
    fn every_single_byte_flip_is_rejected(
        kind in (0usize..5, proptest::bool::ANY, proptest::bool::ANY),
        state in proptest::collection::vec(0u8..=255, 0..256),
        flip in 1u8..=255,
    ) {
        let good = checkpoint(kind, (1, 2), (7, 20, 40), state).encode();
        let mut bad = good.clone();
        for pos in 0..good.len() {
            bad[pos] ^= flip;
            prop_assert!(Checkpoint::decode(&bad).is_err(), "byte {} ^ {:#04x}", pos, flip);
            bad[pos] = good[pos];
        }
    }
}

/// A file of the previous revision — rows in the state blob, threads the
/// only tuning in the header — carries a valid CRC, so the version field is
/// all that keeps its header from being read as this revision's. It must be
/// refused by name.
#[test]
fn a_revision_1_file_is_refused_by_its_version() {
    assert_eq!(VERSION, 2, "write the next revision's refusal test");
    let mut body = Writer::new();
    body.u32(1);
    body.str("lj");
    body.usize(1); // scale
    body.u64(2022); // seed
    body.usize(4); // threads
    body.bool(true); // deterministic
    body.u64(15); // step
    body.blob(&[0xAB; 200]);
    let body = body.into_bytes();
    let mut file = MAGIC.to_vec();
    file.extend_from_slice(&body);
    file.extend_from_slice(&crc32(&body).to_le_bytes());

    let err = Checkpoint::decode(&file).expect_err("revision 1 is refused");
    let message = err.to_string();
    assert!(
        message.contains("unsupported format version 1 (this build reads 2)"),
        "{message}"
    );
}
