//! Communication health: per-exchange classification, CRC framing of ghost
//! payloads, and the deterministic retry/backoff policy.
//!
//! The virtual cluster's halo exchanges and allreduces are classified
//! against a per-exchange deadline ([`CommPolicy::timeout_seconds`]) and a
//! CRC-32 integrity check of the framed ghost payload (via
//! [`md_core::wire`]). Anything that is not [`CommStatus::Ok`] surfaces as
//! a typed [`CommHealthEvent`] and a `comm_*` counter, and is retried under
//! a seeded, capped exponential backoff — a pure function of
//! `(seed, rank, step, attempt)`, so a faulted run is bitwise reproducible
//! given the same fault plan.
//!
//! This is the detection half of the self-healing story: exhausting a
//! rank's retry budget marks the peer failed, and the resilience layer
//! (md-resilience) answers with a degraded-mode shrink over N−1 ranks.

use md_core::wire::{crc32, Reader, Writer};
use md_core::CoreError;

/// Classification of one communication exchange on one rank.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommStatus {
    /// Payload arrived within the deadline and passed the CRC check.
    Ok,
    /// The peer did not answer within [`CommPolicy::timeout_seconds`].
    TimedOut,
    /// The framed payload failed its CRC-32 integrity check.
    Corrupt,
}

impl CommStatus {
    /// Lowercase label for reports.
    pub fn label(self) -> &'static str {
        match self {
            CommStatus::Ok => "ok",
            CommStatus::TimedOut => "timed-out",
            CommStatus::Corrupt => "corrupt",
        }
    }
}

/// Which collective the event classifies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommExchange {
    /// Paired `MPI_Sendrecv` halo exchange.
    Halo,
    /// Butterfly `MPI_Allreduce`.
    Allreduce,
}

impl CommExchange {
    /// Lowercase label for reports.
    pub fn label(self) -> &'static str {
        match self {
            CommExchange::Halo => "halo",
            CommExchange::Allreduce => "allreduce",
        }
    }
}

/// One classified unhealthy exchange (healthy exchanges only bump the
/// `comm_exchange_ok` counter; materializing an event per rank per step
/// would swamp the run).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CommHealthEvent {
    /// Timestep the exchange belonged to.
    pub step: u64,
    /// Rank that observed the problem.
    pub rank: usize,
    /// Peer the problem was attributed to, when identifiable (the crashed
    /// or corrupting rank).
    pub peer: Option<usize>,
    /// Which collective failed.
    pub exchange: CommExchange,
    /// How the exchange was classified.
    pub status: CommStatus,
    /// Retries spent on this exchange.
    pub attempts: u32,
    /// Extra simulated seconds the rank lost to deadline waits, backoff,
    /// and retransmission.
    pub seconds_lost: f64,
    /// Whether a retry eventually succeeded (`false` means the retry
    /// budget was exhausted and the peer was declared failed).
    pub recovered: bool,
}

/// Deterministic retry policy: per-exchange deadline, per-rank retry
/// budget, and a seeded, capped exponential backoff.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CommPolicy {
    /// Per-exchange deadline, seconds. An exchange whose peer has not
    /// answered by then is classified [`CommStatus::TimedOut`].
    pub timeout_seconds: f64,
    /// Retries one rank may spend across the whole run before a
    /// still-failing peer is declared failed.
    pub max_rank_retries: u32,
    /// First backoff interval, seconds.
    pub backoff_base: f64,
    /// Ceiling on a single backoff interval, seconds.
    pub backoff_cap: f64,
    /// Seed folded into the backoff jitter stream.
    pub seed: u64,
}

impl Default for CommPolicy {
    fn default() -> Self {
        CommPolicy {
            timeout_seconds: 0.05,
            max_rank_retries: 3,
            backoff_base: 1e-3,
            backoff_cap: 1.6e-2,
            seed: 0,
        }
    }
}

impl CommPolicy {
    /// The backoff before retry `attempt` (1-based) of rank `rank` at
    /// `step`: capped exponential `base · 2^(attempt−1)`, jittered ±50% by
    /// a splitmix64 stream of `(seed, rank, step, attempt)`. Pure and
    /// total, so identical inputs reproduce identical simulated clocks.
    pub fn backoff_seconds(&self, rank: usize, step: u64, attempt: u32) -> f64 {
        let exp = self.backoff_base * f64::from(1u32 << (attempt.saturating_sub(1)).min(20));
        let capped = exp.min(self.backoff_cap);
        let mut z = self
            .seed
            .wrapping_mul(0x9e3779b97f4a7c15)
            .wrapping_add((rank as u64).wrapping_mul(0xbf58476d1ce4e5b9))
            .wrapping_add(step.wrapping_mul(0x94d049bb133111eb))
            .wrapping_add(u64::from(attempt));
        z ^= z >> 30;
        z = z.wrapping_mul(0xbf58476d1ce4e5b9);
        z ^= z >> 27;
        z = z.wrapping_mul(0x94d049bb133111eb);
        z ^= z >> 31;
        let unit = (z >> 11) as f64 / (1u64 << 53) as f64; // [0, 1)
        capped * (0.5 + unit)
    }
}

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
/// tag is wrong, or the CRC-32 trailer disagrees with the content — the
/// detection path behind [`CommStatus::Corrupt`].
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

/// Builds the deterministic synthetic ghost digest the virtual cluster
/// frames and CRC-checks on every policed halo exchange: the model has no
/// real ghost bytes, so a fixed-size digest of `(rank, step, volume)`
/// stands in for them. Small by construction so the detection hook stays
/// within the comm-overhead budget.
pub fn ghost_digest(rank: usize, step: u64, bytes: f64) -> Vec<u8> {
    let mut w = Writer::new();
    w.usize(rank);
    w.u64(step);
    w.f64(bytes);
    w.into_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_round_trips() {
        let payload = ghost_digest(3, 41, 1.5e4);
        let frame = frame_ghost_payload(&payload);
        assert_eq!(verify_ghost_payload(&frame).unwrap(), payload);
    }

    #[test]
    fn any_corruption_is_detected() {
        let frame = frame_ghost_payload(&ghost_digest(1, 7, 640.0));
        for i in 0..frame.len() {
            let mut bad = frame.clone();
            bad[i] ^= 0x40;
            assert!(verify_ghost_payload(&bad).is_err(), "byte {i} undetected");
        }
        assert!(verify_ghost_payload(&frame[..3]).is_err(), "truncated");
    }

    #[test]
    fn backoff_is_deterministic_capped_and_growing() {
        let p = CommPolicy {
            seed: 2022,
            ..CommPolicy::default()
        };
        let a = p.backoff_seconds(3, 50, 1);
        assert_eq!(a, p.backoff_seconds(3, 50, 1), "pure function");
        assert_ne!(a, p.backoff_seconds(4, 50, 1), "rank enters the stream");
        assert_ne!(a, p.backoff_seconds(3, 51, 1), "step enters the stream");
        for attempt in 1..=12 {
            let b = p.backoff_seconds(0, 0, attempt);
            assert!(
                b > 0.0 && b <= 1.5 * p.backoff_cap,
                "attempt {attempt}: {b}"
            );
        }
        // The exponential envelope grows until the cap bites.
        assert!(p.backoff_seconds(0, 0, 4) > p.backoff_seconds(0, 0, 1) / 2.0);
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(CommStatus::TimedOut.label(), "timed-out");
        assert_eq!(CommStatus::Corrupt.label(), "corrupt");
        assert_eq!(CommExchange::Halo.label(), "halo");
        assert_eq!(CommExchange::Allreduce.label(), "allreduce");
    }
}
