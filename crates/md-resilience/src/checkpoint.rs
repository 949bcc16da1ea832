//! Versioned, checksummed checkpoint files with atomic writes.
//!
//! ## File format (`.mdchk`)
//!
//! ```text
//! magic     8 bytes   "VRLCHKP\0"
//! body      wire-encoded:
//!   version   u32     format revision (currently 4)
//!   header            deck recipe: benchmark name, scale, seed, thread
//!                     count, kernel path, sort cadence, step index
//!   state     blob    Simulation::save_state payload
//! crc       u32-le    CRC-32 (IEEE) over the body
//! ```
//!
//! Everything after the magic is little-endian via [`md_core::wire`]. The
//! file stores what a restore cannot recompute, and nothing else. The header
//! is the *recipe*, not the static data: restore rebuilds the deck from
//! `(benchmark, scale, seed)` and the tuning the run used (threads, kernel
//! path, sort cadence) — which regenerates topology, masses, charges, and
//! force-field parameters bit-for-bit — and then overlays the dynamic state
//! blob. The blob in turn holds no neighbor rows, only the positions and
//! the box of the last build, from which the overlay rebuilds the list
//! (revision 1 stored the rows, 58–93 % of a file, and of the tuning only
//! the threads; revision 2 stored a deterministic-mode flag after the thread
//! count; revision 3's state blob lacked the list's age and dangerous-build
//! count; a file of any of them is refused by its version). Files are
//! written to
//! a `.tmp` sibling, fsynced, and renamed into place, so a crash mid-write
//! never corrupts the latest good checkpoint.

use crate::{ResilienceError, Result};
use md_core::wire::{self, Reader, Writer};
use md_core::{CoreError, KernelPath, Threads};
use md_workloads::{build_deck_tuned, Benchmark, Deck, DeckTuning};
use std::fs;
use std::path::{Path, PathBuf};

/// File magic ("VeRLette CHecKPoint").
pub const MAGIC: &[u8; 8] = b"VRLCHKP\0";

/// Current format revision.
pub const VERSION: u32 = 4;

/// Filename extension for checkpoint files.
pub const EXTENSION: &str = "mdchk";

/// The deck recipe + step index stored in every checkpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointHeader {
    /// Benchmark identity.
    pub benchmark: Benchmark,
    /// Replication factor.
    pub scale: usize,
    /// Deck construction seed.
    pub seed: u64,
    /// Thread-team configuration the run used.
    pub threads: Threads,
    /// Pair-kernel path the run used.
    pub kernel: KernelPath,
    /// Morton-sort cadence the run used (0 = never).
    pub sort_every: u64,
    /// Step index the state was captured at.
    pub step: u64,
}

impl CheckpointHeader {
    /// Captures the recipe of `deck` at its current step. The tuning is what
    /// its simulation runs with, after the builder's fallbacks (a style
    /// without a lanes kernel runs scalar, one that cannot reorder never
    /// sorts), not what was asked for.
    pub fn of(deck: &Deck, seed: u64) -> Self {
        let sim = &deck.simulation;
        CheckpointHeader {
            benchmark: deck.benchmark,
            scale: deck.scale,
            seed,
            threads: sim.threads(),
            kernel: sim.kernel_path(),
            sort_every: sim.sort_every(),
            step: sim.step_index(),
        }
    }

    /// The tuning a restore builds the deck with.
    pub fn tuning(&self) -> DeckTuning {
        DeckTuning {
            threads: self.threads,
            kernel: self.kernel,
            sort_every: self.sort_every,
        }
    }

    fn write(&self, w: &mut Writer) {
        w.str(self.benchmark.name());
        w.usize(self.scale);
        w.u64(self.seed);
        w.usize(self.threads.count);
        w.str(&self.kernel.to_string());
        w.u64(self.sort_every);
        w.u64(self.step);
    }

    fn read(r: &mut Reader<'_>) -> Result<Self> {
        let unknown = |what: &str, name: &str| {
            ResilienceError::Core(CoreError::CorruptState {
                what: "checkpoint",
                detail: format!("unknown {what} `{name}`"),
            })
        };
        let name = r.str()?;
        let benchmark = Benchmark::parse(&name).map_err(|_| unknown("benchmark", &name))?;
        let scale = r.usize()?;
        let seed = r.u64()?;
        let threads = Threads { count: r.usize()? };
        let name = r.str()?;
        let kernel = KernelPath::parse(&name).ok_or_else(|| unknown("kernel path", &name))?;
        Ok(CheckpointHeader {
            benchmark,
            scale,
            seed,
            threads,
            kernel,
            sort_every: r.u64()?,
            step: r.u64()?,
        })
    }
}

/// A decoded checkpoint: recipe plus the opaque dynamic-state blob.
#[derive(Debug, Clone)]
pub struct Checkpoint {
    /// Deck recipe and capture step.
    pub header: CheckpointHeader,
    /// [`Simulation::save_state`] payload.
    pub state: Vec<u8>,
}

impl Checkpoint {
    /// Captures `deck`'s current state under its recipe.
    pub fn capture(deck: &Deck, seed: u64) -> Self {
        Checkpoint {
            header: CheckpointHeader::of(deck, seed),
            state: deck.simulation.save_state(),
        }
    }

    /// Encodes the checkpoint into the on-disk byte format.
    pub fn encode(&self) -> Vec<u8> {
        let mut body = Writer::new();
        body.u32(VERSION);
        self.header.write(&mut body);
        body.blob(&self.state);
        let body = body.into_bytes();
        let mut out = Vec::with_capacity(MAGIC.len() + body.len() + 4);
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&body);
        out.extend_from_slice(&wire::crc32(&body).to_le_bytes());
        out
    }

    /// Decodes and integrity-checks the on-disk byte format.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::CorruptState`] (wrapped) on a bad magic,
    /// unsupported version, checksum mismatch, truncation, or trailing
    /// bytes.
    pub fn decode(bytes: &[u8]) -> Result<Self> {
        let corrupt = |detail: String| {
            ResilienceError::Core(CoreError::CorruptState {
                what: "checkpoint",
                detail,
            })
        };
        if bytes.len() < MAGIC.len() + 4 {
            return Err(corrupt(format!("file too short ({} bytes)", bytes.len())));
        }
        let (magic, rest) = bytes.split_at(MAGIC.len());
        if magic != MAGIC {
            return Err(corrupt("bad magic; not a verlette checkpoint".to_string()));
        }
        let (body, crc_bytes) = rest.split_at(rest.len() - 4);
        let stored = u32::from_le_bytes(crc_bytes.try_into().expect("4 bytes"));
        let actual = wire::crc32(body);
        if stored != actual {
            return Err(corrupt(format!(
                "checksum mismatch: stored {stored:#010x}, computed {actual:#010x}"
            )));
        }
        let mut r = Reader::new(body, "checkpoint");
        let version = r.u32()?;
        if version != VERSION {
            return Err(corrupt(format!(
                "unsupported format version {version} (this build reads {VERSION})"
            )));
        }
        let header = CheckpointHeader::read(&mut r)?;
        let state = r.blob()?.to_vec();
        r.expect_exhausted()?;
        Ok(Checkpoint { header, state })
    }

    /// Writes the checkpoint atomically: encode to `<path>.tmp`, fsync,
    /// rename over `path`.
    ///
    /// # Errors
    ///
    /// Returns [`ResilienceError::Io`] on filesystem failures.
    pub fn write_to(&self, path: &Path) -> Result<()> {
        let io = |source| ResilienceError::Io {
            path: path.to_path_buf(),
            source,
        };
        let tmp = path.with_extension(format!("{EXTENSION}.tmp"));
        {
            use std::io::Write as _;
            let mut f = fs::File::create(&tmp).map_err(io)?;
            f.write_all(&self.encode()).map_err(io)?;
            f.sync_all().map_err(io)?;
        }
        fs::rename(&tmp, path).map_err(io)
    }

    /// Reads and decodes a checkpoint file.
    ///
    /// # Errors
    ///
    /// Returns [`ResilienceError::Io`] on read failures and
    /// [`CoreError::CorruptState`] (wrapped) on format violations.
    pub fn read_from(path: &Path) -> Result<Self> {
        let bytes = fs::read(path).map_err(|source| ResilienceError::Io {
            path: path.to_path_buf(),
            source,
        })?;
        Checkpoint::decode(&bytes)
    }

    /// Rebuilds the deck from the stored recipe — no environment variable
    /// has a say — and overlays the dynamic state, yielding a simulation that
    /// continues bitwise-identically to the checkpointed run.
    ///
    /// # Errors
    ///
    /// Propagates deck-construction failures and state-blob corruption.
    pub fn restore(&self) -> Result<Deck> {
        let h = &self.header;
        let mut deck = build_deck_tuned(h.benchmark, h.scale, h.seed, h.tuning())?;
        deck.simulation.load_state(&self.state)?;
        Ok(deck)
    }
}

/// Cadence + retention policy over a checkpoint directory.
#[derive(Debug, Clone)]
pub struct CheckpointManager {
    dir: PathBuf,
    every: u64,
    retain: usize,
}

impl CheckpointManager {
    /// Creates the manager, creating `dir` if needed. `every` is the step
    /// cadence (0 disables periodic saves); `retain` keeps the newest K
    /// files (0 keeps everything).
    ///
    /// # Errors
    ///
    /// Returns [`ResilienceError::Io`] if the directory cannot be created.
    pub fn new(dir: impl Into<PathBuf>, every: u64, retain: usize) -> Result<Self> {
        let dir = dir.into();
        fs::create_dir_all(&dir).map_err(|source| ResilienceError::Io {
            path: dir.clone(),
            source,
        })?;
        Ok(CheckpointManager { dir, every, retain })
    }

    /// Step cadence (0 = disabled).
    pub fn every(&self) -> u64 {
        self.every
    }

    /// The checkpoint path for `step`.
    pub fn path_for(&self, step: u64) -> PathBuf {
        self.dir.join(format!("ckpt_{step:010}.{EXTENSION}"))
    }

    /// Whether the cadence fires at `step`.
    pub fn due(&self, step: u64) -> bool {
        self.every > 0 && step > 0 && step.is_multiple_of(self.every)
    }

    /// Saves `deck` at its current step and prunes old files per the
    /// retention policy. Returns the path written.
    ///
    /// # Errors
    ///
    /// Returns [`ResilienceError::Io`] on filesystem failures.
    pub fn save(&self, deck: &Deck, seed: u64) -> Result<PathBuf> {
        let ckpt = Checkpoint::capture(deck, seed);
        let path = self.path_for(ckpt.header.step);
        ckpt.write_to(&path)?;
        self.prune()?;
        Ok(path)
    }

    /// The newest checkpoint in the directory, if any (by step index, which
    /// the zero-padded filenames make lexicographic).
    ///
    /// # Errors
    ///
    /// Returns [`ResilienceError::Io`] if the directory cannot be listed.
    pub fn latest(&self) -> Result<Option<PathBuf>> {
        Ok(self.list()?.into_iter().next_back())
    }

    /// All checkpoint files, oldest first.
    fn list(&self) -> Result<Vec<PathBuf>> {
        let entries = fs::read_dir(&self.dir).map_err(|source| ResilienceError::Io {
            path: self.dir.clone(),
            source,
        })?;
        let mut files: Vec<PathBuf> = entries
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| {
                p.extension().is_some_and(|e| e == EXTENSION)
                    && p.file_name()
                        .and_then(|n| n.to_str())
                        .is_some_and(|n| n.starts_with("ckpt_"))
            })
            .collect();
        files.sort();
        Ok(files)
    }

    fn prune(&self) -> Result<()> {
        if self.retain == 0 {
            return Ok(());
        }
        let files = self.list()?;
        if files.len() > self.retain {
            for old in &files[..files.len() - self.retain] {
                fs::remove_file(old).map_err(|source| ResilienceError::Io {
                    path: old.clone(),
                    source,
                })?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use md_workloads::build_deck_with;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("mdchk_test_{tag}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn encode_decode_round_trips() {
        let mut deck = build_deck_with(Benchmark::Lj, 1, 7, Threads::serial()).unwrap();
        deck.simulation.run(5).unwrap();
        let ckpt = Checkpoint::capture(&deck, 7);
        let decoded = Checkpoint::decode(&ckpt.encode()).unwrap();
        assert_eq!(decoded.header, ckpt.header);
        assert_eq!(decoded.state, ckpt.state);
        assert_eq!(decoded.header.step, 5);
    }

    #[test]
    fn corruption_is_detected() {
        let deck = build_deck_with(Benchmark::Lj, 1, 7, Threads::serial()).unwrap();
        let good = Checkpoint::capture(&deck, 7).encode();
        // Flip one payload bit: checksum must catch it.
        let mut bad = good.clone();
        let mid = bad.len() / 2;
        bad[mid] ^= 0x10;
        assert!(Checkpoint::decode(&bad).is_err());
        // Truncation at any point must fail, never panic.
        for cut in [0, 4, MAGIC.len(), MAGIC.len() + 3, good.len() - 1] {
            assert!(Checkpoint::decode(&good[..cut]).is_err(), "cut {cut}");
        }
        // Bad magic.
        let mut bad = good.clone();
        bad[0] ^= 0xff;
        assert!(Checkpoint::decode(&bad).is_err());
        // Trailing garbage (checksum shifts).
        let mut bad = good;
        bad.push(0);
        assert!(Checkpoint::decode(&bad).is_err());
    }

    #[test]
    fn manager_prunes_and_finds_latest() {
        let dir = tmpdir("prune");
        let mgr = CheckpointManager::new(&dir, 2, 2).unwrap();
        assert!(mgr.latest().unwrap().is_none());
        let mut deck = build_deck_with(Benchmark::Lj, 1, 7, Threads::serial()).unwrap();
        for _ in 0..3 {
            deck.simulation.run(2).unwrap();
            assert!(mgr.due(deck.simulation.step_index()));
            mgr.save(&deck, 7).unwrap();
        }
        let files = mgr.list().unwrap();
        assert_eq!(files.len(), 2, "retention keeps the newest 2");
        assert_eq!(mgr.latest().unwrap().unwrap(), mgr.path_for(6));
        assert!(!mgr.due(3));
        assert!(!mgr.due(0));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn atomic_write_leaves_no_tmp_behind() {
        let dir = tmpdir("atomic");
        let mgr = CheckpointManager::new(&dir, 1, 0).unwrap();
        let mut deck = build_deck_with(Benchmark::Lj, 1, 7, Threads::serial()).unwrap();
        deck.simulation.run(1).unwrap();
        let path = mgr.save(&deck, 7).unwrap();
        assert!(path.exists());
        let leftovers: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.path().to_string_lossy().ends_with(".tmp"))
            .collect();
        assert!(leftovers.is_empty());
        let restored = Checkpoint::read_from(&path).unwrap();
        assert_eq!(restored.header.step, 1);
        let _ = fs::remove_dir_all(&dir);
    }
}
