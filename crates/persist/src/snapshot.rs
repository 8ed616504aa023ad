//! Full-system snapshots: one atomic file capturing, per shard, the
//! device image (contents + wear + fault state, via
//! `e2nvm_sim::snapshot`), the engine's durable state (model weights,
//! retirement, key index, via `e2nvm_core::EngineState`), and the
//! memory controller's translation state (wear-leveling policy,
//! logical→physical remap, quarantined physical slots, via
//! `e2nvm_sim::ControllerState`).
//!
//! Format (little-endian): magic `E2SS`, version, shard count, one
//! [`ShardState`] block per shard, then a CRC-32 trailer over
//! everything before it. Each shard block ends with a presence tag and,
//! behind it, the controller section; a block without one
//! ([`ShardState::controller`] is `None`) stands for a pass-through
//! controller. A file of any other version is
//! [`PersistError::Corrupt`].
//! [`StoreSnapshot::save_atomic`] writes to a
//! temp file, fsyncs, renames over `snapshot.e2s` and fsyncs the
//! directory, so a crash mid-snapshot leaves the previous snapshot
//! intact — and because WAL replay is idempotent (records are
//! full-value upserts/deletes), a crash between the rename and the WAL
//! truncation merely replays ops the new snapshot already contains.

use crate::crc::crc32;
use crate::error::{PersistError, Result};
use e2nvm_core::EngineState;
use e2nvm_sim::{ControllerState, LogicalSegment, PhysicalSegment, WearPolicy};
use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::path::Path;

const MAGIC: &[u8; 4] = b"E2SS";
const VERSION: u16 = 2;
/// Sanity bound on any length field during decode; larger values are
/// treated as corruption, not allocation requests.
const MAX_FIELD: u64 = 1 << 32;

/// Policy tags for the controller section.
const POLICY_NONE: u16 = 0;
const POLICY_START_GAP: u16 = 1;
const POLICY_RANDOM_SWAP: u16 = 2;

/// One shard's persisted state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardState {
    /// Device image (`e2nvm_sim::snapshot::to_image`): contents, wear
    /// counters, fault-model state.
    pub device_image: Vec<u8>,
    /// Engine state: serialized model, retired segments, key index.
    pub state: EngineState,
    /// Controller state: wear-leveling policy, logical→physical remap,
    /// quarantined physical slots. `None` stands for a pass-through
    /// (identity) controller.
    pub controller: Option<ControllerState>,
}

/// A whole store's snapshot: one [`ShardState`] per shard, in shard
/// order (shard routing is derived from the count, so order matters).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreSnapshot {
    /// Per-shard state, index = shard id.
    pub shards: Vec<ShardState>,
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_bytes(buf: &mut Vec<u8>, b: &[u8]) {
    put_u64(buf, b.len() as u64);
    buf.extend_from_slice(b);
}

fn put_controller(buf: &mut Vec<u8>, cs: &ControllerState) {
    let (tag, fields): (u16, Vec<u64>) = match cs.policy {
        WearPolicy::None => (POLICY_NONE, Vec::new()),
        WearPolicy::StartGap { psi, writes, gap } => {
            (POLICY_START_GAP, vec![psi, writes, gap.index() as u64])
        }
        WearPolicy::RandomSwap {
            psi,
            seed,
            writes,
            draws,
        } => (POLICY_RANDOM_SWAP, vec![psi, seed, writes, draws]),
    };
    buf.extend_from_slice(&tag.to_le_bytes());
    for v in fields {
        put_u64(buf, v);
    }
    put_u64(buf, cs.remap.len() as u64);
    for &p in &cs.remap {
        // `usize::MAX` is the unmapped-gap sentinel; widen it to the
        // u64 sentinel so the value survives on any pointer width.
        put_u64(buf, if p == usize::MAX { u64::MAX } else { p as u64 });
    }
    put_u64(buf, cs.retired.len() as u64);
    for &r in &cs.retired {
        buf.push(u8::from(r));
    }
}

struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| PersistError::Corrupt("snapshot truncated".into()))?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }
    fn u16(&mut self) -> Result<u16> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("2")))
    }
    fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }
    fn len(&mut self) -> Result<usize> {
        let v = self.u64()?;
        if v > MAX_FIELD {
            return Err(PersistError::Corrupt(format!(
                "implausible length field {v}"
            )));
        }
        Ok(v as usize)
    }
    fn bytes(&mut self) -> Result<Vec<u8>> {
        let n = self.len()?;
        Ok(self.take(n)?.to_vec())
    }
    fn controller(&mut self) -> Result<ControllerState> {
        let policy = match self.u16()? {
            POLICY_NONE => WearPolicy::None,
            POLICY_START_GAP => WearPolicy::StartGap {
                psi: self.u64()?,
                writes: self.u64()?,
                gap: PhysicalSegment(self.len()?),
            },
            POLICY_RANDOM_SWAP => WearPolicy::RandomSwap {
                psi: self.u64()?,
                seed: self.u64()?,
                writes: self.u64()?,
                draws: self.u64()?,
            },
            other => {
                return Err(PersistError::Corrupt(format!(
                    "unknown wear policy tag {other}"
                )))
            }
        };
        let n = self.len()?;
        let mut remap = Vec::with_capacity(n.min(1 << 20));
        for _ in 0..n {
            let v = self.u64()?;
            remap.push(if v == u64::MAX {
                usize::MAX
            } else if v > MAX_FIELD {
                return Err(PersistError::Corrupt(format!(
                    "implausible remap entry {v}"
                )));
            } else {
                v as usize
            });
        }
        let nr = self.len()?;
        let mut retired = Vec::with_capacity(nr.min(1 << 20));
        for _ in 0..nr {
            retired.push(match self.take(1)?[0] {
                0 => false,
                1 => true,
                b => {
                    return Err(PersistError::Corrupt(format!(
                        "retired flag must be 0 or 1, got {b}"
                    )))
                }
            });
        }
        Ok(ControllerState {
            policy,
            remap,
            retired,
        })
    }
}

impl StoreSnapshot {
    /// Serialize to the `E2SS` byte format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        buf.extend_from_slice(MAGIC);
        buf.extend_from_slice(&VERSION.to_le_bytes());
        put_u64(&mut buf, self.shards.len() as u64);
        for shard in &self.shards {
            put_bytes(&mut buf, &shard.device_image);
            put_bytes(&mut buf, &shard.state.model);
            put_u64(&mut buf, shard.state.retired.len() as u64);
            for seg in &shard.state.retired {
                put_u64(&mut buf, seg.index() as u64);
            }
            put_u64(&mut buf, shard.state.entries.len() as u64);
            for &(key, seg, off, len) in &shard.state.entries {
                put_u64(&mut buf, key);
                put_u64(&mut buf, seg.index() as u64);
                put_u64(&mut buf, off as u64);
                put_u64(&mut buf, len as u64);
            }
            match &shard.controller {
                Some(cs) => {
                    buf.extend_from_slice(&1u16.to_le_bytes());
                    put_controller(&mut buf, cs);
                }
                None => buf.extend_from_slice(&0u16.to_le_bytes()),
            }
        }
        let crc = crc32(&buf);
        buf.extend_from_slice(&crc.to_le_bytes());
        buf
    }

    /// Deserialize, verifying magic, version, structure and the CRC
    /// trailer. Never panics on arbitrary input.
    pub fn from_bytes(buf: &[u8]) -> Result<Self> {
        if buf.len() < 4 {
            return Err(PersistError::Corrupt("snapshot too short".into()));
        }
        let (body, trailer) = buf.split_at(buf.len() - 4);
        let stored = u32::from_le_bytes(trailer.try_into().expect("4"));
        if crc32(body) != stored {
            return Err(PersistError::Corrupt("snapshot checksum mismatch".into()));
        }
        let mut c = Cursor { buf: body, pos: 0 };
        if c.take(4)? != MAGIC {
            return Err(PersistError::Corrupt("not a store snapshot".into()));
        }
        let version = c.u16()?;
        if version != VERSION {
            return Err(PersistError::Corrupt(format!(
                "unsupported snapshot version {version} (this build reads {VERSION})"
            )));
        }
        let shard_count = c.len()?;
        let mut shards = Vec::with_capacity(shard_count.min(1 << 12));
        for _ in 0..shard_count {
            let device_image = c.bytes()?;
            let model = c.bytes()?;
            let n_retired = c.len()?;
            let mut retired = Vec::with_capacity(n_retired.min(1 << 20));
            for _ in 0..n_retired {
                retired.push(LogicalSegment(c.len()?));
            }
            let n_entries = c.len()?;
            let mut entries = Vec::with_capacity(n_entries.min(1 << 20));
            for _ in 0..n_entries {
                let key = c.u64()?;
                let seg = LogicalSegment(c.len()?);
                let off = c.len()?;
                let len = c.len()?;
                entries.push((key, seg, off, len));
            }
            let controller = match c.u16()? {
                0 => None,
                1 => Some(c.controller()?),
                other => {
                    return Err(PersistError::Corrupt(format!(
                        "controller presence tag must be 0 or 1, got {other}"
                    )))
                }
            };
            shards.push(ShardState {
                device_image,
                state: EngineState {
                    model,
                    retired,
                    entries,
                },
                controller,
            });
        }
        if c.pos != body.len() {
            return Err(PersistError::Corrupt(
                "trailing bytes after snapshot".into(),
            ));
        }
        Ok(Self { shards })
    }

    /// Write the snapshot atomically to `path`: temp file in the same
    /// directory, fsync, rename over the target, fsync the directory.
    /// Returns the bytes written.
    pub fn save_atomic(&self, path: &Path) -> Result<u64> {
        let bytes = self.to_bytes();
        let dir = path.parent().unwrap_or(Path::new("."));
        std::fs::create_dir_all(dir)?;
        let tmp = path.with_extension("e2s.tmp");
        {
            let mut f = File::create(&tmp)?;
            f.write_all(&bytes)?;
            f.sync_all()?;
        }
        std::fs::rename(&tmp, path)?;
        // Persist the rename itself.
        if let Ok(d) = OpenOptions::new().read(true).open(dir) {
            d.sync_all().ok();
        }
        Ok(bytes.len() as u64)
    }

    /// Load a snapshot from `path`; `Ok(None)` when the file does not
    /// exist (fresh start).
    pub fn load(path: &Path) -> Result<Option<Self>> {
        let mut buf = Vec::new();
        match File::open(path) {
            Ok(mut f) => {
                f.read_to_end(&mut buf)?;
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e.into()),
        }
        Self::from_bytes(&buf).map(Some)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> StoreSnapshot {
        StoreSnapshot {
            shards: vec![
                ShardState {
                    device_image: vec![1, 2, 3, 4],
                    state: EngineState {
                        model: vec![9; 17],
                        retired: vec![LogicalSegment(3), LogicalSegment(7)],
                        entries: vec![
                            (42, LogicalSegment(1), 0, 64),
                            (43, LogicalSegment(2), 64, 32),
                        ],
                    },
                    controller: Some(ControllerState {
                        policy: WearPolicy::StartGap {
                            psi: 64,
                            writes: 129,
                            gap: PhysicalSegment(5),
                        },
                        remap: vec![0, 1, 2, 3, 4, 6, 7, 8],
                        retired: vec![false, false, false, true, false, false, false, true, false],
                    }),
                },
                ShardState {
                    device_image: Vec::new(),
                    state: EngineState {
                        model: Vec::new(),
                        retired: Vec::new(),
                        entries: Vec::new(),
                    },
                    controller: None,
                },
                ShardState {
                    device_image: vec![5],
                    state: EngineState {
                        model: Vec::new(),
                        retired: Vec::new(),
                        entries: Vec::new(),
                    },
                    controller: Some(ControllerState {
                        policy: WearPolicy::RandomSwap {
                            psi: 16,
                            seed: 0xE2,
                            writes: 40,
                            draws: 3,
                        },
                        remap: vec![2, 0, 1],
                        retired: vec![false, true, false],
                    }),
                },
            ],
        }
    }

    #[test]
    fn roundtrip() {
        let snap = sample();
        let restored = StoreSnapshot::from_bytes(&snap.to_bytes()).unwrap();
        assert_eq!(restored, snap);
    }

    #[test]
    fn other_versions_are_corrupt() {
        // A well-formed file (valid CRC) of a version this build does
        // not write is the typed error, not a guess at its layout.
        for version in [1u16, VERSION + 1] {
            let mut bytes = sample().to_bytes();
            bytes.truncate(bytes.len() - 4);
            bytes[4..6].copy_from_slice(&version.to_le_bytes());
            let crc = crc32(&bytes);
            bytes.extend_from_slice(&crc.to_le_bytes());
            assert!(matches!(
                StoreSnapshot::from_bytes(&bytes),
                Err(PersistError::Corrupt(msg)) if msg.contains("version")
            ));
        }
    }

    #[test]
    fn corruption_detected() {
        let bytes = sample().to_bytes();
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x10;
            assert!(
                StoreSnapshot::from_bytes(&bad).is_err(),
                "flip at {i} undetected"
            );
        }
        assert!(StoreSnapshot::from_bytes(&bytes[..bytes.len() - 1]).is_err());
        let mut long = bytes.clone();
        long.push(0);
        assert!(StoreSnapshot::from_bytes(&long).is_err());
    }

    #[test]
    fn atomic_file_roundtrip() {
        let dir = std::env::temp_dir().join("e2nvm_snap_unit");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snapshot.e2s");
        let snap = sample();
        let written = snap.save_atomic(&path).unwrap();
        assert_eq!(written, snap.to_bytes().len() as u64);
        assert_eq!(StoreSnapshot::load(&path).unwrap().unwrap(), snap);
        std::fs::remove_file(&path).ok();
        assert!(StoreSnapshot::load(&path).unwrap().is_none());
    }
}
