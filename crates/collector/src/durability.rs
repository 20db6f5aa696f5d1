//! Dead-letter persistence for the durable archive.
//!
//! The collector owns *when* durability happens (commit each round's
//! batches, persist the dead-letter queue alongside the shards); the
//! mechanics — frames, checksums, atomic rotation, replay — live in
//! `spotlake_timestream`.

use crate::service::DeadLetter;
use spotlake_timestream::{atomic_write, TsError};
use std::path::{Path, PathBuf};

const DEAD_LETTER_MAGIC: &[u8; 4] = b"SPDL";
const DEAD_LETTER_VERSION: u8 = 1;

/// The dead-letter queue as persisted at the archive root, so queries
/// deferred by the breaker/dead-letter logic survive a restart.
///
/// Format: `magic "SPDL" | u8 version | u32 count | entries | u64 fnv`,
/// each entry `u64 shard | u64 query | u32 attempts | u64 eligible_at`.
#[derive(Debug)]
pub(crate) struct DeadLetterFile {
    path: PathBuf,
    /// The bytes the file is known to hold; `None` until a save or a
    /// clean load has established them.
    persisted: Option<Vec<u8>>,
}

impl DeadLetterFile {
    /// Loads the persisted queue from `dir`. A missing, truncated, or
    /// corrupt file yields an empty queue — dead letters are an
    /// optimization (deferred retries), so a damaged file must never
    /// block recovery.
    pub(crate) fn open(dir: &Path) -> (DeadLetterFile, Vec<DeadLetter>) {
        let path = dir.join("deadletters.bin");
        let (persisted, letters) = std::fs::read(&path)
            .ok()
            .and_then(|bytes| parse_dead_letters(&bytes).map(|letters| (Some(bytes), letters)))
            .unwrap_or_default();
        (DeadLetterFile { path, persisted }, letters)
    }

    /// Atomically persists `letters`, unless the file already holds
    /// exactly that queue — round after round it does, and it is empty.
    pub(crate) fn save(&mut self, letters: &[DeadLetter]) -> Result<(), TsError> {
        let mut out = Vec::with_capacity(17 + letters.len() * 28);
        out.extend_from_slice(DEAD_LETTER_MAGIC);
        out.push(DEAD_LETTER_VERSION);
        out.extend_from_slice(&(letters.len() as u32).to_le_bytes());
        for d in letters {
            out.extend_from_slice(&(d.shard as u64).to_le_bytes());
            out.extend_from_slice(&(d.query as u64).to_le_bytes());
            out.extend_from_slice(&d.attempts.to_le_bytes());
            out.extend_from_slice(&d.eligible_at.to_le_bytes());
        }
        let sum = fnv64(&out);
        out.extend_from_slice(&sum.to_le_bytes());
        if self.persisted.as_ref() != Some(&out) {
            // Temp + fsync + rename via the shared helper: a rename
            // without the fsync can surface as an empty file after a
            // power loss, which is what the durability lint rejects.
            atomic_write(&self.path, &out)?;
            self.persisted = Some(out);
        }
        Ok(())
    }
}

fn parse_dead_letters(bytes: &[u8]) -> Option<Vec<DeadLetter>> {
    if bytes.len() < 17 || &bytes[..4] != DEAD_LETTER_MAGIC || bytes[4] != DEAD_LETTER_VERSION {
        return None;
    }
    let (body, trailer) = bytes.split_at(bytes.len() - 8);
    if fnv64(body) != u64::from_le_bytes(trailer.try_into().ok()?) {
        return None;
    }
    let count = u32::from_le_bytes(body[5..9].try_into().ok()?) as usize;
    let entries = &body[9..];
    if entries.len() != count * 28 {
        return None;
    }
    let mut letters = Vec::with_capacity(count);
    for e in entries.chunks_exact(28) {
        letters.push(DeadLetter {
            shard: u64::from_le_bytes(e[..8].try_into().ok()?) as usize,
            query: u64::from_le_bytes(e[8..16].try_into().ok()?) as usize,
            attempts: u32::from_le_bytes(e[16..20].try_into().ok()?),
            eligible_at: u64::from_le_bytes(e[20..28].try_into().ok()?),
        });
    }
    Some(letters)
}

/// FNV-1a, the workspace's stock dependency-free checksum.
fn fnv64(data: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in data {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tempdir(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("spotlake-dlq-{}-{name}", std::process::id()));
        std::fs::remove_dir_all(&p).ok();
        std::fs::create_dir_all(&p).unwrap();
        p
    }

    fn letter(shard: usize, query: usize, attempts: u32, eligible_at: u64) -> DeadLetter {
        DeadLetter {
            shard,
            query,
            attempts,
            eligible_at,
        }
    }

    #[test]
    fn dead_letters_roundtrip() {
        let dir = tempdir("roundtrip");
        let (mut file, loaded) = DeadLetterFile::open(&dir);
        assert!(loaded.is_empty(), "missing file");
        file.save(&[letter(3, 17, 2, 9), letter(0, 1, 4, 30)])
            .unwrap();
        let (mut file, loaded) = DeadLetterFile::open(&dir);
        assert_eq!(loaded.len(), 2);
        assert_eq!(loaded[0].shard, 3);
        assert_eq!(loaded[0].query, 17);
        assert_eq!(loaded[0].attempts, 2);
        assert_eq!(loaded[0].eligible_at, 9);
        assert_eq!(loaded[1].eligible_at, 30);
        // Saving an empty queue truncates the persisted one.
        file.save(&[]).unwrap();
        assert!(DeadLetterFile::open(&dir).1.is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn an_unchanged_queue_is_not_rewritten() {
        let dir = tempdir("unchanged");
        let (mut file, _) = DeadLetterFile::open(&dir);
        // The first save of a process always writes, even an empty queue.
        file.save(&[]).unwrap();
        let path = dir.join("deadletters.bin");
        assert!(path.exists());
        // Saving the same queue again leaves the file alone: removing it
        // behind the writer's back shows whether a write happened.
        std::fs::remove_file(&path).unwrap();
        file.save(&[]).unwrap();
        assert!(!path.exists(), "equal bytes must skip the atomic write");
        file.save(&[letter(1, 2, 3, 4)]).unwrap();
        assert_eq!(DeadLetterFile::open(&dir).1.len(), 1);
        // A reopened file knows what it holds and skips the same way.
        let (mut reopened, letters) = DeadLetterFile::open(&dir);
        std::fs::remove_file(&path).unwrap();
        reopened.save(&letters).unwrap();
        assert!(!path.exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_or_missing_files_yield_an_empty_queue() {
        let dir = tempdir("corrupt");
        let (mut file, loaded) = DeadLetterFile::open(&dir);
        assert!(loaded.is_empty(), "missing file");
        file.save(&[letter(1, 2, 3, 4)]).unwrap();
        let path = dir.join("deadletters.bin");
        let mut bytes = std::fs::read(&path).unwrap();
        for i in 0..bytes.len() {
            bytes[i] ^= 0xFF;
            std::fs::write(&path, &bytes).unwrap();
            assert!(
                DeadLetterFile::open(&dir).1.is_empty(),
                "flip at byte {i} must not parse"
            );
            bytes[i] ^= 0xFF;
        }
        std::fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();
        assert!(DeadLetterFile::open(&dir).1.is_empty(), "truncated file");
        // A damaged file is unknown content: the next save rewrites it.
        let (mut file, _) = DeadLetterFile::open(&dir);
        file.save(&[]).unwrap();
        assert!(parse_dead_letters(&std::fs::read(&path).unwrap()).is_some());
        std::fs::remove_dir_all(&dir).ok();
    }
}
