//! What the benchmark reads about its own process and leaves on disk:
//! resident memory and CPU time from `/proc`, and the per-process scratch
//! directory that holds WAL directories and is removed when the run ends,
//! whether it succeeded or not.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, Ordering};

/// `USER_HZ`: the unit of the CPU times in `/proc/<pid>/stat`. Fixed at 100
/// on every Linux ABI this benchmark runs on.
const CLOCK_TICKS_PER_S: f64 = 100.0;

fn status_kb(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|text| {
            text.lines()
                .find_map(|line| line.strip_prefix(field))
                .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        })
        .unwrap_or(0.0)
}

/// Peak resident set of this process so far, in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    status_kb("VmHWM:") / 1024.0
}

/// Current resident set of this process, in bytes (`VmRSS`).
pub fn rss_bytes() -> f64 {
    status_kb("VmRSS:") * 1024.0
}

/// User plus system CPU seconds this process (all threads, finished ones
/// included) has consumed.
pub fn cpu_seconds() -> f64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|text| {
            // The command name may contain spaces; fields count from the
            // closing parenthesis. utime and stime are fields 14 and 15.
            let rest = &text[text.rfind(')')? + 1..];
            let mut fields = rest.split_whitespace().skip(11);
            let utime: f64 = fields.next()?.parse().ok()?;
            let stime: f64 = fields.next()?.parse().ok()?;
            Some((utime + stime) / CLOCK_TICKS_PER_S)
        })
        .unwrap_or(0.0)
}

/// Cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Where build products live: the driver's `CARGO_TARGET_DIR` when set,
/// else `target` under the working directory.
pub fn target_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from)
}

/// Total size in bytes of the regular files under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|entry| match entry.metadata() {
            Ok(meta) if meta.is_dir() => dir_bytes(&entry.path()),
            Ok(meta) => meta.len(),
            Err(_) => 0,
        })
        .sum()
}

/// A directory of its own under `<target>/spotlake-bench/<pid>/`, removed on
/// drop — on success, on a failed check, and on a panic that unwinds. The
/// `<pid>` directory goes with the last of them.
#[derive(Debug)]
pub struct ScratchDir {
    root: PathBuf,
    next: AtomicU32,
}

/// Numbers the scratch directories of one process (tests open several).
static INSTANCES: AtomicU32 = AtomicU32::new(0);

impl ScratchDir {
    /// Creates a scratch directory for this process.
    pub fn create() -> std::io::Result<ScratchDir> {
        let root = target_dir()
            .join("spotlake-bench")
            .join(std::process::id().to_string())
            .join(INSTANCES.fetch_add(1, Ordering::Relaxed).to_string());
        std::fs::create_dir_all(&root)?;
        Ok(ScratchDir {
            root,
            next: AtomicU32::new(0),
        })
    }

    /// A fresh, not yet created, path inside the scratch directory.
    pub fn fresh(&self, stem: &str) -> PathBuf {
        let n = self.next.fetch_add(1, Ordering::Relaxed);
        self.root.join(format!("{stem}-{n}"))
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
        if let Some(pid_dir) = self.root.parent() {
            // Fails, harmlessly, while a sibling instance is still alive.
            let _ = std::fs::remove_dir(pid_dir);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readings_are_present_and_positive() {
        assert!(peak_rss_mb() > 0.0);
        assert!(rss_bytes() > 0.0);
        assert!(cpu_seconds() >= 0.0);
        assert!(nproc() >= 1);
    }

    #[test]
    fn scratch_directory_is_removed_on_drop_and_on_panic() {
        let scratch = ScratchDir::create().unwrap();
        let root = scratch.root.clone();
        let a = scratch.fresh("wal");
        let b = scratch.fresh("wal");
        assert_ne!(a, b);
        std::fs::create_dir_all(&a).unwrap();
        std::fs::write(a.join("f"), b"12345").unwrap();
        assert_eq!(dir_bytes(&root), 5);
        let unwound = std::panic::catch_unwind(move || {
            let _guard = scratch;
            panic!("a failed run");
        });
        assert!(unwound.is_err());
        assert!(!root.exists());
    }
}
