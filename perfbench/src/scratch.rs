//! Per-run scratch directories.
//!
//! Every run gets its own directory under the build-output tree (the
//! checkout's `.bench_build`, or `$CARGO_TARGET_DIR`), never the source
//! tree. The name joins the workload, the seed, the process id, the clock
//! and a per-process counter, so two runs never share one even when a
//! process id is reused, and the directory is removed when the run ends.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{SystemTime, UNIX_EPOCH};

/// Where the benchmark keeps run state and span files.
pub fn output_root() -> PathBuf {
    let base = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(".bench_build"));
    base.join("perfbench")
}

/// A unique directory, removed on drop.
#[derive(Debug)]
pub struct Scratch {
    dir: PathBuf,
}

static NEXT: AtomicU64 = AtomicU64::new(0);

impl Scratch {
    /// Creates a fresh directory named after `tag` under `root`.
    ///
    /// # Errors
    ///
    /// Propagates the directory creation failure.
    pub fn new(root: &Path, tag: &str) -> std::io::Result<Scratch> {
        let nanos = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map_or(0, |d| d.as_nanos());
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = root.join(format!("{tag}-{}-{nanos}-{n}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(Scratch { dir })
    }

    /// A path inside the directory.
    pub fn join(&self, name: impl AsRef<Path>) -> PathBuf {
        self.dir.join(name)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}
