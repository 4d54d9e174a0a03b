//! Work directories and child processes of the system under test.

use std::fs;
use std::io;
use std::os::unix::process::ExitStatusExt;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitStatus, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

static NEXT_DIR: AtomicUsize = AtomicUsize::new(0);

/// A directory of its own for one job or one daemon: unique to this
/// process and call (pid plus a counter) under the caller's root, and
/// removed on drop. Creation fails rather than reuse a leftover, so a
/// stale journal or state dir can never turn a fresh job into a replay.
pub struct WorkDir {
    path: PathBuf,
}

impl WorkDir {
    pub fn new(root: &Path, label: &str) -> Result<WorkDir, String> {
        fs::create_dir_all(root).map_err(|e| format!("cannot create {}: {e}", root.display()))?;
        let n = NEXT_DIR.fetch_add(1, Ordering::Relaxed);
        let path = root.join(format!("{label}-{}-{n}", std::process::id()));
        fs::create_dir(&path).map_err(|e| format!("cannot create {}: {e}", path.display()))?;
        Ok(WorkDir { path })
    }

    pub fn path(&self) -> &Path {
        &self.path
    }

    pub fn join(&self, name: &str) -> PathBuf {
        self.path.join(name)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.path);
    }
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut [i64; 18]) -> i32;
}

/// Waits for `child` and returns its exit status with its peak resident
/// set in KiB. Linux reports the largest of the child itself and every
/// descendant it waited for, so a coordinator's figure covers its workers.
pub fn wait_peak_rss(child: &Child) -> io::Result<(ExitStatus, u64)> {
    let pid = i32::try_from(child.id()).map_err(|_| io::Error::other("pid out of range"))?;
    let mut status = 0i32;
    // `struct rusage` on 64-bit Linux: two `timeval`s then fourteen
    // `long`s; `ru_maxrss` is the fifth 8-byte word.
    let mut usage = [0i64; 18];
    loop {
        // SAFETY: `status` and `usage` are live, writable locals sized for
        // an `int` and a 64-bit Linux `struct rusage` (144 bytes), and
        // `pid` names a child of this process that nothing else waits on.
        let r = unsafe { wait4(pid, &mut status, 0, &mut usage) };
        if r == pid {
            return Ok((ExitStatus::from_raw(status), usage[4].max(0) as u64));
        }
        let e = io::Error::last_os_error();
        if e.kind() != io::ErrorKind::Interrupted {
            return Err(e);
        }
    }
}

/// One finished child process.
pub struct Finished {
    pub wall_s: f64,
    pub peak_rss_kb: u64,
    pub stdout: String,
}

/// Runs `cmd` to completion with stdout and stderr captured in files
/// under `dir`, timing it from spawn to exit. A non-zero exit is an error
/// that carries the tail of stderr.
pub fn run(cmd: &mut Command, dir: &Path, tag: &str) -> Result<Finished, String> {
    let out_path = dir.join(format!("{tag}.stdout"));
    let err_path = dir.join(format!("{tag}.stderr"));
    let out = fs::File::create(&out_path).map_err(|e| e.to_string())?;
    let err = fs::File::create(&err_path).map_err(|e| e.to_string())?;
    let started = Instant::now();
    let child = cmd
        .stdin(Stdio::null())
        .stdout(out)
        .stderr(err)
        .spawn()
        .map_err(|e| format!("cannot spawn {cmd:?}: {e}"))?;
    let (status, peak_rss_kb) = wait_peak_rss(&child).map_err(|e| format!("wait: {e}"))?;
    let wall_s = started.elapsed().as_secs_f64();
    let stdout = fs::read_to_string(&out_path).unwrap_or_default();
    if !status.success() {
        let stderr = fs::read_to_string(&err_path).unwrap_or_default();
        let tail: Vec<&str> = stderr.lines().rev().take(5).collect();
        return Err(format!(
            "{tag} exited with {status}: {}",
            tail.into_iter().rev().collect::<Vec<_>>().join(" | ")
        ));
    }
    Ok(Finished {
        wall_s,
        peak_rss_kb,
        stdout,
    })
}
