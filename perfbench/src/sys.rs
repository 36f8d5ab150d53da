//! Operating-system readings: CPU time and peak memory of the processes
//! under test, the CPU count, and a revision id for the sources measured.

use std::fs;
use std::io;
use std::path::Path;

#[repr(C)]
struct Timeval {
    tv_sec: i64,
    tv_usec: i64,
}

/// `struct rusage` of Linux on 64-bit targets: two timevals, then
/// fourteen `long` fields of which only `ru_maxrss` (the first) is read.
#[repr(C)]
struct Rusage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    ru_maxrss: i64,
    _rest: [i64; 13],
}

const RUSAGE_CHILDREN: i32 = -1;
const SC_CLK_TCK: i32 = 2;

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    fn sysconf(name: i32) -> i64;
}

/// CPU time (user + system, ms) and peak resident set (MB) over every
/// child this process has waited for. The standard library exposes
/// neither, so this calls `getrusage(RUSAGE_CHILDREN)` directly.
pub fn children_usage() -> io::Result<(f64, f64)> {
    let mut usage = Rusage {
        ru_utime: Timeval {
            tv_sec: 0,
            tv_usec: 0,
        },
        ru_stime: Timeval {
            tv_sec: 0,
            tv_usec: 0,
        },
        ru_maxrss: 0,
        _rest: [0; 13],
    };
    // SAFETY: `usage` is a live, writable value laid out as the kernel's
    // `struct rusage` on 64-bit Linux (checked by the size test below),
    // and `getrusage` writes only within it.
    let rc = unsafe { getrusage(RUSAGE_CHILDREN, &mut usage) };
    if rc != 0 {
        return Err(io::Error::last_os_error());
    }
    let ms = |t: &Timeval| t.tv_sec as f64 * 1e3 + t.tv_usec as f64 / 1e3;
    Ok((
        ms(&usage.ru_utime) + ms(&usage.ru_stime),
        usage.ru_maxrss as f64 / 1024.0,
    ))
}

/// Clock ticks per second used by `/proc/<pid>/stat`.
fn clock_ticks() -> f64 {
    // SAFETY: `sysconf` takes a plain integer and reads no memory of ours.
    let ticks = unsafe { sysconf(SC_CLK_TCK) };
    if ticks > 0 {
        ticks as f64
    } else {
        100.0
    }
}

/// A live process's scheduler state letter (`R`, `S`, `D`, `Z`, …) and
/// the CPU time (user + system, ms) it has used so far.
pub fn process_state(pid: u32) -> io::Result<(char, f64)> {
    let stat = fs::read_to_string(format!("/proc/{pid}/stat"))?;
    // The command name may hold spaces and parentheses: fields are
    // counted from the last `)`, where field 3 (`state`) starts.
    let after = stat
        .rsplit_once(')')
        .map(|(_, rest)| rest)
        .ok_or_else(|| io::Error::other("malformed /proc stat"))?;
    let fields: Vec<&str> = after.split_whitespace().collect();
    let field = |i: usize| -> io::Result<f64> {
        fields
            .get(i)
            .and_then(|v| v.parse::<f64>().ok())
            .ok_or_else(|| io::Error::other("malformed /proc stat"))
    };
    let state = fields.first().and_then(|f| f.chars().next()).unwrap_or('?');
    // utime and stime are fields 14 and 15, i.e. 11 and 12 after state.
    Ok((state, (field(11)? + field(12)?) * 1e3 / clock_ticks()))
}

/// CPU time (user + system, ms) a live process has used so far.
pub fn process_cpu_ms(pid: u32) -> io::Result<f64> {
    process_state(pid).map(|(_, cpu)| cpu)
}

/// Peak resident set (`VmHWM`, MB) of a live process.
pub fn process_peak_rss_mb(pid: u32) -> io::Result<f64> {
    let status = fs::read_to_string(format!("/proc/{pid}/status"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| io::Error::other("no VmHWM in /proc status"))
}

/// CPUs this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The revision of the gdx sources being measured: `git rev-parse HEAD`
/// when the tree is a git checkout, else an FNV-1a digest over the paths
/// and contents of the workspace sources (a plain copy of the tree has no
/// git metadata).
pub fn source_revision(root: &Path) -> String {
    // Only the tree's own `.git`: a copy inside another repository must
    // not report that repository's revision.
    if !root.join(".git").exists() {
        return tree_digest(root);
    }
    if let Ok(out) = std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .current_dir(root)
        .stderr(std::process::Stdio::null())
        .output()
    {
        let rev = String::from_utf8_lossy(&out.stdout).trim().to_owned();
        if out.status.success() && !rev.is_empty() {
            return rev;
        }
    }
    tree_digest(root)
}

fn tree_digest(root: &Path) -> String {
    let mut files = Vec::new();
    for top in ["Cargo.toml", "Cargo.lock", "src", "crates", "shims"] {
        collect_files(&root.join(top), &mut files);
    }
    files.sort();
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut feed = |bytes: &[u8]| {
        for &b in bytes {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for path in &files {
        let rel = path.strip_prefix(root).unwrap_or(path);
        feed(rel.to_string_lossy().as_bytes());
        if let Ok(bytes) = fs::read(path) {
            feed(&bytes);
        }
    }
    format!("tree-{hash:016x}")
}

fn collect_files(path: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(meta) = fs::metadata(path) else {
        return;
    };
    if meta.is_file() {
        out.push(path.to_path_buf());
        return;
    }
    let Ok(entries) = fs::read_dir(path) else {
        return;
    };
    for entry in entries.flatten() {
        let p = entry.path();
        if p.file_name().is_some_and(|n| n == "target") {
            continue;
        }
        collect_files(&p, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rusage_matches_the_kernel_layout() {
        assert_eq!(std::mem::size_of::<Rusage>(), 144);
        let (cpu, rss) = children_usage().unwrap();
        assert!(cpu >= 0.0 && rss >= 0.0);
    }

    #[test]
    fn reads_own_process() {
        let pid = std::process::id();
        assert!(process_cpu_ms(pid).unwrap() >= 0.0);
        assert!(process_peak_rss_mb(pid).unwrap() > 0.0);
    }
}
