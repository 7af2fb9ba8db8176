//! Process and machine introspection: memory high-water mark, CPU time,
//! L3 size, core count and the revision of the code being measured.

use std::path::Path;

/// Peak resident set size of this process, MiB (`VmHWM`).
#[must_use]
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kib / 1024.0)
}

/// User + system CPU time of this process so far, seconds.
#[must_use]
pub fn cpu_time_s() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the full line, in USER_HZ (100) ticks.
    let rest = &stat[stat.rfind(')')? + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: f64 = fields.get(11)?.parse().ok()?;
    let stime: f64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) / 100.0)
}

/// `(steal, total)` CPU ticks since boot, summed over all CPUs, from
/// `/proc/stat`: steal is time the hypervisor ran something else while
/// this machine's CPUs wanted to run. Reads into a stack buffer: a heap
/// allocation here, before the workload, moved store-scan's peak RSS by
/// 5.1 MiB, about one 65 536-row buffer.
#[must_use]
pub fn cpu_ticks() -> Option<(u64, u64)> {
    use std::io::Read;
    let mut buf = [0u8; 256];
    let n = std::fs::File::open("/proc/stat")
        .ok()?
        .read(&mut buf)
        .ok()?;
    let line = std::str::from_utf8(&buf[..n]).ok()?.lines().next()?;
    // cpu user nice system idle iowait irq softirq steal ...
    let mut ticks = [0u64; 8];
    let mut fields = line.split_whitespace().skip(1);
    for t in &mut ticks {
        *t = fields.next()?.parse().ok()?;
    }
    Some((ticks[7], ticks.iter().sum()))
}

/// Logical CPUs available to this process.
#[must_use]
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Size of the last-level (L3) cache in bytes, from sysfs.
#[must_use]
pub fn l3_bytes() -> Option<u64> {
    let base = Path::new("/sys/devices/system/cpu/cpu0/cache");
    for entry in std::fs::read_dir(base).ok()?.flatten() {
        let dir = entry.path();
        let level = std::fs::read_to_string(dir.join("level")).unwrap_or_default();
        if level.trim() != "3" {
            continue;
        }
        let size = std::fs::read_to_string(dir.join("size")).ok()?;
        let size = size.trim();
        let (digits, mult) = match size.chars().last()? {
            'K' => (&size[..size.len() - 1], 1024),
            'M' => (&size[..size.len() - 1], 1024 * 1024),
            _ => (size, 1),
        };
        return digits.parse::<u64>().ok().map(|v| v * mult);
    }
    None
}

/// The git commit checked out at `root`, when `root` is a git work tree
/// (read from `.git` directly; no subprocess).
#[must_use]
pub fn git_commit(root: &Path) -> Option<String> {
    let git = root.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_owned());
    };
    if let Ok(id) = std::fs::read_to_string(git.join(reference)) {
        return Some(id.trim().to_owned());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed
        .lines()
        .find_map(|l| l.strip_suffix(reference).map(|id| id.trim().to_owned()))
}

/// Total size of the regular files under `dir`, bytes.
#[must_use]
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| {
            let p = e.path();
            if p.is_dir() {
                dir_bytes(&p)
            } else {
                e.metadata().map_or(0, |m| m.len())
            }
        })
        .sum()
}
