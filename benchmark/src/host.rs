//! What the machine is (recorded in every artifact) and how fast its
//! memory is (the ceiling the sweep bandwidth is stated against).

use std::time::Instant;

use crate::json::{self, Value};

/// Threads every workload uses: `min(nproc, 4)`.
pub fn bench_threads() -> usize {
    nproc().min(4)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

fn read(path: &str) -> Option<String> {
    std::fs::read_to_string(path).ok()
}

/// `"4096K"` / `"260M"` → bytes.
fn parse_size(text: &str) -> Option<u64> {
    let t = text.trim();
    let (digits, mult) = match t.chars().last()? {
        'K' => (&t[..t.len() - 1], 1 << 10),
        'M' => (&t[..t.len() - 1], 1 << 20),
        'G' => (&t[..t.len() - 1], 1 << 30),
        _ => (t, 1),
    };
    digits.parse::<u64>().ok().map(|n| n * mult)
}

/// Size in bytes of cpu0's data/unified cache at `level`, from sysfs.
pub fn cache_bytes(level: u32) -> Option<u64> {
    (0..8).find_map(|idx| {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{idx}");
        let lvl: u32 = read(&format!("{dir}/level"))?.trim().parse().ok()?;
        let kind = read(&format!("{dir}/type"))?;
        if lvl == level && kind.trim() != "Instruction" {
            parse_size(&read(&format!("{dir}/size"))?)
        } else {
            None
        }
    })
}

pub fn l2_bytes() -> u64 {
    cache_bytes(2).unwrap_or(0)
}

pub fn l3_bytes() -> u64 {
    cache_bytes(3).unwrap_or(0)
}

fn cpu_model() -> String {
    read("/proc/cpuinfo")
        .and_then(|t| {
            t.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|s| s.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

fn status_kib(field: &str) -> Option<u64> {
    read("/proc/self/status")?
        .lines()
        .find(|l| l.starts_with(field))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()
}

/// Peak resident set (`VmHWM`) of this process in MiB; 0 where `/proc`
/// does not say.
pub fn peak_rss_mib() -> f64 {
    status_kib("VmHWM:").map_or(0.0, |k| k as f64 / 1024.0)
}

fn mem_available_bytes() -> Option<u64> {
    read("/proc/meminfo")?
        .lines()
        .find(|l| l.starts_with("MemAvailable:"))?
        .split_whitespace()
        .nth(1)?
        .parse::<u64>()
        .ok()
        .map(|k| k * 1024)
}

fn command_line(cmd: &str, args: &[&str], dir: Option<&str>) -> Option<String> {
    let mut c = std::process::Command::new(cmd);
    c.args(args).stdin(std::process::Stdio::null());
    if let Some(d) = dir {
        c.current_dir(d);
    }
    let out = c.output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
}

/// Host description carried by every result.
pub fn fingerprint(threads: usize) -> Value {
    let manifest_dir = env!("CARGO_MANIFEST_DIR");
    json::obj([
        ("cpu_model", json::string(cpu_model())),
        ("nproc", json::num(nproc() as f64)),
        ("threads", json::num(threads as f64)),
        ("l2_kib", json::num(l2_bytes() as f64 / 1024.0)),
        ("l3_kib", json::num(l3_bytes() as f64 / 1024.0)),
        (
            "rustc",
            json::string(
                command_line("rustc", &["--version"], None).unwrap_or_else(|| "unknown".into()),
            ),
        ),
        (
            "commit",
            json::string(
                // Asked only where the checkout is a repository itself, so
                // that git never searches the directories above it.
                std::path::Path::new(manifest_dir)
                    .join("../.git")
                    .exists()
                    .then(|| {
                        command_line("git", &["rev-parse", "--short", "HEAD"], Some(manifest_dir))
                    })
                    .flatten()
                    .unwrap_or_else(|| "unknown".into()),
            ),
        ),
        (
            "profile",
            json::string(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }),
        ),
    ])
}

/// Upper limit of one probe array. Four times a large server L3 can be
/// more than a sandbox should touch; the cap is reported with the result.
pub const STREAM_ARRAY_CAP_BYTES: u64 = 1 << 30;

#[derive(Clone, Copy, Debug)]
pub struct Stream {
    pub copy_gbps: f64,
    pub triad_gbps: f64,
    /// Bytes of each of the three arrays.
    pub array_bytes: u64,
}

/// STREAM-style copy (`c = a`) and triad (`a = b + s·c`) over three `f64`
/// arrays on `threads` threads, best of three passes each. Each array is
/// four times the reported last-level cache, at most
/// [`STREAM_ARRAY_CAP_BYTES`] and at most an eighth of available memory.
pub fn stream_probe(threads: usize, smoke: bool) -> Stream {
    let want = (4 * l3_bytes().max(l2_bytes())).max(64 << 20);
    let limit = mem_available_bytes().map_or(STREAM_ARRAY_CAP_BYTES, |m| m / 8);
    let bytes = if smoke {
        1 << 20
    } else {
        want.min(STREAM_ARRAY_CAP_BYTES).min(limit)
    };
    let n = (bytes / 8) as usize;
    let mut a = vec![1.0f64; n];
    let mut b = vec![2.0f64; n];
    let mut c = vec![0.5f64; n];
    let per = n.div_ceil(threads.max(1));

    let mut best_copy = f64::INFINITY;
    let mut best_triad = f64::INFINITY;
    for _ in 0..3 {
        let t = Instant::now();
        std::thread::scope(|s| {
            for (cc, aa) in c.chunks_mut(per).zip(a.chunks(per)) {
                s.spawn(move || cc.copy_from_slice(aa));
            }
        });
        best_copy = best_copy.min(t.elapsed().as_secs_f64());

        let t = Instant::now();
        std::thread::scope(|s| {
            for ((aa, bb), cc) in a.chunks_mut(per).zip(b.chunks(per)).zip(c.chunks(per)) {
                s.spawn(move || {
                    for ((x, y), z) in aa.iter_mut().zip(bb).zip(cc) {
                        *x = *y + 3.0 * *z;
                    }
                });
            }
        });
        best_triad = best_triad.min(t.elapsed().as_secs_f64());
        std::mem::swap(&mut a, &mut b);
    }
    std::hint::black_box((&a, &b, &c));
    let gb = |bytes_per_elem: f64, secs: f64| bytes_per_elem * n as f64 / secs / 1e9;
    Stream {
        copy_gbps: gb(16.0, best_copy),
        triad_gbps: gb(24.0, best_triad),
        array_bytes: (n * 8) as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_sysfs_cache_sizes() {
        assert_eq!(parse_size("4096K\n"), Some(4 << 20));
        assert_eq!(parse_size("260M"), Some(260 << 20));
        assert_eq!(parse_size("512"), Some(512));
        assert_eq!(parse_size(""), None);
    }

    #[test]
    fn smoke_probe_reports_positive_bandwidth() {
        let s = stream_probe(2, true);
        assert!(s.copy_gbps > 0.0 && s.triad_gbps > 0.0);
        assert_eq!(s.array_bytes, 1 << 20);
    }
}
