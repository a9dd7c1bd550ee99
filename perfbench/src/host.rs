//! The host receipt printed with every run: what was measured, on what,
//! and how noisy the machine was while it ran.

use std::path::Path;
use std::time::Instant;

/// Steal ticks (the 8th `cpu` field of `/proc/stat`): time the
/// hypervisor ran someone else while this VM wanted a CPU.
pub fn steal_ticks() -> u64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| s.lines().next().map(str::to_string))
        .and_then(|l| l.split_whitespace().nth(8).and_then(|v| v.parse().ok()))
        .unwrap_or(0)
}

/// Seconds two threads take for a fixed amount of integer work each. On
/// an idle two-CPU host it is stable; when the VM gets one CPU's worth it
/// roughly doubles, which flags a noisy run next to its numbers.
pub fn calibrate() -> f64 {
    fn spin() -> u64 {
        let mut x: u64 = 0x9E37_79B9;
        for i in 0..60_000_000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x = x.wrapping_add(i);
        }
        x
    }
    let start = Instant::now();
    let a = std::thread::spawn(spin);
    let b = spin();
    let a = a.join().unwrap_or(0);
    std::hint::black_box(a ^ b);
    start.elapsed().as_secs_f64()
}

/// Seconds two threads take to chase a fixed number of dependent loads
/// through a shuffled 32 MiB ring. The integer loop above misses
/// contention for caches and memory bandwidth from other tenants of the
/// machine; this one shows it, and allocation-heavy workloads such as
/// health-walk slow down with it.
pub fn calibrate_memory() -> f64 {
    const LEN: usize = 4 << 20;
    let mut ring: Vec<u32> = (0..LEN as u32).collect();
    let mut x: u64 = 0x2545_F491_4F6C_DD1D;
    for i in (1..LEN).rev() {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        ring.swap(i, (x % (i as u64 + 1)) as usize);
    }
    let ring = std::sync::Arc::new(ring);
    let chase = |ring: std::sync::Arc<Vec<u32>>, start: usize| {
        let mut i = start;
        for _ in 0..1_000_000 {
            i = ring[i] as usize;
        }
        i
    };
    let start = Instant::now();
    let other = {
        let ring = std::sync::Arc::clone(&ring);
        std::thread::spawn(move || chase(ring, 1))
    };
    let a = chase(ring, 0);
    let b = other.join().unwrap_or(0);
    std::hint::black_box(a ^ b);
    start.elapsed().as_secs_f64()
}

fn read_trim(path: &str) -> String {
    std::fs::read_to_string(path).map(|s| s.trim().to_string()).unwrap_or_else(|_| "?".into())
}

/// Filesystem type of the mount holding `dir` (longest mount-point
/// prefix in `/proc/mounts`).
pub fn fs_type(dir: &Path) -> String {
    let dir = std::fs::canonicalize(dir).unwrap_or_else(|_| dir.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_, point, kind) = (f.next()?, f.next()?, f.next()?);
            dir.starts_with(point).then(|| (point.len(), kind.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map(|(_, kind)| kind)
        .unwrap_or_else(|| "?".into())
}

pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

pub struct Receipt {
    pub git_rev: String,
    pub workload: String,
    pub seed: u64,
    pub trace: bool,
    pub server_flags: Vec<String>,
    pub state_fs: String,
    pub calibration_s: f64,
    pub calibration_mem_s: f64,
    pub calibration_after_s: f64,
    pub steal_start: u64,
    pub started_unix: u64,
}

impl Receipt {
    pub fn to_json(&self) -> String {
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        let flags: Vec<String> = self.server_flags.iter().map(|f| json_str(f)).collect();
        format!(
            "{{\"git_rev\":{},\"workload\":{},\"seed\":{},\"trace\":{},\"nproc\":{},\
             \"profile\":{},\"kernel\":{},\"timestamp_unix\":{},\"server_flags\":[{}],\
             \"state_dir_fs\":{},\"calibration_s\":{:.4},\"calibration_mem_s\":{:.4},\
             \"calibration_after_s\":{:.4},\"steal_ticks\":{}}}",
            json_str(&self.git_rev),
            json_str(&self.workload),
            self.seed,
            self.trace,
            nproc,
            json_str(if cfg!(debug_assertions) { "debug" } else { "release" }),
            json_str(&read_trim("/proc/sys/kernel/osrelease")),
            self.started_unix,
            flags.join(","),
            json_str(&self.state_fs),
            self.calibration_s,
            self.calibration_mem_s,
            self.calibration_after_s,
            steal_ticks().saturating_sub(self.steal_start),
        )
    }
}
