//! The shipped `mbd-server` binary as a child process: spawn, readiness
//! from its own "listening on" line, per-thread CPU and memory from
//! `/proc`, SIGKILL.

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::Duration;

/// The flags every run passes on top of the server's defaults. Periodic
/// snapshots are off so that the state a restart replays (snapshot + WAL)
/// depends only on the workload, never on whether a timer fired.
pub fn server_args(state_dir: &Path, workers: usize) -> Vec<String> {
    vec![
        "--listen".into(),
        "127.0.0.1:0".into(),
        "--demo-mib".into(),
        "--state-dir".into(),
        state_dir.display().to_string(),
        "--workers".into(),
        workers.to_string(),
        "--snapshot-every".into(),
        "0".into(),
    ]
}

pub struct Server {
    child: Child,
    pub addr: SocketAddr,
    stdout_reader: Option<JoinHandle<()>>,
}

impl Server {
    /// Spawns the server and waits for its "listening on" line.
    pub fn spawn(
        bin: &Path,
        state_dir: &Path,
        workers: usize,
        log: &Path,
    ) -> Result<Server, String> {
        let stderr = std::fs::File::create(log).map_err(|e| format!("{}: {e}", log.display()))?;
        let mut child = Command::new(bin)
            .args(server_args(state_dir, workers))
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(stderr)
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let stdout = child.stdout.take().expect("piped stdout");
        let (tx, rx) = mpsc::channel();
        // Keep draining stdout for the server's whole life so it never
        // blocks on a full pipe.
        let stdout_reader = std::thread::spawn(move || {
            for line in BufReader::new(stdout).lines().map_while(Result::ok) {
                if let Some(rest) = line.strip_prefix("mbd-server listening on ") {
                    let addr = rest.split_whitespace().next().and_then(|a| a.parse().ok());
                    let _ = tx.send(addr);
                }
            }
        });
        let mut server =
            Server { child, addr: ([127, 0, 0, 1], 0).into(), stdout_reader: Some(stdout_reader) };
        match rx.recv_timeout(Duration::from_secs(120)) {
            Ok(Some(addr)) => {
                server.addr = addr;
                Ok(server)
            }
            _ => {
                let tail = std::fs::read_to_string(log).unwrap_or_default();
                Err(format!("mbd-server did not report a listening address; stderr: {tail}"))
            }
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// SIGKILL, then reap the process and its stdout reader.
    pub fn kill(mut self) {
        self.reap();
    }

    fn reap(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(reader) = self.stdout_reader.take() {
            let _ = reader.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.reap();
    }
}

fn tasks(pid: u32) -> Vec<PathBuf> {
    std::fs::read_dir(format!("/proc/{pid}/task"))
        .map(|d| d.filter_map(|e| e.ok().map(|e| e.path())).collect())
        .unwrap_or_default()
}

/// Nanoseconds on CPU summed over every thread, from
/// `/proc/<pid>/task/*/schedstat` (exact, unlike the 10 ms ticks of
/// `/proc/<pid>/stat`).
pub fn cpu_ns(pid: u32) -> u64 {
    tasks(pid)
        .iter()
        .filter_map(|t| std::fs::read_to_string(t.join("schedstat")).ok())
        .filter_map(|s| s.split_whitespace().next().and_then(|v| v.parse::<u64>().ok()))
        .sum()
}

fn status_field(text: &str, key: &str) -> u64 {
    text.lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// Voluntary plus involuntary context switches summed over every thread.
pub fn ctx_switches(pid: u32) -> u64 {
    tasks(pid)
        .iter()
        .filter_map(|t| std::fs::read_to_string(t.join("status")).ok())
        .map(|s| {
            status_field(&s, "voluntary_ctxt_switches:")
                + status_field(&s, "nonvoluntary_ctxt_switches:")
        })
        .sum()
}

/// Peak resident set (`VmHWM`) in KiB.
pub fn peak_rss_kib(pid: u32) -> u64 {
    std::fs::read_to_string(format!("/proc/{pid}/status"))
        .map(|s| status_field(&s, "VmHWM:"))
        .unwrap_or(0)
}
