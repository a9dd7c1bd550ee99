//! The traced run's server: hosted in-process and wired the way
//! `src/bin/mbd-server.rs` wires the shipped binary — tracing, trace
//! store, history, alerts, demo MIB, durability, dedup, the armed invoke
//! executor and the reactor — plus one harness-owned span around every
//! `MbdServer::process_request` call. The spans stay in memory until the
//! run ends.

use mbd::core::{ElasticConfig, ElasticProcess, ExecutorConfig, MbdServer};
use mbd::rds::{codec, TcpServer, TcpServerConfig};
use mbd::telemetry::{HistoryConfig, HistorySampler, TraceStoreConfig};
use std::collections::HashMap;
use std::net::SocketAddr;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The binary's `--slow-ms` default.
const SLOW_NS: u64 = 50 * 1_000_000;

/// A process configured as the binary configures it (before
/// durability and the transport are attached).
pub fn build_process() -> Result<ElasticProcess, String> {
    let process = ElasticProcess::new(ElasticConfig {
        profile_sample: 0,
        quota: None,
        ..ElasticConfig::default()
    });
    let t = process.telemetry();
    t.enable_tracing(4096);
    t.enable_trace_store(TraceStoreConfig { slow_ns: SLOW_NS, ..TraceStoreConfig::default() });
    t.enable_history(HistoryConfig::with_base_cap(120));
    t.enable_alerts(Vec::new());
    let mib = process.mib();
    let e = |e: mbd::snmp::SnmpError| e.to_string();
    mbd::snmp::mib2::install_system(mib, "mbd demo device", "demo").map_err(e)?;
    mbd::snmp::mib2::install_interfaces(mib, 4, 10_000_000).map_err(e)?;
    mbd::snmp::mib2::install_concentrator(mib).map_err(e)?;
    mbd::snmp::mib2::install_atm_vc_table(mib, 100).map_err(e)?;
    Ok(process)
}

pub struct InProc {
    pub process: ElasticProcess,
    pub addr: SocketAddr,
    /// `(request id, handler ns)` for every request served.
    spans: Arc<Mutex<Vec<(i64, u64)>>>,
    tcp: Option<TcpServer>,
    stop: Arc<AtomicBool>,
    housekeeping: Option<JoinHandle<()>>,
    _sampler: Option<HistorySampler>,
}

impl InProc {
    pub fn start(state_dir: &Path, workers: usize) -> Result<InProc, String> {
        let process = build_process()?;
        let sampler = process.telemetry().start_history_sampler();
        process
            .attach_durability(state_dir, mbd::core::durable::DEFAULT_FSYNC_EVERY)
            .map_err(|e| e.to_string())?;
        let server = Arc::new(
            MbdServer::with_policy(process.clone(), mbd::auth::Acl::allow_by_default(), None)
                .with_dedup_capacity(mbd::rds::DEFAULT_DEDUP_CAPACITY),
        );
        server.arm_executor(ExecutorConfig { workers, ..ExecutorConfig::default() });
        let panic_process = process.clone();
        let shed_process = process.clone();
        let config = TcpServerConfig {
            workers,
            telemetry: Some(process.telemetry().clone()),
            on_panic: Some(Arc::new(move || {
                panic_process.journal().record(
                    panic_process.ticks(),
                    0,
                    "server",
                    "panic",
                    0,
                    false,
                    "connection handler panicked; connection dropped",
                );
                panic_process.telemetry().flight_freeze(0, "handler panic");
            })),
            on_shed: Some(Arc::new(move || {
                shed_process.journal().record(
                    shed_process.ticks(),
                    0,
                    "server",
                    "shed",
                    0,
                    false,
                    "execution tier saturated; request shed with Busy",
                );
                static SHEDS: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
                if SHEDS.fetch_add(1, Ordering::Relaxed).is_multiple_of(256) {
                    shed_process.telemetry().flight_freeze(0, "shed burst");
                }
            })),
            ..TcpServerConfig::default()
        };
        mbd::rds::reactor::raise_nofile_limit(config.max_connections as u64 + 512);
        let spans: Arc<Mutex<Vec<(i64, u64)>>> = Arc::new(Mutex::new(Vec::new()));
        let handler_spans = Arc::clone(&spans);
        let tcp = TcpServer::spawn_with("127.0.0.1:0", config, move |bytes: &[u8]| {
            let start = Instant::now();
            let out = server.process_request(bytes);
            let ns = start.elapsed().as_nanos() as u64;
            if let Some(id) = codec::peek_request_id(bytes) {
                handler_spans.lock().expect("span lock").push((id, ns));
            }
            out
        })
        .map_err(|e| e.to_string())?;
        let addr = tcp.local_addr();
        // The binary's 1 Hz housekeeping: ticks, OCP refresh, the WAL
        // group commit that bounds the loss window, and the drains.
        let stop = Arc::new(AtomicBool::new(false));
        let housekeeping = {
            let process = process.clone();
            let stop = Arc::clone(&stop);
            let ocp = mbd::core::ocp::SnmpOcp::new(process.clone(), "public");
            std::thread::spawn(move || 'outer: loop {
                for _ in 0..20 {
                    std::thread::sleep(Duration::from_millis(50));
                    if stop.load(Ordering::Relaxed) {
                        break 'outer;
                    }
                }
                process.advance_ticks(100);
                ocp.refresh();
                process.durable_sync();
                process.drain_notifications();
                process.drain_log();
            })
        };
        Ok(InProc {
            process,
            addr,
            spans,
            tcp: Some(tcp),
            stop,
            housekeeping: Some(housekeeping),
            _sampler: sampler,
        })
    }

    /// Handler nanoseconds by request id.
    pub fn handler_spans(&self) -> HashMap<i64, u64> {
        self.spans.lock().expect("span lock").iter().copied().collect()
    }

    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.housekeeping.take() {
            let _ = h.join();
        }
        if let Some(tcp) = self.tcp.take() {
            tcp.shutdown();
        }
    }
}
