//! `perfbench` — the end-to-end and per-layer benchmark of the shipped
//! `mbd-server`. See `perfbench/README.md` for the workloads, the metrics
//! and why the harness is built the way it is.
//!
//! ```console
//! perfbench --workload NAME --seed N --seconds S --trace 0|1
//!           --server-bin PATH --work-dir DIR [--git-rev REV] [--smoke]
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, measured against the
//! binary with no harness instrumentation; `--trace 1` prints the
//! per-layer metrics from a traced run. The last stdout line is the
//! result object; the line before it is the host receipt.

mod client;
mod host;
mod server;
mod traced;
mod workload;

use client::{CodecRecord, Conn, RunLog};
use server::Server;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use workload::{Driver, Kind, VERBS};

/// Fleet installs per run; `setup_s` is their median.
const SETUPS: usize = 21;
/// Restarts per run; `recovery_s` is their median.
const RESTARTS: usize = 9;
/// Equal slices of the run; rates and percentiles are their medians.
const SEGMENTS: usize = 40;
/// Longer than the server's 1 s WAL group-commit cadence, so every
/// acknowledged mutation is on disk before the SIGKILL.
const QUIESCE: Duration = Duration::from_millis(1500);

struct Args {
    kind: Kind,
    seed: u64,
    seconds: u64,
    trace: bool,
    smoke: bool,
    server_bin: PathBuf,
    work_dir: PathBuf,
    git_rev: String,
}

fn parse_args() -> Result<Args, String> {
    let mut kind = None;
    let mut seed = 1;
    let mut seconds = 10;
    let mut trace = false;
    let mut smoke = false;
    let mut server_bin = None;
    let mut work_dir = None;
    let mut git_rev = "unknown".to_string();
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or(format!("{arg} needs a value"));
        match arg.as_str() {
            "--workload" => {
                let name = value()?;
                kind = Some(Kind::parse(&name).ok_or(format!("unknown workload `{name}`"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => trace = value()? == "1",
            "--server-bin" => server_bin = Some(PathBuf::from(value()?)),
            "--work-dir" => work_dir = Some(PathBuf::from(value()?)),
            "--git-rev" => git_rev = value()?,
            "--smoke" => smoke = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed,
        seconds: seconds.max(1),
        trace,
        smoke,
        server_bin: server_bin.ok_or("--server-bin is required")?,
        work_dir: work_dir.ok_or("--work-dir is required")?,
        git_rev,
    })
}

impl Args {
    /// The fixed number of run operations (whole churn cycles).
    fn run_ops(&self) -> u64 {
        let ops = if self.smoke { 140 } else { self.kind.ops_per_second() * self.seconds };
        if self.kind == Kind::DelegateChurn {
            ops / 7 * 7
        } else {
            ops
        }
    }

    fn setups(&self) -> usize {
        if self.smoke {
            2
        } else {
            SETUPS
        }
    }

    fn restarts(&self) -> usize {
        if self.smoke {
            1
        } else {
            RESTARTS
        }
    }
}

fn workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric { name: name.into(), value, unit }
}

/// What a run reports besides its metrics.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    /// Problems that make the run's outputs wrong.
    errors: Vec<String>,
}

impl Tally {
    fn add(&mut self, what: &str, log: &RunLog) {
        self.attempted += log.samples.len() as u64;
        let failed = log.failed();
        self.failed += failed;
        if failed > 0 {
            self.errors.push(format!("{what}: {failed} of {} ops failed", log.samples.len()));
        }
    }
}

fn median(mut v: Vec<f64>) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn mean(v: impl Iterator<Item = f64>) -> f64 {
    let (sum, n) = v.fold((0.0, 0u64), |(s, n), x| (s + x, n + 1));
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

/// Nearest-rank quantile of a sorted slice.
fn quantile(sorted: &[u64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1] as f64
}

/// The samples behind a median, for the `#` diagnostic lines.
fn show(v: &[f64], decimals: usize) -> String {
    v.iter().map(|x| format!("{x:.decimals$}")).collect::<Vec<_>>().join(" ")
}

/// Completion-count boundaries of the run's equal slices.
fn checkpoints(ops: u64) -> Vec<usize> {
    (1..=SEGMENTS).map(|k| (k as u64 * ops / SEGMENTS as u64) as usize).collect()
}

/// Per-slice medians of a run: throughput (ops/s), p50 and p99 (µs),
/// and server CPU per op (µs) when the probes sampled it. A failed op
/// counts as missing any latency limit.
struct RunStats {
    throughput: f64,
    p50_us: f64,
    p99_us: f64,
    cpu_us_per_op: f64,
}

fn run_stats(log: &RunLog) -> RunStats {
    let n = log.samples.len();
    let mut bounds = vec![0];
    bounds.extend(checkpoints(n as u64));
    let (mut thr, mut p50, mut p99, mut cpu) = (vec![], vec![], vec![], vec![]);
    let done = |i: usize| if i == 0 { 0 } else { log.samples[i - 1].done_ns };
    for k in 0..SEGMENTS {
        let (lo, hi) = (bounds[k], bounds[k + 1]);
        if hi <= lo {
            continue;
        }
        let seg = &log.samples[lo..hi];
        let span_ns = done(hi).saturating_sub(done(lo)).max(1);
        thr.push((hi - lo) as f64 * 1e9 / span_ns as f64);
        let mut rtt: Vec<u64> = seg
            .iter()
            .map(|s| if s.ok { s.rtt_ns } else { client::REPLY_TIMEOUT.as_nanos() as u64 })
            .collect();
        rtt.sort_unstable();
        p50.push(quantile(&rtt, 0.50) / 1e3);
        p99.push(quantile(&rtt, 0.99) / 1e3);
        if let (Some(a), Some(b)) = (log.probes.get(k), log.probes.get(k + 1)) {
            cpu.push(b.saturating_sub(*a) as f64 / 1e3 / (hi - lo) as f64);
        }
    }
    println!("# slices throughput_ops_s [{}]", show(&thr, 1));
    println!("# slices latency_p50_us [{}]", show(&p50, 1));
    if cpu.iter().any(|&c| c > 0.0) {
        println!("# slices server_cpu_us_per_op [{}]", show(&cpu, 1));
    }
    RunStats {
        throughput: median(thr),
        p50_us: median(p50),
        p99_us: median(p99),
        cpu_us_per_op: median(cpu),
    }
}

/// A server with the workload's fleet installed and verified.
struct Installed {
    server: Server,
    conn: Conn,
    driver: Driver,
    setup_s: f64,
}

/// Spawn to fleet-ready: the binary starts on a fresh state directory,
/// reports its address, and the manager delegates, instantiates and
/// warm-invokes every fleet agent, checking each reply.
fn install(args: &Args, dir: &Path, tag: &str, tally: &mut Tally) -> Result<Installed, String> {
    let state = dir.join(format!("state-{tag}"));
    std::fs::create_dir_all(&state).map_err(|e| e.to_string())?;
    let mut driver = Driver::new(args.kind, args.seed, args.run_ops());
    let start = Instant::now();
    let server =
        Server::spawn(&args.server_bin, &state, workers(), &dir.join(format!("{tag}.err")))?;
    let mut conn = Conn::connect(server.addr)?;
    let log = install_fleet(&mut conn, &mut driver, false);
    let setup_s = start.elapsed().as_secs_f64();
    tally.add("fleet install", &log);
    Ok(Installed { server, conn, driver, setup_s })
}

/// Install requests in flight. Delegations are independent and each
/// later step needs only the earlier step's replies, so a manager
/// installs a fleet as three pipelined phases.
const INSTALL_WINDOW: usize = 16;

fn install_fleet(conn: &mut Conn, driver: &mut Driver, traced: bool) -> RunLog {
    let mut log = RunLog::default();
    for step in 0..3 {
        let (mut slot, total) = (0, driver.fleet_len());
        let mut next = |d: &mut Driver| {
            (slot < total).then(|| {
                slot += 1;
                d.install_op(slot - 1, step)
            })
        };
        let phase = conn.run(driver, INSTALL_WINDOW, &mut next, traced, &[], &mut || 0);
        log.samples.extend(phase.samples);
        log.codec.extend(phase.codec);
    }
    log
}

/// Installs `args.setups()` times, each on a fresh server, and keeps
/// the last server for the run.
fn setup_median(args: &Args, dir: &Path, tally: &mut Tally) -> Result<(Installed, f64), String> {
    let mut times = Vec::new();
    for i in 1..args.setups() {
        let installed = install(args, dir, &format!("setup{i}"), tally)?;
        times.push(installed.setup_s);
        installed.server.kill();
    }
    let kept = install(args, dir, "run", tally)?;
    times.push(kept.setup_s);
    println!("# setups setup_s [{}]", show(&times, 4));
    Ok((kept, median(times)))
}

fn run_fixed_work(inst: &mut Installed, args: &Args, pid: u32) -> RunLog {
    let n = args.run_ops();
    inst.conn.run(
        &mut inst.driver,
        args.kind.window(),
        &mut |d| d.next_run_op(),
        false,
        &checkpoints(n),
        &mut || server::cpu_ns(pid),
    )
}

fn copy_dir(from: &Path, to: &Path) -> Result<(), String> {
    std::fs::create_dir_all(to).map_err(|e| e.to_string())?;
    for entry in std::fs::read_dir(from).map_err(|e| e.to_string())? {
        let entry = entry.map_err(|e| e.to_string())?;
        std::fs::copy(entry.path(), to.join(entry.file_name())).map_err(|e| e.to_string())?;
    }
    Ok(())
}

/// `--trace 0`: every end-to-end metric, against the binary.
fn end_to_end(args: &Args, dir: &Path, tally: &mut Tally) -> Result<Vec<Metric>, String> {
    let (mut inst, setup_s) = setup_median(args, dir, tally)?;
    let pid = inst.server.pid();
    let log = run_fixed_work(&mut inst, args, pid);
    tally.add("run", &log);
    let stats = run_stats(&log);
    // Stop the load, let the WAL group commit land, then crash.
    std::thread::sleep(QUIESCE);
    let rss_mb = server::peak_rss_kib(pid) as f64 / 1024.0;
    let Installed { server, mut driver, .. } = inst;
    server.kill();
    // Every restart replays the same crashed state directory: the probe
    // (`ListInstances`) is never WAL-logged and a clean WAL has no torn
    // tail to cut, so only the last restart, which also checks every
    // fleet dpi's call count, changes the directory.
    let state = dir.join("state-run");
    let mut recovery = Vec::new();
    for r in 0..args.restarts() {
        let start = Instant::now();
        let server = Server::spawn(
            &args.server_bin,
            &state,
            workers(),
            &dir.join(format!("recover{r}.err")),
        )?;
        let mut conn = Conn::connect(server.addr)?;
        let mut checks = driver.verify_ops();
        let rest = checks.split_off(1);
        let probe = conn.run_list(&mut driver, checks, false);
        recovery.push(start.elapsed().as_secs_f64());
        tally.add("recovery probe", &probe);
        if r + 1 == args.restarts() {
            let full = conn.run_list(&mut driver, rest, false);
            tally.add("recovered state", &full);
        }
        server.kill();
    }
    println!("# restarts recovery_s [{}]", show(&recovery, 4));
    Ok(vec![
        metric("setup_s", setup_s, "s"),
        metric("throughput_ops_s", stats.throughput, "1/s"),
        metric("latency_p50_us", stats.p50_us, "us"),
        metric("latency_p99_us", stats.p99_us, "us"),
        metric("server_cpu_us_per_op", stats.cpu_us_per_op, "us"),
        metric("server_rss_mb", rss_mb, "MB"),
        metric("recovery_s", median(recovery), "s"),
    ])
}

/// A counter of the in-process server's registry (0 until first use).
fn counter(snap: &mbd::telemetry::RegistrySnapshot, name: &str) -> f64 {
    snap.counter(name).unwrap_or(0) as f64
}

fn hist_mean_us(snap: &mbd::telemetry::RegistrySnapshot, name: &str) -> f64 {
    snap.histogram(name).map_or(0.0, |h| h.mean_ns() as f64 / 1e3)
}

/// Median microseconds of `reps` calls to `f`.
fn time_us(reps: usize, mut f: impl FnMut()) -> f64 {
    median(
        (0..reps)
            .map(|_| {
                let start = Instant::now();
                f();
                start.elapsed().as_nanos() as f64 / 1e3
            })
            .collect(),
    )
}

/// `--trace 1`: every per-layer metric. An untraced pass against the
/// binary gives the baseline for the trace overhead and the server's
/// context switches; the traced pass hosts the server in-process.
fn per_layer(args: &Args, dir: &Path, tally: &mut Tally) -> Result<Vec<Metric>, String> {
    // Untraced pass against the shipped binary.
    let mut inst = install(args, dir, "untraced", tally)?;
    let pid = inst.server.pid();
    let ctx_before = server::ctx_switches(pid);
    let log = run_fixed_work(&mut inst, args, pid);
    let ctx_per_op = server::ctx_switches(pid).saturating_sub(ctx_before) as f64
        / log.samples.len().max(1) as f64;
    tally.add("untraced run", &log);
    let untraced = run_stats(&log);
    inst.server.kill();

    // Traced pass, in-process.
    let state = dir.join("state-traced");
    std::fs::create_dir_all(&state).map_err(|e| e.to_string())?;
    let inproc = traced::InProc::start(&state, workers())?;
    let process = inproc.process.clone();
    let mut driver = Driver::new(args.kind, args.seed, args.run_ops());
    let mut conn = Conn::connect(inproc.addr)?;
    let install_log = install_fleet(&mut conn, &mut driver, true);
    tally.add("traced fleet install", &install_log);
    let before = process.telemetry().snapshot();
    let n = args.run_ops();
    // Keep the first invocations' targets and arguments for the direct
    // (executor-free) replay below.
    const DIRECT: usize = 2048;
    let mut direct: Vec<mbd::rds::RdsRequest> = Vec::new();
    let log = conn.run(
        &mut driver,
        args.kind.window(),
        &mut |d| {
            let op = d.next_run_op()?;
            if direct.len() < DIRECT && matches!(op.req, mbd::rds::RdsRequest::Invoke { .. }) {
                direct.push(op.req.clone());
            }
            Some(op)
        },
        true,
        &checkpoints(n),
        &mut || 0,
    );
    tally.add("traced run", &log);
    let traced_stats = run_stats(&log);
    process.durable_sync();
    let after = process.telemetry().snapshot();
    let ops = log.samples.len().max(1) as f64;

    // Replay the run's durable state into a fresh process, and check it
    // against what the server acknowledged.
    let replay_dir = dir.join("replay");
    copy_dir(&state, &replay_dir)?;
    let replayed = traced::build_process()?;
    let start = Instant::now();
    replayed
        .attach_durability(&replay_dir, mbd::core::durable::DEFAULT_FSYNC_EVERY)
        .map_err(|e| e.to_string())?;
    let replay_ms = start.elapsed().as_secs_f64() * 1e3;
    verify_replayed(&replayed, &driver, tally);

    // Isolated calls on the workload's own inputs.
    let direct_invoke_us = direct_invokes(&process, args, &direct, tally);
    let atm = mbd::snmp::mib2::atm_vc_entry();
    let walk_us = time_us(200, || {
        std::hint::black_box(process.mib().walk(&atm));
    });
    let mut sources = driver.fleet_sources();
    sources.extend(Driver::churn_variants(args.seed, 64).into_iter().map(|v| v.source));
    let registry = mbd::core::services::standard_registry();
    let compile_us = mean(sources.iter().map(|src| {
        let start = Instant::now();
        let compiled = mbd::dpl::compile_program(src, &registry);
        let us = start.elapsed().as_nanos() as f64 / 1e3;
        if compiled.is_err() {
            tally.errors.push("a workload source failed to compile".into());
        }
        us
    }));
    let sample_us = time_us(50, || {
        process.telemetry().sample_and_evaluate();
    });
    let snapshot_ms = time_us(3, || {
        if process.snapshot_now().is_err() {
            tally.errors.push("snapshot_now failed".into());
        }
    }) / 1e3;

    // Lifecycle teardown over RDS: the verbs the invoke workloads
    // otherwise never send.
    let teardown_ops = driver.teardown_ops();
    let teardown = conn.run_list(&mut driver, teardown_ops, true);
    tally.add("teardown", &teardown);
    let spans = inproc.handler_spans();
    write_trace_file(args, &[&install_log, &log, &teardown], &spans);
    inproc.shutdown();

    let handler = |r: &CodecRecord| spans.get(&r.request_id).copied().unwrap_or(0) as f64;
    let rec_mean = |f: &dyn Fn(&CodecRecord) -> f64| mean(log.codec.iter().map(f));
    let encode_ns = rec_mean(&|r| r.encode_ns as f64);
    let decode_ns = rec_mean(&|r| r.decode_ns as f64);
    let total_us = rec_mean(&|r| r.total_ns as f64) / 1e3;
    let handler_us = rec_mean(&|r| handler(r)) / 1e3;
    let transit_us = total_us - handler_us - (encode_ns + decode_ns) / 1e3;
    let queue_wait_us = hist_mean_us(&after, "rds.conn.queue_wait");
    let all_records = install_log.codec.iter().chain(&log.codec).chain(&teardown.codec);
    let mut by_verb: HashMap<usize, Vec<f64>> = HashMap::new();
    for r in all_records {
        if let Some(ns) = spans.get(&r.request_id) {
            by_verb.entry(r.verb).or_default().push(*ns as f64 / 1e3);
        }
    }
    let run_invoke_us =
        mean(log.codec.iter().filter(|r| VERBS[r.verb] == "invoke").map(|r| handler(r) / 1e3));
    let delta = |name: &str| counter(&after, name) - counter(&before, name);

    let mut m = vec![
        metric("rds.codec.encode_ns", encode_ns, "ns"),
        metric("rds.codec.decode_ns", decode_ns, "ns"),
        metric("rds.codec.request_bytes", rec_mean(&|r| r.request_bytes as f64), "B"),
        metric("rds.codec.response_bytes", rec_mean(&|r| r.response_bytes as f64), "B"),
        metric("rds.reactor.transit_us", transit_us, "us"),
        metric("rds.reactor.queue_wait_us", queue_wait_us, "us"),
        metric("rds.reactor.shed", delta("rds.shed"), "count"),
        metric("server.ctx_switches_per_op", ctx_per_op, "count/op"),
    ];
    for (i, verb) in VERBS.iter().enumerate().take(7) {
        let v = by_verb.remove(&i).map_or(0.0, |v| mean(v.into_iter()));
        m.push(metric(format!("core.server.handle_us.{verb}"), v, "us"));
    }
    m.extend([
        metric("core.executor.hop_us", run_invoke_us - direct_invoke_us, "us"),
        metric("core.executor.parks_per_op", delta("ep.exec.parks") / ops, "count/op"),
        metric("core.executor.steals_per_op", delta("ep.exec.steals") / ops, "count/op"),
        metric("core.executor.batches_per_op", delta("ep.exec.batches") / ops, "count/op"),
        metric("core.process.invoke_us", direct_invoke_us, "us"),
        metric("dpl.vm.run_us", hist_mean_us(&after, "ep.vm_run"), "us"),
        metric("snmp.mib.walk_us", walk_us, "us"),
        metric("dpl.translator.compile_us", compile_us, "us"),
        metric("core.durable.wal_bytes_per_op", delta("ep.wal_bytes") / ops, "B/op"),
        metric("core.durable.wal_records_per_op", delta("ep.wal_records") / ops, "count/op"),
        metric("core.durable.fsyncs_per_kop", delta("ep.wal_fsyncs") * 1e3 / ops, "count/kop"),
        metric("core.durable.snapshot_ms", snapshot_ms, "ms"),
        metric("core.durable.replay_ms", replay_ms, "ms"),
        metric("telemetry.sample_us", sample_us, "us"),
        metric(
            "telemetry.trace_overhead_pct",
            (untraced.throughput - traced_stats.throughput) / untraced.throughput.max(1e-9) * 100.0,
            "%",
        ),
        metric(
            "unattributed_us",
            total_us - (encode_ns + decode_ns) / 1e3 - queue_wait_us - handler_us,
            "us",
        ),
    ]);
    print_layer_map(&m, &untraced);
    Ok(m)
}

/// After replay, every fleet dpi holds its acknowledged call count and
/// every acknowledged instance its acknowledged lifecycle state.
fn verify_replayed(p: &mbd::core::ElasticProcess, driver: &Driver, tally: &mut Tally) {
    let mut got: Vec<(u64, String, mbd::rds::DpiState)> =
        p.list_instances().into_iter().map(|s| (s.id.0, s.dp_name, s.state)).collect();
    got.sort_by_key(|e| e.0);
    if got != driver.acked_instances() {
        tally.errors.push("replayed instance table differs from the acknowledged one".into());
    }
    for (dpi, acked) in driver.fleet_acked() {
        match p.invoke(dpi, "count", &[]) {
            Ok(mbd::dpl::Value::Int(n)) if n as u64 == acked => {}
            other => tally.errors.push(format!("replayed {dpi}: count {other:?}, acked {acked}")),
        }
    }
}

/// Mean µs of `ElasticProcess::invoke` called directly — no reactor, no
/// executor — on the run's own targets and arguments. For the churn,
/// fresh instances of its first variants (their first call, as in the
/// run).
fn direct_invokes(
    p: &mbd::core::ElasticProcess,
    args: &Args,
    reqs: &[mbd::rds::RdsRequest],
    tally: &mut Tally,
) -> f64 {
    let mut times = Vec::new();
    if args.kind == Kind::DelegateChurn {
        for v in Driver::churn_variants(args.seed, 256) {
            let name = format!("direct-{}", v.name);
            let Ok(dpi) = p.delegate(&name, &v.source).and_then(|()| p.instantiate(&name)) else {
                tally.errors.push("direct churn install failed".into());
                continue;
            };
            let start = Instant::now();
            let out = p.invoke(dpi, "run", &[mbd::dpl::Value::Int(v.arg)]);
            times.push(start.elapsed().as_nanos() as f64 / 1e3);
            if out.is_err() || p.terminate(dpi).is_err() || p.delete_program(&name).is_err() {
                tally.errors.push("direct churn cycle failed".into());
            }
        }
    } else {
        for req in reqs {
            let mbd::rds::RdsRequest::Invoke { dpi, entry, args } = req else { continue };
            let args: Vec<mbd::dpl::Value> =
                args.iter().map(mbd::core::convert::from_ber).collect();
            let start = Instant::now();
            let out = p.invoke(*dpi, entry, &args);
            times.push(start.elapsed().as_nanos() as f64 / 1e3);
            if out.is_err() {
                tally.errors.push("direct invoke failed".into());
            }
        }
    }
    mean(times.into_iter())
}

/// Writes the traced run's spans: one line per request.
fn write_trace_file(args: &Args, logs: &[&RunLog], spans: &HashMap<i64, u64>) {
    let dir = args.work_dir.join("traces");
    if std::fs::create_dir_all(&dir).is_err() {
        return;
    }
    let mut out = String::from("request_id\tverb\tencode_ns\thandler_ns\tdecode_ns\ttotal_ns\n");
    for r in logs.iter().flat_map(|l| &l.codec) {
        out.push_str(&format!(
            "{}\t{}\t{}\t{}\t{}\t{}\n",
            r.request_id,
            VERBS[r.verb],
            r.encode_ns,
            spans.get(&r.request_id).copied().unwrap_or(0),
            r.decode_ns,
            r.total_ns
        ));
    }
    let path = dir.join(format!("{}-seed{}.tsv", args.kind.name(), args.seed));
    let _ = std::fs::write(path, out);
}

/// Which end-to-end metric each layer metric should move (README.md,
/// "Per-layer metrics"), printed next to the untraced pass's values.
fn print_layer_map(m: &[Metric], e2e: &RunStats) {
    let target = |name: &str| -> &'static str {
        match name {
            n if n.starts_with("rds.codec") => "server_cpu_us_per_op",
            n if n.starts_with("rds.reactor") || n.starts_with("server.") => "throughput_ops_s",
            n if n.starts_with("core.executor") => "latency_p50_us",
            n if n.starts_with("core.process") || n.starts_with("dpl.vm") => "throughput_ops_s",
            n if n.starts_with("snmp") => "server_cpu_us_per_op",
            n if n.starts_with("dpl.translator") || n.starts_with("core.durable") => "recovery_s",
            n if n.starts_with("core.server") => "latency_p50_us",
            _ => "throughput_ops_s",
        }
    };
    let e2e_value = |name: &str| match name {
        "server_cpu_us_per_op" => format!("{:.2}", e2e.cpu_us_per_op),
        "latency_p50_us" => format!("{:.1}", e2e.p50_us),
        "throughput_ops_s" => format!("{:.0}", e2e.throughput),
        _ => "(end-to-end run)".to_string(),
    };
    for x in m {
        let t = target(&x.name);
        println!("# {:<36} {:>14.3} {:<9} -> {} {}", x.name, x.value, x.unit, t, e2e_value(t));
    }
}

fn fmt_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if !args.server_bin.is_file() {
        eprintln!("perfbench: no server binary at {}", args.server_bin.display());
        std::process::exit(2);
    }
    let dir =
        args.work_dir.join(format!("{}-{}-{}", args.kind.name(), args.seed, std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("perfbench: {}: {e}", dir.display());
        std::process::exit(1);
    }
    let receipt_start = host::steal_ticks();
    let calibration_s = host::calibrate();
    let calibration_mem_s = host::calibrate_memory();
    let started_unix = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let mut tally = Tally::default();
    let result = if args.trace {
        per_layer(&args, &dir, &mut tally)
    } else {
        end_to_end(&args, &dir, &mut tally)
    };
    let receipt = host::Receipt {
        git_rev: args.git_rev.clone(),
        workload: args.kind.name().to_string(),
        seed: args.seed,
        trace: args.trace,
        server_flags: server::server_args(Path::new("DIR"), workers()),
        state_fs: host::fs_type(&dir),
        calibration_s,
        calibration_mem_s,
        calibration_after_s: host::calibrate(),
        steal_start: receipt_start,
        started_unix,
    };
    let _ = std::fs::remove_dir_all(&dir);
    let metrics = match result {
        Ok(m) => m,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.kind.name());
            std::process::exit(1);
        }
    };
    for e in &tally.errors {
        eprintln!("perfbench: verification: {e}");
    }
    println!("# receipt {}", receipt.to_json());
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                host::json_str(&m.name),
                fmt_num(m.value),
                host::json_str(m.unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.errors.is_empty(),
        tally.attempted.max(1),
        tally.failed,
        body.join(", ")
    );
}
