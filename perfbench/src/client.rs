//! The load generator: one manager connection driven as a closed loop
//! over `TcpDuplex` and `rds::codec`, at most `window` requests in
//! flight. Replies are timestamped the moment their frame arrives — not
//! when a pipelining client would next poll for them.

use crate::workload::{verb_index, Driver, Op};
use mbd::auth::Principal;
use mbd::rds::{codec, DpiId, FrameDuplex, TcpDuplex, TraceContext};
use std::collections::{HashMap, HashSet};
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// A reply that takes longer than this fails its op and ends the loop.
pub const REPLY_TIMEOUT: Duration = Duration::from_secs(20);

/// One completed (or failed) operation.
pub struct Sample {
    /// Completion time since the loop started.
    pub done_ns: u64,
    /// Send to frame arrival.
    pub rtt_ns: u64,
    pub ok: bool,
}

/// Client-side codec timings of one operation (traced runs only).
pub struct CodecRecord {
    pub request_id: i64,
    pub verb: usize,
    pub encode_ns: u64,
    pub decode_ns: u64,
    /// Encode start to decode end: what the manager experienced.
    pub total_ns: u64,
    pub request_bytes: usize,
    pub response_bytes: usize,
}

#[derive(Default)]
pub struct RunLog {
    pub samples: Vec<Sample>,
    pub codec: Vec<CodecRecord>,
    /// `probe()` values at the requested completion counts.
    pub probes: Vec<u64>,
}

impl RunLog {
    pub fn failed(&self) -> u64 {
        self.samples.iter().filter(|s| !s.ok).count() as u64
    }
}

pub struct Conn {
    duplex: TcpDuplex,
    principal: Principal,
    next_id: i64,
}

struct InFlight {
    op: Op,
    encode_start: Instant,
    sent: Instant,
    encode_ns: u64,
    request_bytes: usize,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> Result<Conn, String> {
        let duplex = TcpDuplex::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        Ok(Conn { duplex, principal: Principal::new("perfbench"), next_id: 1 })
    }

    /// Issues ops from `next` until it returns `None` and every reply is
    /// in, keeping up to `window` in flight; each reply is checked by
    /// `driver.record`. `probe` is sampled before the first send and
    /// after each completion count listed in `checkpoints`.
    pub fn run(
        &mut self,
        driver: &mut Driver,
        window: usize,
        next: &mut dyn FnMut(&mut Driver) -> Option<Op>,
        traced: bool,
        checkpoints: &[usize],
        probe: &mut dyn FnMut() -> u64,
    ) -> RunLog {
        let mut log = RunLog::default();
        let mut in_flight: HashMap<i64, InFlight> = HashMap::with_capacity(window * 2);
        let mut exhausted = false;
        let mut broken = false;
        let mut checkpoint = checkpoints.iter().copied().peekable();
        log.probes.push(probe());
        let start = Instant::now();
        // A manager never has two calls outstanding on one agent: an op
        // whose dpi is busy waits (in sequence order) until it is free,
        // so the seeded sequence stays fixed and every reply's per-dpi
        // call count is exact.
        let mut busy: HashSet<DpiId> = HashSet::new();
        let mut held: Option<Op> = None;
        loop {
            while !exhausted && !broken && in_flight.len() < window {
                let Some(op) = held.take().or_else(|| next(driver)) else {
                    exhausted = true;
                    break;
                };
                let target = op.target();
                if let Some(dpi) = target {
                    if !busy.insert(dpi) {
                        held = Some(op);
                        break;
                    }
                }
                let id = self.next_id;
                self.next_id += 1;
                let trace = TraceContext {
                    trace_id: crate::workload::Rng::new(id as u64).next() | 1,
                    parent_span_id: 0,
                };
                let encode_start = Instant::now();
                let frame = codec::encode_request_traced(&op.req, &self.principal, id, None, trace);
                let sent = Instant::now();
                let encode_ns = if traced { (sent - encode_start).as_nanos() as u64 } else { 0 };
                let request_bytes = frame.len();
                if self.duplex.send_frame(&frame).is_err() {
                    log.samples.push(Sample { done_ns: 0, rtt_ns: 0, ok: false });
                    broken = true;
                    break;
                }
                in_flight.insert(id, InFlight { op, encode_start, sent, encode_ns, request_bytes });
            }
            if in_flight.is_empty() {
                break;
            }
            let frame = self.duplex.recv_frame(REPLY_TIMEOUT);
            let arrived = Instant::now();
            let decoded = match &frame {
                Ok(Some(bytes)) => codec::decode_response(bytes, None).ok(),
                _ => None,
            };
            let decode_end = Instant::now();
            let (Ok(Some(frame)), Some((resp, id))) = (frame, decoded) else {
                // A timeout, a broken connection or undecodable bytes:
                // the stream can no longer be trusted, so everything
                // still outstanding fails.
                let lost = in_flight.len() + usize::from(held.take().is_some());
                for _ in 0..lost {
                    log.samples.push(Sample { done_ns: 0, rtt_ns: 0, ok: false });
                }
                break;
            };
            let Some(f) = in_flight.remove(&id) else { continue };
            if let Some(dpi) = f.op.target() {
                busy.remove(&dpi);
            }
            let ok = driver.record(&f.op, &resp);
            if !ok && log.failed() < 3 {
                eprintln!(
                    "perfbench: reply to {:?} was {resp:?}, expected {:?}",
                    f.op.req, f.op.expect
                );
            }
            log.samples.push(Sample {
                done_ns: (arrived - start).as_nanos() as u64,
                rtt_ns: (arrived - f.sent).as_nanos() as u64,
                ok,
            });
            if traced {
                log.codec.push(CodecRecord {
                    request_id: id,
                    verb: verb_index(&f.op.req),
                    encode_ns: f.encode_ns,
                    decode_ns: (decode_end - arrived).as_nanos() as u64,
                    total_ns: (decode_end - f.encode_start).as_nanos() as u64,
                    request_bytes: f.request_bytes,
                    response_bytes: frame.len(),
                });
            }
            if checkpoint.peek() == Some(&log.samples.len()) {
                checkpoint.next();
                log.probes.push(probe());
            }
        }
        log
    }

    /// Runs a fixed list of ops serially (install, verification,
    /// teardown).
    pub fn run_list(&mut self, driver: &mut Driver, ops: Vec<Op>, traced: bool) -> RunLog {
        let mut ops = ops.into_iter();
        self.run(driver, 1, &mut |_| ops.next(), traced, &[], &mut || 0)
    }
}
