//! Seeded workloads: the fleet each one installs, the fixed sequence of
//! operations it sends, and the value every reply must carry.
//!
//! Everything the server sees is generated here from `--seed`: dpi visit
//! order, kernel arguments, health-walk thresholds and the churn's agent
//! variants. Expected replies are computed by the harness itself — the
//! kernel in closed form, the health summary over the harness's own copy
//! of the demo ATM table — never read back from the server.

use mbd::ber::BerValue;
use mbd::rds::{DpiId, DpiState, RdsRequest, RdsResponse};
use std::collections::BTreeMap;

/// The ATM VC table `--demo-mib` installs (100 rows, 4 columns).
const ATM_PREFIX: &str = "1.3.6.1.4.1.353.2.5.1";
const ATM_ROWS: u32 = 100;
/// Kernel dpis in the invoke fleet (and the churn's resident fleet).
const KERNEL_FLEET: usize = 64;
/// Health agents in the health-walk fleet.
const HEALTH_FLEET: usize = 16;

/// splitmix64: a tiny, well-mixed, seedable generator.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x6D62_645F_6265_6E63)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: u64) -> i64 {
        (self.next() % n) as i64
    }

    fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    InvokePipelined,
    HealthWalk,
    DelegateChurn,
}

impl Kind {
    pub const ALL: [Kind; 3] = [Kind::InvokePipelined, Kind::HealthWalk, Kind::DelegateChurn];

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Kind::InvokePipelined => "invoke-pipelined",
            Kind::HealthWalk => "health-walk",
            Kind::DelegateChurn => "delegate-churn",
        }
    }

    /// Requests one manager connection keeps in flight.
    pub fn window(self) -> usize {
        match self {
            Kind::InvokePipelined => 16,
            Kind::HealthWalk => 4,
            Kind::DelegateChurn => 1,
        }
    }

    /// Operations per second of `--seconds` the fixed work is sized by.
    /// The count depends only on `--seconds`, never on how fast the code
    /// under test runs, so WAL length, table size and peak RSS at the end
    /// of a run are a function of the workload alone.
    pub fn ops_per_second(self) -> u64 {
        match self {
            Kind::InvokePipelined => 35_000,
            Kind::HealthWalk => 2_000,
            Kind::DelegateChurn => 12_600,
        }
    }
}

/// Short verb names, used as `core.server.handle_us.<verb>` suffixes.
pub const VERBS: [&str; 8] =
    ["delegate", "instantiate", "invoke", "suspend", "resume", "terminate", "delete", "list"];

pub fn verb_index(req: &RdsRequest) -> usize {
    match req {
        RdsRequest::DelegateProgram { .. } => 0,
        RdsRequest::Instantiate { .. } => 1,
        RdsRequest::Invoke { .. } => 2,
        RdsRequest::Suspend { .. } => 3,
        RdsRequest::Resume { .. } => 4,
        RdsRequest::Terminate { .. } => 5,
        RdsRequest::DeleteProgram { .. } => 6,
        _ => 7,
    }
}

/// What a reply must be for its operation to count as done.
#[derive(Clone, Debug)]
pub enum Expect {
    Ok,
    Instantiated,
    Value(BerValue),
    Instances(Vec<(u64, String, DpiState)>),
}

pub struct Op {
    pub req: RdsRequest,
    pub expect: Expect,
    /// Fleet slot whose acknowledged-call count a success bumps.
    slot: Option<usize>,
}

impl Op {
    /// The dpi an invocation runs on.
    pub fn target(&self) -> Option<DpiId> {
        match self.req {
            RdsRequest::Invoke { dpi, .. } => Some(dpi),
            _ => None,
        }
    }
}

fn op(req: RdsRequest, expect: Expect) -> Op {
    Op { req, expect, slot: None }
}

fn invoke(dpi: DpiId, entry: &str, args: Vec<i64>) -> RdsRequest {
    RdsRequest::Invoke {
        dpi,
        entry: entry.to_string(),
        args: args.into_iter().map(BerValue::Integer).collect(),
    }
}

fn delegate(name: &str, source: String) -> RdsRequest {
    RdsRequest::DelegateProgram {
        dp_name: name.to_string(),
        language: "dpl".to_string(),
        source: source.into_bytes(),
    }
}

/// The invoke kernel: a 20-iteration loop plus one global bump, so every
/// call still writes a WAL post-state record. Returns
/// `190a + 20b + c + calls * 1e6` (a, b < 1000, c < 1000).
pub fn kernel_source(c: i64) -> String {
    format!(
        "var calls = 0;\n\
         fn k(a, b) {{\n\
         \x20   var acc = {c};\n\
         \x20   var i = 0;\n\
         \x20   while (i < 20) {{ acc = acc + a * i + b; i = i + 1; }}\n\
         \x20   calls = calls + 1;\n\
         \x20   return acc + calls * 1000000;\n\
         }}\n\
         fn count() {{ return calls; }}\n"
    )
}

fn kernel_value(c: i64, a: i64, b: i64, calls: u64) -> i64 {
    190 * a + 20 * b + c + calls as i64 * 1_000_000
}

/// The health agent: walks the ATM VC table next to the device and
/// reduces 400 objects to `[objects, weighted total, over limit, runs]`.
pub fn health_source(weight: i64) -> String {
    format!(
        "var runs = 0;\n\
         fn summary(limit) {{\n\
         \x20   var rows = mib_walk(\"{ATM_PREFIX}\");\n\
         \x20   var n = 0;\n\
         \x20   var total = 0;\n\
         \x20   var over = 0;\n\
         \x20   for (oid in rows) {{\n\
         \x20       var v = rows[oid];\n\
         \x20       n = n + 1;\n\
         \x20       total = total + v * {weight};\n\
         \x20       if (v > limit) {{ over = over + 1; }}\n\
         \x20   }}\n\
         \x20   runs = runs + 1;\n\
         \x20   return [n, total, over, runs];\n\
         }}\n\
         fn count() {{ return runs; }}\n"
    )
}

/// The ATM table's values as the agent sees them, from the harness's own
/// `install_atm_vc_table` store.
pub fn atm_values() -> Vec<i64> {
    let store = mbd::snmp::MibStore::new();
    mbd::snmp::mib2::install_atm_vc_table(&store, ATM_ROWS).expect("ATM table installs");
    store
        .walk(&mbd::snmp::mib2::atm_vc_entry())
        .iter()
        .map(|(_, v)| match mbd::core::convert::from_ber(v) {
            mbd::dpl::Value::Int(i) => i,
            other => panic!("ATM column value {other:?} is not an integer"),
        })
        .collect()
}

fn health_value(atm: &[i64], weight: i64, limit: i64, runs: u64) -> BerValue {
    let total: i64 = atm.iter().map(|v| v * weight).sum();
    let over = atm.iter().filter(|&&v| v > limit).count() as i64;
    BerValue::Sequence(
        [atm.len() as i64, total, over, runs as i64].into_iter().map(BerValue::Integer).collect(),
    )
}

/// One delegate-churn agent variant: a seeded chain of helper functions.
#[derive(Clone)]
pub struct Variant {
    pub name: String,
    pub source: String,
    /// (multiplier, addend) of each helper, in call order.
    steps: Vec<(i64, i64)>,
    base: i64,
    pub arg: i64,
}

impl Variant {
    pub fn generate(rng: &mut Rng, index: u64) -> Variant {
        let base = rng.below(1000);
        let steps: Vec<(i64, i64)> =
            (0..1 + rng.below(6)).map(|_| (1 + rng.below(3), rng.below(100))).collect();
        let mut source = format!("var hits = 0;\nvar base = {base};\n");
        for (i, (m, a)) in steps.iter().enumerate() {
            source.push_str(&format!("fn h{i}(x) {{ return x * {m} + {a}; }}\n"));
        }
        source.push_str("fn run(x) {\n    var acc = base;\n");
        for i in 0..steps.len() {
            source.push_str(&format!("    acc = h{i}(acc + x);\n"));
        }
        source.push_str("    hits = hits + 1;\n    return acc + hits;\n}\n");
        Variant { name: format!("churn{index}"), source, steps, base, arg: rng.below(1000) }
    }

    /// `run(arg)` on a fresh instance (its first call: `hits` = 1).
    pub fn value(&self) -> i64 {
        let acc = self.steps.iter().fold(self.base, |acc, (m, a)| (acc + self.arg) * m + a);
        acc + 1
    }
}

/// A fleet member as installed: its program, its dpi, and how many
/// invocations the server has acknowledged on it.
struct Member {
    name: String,
    /// The kernel constant or the health weight.
    param: i64,
    dpi: DpiId,
    /// Invocations sent; the client never has two in flight on one dpi,
    /// so the server runs them in this order.
    issued: u64,
    /// Invocations whose reply verified.
    acked: u64,
}

/// A workload's whole conversation with one server: fleet install, the
/// fixed run, the post-recovery checks and a lifecycle teardown.
pub struct Driver {
    pub kind: Kind,
    rng: Rng,
    atm: Vec<i64>,
    fleet: Vec<Member>,
    /// Fleet slots in the seeded round-robin visit order.
    order: Vec<usize>,
    cursor: usize,
    /// Run operations still to issue.
    remaining: u64,
    churn_index: u64,
    churn_pending: Vec<Op>,
    /// Every instance the server acknowledged, with its acknowledged
    /// lifecycle state and dp name.
    instances: BTreeMap<u64, (String, DpiState)>,
}

impl Driver {
    pub fn new(kind: Kind, seed: u64, run_ops: u64) -> Driver {
        let mut rng = Rng::new(seed);
        let fleet_size = if kind == Kind::HealthWalk { HEALTH_FLEET } else { KERNEL_FLEET };
        let fleet = (0..fleet_size)
            .map(|i| {
                let (name, param) = match kind {
                    Kind::HealthWalk => (format!("health{i}"), 1 + rng.below(9)),
                    _ => (format!("kernel{i}"), rng.below(1000)),
                };
                Member { name, param, dpi: DpiId(0), issued: 0, acked: 0 }
            })
            .collect();
        let mut order: Vec<usize> = (0..fleet_size).collect();
        rng.shuffle(&mut order);
        Driver {
            kind,
            rng,
            atm: atm_values(),
            fleet,
            order,
            cursor: 0,
            remaining: run_ops,
            churn_index: 0,
            churn_pending: Vec::new(),
            instances: BTreeMap::new(),
        }
    }

    fn is_health(&self) -> bool {
        self.kind == Kind::HealthWalk
    }

    fn source(&self, m: &Member) -> String {
        if self.is_health() {
            health_source(m.param)
        } else {
            kernel_source(m.param)
        }
    }

    pub fn fleet_sources(&self) -> Vec<String> {
        self.fleet.iter().map(|m| self.source(m)).collect()
    }

    /// One fleet member's install step (`step` 0..3: delegate,
    /// instantiate, warm-up invoke). The warm-up needs the dpi the
    /// instantiate reply carried, so every member finishes a step before
    /// any starts the next.
    pub fn install_op(&mut self, slot: usize, step: usize) -> Op {
        let m = &self.fleet[slot];
        match step {
            0 => op(delegate(&m.name, self.source(m)), Expect::Ok),
            1 => op(RdsRequest::Instantiate { dp_name: m.name.clone() }, Expect::Instantiated),
            _ => self.fleet_invoke(slot, 0, 0),
        }
    }

    pub fn fleet_len(&self) -> usize {
        self.fleet.len()
    }

    fn fleet_invoke(&mut self, slot: usize, a: i64, b: i64) -> Op {
        let m = &mut self.fleet[slot];
        m.issued += 1;
        let calls = m.issued;
        let m = &self.fleet[slot];
        let (req, value) = if self.is_health() {
            (invoke(m.dpi, "summary", vec![a]), health_value(&self.atm, m.param, a, calls))
        } else {
            (invoke(m.dpi, "k", vec![a, b]), BerValue::Integer(kernel_value(m.param, a, b, calls)))
        };
        Op { req, expect: Expect::Value(value), slot: Some(slot) }
    }

    /// The next operation of the fixed run, or `None` once it is done.
    ///
    /// Invoke workloads visit the fleet round-robin in a seeded order.
    /// The client never has two calls in flight on one dpi, so the
    /// server runs each dpi's calls in issue order and each reply's
    /// `calls` count is exact.
    pub fn next_run_op(&mut self) -> Option<Op> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        match self.kind {
            Kind::DelegateChurn => {
                if self.churn_pending.is_empty() {
                    self.start_churn_cycle();
                }
                Some(self.churn_pending.remove(0))
            }
            kind => {
                let slot = self.order[self.cursor % self.order.len()];
                self.cursor += 1;
                let (a, b) = if kind == Kind::HealthWalk {
                    // Half the thresholds fall among the small columns,
                    // half among the 32-bit counters.
                    let limit = if self.rng.next() & 1 == 0 {
                        self.rng.below(1000)
                    } else {
                        self.rng.below(1 << 32)
                    };
                    (limit, 0)
                } else {
                    (self.rng.below(1000), self.rng.below(1000))
                };
                Some(self.fleet_invoke(slot, a, b))
            }
        }
    }

    fn start_churn_cycle(&mut self) {
        let v = self.next_variant();
        // Instance-bound steps carry DpiId(0) until the instantiate reply
        // names the dpi (see `record`).
        let d = DpiId(0);
        self.churn_pending = vec![
            op(delegate(&v.name, v.source.clone()), Expect::Ok),
            op(RdsRequest::Instantiate { dp_name: v.name.clone() }, Expect::Instantiated),
            op(invoke(d, "run", vec![v.arg]), Expect::Value(BerValue::Integer(v.value()))),
            op(RdsRequest::Suspend { dpi: d }, Expect::Ok),
            op(RdsRequest::Resume { dpi: d }, Expect::Ok),
            op(RdsRequest::Terminate { dpi: d }, Expect::Ok),
            op(RdsRequest::DeleteProgram { dp_name: v.name.clone() }, Expect::Ok),
        ];
    }

    fn next_variant(&mut self) -> Variant {
        self.churn_index += 1;
        Variant::generate(&mut self.rng, self.churn_index - 1)
    }

    /// The first `count` agent variants a churn run with this seed
    /// generates, in order.
    pub fn churn_variants(seed: u64, count: u64) -> Vec<Variant> {
        let mut d = Driver::new(Kind::DelegateChurn, seed, count * 7);
        (0..count).map(|_| d.next_variant()).collect()
    }

    /// Checks one reply against its operation and, when it verifies,
    /// records what the server has now acknowledged.
    pub fn record(&mut self, op: &Op, resp: &RdsResponse) -> bool {
        let ok = match (&op.expect, resp) {
            (Expect::Ok, RdsResponse::Ok) => true,
            (Expect::Instantiated, RdsResponse::Instantiated { .. }) => true,
            (Expect::Value(want), RdsResponse::Result { value }) => want == value,
            (Expect::Instances(want), RdsResponse::Instances { instances }) => {
                let mut got: Vec<(u64, String, DpiState)> =
                    instances.iter().map(|s| (s.id.0, s.dp_name.clone(), s.state)).collect();
                got.sort_by_key(|e| e.0);
                &got == want
            }
            _ => false,
        };
        if !ok {
            if self.kind == Kind::DelegateChurn {
                // The rest of a broken cycle has nothing to act on.
                self.remaining = self.remaining.saturating_sub(self.churn_pending.len() as u64);
                self.churn_pending.clear();
            }
            return false;
        }
        if let Some(slot) = op.slot {
            self.fleet[slot].acked += 1;
        }
        let state = match &op.req {
            RdsRequest::Suspend { .. } => Some(DpiState::Suspended),
            RdsRequest::Resume { .. } => Some(DpiState::Ready),
            RdsRequest::Terminate { .. } => Some(DpiState::Terminated),
            _ => None,
        };
        match (&op.req, resp) {
            (RdsRequest::Instantiate { dp_name }, RdsResponse::Instantiated { dpi }) => {
                self.instances.insert(dpi.0, (dp_name.clone(), DpiState::Ready));
                if let Some(m) = self.fleet.iter_mut().find(|m| &m.name == dp_name) {
                    m.dpi = *dpi;
                }
                for pending in &mut self.churn_pending {
                    match &mut pending.req {
                        RdsRequest::Invoke { dpi: d, .. }
                        | RdsRequest::Suspend { dpi: d }
                        | RdsRequest::Resume { dpi: d }
                        | RdsRequest::Terminate { dpi: d } => *d = *dpi,
                        _ => {}
                    }
                }
            }
            (
                RdsRequest::Suspend { dpi }
                | RdsRequest::Resume { dpi }
                | RdsRequest::Terminate { dpi },
                _,
            ) => {
                if let (Some(entry), Some(state)) = (self.instances.get_mut(&dpi.0), state) {
                    entry.1 = state;
                }
            }
            _ => {}
        }
        true
    }

    /// The checks a restarted server must pass: every acknowledged
    /// instance in its acknowledged state, then every fleet member's
    /// call count. The first op is the recovery probe.
    pub fn verify_ops(&self) -> Vec<Op> {
        let mut ops =
            vec![op(RdsRequest::ListInstances, Expect::Instances(self.acked_instances()))];
        for m in &self.fleet {
            ops.push(op(
                invoke(m.dpi, "count", vec![]),
                Expect::Value(BerValue::Integer(m.acked as i64)),
            ));
        }
        ops
    }

    /// Suspend, resume and terminate every fleet dpi, then delete every
    /// fleet program: the lifecycle verbs the invoke workloads otherwise
    /// never send, timed on the workload's own fleet.
    pub fn teardown_ops(&self) -> Vec<Op> {
        let mut ops = Vec::new();
        for m in &self.fleet {
            ops.push(op(RdsRequest::Suspend { dpi: m.dpi }, Expect::Ok));
            ops.push(op(RdsRequest::Resume { dpi: m.dpi }, Expect::Ok));
            ops.push(op(RdsRequest::Terminate { dpi: m.dpi }, Expect::Ok));
        }
        for m in &self.fleet {
            ops.push(op(RdsRequest::DeleteProgram { dp_name: m.name.clone() }, Expect::Ok));
        }
        ops
    }

    /// Fleet dpis with their acknowledged call counts.
    pub fn fleet_acked(&self) -> Vec<(DpiId, u64)> {
        self.fleet.iter().map(|m| (m.dpi, m.acked)).collect()
    }

    /// Acknowledged instances, sorted by id.
    pub fn acked_instances(&self) -> Vec<(u64, String, DpiState)> {
        self.instances.iter().map(|(id, (n, s))| (*id, n.clone(), *s)).collect()
    }
}
