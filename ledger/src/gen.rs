//! Seeded request streams for the three workloads.
//!
//! Everything here is a pure function of the seed and the run length:
//! the program under test only ever receives the generated requests.
//!
//! **Why each client's verdicts are independent of interleaving.** A
//! request's §4.2 verdict reads, and its commit or purge writes, only
//! the retained records covered by the bound context of the policy it
//! matches: `Project=!` binds to one project; the bank policy
//! `Branch=*, Period=!` binds to one audit period across all branches;
//! the tax policy `TaxOffice=!, taxRefundProcess=!` binds to one refund
//! process. A last-step purge removes exactly that bound scope, and a
//! management purge names one project. Every op carries that bound
//! scope as its partition `key`, and the generator gives each client
//! (closed-loop clients and the paced client alike) its own users and
//! its own projects, periods and refund processes. No two clients ever
//! touch a common key, so each client's verdict stream equals what a
//! single-threaded run of that stream alone would produce, whatever
//! the thread schedule, and can be checked against one
//! `modelcheck::Oracle` per key.

use std::collections::HashMap;

use context::ContextInstance;
use credential::{AttributeCredential, Authority};
use msod::RoleRef;
use net::loadgen::{SplitMix64, Zipf};
use permis::{Credentials, DecisionRequest};

/// The loadgen policy (`Project=!` MMER over Member/Reviewer).
pub use net::BUILTIN_POLICY as WIRE_POLICY;

/// The paper's two worked examples in one policy: Example 1's
/// bank-audit MMER with its `CommitAudit` last step, and Example 2's
/// tax-refund MMEPs with first and last steps.
pub const BANK_POLICY: &str = r#"<RBACPolicy id="bank-and-tax" roleType="employee">
  <SubjectPolicy><SubjectDomain dn="o=bank"/></SubjectPolicy>
  <SOAPolicy><SOA dn="cn=HR, o=bank"/></SOAPolicy>
  <TargetAccessPolicy>
    <TargetAccess operation="handleCash" targetURI="http://bank/till">
      <AllowedRole value="Teller"/>
    </TargetAccess>
    <TargetAccess operation="audit" targetURI="http://bank/books">
      <AllowedRole value="Auditor"/>
    </TargetAccess>
    <TargetAccess operation="CommitAudit" targetURI="http://audit.location.com/audit">
      <AllowedRole value="Auditor"/>
    </TargetAccess>
    <TargetAccess operation="prepareCheck" targetURI="http://www.myTaxOffice.com/Check">
      <AllowedRole value="Clerk"/>
    </TargetAccess>
    <TargetAccess operation="approve/disapproveCheck" targetURI="http://www.myTaxOffice.com/Check">
      <AllowedRole value="Manager"/>
    </TargetAccess>
    <TargetAccess operation="combineResults" targetURI="http://secret.location.com/results">
      <AllowedRole value="Manager"/>
    </TargetAccess>
    <TargetAccess operation="confirmCheck" targetURI="http://secret.location.com/audit">
      <AllowedRole value="Clerk"/>
    </TargetAccess>
    <TargetAccess operation="*" targetURI="pdp:retainedADI">
      <AllowedRole value="RetainedADIController"/>
    </TargetAccess>
  </TargetAccessPolicy>
  <MSoDPolicySet>
    <MSoDPolicy BusinessContext="Branch=*, Period=!">
      <LastStep operation="CommitAudit" targetURI="http://audit.location.com/audit"/>
      <MMER ForbiddenCardinality="2">
        <Role type="employee" value="Teller"/>
        <Role type="employee" value="Auditor"/>
      </MMER>
    </MSoDPolicy>
    <MSoDPolicy BusinessContext="TaxOffice=!, taxRefundProcess=!">
      <FirstStep operation="prepareCheck" targetURI="http://www.myTaxOffice.com/Check"/>
      <LastStep operation="confirmCheck" targetURI="http://secret.location.com/audit"/>
      <MMEP ForbiddenCardinality="2">
        <Operation value="prepareCheck" target="http://www.myTaxOffice.com/Check"/>
        <Operation value="confirmCheck" target="http://secret.location.com/audit"/>
      </MMEP>
      <MMEP ForbiddenCardinality="2">
        <Operation value="approve/disapproveCheck" target="http://www.myTaxOffice.com/Check"/>
        <Operation value="approve/disapproveCheck" target="http://www.myTaxOffice.com/Check"/>
        <Operation value="combineResults" target="http://secret.location.com/results"/>
      </MMEP>
    </MSoDPolicy>
  </MSoDPolicySet>
</RBACPolicy>"#;

/// The HR authority that signs every bank_durable credential.
pub const HR_DN: &str = "cn=HR, o=bank";
/// Its HMAC signing key (also the CVS verification key).
pub const HR_KEY: &[u8] = b"ledger-hr-signing-key";
/// The administrator identity of every management purge (inside the
/// bank policy's subject domain; the loadgen policy has none).
pub const ADMIN_DN: &str = "cn=ledger-admin, o=bank";

/// One decide request as the program receives it.
#[derive(Debug, Clone)]
pub struct Req {
    /// The request.
    pub req: DecisionRequest,
}

impl Req {
    /// The activated roles: the validated roles, or the pushed
    /// credentials' roles (the oracle's and the wire encoder's view).
    pub fn roles(&self) -> Vec<RoleRef> {
        match &self.req.credentials {
            Credentials::Validated(roles) => roles.clone(),
            Credentials::Push(creds) => creds.iter().map(|c| c.role.clone()).collect(),
            Credentials::Pull => Vec::new(),
        }
    }

    /// The bound scope this request reads and writes (see the module
    /// docs): the oracle partition.
    pub fn key(&self) -> String {
        let pairs = self.req.context.pairs();
        match pairs {
            [(b, _), (p, period)] if b == "Branch" && p == "Period" => {
                format!("Branch=*, Period={period}")
            }
            _ => self.req.context.to_string(),
        }
    }
}

/// One step of a client's stream.
#[derive(Debug, Clone)]
pub enum Op {
    /// A decision.
    Decide(Req),
    /// An authorized §4.3 purge of one project scope.
    Purge {
        /// The scope, e.g. `Project=c0p3`.
        scope: String,
        /// Request time.
        ts: u64,
    },
}

impl Op {
    /// The oracle partition this op belongs to.
    pub fn key(&self) -> String {
        match self {
            Op::Decide(r) => r.key(),
            Op::Purge { scope, .. } => scope.clone(),
        }
    }
}

/// A workload's complete input.
pub struct Workload {
    /// Workload name.
    pub name: &'static str,
    /// The `<RBACPolicy>` document the service loads.
    pub policy_xml: &'static str,
    /// Requests decided while setting up, before anything is timed.
    pub preload: Vec<Req>,
    /// One stream per closed-loop client, disjoint in users and keys.
    pub closed: Vec<Vec<Op>>,
    /// Leading ops of each closed stream run before timing starts.
    pub warmup: usize,
    /// The paced client's stream.
    pub open: Vec<Op>,
    /// The paced client's schedule, requests per second.
    pub open_rate: f64,
    /// Requests per closed-loop call (`decide_many` batches when > 1).
    /// The paced client always sends one request per call: its tail
    /// needs one latency sample per request.
    pub batch: usize,
}

/// Closed-loop clients (one per core on the reference host).
pub const CLIENTS: usize = 2;

/// The closed-loop rate each client sustains on the reference host
/// (one CPU of a 2-vCPU Xeon VM; see `measure::pin_to_one_cpu`). Streams are sized from it so that a
/// run does a fixed amount of work — identical grant and deny counts
/// for one seed — that lasts about the requested time.
fn nominal_client_rps(name: &str) -> f64 {
    match name {
        "wire_zipf" => 17_500.0,
        "bank_durable" => 6_000.0,
        _ => 22_000.0,
    }
}

/// The paced client's rate: about half of one closed-loop client's
/// rate on the reference host (the paced client is one client).
/// bank_durable's is lower: a grant's acknowledgement is two fsyncs,
/// whose latency on a shared disk swings several-fold, and a backlog
/// turns each swing into a queue. At 2000/s, runs of one build put its
/// paced p90 anywhere from 0.25 to 2.7 ms.
pub fn open_rate(name: &str) -> f64 {
    match name {
        "wire_zipf" => 8_000.0,
        "bank_durable" => 1_000.0,
        _ => 11_000.0,
    }
}

/// Shares of `--seconds` spent in the closed and the paced loop; the
/// rest is set-up and checking. The closed loop's throughput is the
/// noisiest figure, so it gets the larger share.
const CLOSED_SHARE: f64 = 0.5;
const OPEN_SHARE: f64 = 0.3;

fn client_rng(seed: u64, client: usize) -> SplitMix64 {
    SplitMix64(seed ^ (0x6C65_6467_6572 + client as u64).wrapping_mul(0x2545_F491_4F6C_DD1D))
}

fn ctx(pairs: &[(&str, &str)]) -> ContextInstance {
    ContextInstance::from_pairs(pairs.iter().map(|(t, v)| (t.to_string(), v.to_string())).collect())
        .expect("generated context is well-formed")
}

fn validated(
    user: String,
    role: RoleRef,
    op: &str,
    target: &str,
    context: ContextInstance,
    ts: u64,
) -> Req {
    Req { req: DecisionRequest::with_roles(user, vec![role], op, target, context, ts) }
}

/// Build `name`'s workload for `seed`, sized for `seconds` of timing.
pub fn build(name: &str, seed: u64, seconds: f64) -> Option<Workload> {
    let closed_n = ((nominal_client_rps(name) * seconds * CLOSED_SHARE) as usize).max(64);
    let open_n = ((open_rate(name) * seconds * OPEN_SHARE) as usize).max(64);
    match name {
        "wire_zipf" => Some(wire_zipf(seed, closed_n, open_n)),
        "bank_durable" => Some(bank_durable(seed, closed_n, open_n)),
        "deep_history" => Some(deep_history(seed, closed_n, open_n)),
        _ => None,
    }
}

// ---------------------------------------------------------------------
// wire_zipf

const WIRE_USERS: usize = 500;
const WIRE_PROJECTS: u64 = 32;

fn wire_stream(seed: u64, client: usize, n: usize, purges: bool) -> Vec<Op> {
    let mut rng = client_rng(seed, client);
    let zipf = Zipf::new(WIRE_USERS, 1.1);
    let mut ts = 1 + client as u64 * 1_000_000_000;
    let mut ops = Vec::with_capacity(n);
    while ops.len() < n {
        ts += 1;
        if purges && rng.below(256) == 0 {
            let scope = format!("Project=c{client}p{}", rng.below(WIRE_PROJECTS));
            ops.push(Op::Purge { scope, ts });
            continue;
        }
        let user = zipf.sample(&mut rng);
        let role = if rng.below(2) == 0 { "Member" } else { "Reviewer" };
        let project = format!("c{client}p{}", rng.below(WIRE_PROJECTS));
        ops.push(Op::Decide(validated(
            format!("c{client}u{user}"),
            RoleRef::permis(role),
            "work",
            "http://vo/resource",
            ctx(&[("Project", &project)]),
            ts,
        )));
    }
    ops
}

fn wire_zipf(seed: u64, closed_n: usize, open_n: usize) -> Workload {
    Workload {
        name: "wire_zipf",
        policy_xml: WIRE_POLICY,
        preload: Vec::new(),
        closed: (0..CLIENTS).map(|c| wire_stream(seed, c, closed_n, true)).collect(),
        warmup: 8_000,
        open: wire_stream(seed, CLIENTS, open_n, false),
        open_rate: open_rate("wire_zipf"),
        batch: 1,
    }
}

// ---------------------------------------------------------------------
// deep_history

const DEEP_USERS: usize = 1_000;
const DEEP_PROJECTS: u64 = 1_000;
/// Retained records seeded per closed-loop client before timing.
pub const DEEP_PRELOAD_PER_CLIENT: usize = 100_000;

/// The role a user takes in a project while the history is seeded; a
/// query asks for the other one, so most queries are MMER denies.
fn home_role(user: usize, project: u64) -> &'static str {
    let mut h = SplitMix64((user as u64) << 32 ^ project);
    if h.next_u64() & 1 == 0 {
        "Member"
    } else {
        "Reviewer"
    }
}

fn deep_req(client: usize, user: usize, project: u64, role: &str, ts: u64) -> Req {
    let p = format!("c{client}p{project}");
    validated(
        format!("c{client}u{user}"),
        RoleRef::permis(role),
        "work",
        "http://vo/resource",
        ctx(&[("Project", &p)]),
        ts,
    )
}

/// One client's seeding stream plus its query stream.
fn deep_client(seed: u64, client: usize, preload: usize, n: usize) -> (Vec<Req>, Vec<Op>) {
    let mut rng = client_rng(seed, client);
    let zipf = Zipf::new(DEEP_USERS, 1.1);
    let mut ts = 1 + client as u64 * 1_000_000_000;
    let mut history: HashMap<usize, Vec<u64>> = HashMap::new();
    let mut seeded = Vec::with_capacity(preload);
    for _ in 0..preload {
        ts += 1;
        let user = zipf.sample(&mut rng);
        let project = rng.below(DEEP_PROJECTS);
        history.entry(user).or_default().push(project);
        seeded.push(deep_req(client, user, project, home_role(user, project), ts));
    }
    let mut ops = Vec::with_capacity(n);
    for _ in 0..n {
        ts += 1;
        let user = zipf.sample(&mut rng);
        let project = match history.get(&user) {
            Some(ps) if rng.below(10) != 0 => ps[rng.below(ps.len() as u64) as usize],
            _ => rng.below(DEEP_PROJECTS),
        };
        let other = if home_role(user, project) == "Member" { "Reviewer" } else { "Member" };
        ops.push(Op::Decide(deep_req(client, user, project, other, ts)));
    }
    (seeded, ops)
}

fn deep_history(seed: u64, closed_n: usize, open_n: usize) -> Workload {
    let mut preload = Vec::new();
    let mut closed = Vec::new();
    for c in 0..CLIENTS {
        let (seeded, ops) = deep_client(seed, c, DEEP_PRELOAD_PER_CLIENT, closed_n);
        preload.extend(seeded);
        closed.push(ops);
    }
    // The paced client queries its own (smaller) history.
    let (seeded, open) = deep_client(seed, CLIENTS, DEEP_PRELOAD_PER_CLIENT / 10, open_n);
    preload.extend(seeded);
    Workload {
        name: "deep_history",
        policy_xml: WIRE_POLICY,
        preload,
        closed,
        warmup: 8_192,
        open,
        open_rate: open_rate("deep_history"),
        batch: 32,
    }
}

// ---------------------------------------------------------------------
// bank_durable

/// Retained records journaled before set-up is timed (periods no
/// client touches, so the journal's size is fixed for every run).
pub const BANK_PRELOAD_RECORDS: usize = 20_000;
const BANK_BRANCHES: u64 = 4;
const BANK_STAFF: u64 = 40;

/// Signed credentials, issued once per (user, role) and reused across
/// that user's sessions, as a real credential would be.
struct Wallet {
    hr: Authority,
    issued: HashMap<(String, &'static str), AttributeCredential>,
}

impl Wallet {
    fn new() -> Self {
        Wallet { hr: Authority::new(HR_DN, HR_KEY.to_vec()), issued: HashMap::new() }
    }

    /// A push-mode request: the user presents exactly one credential.
    fn push(
        &mut self,
        user: &str,
        role: &'static str,
        op: &str,
        target: &str,
        context: ContextInstance,
        ts: u64,
    ) -> Req {
        let hr = &mut self.hr;
        let cred = self
            .issued
            .entry((user.to_owned(), role))
            .or_insert_with(|| hr.issue(user, RoleRef::new("employee", role), 0, u64::MAX))
            .clone();
        Req {
            req: DecisionRequest {
                subject: user.to_owned(),
                credentials: Credentials::Push(vec![cred]),
                operation: op.into(),
                target: target.into(),
                context,
                environment: Vec::new(),
                timestamp: ts,
            },
        }
    }
}

const TILL: &str = "http://bank/till";
const BOOKS: &str = "http://bank/books";
const COMMIT: &str = "http://audit.location.com/audit";
const CHECK: &str = "http://www.myTaxOffice.com/Check";
const RESULTS: &str = "http://secret.location.com/results";
const CONFIRM: &str = "http://secret.location.com/audit";

/// Distinct picks from `0..n`.
fn pick_distinct(rng: &mut SplitMix64, n: u64, k: usize) -> Vec<u64> {
    let mut out: Vec<u64> = Vec::with_capacity(k);
    while out.len() < k {
        let v = rng.below(n);
        if !out.contains(&v) {
            out.push(v);
        }
    }
    out
}

/// One audit period of Example 1: tellers handle cash across branches,
/// some of them try to audit (MMER deny), an auditor who never touched
/// cash audits, and `CommitAudit` ends the period (last-step purge).
fn bank_period(
    rng: &mut SplitMix64,
    wallet: &mut Wallet,
    client: usize,
    period: u64,
    ts: &mut u64,
    out: &mut Vec<Op>,
) {
    let p = format!("c{client}y{period}");
    let staff = pick_distinct(rng, BANK_STAFF, 5);
    let (tellers, auditor) = (&staff[..4], staff[4]);
    let user = |i: u64| format!("cn=c{client}s{i}, o=bank");
    let mut push = |rng: &mut SplitMix64, who: u64, role, op, target, out: &mut Vec<Op>| {
        *ts += 1;
        let branch = format!("b{}", rng.below(BANK_BRANCHES));
        let c = ctx(&[("Branch", &branch), ("Period", &p)]);
        out.push(Op::Decide(wallet.push(&user(who), role, op, target, c, *ts)));
    };
    for _ in 0..2 + rng.below(4) {
        let t = tellers[rng.below(4) as usize];
        push(rng, t, "Teller", "handleCash", TILL, out);
    }
    let audits = tellers[rng.below(4) as usize];
    push(rng, audits, "Auditor", "audit", BOOKS, out);
    for _ in 0..1 + rng.below(2) {
        push(rng, auditor, "Auditor", "audit", BOOKS, out);
    }
    push(rng, auditor, "Auditor", "CommitAudit", COMMIT, out);
}

/// One refund process of Example 2, including each forbidden attempt:
/// a manager approving twice, an approver combining, and the preparer
/// confirming (MMEP denies); `confirmCheck` by another clerk ends it.
fn tax_process(
    rng: &mut SplitMix64,
    wallet: &mut Wallet,
    client: usize,
    process: u64,
    ts: &mut u64,
    out: &mut Vec<Op>,
) {
    let office = format!("c{client}o{}", rng.below(4));
    let proc_id = process.to_string();
    let c = ctx(&[("TaxOffice", &office), ("taxRefundProcess", &proc_id)]);
    let people = pick_distinct(rng, BANK_STAFF, 5);
    let clerk = |i: u64| format!("cn=c{client}k{i}, o=bank");
    let manager = |i: u64| format!("cn=c{client}m{i}, o=bank");
    let (preparer, confirmer) = (clerk(people[0]), clerk(people[1]));
    let (m1, m2, m3) = (manager(people[2]), manager(people[3]), manager(people[4]));
    let steps: [(&str, &'static str, &str, &str); 9] = [
        (&preparer, "Clerk", "prepareCheck", CHECK),
        (&m1, "Manager", "approve/disapproveCheck", CHECK),
        (&m1, "Manager", "approve/disapproveCheck", CHECK),
        (&m2, "Manager", "approve/disapproveCheck", CHECK),
        (&m1, "Manager", "combineResults", RESULTS),
        (&m3, "Manager", "combineResults", RESULTS),
        (&preparer, "Clerk", "confirmCheck", CONFIRM),
        (&confirmer, "Clerk", "confirmCheck", CONFIRM),
        // A late request after the last step: the instance is gone,
        // so it starts nothing (first step only) and is granted.
        (&m1, "Manager", "combineResults", RESULTS),
    ];
    for (who, role, op, target) in steps {
        *ts += 1;
        out.push(Op::Decide(wallet.push(who, role, op, target, c.clone(), *ts)));
    }
}

fn bank_stream(seed: u64, client: usize, n: usize) -> Vec<Op> {
    let mut rng = client_rng(seed, client);
    let mut wallet = Wallet::new();
    let mut ts = 1 + client as u64 * 1_000_000_000;
    let mut ops = Vec::with_capacity(n + 16);
    let (mut periods, mut processes) = (0u64, 0u64);
    while ops.len() < n {
        if rng.below(2) == 0 {
            bank_period(&mut rng, &mut wallet, client, periods, &mut ts, &mut ops);
            periods += 1;
        } else {
            tax_process(&mut rng, &mut wallet, client, processes, &mut ts, &mut ops);
            processes += 1;
        }
    }
    // Cut the last instance short: its grants stay retained, so the
    // reopen after the simulated power cut has acknowledged grants
    // that only a working `sync_adi` can have made durable.
    ops.truncate(n);
    ops
}

/// Teller grants in periods no client ever commits: the journal that
/// set-up reopens.
fn bank_preload(seed: u64) -> Vec<Req> {
    let mut rng = client_rng(seed, usize::MAX);
    (0..BANK_PRELOAD_RECORDS)
        .map(|i| {
            let period = format!("pre{}", rng.below(200));
            let branch = format!("b{}", rng.below(BANK_BRANCHES));
            validated(
                format!("cn=pre{}, o=bank", rng.below(500)),
                RoleRef::new("employee", "Teller"),
                "handleCash",
                TILL,
                ctx(&[("Branch", &branch), ("Period", &period)]),
                1 + i as u64,
            )
        })
        .collect()
}

fn bank_durable(seed: u64, closed_n: usize, open_n: usize) -> Workload {
    Workload {
        name: "bank_durable",
        policy_xml: BANK_POLICY,
        preload: bank_preload(seed),
        closed: (0..CLIENTS).map(|c| bank_stream(seed, c, closed_n)).collect(),
        warmup: 64,
        open: bank_stream(seed, CLIENTS, open_n),
        open_rate: open_rate("bank_durable"),
        batch: 1,
    }
}

// ---------------------------------------------------------------------

/// FNV-1a over a canonical rendering of every request of the workload:
/// two runs received the same input iff their hashes agree.
pub fn stream_hash(w: &Workload) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |s: &str| {
        for b in s.bytes().chain([0xff]) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    };
    let render = |r: &Req| {
        let creds: String = match &r.req.credentials {
            Credentials::Push(cs) => cs.iter().map(|c| c.serial.to_string()).collect(),
            _ => String::new(),
        };
        format!(
            "{}|{:?}|{}|{}|{}|{}|{}",
            r.req.subject,
            r.roles(),
            r.req.operation,
            r.req.target,
            r.req.context,
            r.req.timestamp,
            creds
        )
    };
    for r in &w.preload {
        eat(&render(r));
    }
    for op in w.closed.iter().flatten().chain(&w.open) {
        match op {
            Op::Decide(r) => eat(&render(r)),
            Op::Purge { scope, ts } => eat(&format!("purge|{scope}|{ts}")),
        }
    }
    h
}
