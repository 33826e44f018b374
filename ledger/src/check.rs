//! The correctness gate: every verdict the program returned is checked
//! against the independent `modelcheck::Oracle`, outside the timed
//! window, one oracle per partition key (see `gen`'s module docs for
//! why partitions are independent).

use std::collections::BTreeMap;

use modelcheck::{project, sort_snapshot, Oracle, OracleRequest, Verdict};
use msod::{AdiRecord, MsodPolicySet};
use net::WireVerdict;
use permis::DecisionOutcome;

use crate::gen::{Op, Req};

/// What the program answered for one op.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Seen {
    /// A verdict, projected onto the oracle's semantic core.
    Verdict(Verdict),
    /// Records removed by a management purge.
    Purged(usize),
    /// A transport error, an error frame or a failed durable ack.
    Failed(String),
}

impl Seen {
    /// Project an in-process outcome.
    pub fn of(outcome: &DecisionOutcome) -> Seen {
        Seen::Verdict(project(outcome))
    }

    /// Project a wire verdict onto the same core (the wire narrows
    /// counts to `u32`/`u64`; widening them back is lossless here).
    pub fn of_wire(v: WireVerdict) -> Seen {
        Seen::Verdict(match v {
            WireVerdict::NotApplicable => Verdict::NotApplicable,
            WireVerdict::Grant { matched, added, terminated, purged } => Verdict::Grant {
                matched: matched.into_iter().map(|m| m as usize).collect(),
                added: added as usize,
                terminated,
                purged: purged as usize,
            },
            WireVerdict::MsodDeny {
                policy,
                bound,
                mmer,
                constraint,
                current,
                historic,
                cardinality,
            } => Verdict::Deny {
                policy: policy as usize,
                bound,
                kind: if mmer { "MMER" } else { "MMEP" },
                constraint: constraint as usize,
                current: current as usize,
                historic: historic as usize,
                cardinality: cardinality as usize,
            },
            WireVerdict::FrontEnd(reason) => Verdict::FrontEnd(reason),
        })
    }

    /// Heap bytes this answer owns (for the benchmark's memory account).
    pub fn heap_bytes(&self) -> usize {
        match self {
            Seen::Verdict(Verdict::Grant { matched, terminated, .. }) => {
                matched.capacity() * std::mem::size_of::<usize>()
                    + terminated
                        .iter()
                        .map(|t| std::mem::size_of::<String>() + t.len())
                        .sum::<usize>()
            }
            Seen::Verdict(Verdict::Deny { bound, .. }) => bound.capacity(),
            Seen::Verdict(Verdict::FrontEnd(s)) | Seen::Failed(s) => s.capacity(),
            Seen::Verdict(Verdict::NotApplicable) | Seen::Purged(_) => 0,
        }
    }

    /// Whether this is a grant (of either kind).
    pub fn is_grant(&self) -> bool {
        matches!(self, Seen::Verdict(Verdict::NotApplicable | Verdict::Grant { .. }))
    }

    /// Whether this is a deny.
    pub fn is_deny(&self) -> bool {
        matches!(self, Seen::Verdict(Verdict::Deny { .. } | Verdict::FrontEnd(_)))
    }
}

/// The oracles of every partition seen so far plus the tally of
/// disagreements.
pub struct Gate {
    policies: MsodPolicySet,
    oracles: BTreeMap<String, Oracle>,
    /// Ops whose answer disagreed with the oracle (failures included).
    pub mismatches: u64,
    /// The first few disagreements, for the report.
    pub examples: Vec<String>,
}

fn oracle_request(r: &Req) -> OracleRequest {
    OracleRequest {
        user: r.req.subject.clone(),
        roles: r.roles(),
        operation: r.req.operation.clone(),
        target: r.req.target.clone(),
        context: r.req.context.clone(),
        timestamp: r.req.timestamp,
    }
}

impl Gate {
    /// A gate over `policies` with no partitions yet.
    pub fn new(policies: MsodPolicySet) -> Self {
        Gate { policies, oracles: BTreeMap::new(), mismatches: 0, examples: Vec::new() }
    }

    fn oracle(&mut self, key: &str) -> &mut Oracle {
        if !self.oracles.contains_key(key) {
            self.oracles.insert(key.to_owned(), Oracle::new(self.policies.clone()));
        }
        self.oracles.get_mut(key).expect("inserted above")
    }

    fn expect_req(&mut self, r: &Req) -> Seen {
        let req = oracle_request(r);
        Seen::Verdict(self.oracle(&r.key()).decide(&req))
    }

    fn expect(&mut self, op: &Op) -> Seen {
        match op {
            Op::Decide(r) => self.expect_req(r),
            Op::Purge { scope, .. } => {
                let name = scope.parse().expect("generated scope parses");
                Seen::Purged(self.oracle(scope).purge_scope(&name))
            }
        }
    }

    fn compare(&mut self, i: usize, key: impl FnOnce() -> String, want: Seen, got: Option<&Seen>) {
        match got {
            Some(got) if *got == want => {}
            Some(got) => {
                self.mismatches += 1;
                if self.examples.len() < 5 {
                    self.examples.push(format!("op {i} [{}]: got {got:?}, oracle {want:?}", key()));
                }
            }
            None => {
                self.mismatches += 1;
                if self.examples.len() < 5 {
                    self.examples.push(format!("op {i} [{}]: no answer", key()));
                }
            }
        }
    }

    /// Check one client's answers, in stream order. `seen` may be
    /// shorter than `ops` only if the client stopped early; every op
    /// without an answer counts as a failure.
    pub fn check(&mut self, ops: &[Op], seen: &[Seen]) {
        for (i, op) in ops.iter().enumerate() {
            let want = self.expect(op);
            self.compare(i, || op.key(), want, seen.get(i));
        }
    }

    /// Check the outcomes of requests decided as one sequence (e.g. the
    /// seeding of a history).
    pub fn check_outcomes(&mut self, reqs: &[Req], outcomes: &[DecisionOutcome]) {
        for (i, r) in reqs.iter().enumerate() {
            let want = self.expect_req(r);
            self.compare(i, || r.key(), want, outcomes.get(i).map(Seen::of).as_ref());
        }
    }

    /// Every oracle's retained records, in the canonical order.
    pub fn snapshot(&self) -> Vec<AdiRecord> {
        let mut all: Vec<AdiRecord> = self.oracles.values().flat_map(|o| o.snapshot()).collect();
        sort_snapshot(&mut all);
        all
    }

    /// Compare the program's retained ADI with the oracles' and count
    /// every record present on one side only as a mismatch (a lost
    /// acknowledged grant shows up here).
    pub fn check_snapshot(&mut self, mut got: Vec<AdiRecord>) {
        sort_snapshot(&mut got);
        let want = self.snapshot();
        let render = |r: &AdiRecord| {
            format!(
                "{}|{:?}|{}|{}|{}|{}",
                r.user, r.roles, r.operation, r.target, r.context, r.timestamp
            )
        };
        let mut count: BTreeMap<String, i64> = BTreeMap::new();
        for r in &want {
            *count.entry(render(r)).or_default() += 1;
        }
        for r in &got {
            *count.entry(render(r)).or_default() -= 1;
        }
        let diff: Vec<(String, i64)> = count.into_iter().filter(|(_, n)| *n != 0).collect();
        for (rec, n) in diff {
            let side = if n > 0 { "missing from the program" } else { "extra in the program" };
            self.mismatches += n.unsigned_abs();
            if self.examples.len() < 5 {
                self.examples
                    .push(format!("retained record {side} (x{}): {rec}", n.unsigned_abs()));
            }
        }
    }
}

/// Self-test: the gate must agree with a stream answered by the oracle
/// itself, and must catch that stream with one verdict flipped.
pub fn self_test(policies: &MsodPolicySet, ops: &[Op]) -> Result<(), String> {
    let mut truth = Gate::new(policies.clone());
    let answers: Vec<Seen> = ops.iter().map(|op| truth.expect(op)).collect();
    let mut clean = Gate::new(policies.clone());
    clean.check(ops, &answers);
    if clean.mismatches != 0 {
        return Err(format!("checker rejects the oracle's own answers: {:?}", clean.examples));
    }
    let Some(i) = answers.iter().position(|s| s.is_grant() || s.is_deny()) else {
        return Err("self-test stream has no verdict to flip".into());
    };
    let mut flipped = answers;
    flipped[i] = if flipped[i].is_grant() {
        Seen::Verdict(Verdict::FrontEnd("flipped".into()))
    } else {
        Seen::Verdict(Verdict::NotApplicable)
    };
    let mut dirty = Gate::new(policies.clone());
    dirty.check(ops, &flipped);
    if dirty.mismatches == 0 {
        return Err(format!("checker accepted a flipped verdict at op {i}"));
    }
    Ok(())
}
