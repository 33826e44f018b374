//! Per-layer measurements of the traced run.
//!
//! Each layer is timed alone by calling its public functions from the
//! benchmark's own code, on shadow state fed the workload's own stream
//! (the seeded history first, where the workload has one, then a
//! prefix of the first client's stream). None of this runs inside the
//! end-to-end timing. Every call gets a span; the spans are written to
//! `ledger-out/<workload>.spans.jsonl` at the end.

use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use audit::{AuditEvent, AuditTrail, TrailStore};
use credential::{Authority, CredentialValidationService};
use msod::{
    intern_request, sharded_sym_adi, AdiRecord, EngineOptions, IndexedAdi, MatchedBuf,
    MsodDecision, MsodEngine, MsodPolicy, MsodPolicySet, MsodRequest, Privilege, ReqBufs,
    RetainedAdi, RoleRef, SymEngine,
};
use net::{scan_frame, FrameScan, NetClient, NetConfig, NetServer, Request, WireDecide};
use permis::{Credentials, DecisionOutcome, DecisionService, ManagementOp, ReplicaRole};
use storage::PersistentAdi;
use symtab::SymbolTable;

use crate::gen::{self, Op, Req, Workload};
use crate::measure::{mean, quantile, Tracer, Usage};
use crate::run::{self, decide_in_chunks, Run, BANK_SHARDS, TRAIL_KEY};
use crate::Metrics;

/// Requests of the first client's stream each probe is fed.
const PROBE_OPS: usize = 4_000;
/// Distinct bound scopes purged by the management and last-step probes.
const PURGE_PROBES: usize = 48;
/// Tolerance of the telemetry cross-check: a service phase histogram's
/// mean must lie within this factor of its layer-alone row's mean.
pub const XCHECK_TOLERANCE: f64 = 2.0;

/// A latency sample's summary.
struct Sample(Vec<u64>);

impl Sample {
    fn p(&self, q: f64) -> f64 {
        let mut v = self.0.clone();
        v.sort_unstable();
        quantile(&v, q)
    }

    fn mean(&self) -> f64 {
        mean(&self.0)
    }
}

/// Time `f` into `sample`, inside a span.
fn probe<R>(
    tr: &mut Tracer,
    name: &'static str,
    req: u64,
    sample: &mut Vec<u64>,
    f: impl FnOnce() -> R,
) -> R {
    let open = tr.open();
    let t = Instant::now();
    let r = f();
    sample.push(t.elapsed().as_nanos() as u64);
    tr.close(open, name, 0, req);
    r
}

/// The engine's view of `r`, with its activated roles.
fn msod_req<'a>(r: &'a Req, roles: &'a [RoleRef]) -> MsodRequest<'a> {
    MsodRequest {
        user: &r.req.subject,
        roles,
        operation: &r.req.operation,
        target: &r.req.target,
        context: &r.req.context,
        timestamp: r.req.timestamp,
    }
}

fn records_consulted(d: &MsodDecision) -> usize {
    match d {
        MsodDecision::NotApplicable => 0,
        MsodDecision::Grant(g) => g.records_consulted,
        MsodDecision::Deny(d) => d.records_consulted,
    }
}

/// Sum of one metric family's samples in a Prometheus text document
/// (optionally only samples carrying `label`).
fn prom_sum(text: &str, name: &str, label: Option<&str>) -> f64 {
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let (key, value) = l.rsplit_once(' ')?;
            let base = key.split('{').next()?;
            (base == name && label.is_none_or(|lb| key.contains(lb)))
                .then(|| value.parse::<f64>().ok())?
        })
        .sum()
}

/// Mean of one `permis_decide_phase_ns` phase histogram, ns.
fn phase_mean(text: &str, phase: &str) -> f64 {
    let label = format!("phase=\"{phase}\"");
    let sum = prom_sum(text, "permis_decide_phase_ns_sum", Some(&label));
    let count = prom_sum(text, "permis_decide_phase_ns_count", Some(&label));
    if count > 0.0 {
        sum / count
    } else {
        0.0
    }
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// Seed an in-memory symbolized twin with the workload's history.
fn sym_twin(w: &Workload) -> DecisionService<msod::SymAdi> {
    let svc = DecisionService::from_xml_symbolized(w.policy_xml, TRAIL_KEY).expect("policy parses");
    svc.register_authority_key(gen::HR_DN, gen::HR_KEY.to_vec());
    decide_in_chunks(&svc, &w.preload);
    svc
}

/// A twin durable service in `dir`. bank_durable's twin is seeded with
/// its journal's history; the in-memory workloads' durable twins start
/// empty (their seeded history is not durable state, and fsync cost
/// does not depend on it).
fn durable_twin(w: &Workload, dir: &Path) -> DecisionService<PersistentAdi> {
    let svc = run::open_durable(w, dir);
    if w.name == "bank_durable" {
        decide_in_chunks(&svc, &w.preload);
        svc.sync_adi().expect("sync twin seed");
    }
    svc
}

/// `permis` alone: decide, decide_many, management purges, replica
/// apply, on a twin of the workload's own service flavour.
struct PermisNumbers {
    decide: Sample,
    decide_many_per_req: Sample,
    manage: Sample,
    apply: Sample,
    outcomes: Vec<DecisionOutcome>,
}

fn permis_probe<A: RetainedAdi + 'static>(
    svc: &DecisionService<A>,
    replica: &DecisionService<A>,
    probe: &[&Req],
    batch_probe: &[&Req],
    tr: &mut Tracer,
) -> PermisNumbers {
    let mut decide = Vec::new();
    let outcomes: Vec<DecisionOutcome> = probe
        .iter()
        .enumerate()
        .map(|(i, r)| {
            self::probe(tr, "permis.decide", i as u64, &mut decide, || svc.decide(&r.req))
        })
        .collect();
    let mut per_req = Vec::new();
    for (b, chunk) in batch_probe.chunks(32).enumerate() {
        let batch: Vec<_> = chunk.iter().map(|r| r.req.clone()).collect();
        let mut one = Vec::new();
        self::probe(tr, "permis.decide_many", b as u64, &mut one, || svc.decide_many(&batch));
        per_req.push(one[0] / chunk.len() as u64);
    }
    let mut manage = Vec::new();
    let after = probe.last().map_or(1, |r| r.req.timestamp + 1);
    let mut scopes: Vec<String> = probe.iter().map(|r| r.key()).collect();
    scopes.sort();
    scopes.dedup();
    for (i, scope) in scopes.iter().take(PURGE_PROBES).enumerate() {
        let bound = permis::purge_scope(scope).expect("partition keys are bound scopes");
        let creds = Credentials::Validated(vec![admin_role(svc)]);
        let done = self::probe(tr, "permis.manage", i as u64, &mut manage, || {
            svc.manage(gen::ADMIN_DN, creds, ManagementOp::PurgeContext(bound), after)
        });
        done.expect("the benchmark's policies authorize the administrator");
    }
    // A replica re-executes the granted log through the ungated path.
    replica.set_replica_role(ReplicaRole::Replica);
    let mut apply = Vec::new();
    for (i, (r, out)) in probe.iter().zip(&outcomes).enumerate() {
        if out.is_granted() {
            self::probe(tr, "permis.apply_decide", i as u64, &mut apply, || {
                replica.apply_decide(&r.req)
            });
        }
    }
    PermisNumbers {
        decide: Sample(decide),
        decide_many_per_req: Sample(per_req),
        manage: Sample(manage),
        apply: Sample(apply),
        outcomes,
    }
}

fn admin_role<A: RetainedAdi + 'static>(svc: &DecisionService<A>) -> RoleRef {
    RoleRef::new(svc.core().policy().role_type.clone(), "RetainedADIController")
}

/// `msod` alone: the engine over the benchmark's own store.
struct MsodNumbers {
    enforce: Sample,
    laststep: Sample,
    consulted_per_decision: f64,
}

/// The workload's policy set with a `close` last step declared on
/// every policy that has none, so streams without last steps still
/// exercise the last-step purge over the history they built.
fn with_close_step(set: &MsodPolicySet) -> MsodPolicySet {
    MsodPolicySet::new(
        set.policies()
            .iter()
            .map(|p| {
                let last = p
                    .last_step
                    .clone()
                    .or_else(|| Some(Privilege::new("close", "http://vo/resource")));
                MsodPolicy::new(
                    p.business_context.clone(),
                    p.first_step.clone(),
                    last,
                    p.mmer().to_vec(),
                    p.mmep().to_vec(),
                )
                .expect("a valid policy stays valid")
            })
            .collect(),
    )
}

fn last_step_requests(probe: &[&Req], set: &MsodPolicySet) -> Vec<Req> {
    let is_last =
        |r: &Req| set.policies().iter().any(|p| p.is_last_step(&r.req.operation, &r.req.target));
    let mut out: Vec<Req> = probe.iter().filter(|r| is_last(r)).map(|r| (*r).clone()).collect();
    if out.is_empty() {
        let mut seen = std::collections::BTreeSet::new();
        for r in probe {
            if seen.insert(r.key()) && seen.len() <= PURGE_PROBES {
                let mut close = (*r).clone();
                close.req.operation = "close".into();
                close.req.target = "http://vo/resource".into();
                out.push(close);
            }
        }
    }
    out
}

fn msod_probe(w: &Workload, probe: &[&Req], tr: &mut Tracer) -> MsodNumbers {
    let policy = policy::parse_rbac_policy(w.policy_xml).expect("policy parses");
    let set = with_close_step(&policy.msod);
    let engine = MsodEngine::new(set.clone());
    let last = last_step_requests(probe, &set);
    let (mut enforce, mut laststep, mut consulted) = (Vec::new(), Vec::new(), 0usize);
    let is_last =
        |r: &Req| set.policies().iter().any(|p| p.is_last_step(&r.req.operation, &r.req.target));
    if w.name == "bank_durable" {
        // The durable service runs the string engine over IndexedAdi.
        let mut adi = IndexedAdi::new();
        for r in &w.preload {
            let roles = r.roles();
            engine.enforce(&mut adi, &msod_req(r, &roles));
        }
        for (i, r) in probe.iter().enumerate() {
            let roles = r.roles();
            let sample = if is_last(r) { &mut laststep } else { &mut enforce };
            let d = self::probe(tr, "msod.enforce", i as u64, sample, || {
                engine.enforce(&mut adi, &msod_req(r, &roles))
            });
            consulted += records_consulted(&d);
        }
    } else {
        let table = Arc::new(SymbolTable::new());
        let adi = sharded_sym_adi(&table, msod::DEFAULT_SHARDS);
        let sym = SymEngine::compile(engine.policies(), &EngineOptions::default(), &table)
            .expect("policy compiles");
        let (mut bufs, mut matched) = (ReqBufs::new(), MatchedBuf::new());
        for r in &w.preload {
            let roles = r.roles();
            sym.enforce_or_fallback(
                &engine,
                &table,
                &adi,
                &msod_req(r, &roles),
                &mut bufs,
                &mut matched,
            );
        }
        for (i, r) in probe.iter().enumerate() {
            let roles = r.roles();
            let d = self::probe(tr, "msod.enforce", i as u64, &mut enforce, || {
                sym.enforce_or_fallback(
                    &engine,
                    &table,
                    &adi,
                    &msod_req(r, &roles),
                    &mut bufs,
                    &mut matched,
                )
            });
            consulted += records_consulted(&d);
        }
        for (i, r) in last.iter().enumerate() {
            let roles = r.roles();
            self::probe(tr, "msod.laststep_enforce", i as u64, &mut laststep, || {
                sym.enforce_or_fallback(
                    &engine,
                    &table,
                    &adi,
                    &msod_req(r, &roles),
                    &mut bufs,
                    &mut matched,
                )
            });
        }
    }
    MsodNumbers {
        enforce: Sample(enforce),
        laststep: Sample(laststep),
        consulted_per_decision: consulted as f64 / probe.len().max(1) as f64,
    }
}

/// `symtab` alone: interning every request at admission.
fn symtab_probe(w: &Workload, probe: &[&Req], tr: &mut Tracer) -> (Sample, f64) {
    let table = SymbolTable::new();
    let mut bufs = ReqBufs::new();
    for r in &w.preload {
        let roles = r.roles();
        intern_request(&table, &msod_req(r, &roles), &mut bufs);
    }
    let mut ns = Vec::new();
    for (i, r) in probe.iter().enumerate() {
        let roles = r.roles();
        self::probe(tr, "symtab.intern", i as u64, &mut ns, || {
            intern_request(&table, &msod_req(r, &roles), &mut bufs).is_some()
        });
    }
    let c = table.counts();
    (Sample(ns), (c.strings + c.users + c.roles + c.privs + c.ctx_pairs) as f64)
}

/// The audit event the service appends for `r`'s outcome.
fn audit_event(r: &Req, out: &DecisionOutcome) -> AuditEvent {
    let roles = r.roles().iter().map(|x| format!("{}:{}", x.role_type, x.value)).collect();
    let ctx = r.req.context.to_string();
    match out {
        DecisionOutcome::Grant { msod, .. } => AuditEvent::grant(
            &r.req.subject,
            roles,
            &r.req.operation,
            &r.req.target,
            ctx,
            msod.is_some(),
        ),
        DecisionOutcome::Deny { reason, .. } => AuditEvent::deny(
            &r.req.subject,
            roles,
            &r.req.operation,
            &r.req.target,
            ctx,
            reason.to_string(),
        ),
    }
}

/// `audit` alone: appends to the benchmark's own trail, plus sealing
/// and persisting a segment every `ROTATE_EVERY` appends.
fn audit_probe(
    probe: &[&Req],
    outcomes: &[DecisionOutcome],
    dir: &Path,
    tr: &mut Tracer,
) -> (Sample, Sample) {
    let mut trail = AuditTrail::new(TRAIL_KEY.to_vec());
    let store = TrailStore::open(dir).expect("trail store");
    let (mut append, mut rotate) = (Vec::new(), Vec::new());
    for (i, (r, out)) in probe.iter().zip(outcomes).enumerate() {
        let event = audit_event(r, out);
        self::probe(tr, "audit.append", i as u64, &mut append, || {
            trail.append(event, r.req.timestamp)
        });
        if (i as u64 + 1).is_multiple_of(run::ROTATE_EVERY) {
            self::probe(tr, "audit.rotate_persist", i as u64, &mut rotate, || {
                let idx = trail.rotate().expect("segment holds records");
                store.save_segment(idx, &trail.segments()[idx]).expect("persist segment");
            });
        }
    }
    (Sample(append), Sample(rotate))
}

/// `storage` alone: the granted records journaled into the benchmark's
/// own `PersistentAdi`, each synced as a durable grant would be.
fn storage_probe(
    probe: &[&Req],
    outcomes: &[DecisionOutcome],
    path: &Path,
    tr: &mut Tracer,
) -> (Sample, Sample) {
    let adi = PersistentAdi::open(path).expect("open journal");
    let mut adi = adi;
    let (mut add, mut sync) = (Vec::new(), Vec::new());
    for (i, (r, out)) in probe.iter().zip(outcomes).enumerate() {
        let added =
            matches!(out, DecisionOutcome::Grant { msod: Some(d), .. } if d.records_added > 0);
        if !added {
            continue;
        }
        let rec = AdiRecord {
            user: r.req.subject.clone(),
            roles: r.roles(),
            operation: r.req.operation.clone(),
            target: r.req.target.clone(),
            context: r.req.context.clone(),
            timestamp: r.req.timestamp,
        };
        self::probe(tr, "storage.add", i as u64, &mut add, || adi.add(rec));
        self::probe(tr, "storage.sync", i as u64, &mut sync, || adi.sync().expect("sync journal"));
    }
    (Sample(add), Sample(sync))
}

/// `credential` alone: push-mode validation of each request's signed
/// credential (streams with pre-validated roles get credentials issued
/// for exactly those roles first).
fn credential_probe(probe: &[&Req], tr: &mut Tracer) -> Sample {
    let mut cvs = CredentialValidationService::new();
    cvs.register_key(gen::HR_DN, gen::HR_KEY.to_vec());
    cvs.trust(gen::HR_DN);
    let mut hr = Authority::new(gen::HR_DN, gen::HR_KEY.to_vec());
    let mut issued = HashMap::new();
    let creds: Vec<_> = probe
        .iter()
        .map(|r| match &r.req.credentials {
            Credentials::Push(c) => c.clone(),
            _ => r
                .roles()
                .into_iter()
                .map(|role| {
                    issued
                        .entry((r.req.subject.clone(), role.value.clone()))
                        .or_insert_with(|| hr.issue(&r.req.subject, role, 0, u64::MAX))
                        .clone()
                })
                .collect(),
        })
        .collect();
    let mut ns = Vec::new();
    for (i, (r, c)) in probe.iter().zip(&creds).enumerate() {
        let out = self::probe(tr, "credential.validate_push", i as u64, &mut ns, || {
            cvs.validate_push(&r.req.subject, c, r.req.timestamp)
        });
        assert!(out.rejected.is_empty(), "every benchmark credential validates");
    }
    Sample(ns)
}

/// `net` alone: the codec, then the same stream over loopback against
/// an in-process twin of identical state.
struct NetNumbers {
    encode: Sample,
    decode: Sample,
    bytes_per_decision: f64,
    wire_decide: Sample,
    inproc_decide: Sample,
    usage: Usage,
    errors: f64,
}

/// The frames `NetClient` would send for each request on one fresh
/// connection: the request's first-seen strings as a `DefStrs`
/// definitions frame (ids dense in first-use order), then its
/// `Decide`. Built outside any timing.
fn wire_frames(probe: &[&Req]) -> Vec<(Option<Request>, Request)> {
    let mut ids: HashMap<String, u32> = HashMap::new();
    probe
        .iter()
        .map(|r| {
            let mut defs = Vec::new();
            let mut id = |s: &str| match ids.get(s) {
                Some(&id) => id,
                None => {
                    let id = ids.len() as u32;
                    ids.insert(s.to_owned(), id);
                    defs.push((id, s.to_owned()));
                    id
                }
            };
            let pairs = |ps: &[(String, String)], id: &mut dyn FnMut(&str) -> u32| {
                ps.iter().map(|(a, b)| (id(a), id(b))).collect()
            };
            let wire = WireDecide {
                user: id(&r.req.subject),
                roles: r.roles().iter().map(|x| (id(&x.role_type), id(&x.value))).collect(),
                operation: id(&r.req.operation),
                target: id(&r.req.target),
                context: pairs(r.req.context.pairs(), &mut id),
                environment: pairs(&r.req.environment, &mut id),
                timestamp: r.req.timestamp,
            };
            let defs = (!defs.is_empty()).then_some(Request::DefStrs(defs));
            (defs, Request::Decide(wire))
        })
        .collect()
}

fn net_probe(w: &Workload, probe: &[&Req], tr: &mut Tracer) -> NetNumbers {
    let (mut encode, mut decode, mut bytes) = (Vec::new(), Vec::new(), 0usize);
    let mut frames = Vec::with_capacity(probe.len());
    for (i, (defs, decide)) in wire_frames(probe).into_iter().enumerate() {
        let mut buf = Vec::new();
        if let Some(defs) = defs {
            defs.encode_frame(&mut buf);
        }
        self::probe(tr, "net.encode", i as u64, &mut encode, || decide.encode_frame(&mut buf));
        bytes += buf.len();
        frames.push(buf);
    }
    for (i, buf) in frames.iter().enumerate() {
        self::probe(tr, "net.decode", i as u64, &mut decode, || {
            let mut rest = &buf[..];
            while let FrameScan::Frame(ty, payload, used) = scan_frame(rest) {
                Request::decode(ty, payload).expect("own frames decode");
                rest = &rest[used..];
            }
        });
    }
    let local = sym_twin(w);
    let mut inproc = Vec::new();
    for (i, r) in probe.iter().enumerate() {
        let req = wire_form(r);
        self::probe(tr, "permis.decide(in-process twin)", i as u64, &mut inproc, || {
            local.decide(&req)
        });
    }
    let remote = Arc::new(sym_twin(w));
    let mut server = NetServer::bind("127.0.0.1:0", Arc::clone(&remote), NetConfig::default())
        .expect("bind loopback");
    let mut client = NetClient::connect(&server.local_addr().to_string()).expect("connect");
    let mut wire = Vec::new();
    let u0 = Usage::now();
    for (i, r) in probe.iter().enumerate() {
        let req = wire_form(r);
        self::probe(tr, "net.client_decide", i as u64, &mut wire, || client.decide(&req))
            .expect("wire decide");
    }
    let usage = Usage::now().since(u0);
    drop(client);
    let text = server.metrics_text();
    server.shutdown();
    NetNumbers {
        encode: Sample(encode),
        decode: Sample(decode),
        bytes_per_decision: bytes as f64 / probe.len().max(1) as f64,
        wire_decide: Sample(wire),
        inproc_decide: Sample(inproc),
        usage,
        errors: prom_sum(&text, "net_request_errors_total", None)
            + prom_sum(&text, "net_decode_errors_total", None),
    }
}

/// The request with its activated roles pre-validated (the wire
/// carries no credentials).
fn wire_form(r: &Req) -> permis::DecisionRequest {
    let mut req = r.req.clone();
    req.credentials = Credentials::Validated(r.roles());
    req
}

/// The durable path alone (on every workload's stream): `sync_adi`
/// after each grant, an idle `sync_adi`, §5.2 recovery from the
/// persisted trail, and the journal's reopen.
struct DurableNumbers {
    sync: Sample,
    sync_idle: Sample,
    recover_ms: f64,
    flush_batches_per_grant: f64,
    bytes_per_record: f64,
    open_replay_ms: f64,
    frames_replayed: f64,
}

fn durable_probe(w: &Workload, probe: &[&Req], dir: &Path, tr: &mut Tracer) -> DurableNumbers {
    let svc = durable_twin(w, dir);
    let text0 = svc.metrics_text();
    let (mut sync, mut idle, mut grants) = (Vec::new(), Vec::new(), 0u64);
    for (i, r) in probe.iter().enumerate() {
        if svc.decide(&r.req).is_granted() {
            grants += 1;
            self::probe(tr, "permis.sync_adi", i as u64, &mut sync, || svc.sync_adi())
                .expect("sync_adi");
        }
        if i % 16 == 0 {
            self::probe(tr, "permis.sync_adi(idle)", i as u64, &mut idle, || svc.sync_adi())
                .expect("sync_adi");
        }
        if (i as u64 + 1).is_multiple_of(run::ROTATE_EVERY) {
            svc.rotate_and_persist().expect("persist trail");
        }
    }
    svc.rotate_and_persist().expect("persist trail");
    let batches = prom_sum(&svc.metrics_text(), "storage_journal_flush_batches_total", None)
        - prom_sum(&text0, "storage_journal_flush_batches_total", None);
    let records = svc.adi().len();
    drop(svc);

    // §5.2: rebuild the retained ADI from the persisted trail.
    let fresh = DecisionService::from_xml(w.policy_xml, TRAIL_KEY).expect("policy parses");
    fresh.attach_store(TrailStore::open(dir.join("trail")).expect("trail store"));
    let t = Instant::now();
    let open = tr.open();
    fresh.recover(usize::MAX, 0).expect("recover from the trail");
    tr.close(open, "permis.recover", 0, 0);
    let recover_ms = t.elapsed().as_secs_f64() * 1e3;

    let (mut bytes, mut replay_ns, mut frames) = (0u64, 0u64, 0u64);
    for i in 0..BANK_SHARDS {
        let path = dir.join(format!("adi-shard-{i}.log"));
        bytes += std::fs::metadata(&path).map_or(0, |m| m.len());
        let open = tr.open();
        let t = Instant::now();
        let adi = PersistentAdi::open(&path).expect("reopen journal");
        replay_ns += t.elapsed().as_nanos() as u64;
        tr.close(open, "storage.open_replay", 0, i as u64);
        frames += adi.recovery().frames_replayed;
    }
    DurableNumbers {
        sync: Sample(sync),
        sync_idle: Sample(idle),
        recover_ms,
        flush_batches_per_grant: batches / grants.max(1) as f64,
        bytes_per_record: bytes as f64 / records.max(1) as f64,
        open_replay_ms: replay_ns as f64 / 1e6,
        frames_replayed: frames as f64,
    }
}

fn write_spans(name: &str, spans: &[crate::measure::Span]) {
    let dir = Path::new("ledger-out");
    if std::fs::create_dir_all(dir).is_err() {
        return;
    }
    let mut out = String::with_capacity(spans.len() * 96);
    for s in spans {
        out.push_str(&format!(
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"req\":{},\"start_ns\":{},\"end_ns\":{}}}\n",
            s.id, s.parent, s.name, s.req, s.start_ns, s.end_ns
        ));
    }
    if let Err(e) = std::fs::write(dir.join(format!("{name}.spans.jsonl")), out) {
        eprintln!("could not write spans: {e}");
    }
}

/// Every per-layer metric of the traced run.
pub fn per_layer(w: &Workload, run: &Run, tmp: &Path, m: &mut Metrics) {
    let epoch = Instant::now();
    let mut tr = Tracer::new(epoch, 1 << 20);
    let decides = |ops: &[Op]| -> Vec<Req> {
        ops.iter()
            .filter_map(|op| match op {
                Op::Decide(r) => Some(r.clone()),
                Op::Purge { .. } => None,
            })
            .take(PROBE_OPS)
            .collect()
    };
    let first = decides(&w.closed[0]);
    let second = decides(&w.closed[w.closed.len() - 1]);
    let probe: Vec<&Req> = first.iter().collect();
    let batch_probe: Vec<&Req> = second.iter().collect();

    let t = Instant::now();
    let mut loads = Vec::new();
    for i in 0..15 {
        self::probe(&mut tr, "policy.load", i, &mut loads, || {
            policy::parse_rbac_policy(w.policy_xml).expect("policy parses")
        });
    }
    let policy_load_ms = Sample(loads).p(0.5) / 1e6;

    let permis = if w.name == "bank_durable" {
        let svc = durable_twin(w, &tmp.join("twin"));
        let replica = durable_twin(w, &tmp.join("replica"));
        permis_probe(&svc, &replica, &probe, &batch_probe, &mut tr)
    } else {
        let (svc, replica) = (sym_twin(w), sym_twin(w));
        permis_probe(&svc, &replica, &probe, &batch_probe, &mut tr)
    };
    let msod = msod_probe(w, &probe, &mut tr);
    let (intern, interned) = symtab_probe(w, &probe, &mut tr);
    let (append, rotate) = audit_probe(&probe, &permis.outcomes, &tmp.join("audit"), &mut tr);
    let (add, sync) = storage_probe(&probe, &permis.outcomes, &tmp.join("storage.log"), &mut tr);
    let validate = credential_probe(&probe, &mut tr);
    let net = net_probe(w, &probe, &mut tr);
    let durable = durable_probe(w, &probe, &tmp.join("durable"), &mut tr);
    eprintln!("layer probes took {:.1}s", t.elapsed().as_secs_f64());

    let n = probe.len() as f64;
    m.put("net.encode_ns", net.encode.p(0.5), "ns");
    m.put("net.decode_ns", net.decode.p(0.5), "ns");
    m.put("net.bytes_per_decision", net.bytes_per_decision, "B");
    m.put("net.wire_overhead_us", (net.wire_decide.p(0.5) - net.inproc_decide.p(0.5)) / 1e3, "us");
    m.put("net.ctx_switches_per_decision", net.usage.ctx_switches / n, "count");
    m.put("net.sys_cpu_share", ratio(net.usage.sys_us, net.usage.cpu_us()), "ratio");
    let e2e_net_errors = run.http_metrics.as_deref().map_or(0.0, |t| {
        prom_sum(t, "net_request_errors_total", None) + prom_sum(t, "net_decode_errors_total", None)
    });
    m.put("net.errors", net.errors + e2e_net_errors, "count");

    m.put("permis.decide_p50_ns", permis.decide.p(0.5), "ns");
    m.put("permis.decide_p99_ns", permis.decide.p(0.99), "ns");
    m.put("permis.decide_many_ns_per_req", permis.decide_many_per_req.p(0.5), "ns");
    m.put("permis.manage_ns", permis.manage.p(0.5), "ns");
    m.put("permis.sync_adi_p50_us", durable.sync.p(0.5) / 1e3, "us");
    m.put("permis.sync_adi_p99_us", durable.sync.p(0.99) / 1e3, "us");
    m.put("permis.sync_adi_idle_p50_us", durable.sync_idle.p(0.5) / 1e3, "us");
    let decisions = prom_sum(&run.metrics_text, "permis_decisions_total", None);
    m.put(
        "permis.sym_fallback_ratio",
        ratio(prom_sum(&run.metrics_text, "permis_sym_fallback_total", None), decisions),
        "ratio",
    );
    m.put("permis.recover_ms", durable.recover_ms, "ms");
    m.put("permis.apply_decide_ns", permis.apply.p(0.5), "ns");
    let seen = run.seen_closed.iter().flatten().chain(&run.seen_open);
    let (grants, denies) = seen
        .fold((0u64, 0u64), |(g, d), s| (g + u64::from(s.is_grant()), d + u64::from(s.is_deny())));
    m.put("permis.grants", grants as f64, "count");
    m.put("permis.denies", denies as f64, "count");
    let phases = ["front_end", "msod", "audit_append"];
    let phase: Vec<f64> = phases.iter().map(|p| phase_mean(&run.metrics_text, p)).collect();
    m.put("permis.phase.front_end_ns", phase[0], "ns");
    m.put("permis.phase.msod_ns", phase[1], "ns");
    m.put("permis.phase.audit_append_ns", phase[2], "ns");

    m.put("credential.validate_push_ns", validate.p(0.5), "ns");
    m.put("msod.enforce_ns", msod.enforce.p(0.5), "ns");
    m.put("msod.records_consulted_per_decision", msod.consulted_per_decision, "count");
    m.put("msod.laststep_enforce_ns", msod.laststep.p(0.5), "ns");
    m.put("symtab.intern_ns", intern.p(0.5), "ns");
    m.put("symtab.interned", interned, "count");
    m.put("audit.append_ns", append.p(0.5), "ns");
    m.put(
        "audit.appends_per_decision",
        ratio(run.audit_appends as f64, run.decided as f64),
        "count",
    );
    m.put("audit.rotate_persist_ms", rotate.p(0.5) / 1e6, "ms");
    m.put("storage.add_ns", add.p(0.5), "ns");
    m.put("storage.sync_ns", sync.p(0.5), "ns");
    m.put("storage.flush_batches_per_grant", durable.flush_batches_per_grant, "count");
    m.put("storage.journal_bytes_per_record", durable.bytes_per_record, "B");
    m.put("storage.open_replay_ms", durable.open_replay_ms, "ms");
    m.put("storage.frames_replayed", durable.frames_replayed, "count");
    m.put("policy.load_ms", policy_load_ms, "ms");

    // Accounting: the decide p50 minus the layers it is made of, each
    // timed alone (the CVS runs only for pushed credentials).
    let push = w.name == "bank_durable";
    let layers = msod.enforce.p(0.5) + append.p(0.5) + if push { validate.p(0.5) } else { 0.0 };
    m.put("unattributed_ns", permis.decide.p(0.5) - layers, "ns");
    m.put(
        "trace.overhead_ratio",
        ratio(run.closed.latency(true, 0.5), run.closed.latency(false, 0.5)),
        "ratio",
    );
    let mut lag = run.open.lag_ns.clone();
    lag.sort_unstable();
    m.put("loadgen.send_lag_p99_us", quantile(&lag, 0.99) / 1e3, "us");

    // Telemetry cross-check: each sampled service phase against its
    // layer-alone row. The front end's counterpart (the CVS) runs only
    // for pushed credentials, so that row is flagged only there.
    let rows = [
        ("xcheck.front_end_ratio", ratio(phase[0], validate.mean()), push),
        ("xcheck.msod_ratio", ratio(phase[1], msod.enforce.mean()), true),
        ("xcheck.audit_append_ratio", ratio(phase[2], append.mean()), true),
    ];
    let mut flagged = 0;
    for (name, r, judged) in rows {
        let outside = !(1.0 / XCHECK_TOLERANCE..=XCHECK_TOLERANCE).contains(&r);
        if judged && outside {
            flagged += 1;
            eprintln!("cross-check: {name} = {r:.3} is outside [1/{XCHECK_TOLERANCE}, {XCHECK_TOLERANCE}]");
        }
        m.put(name, r, "ratio");
    }
    m.put("xcheck.flagged", flagged as f64, "count");
    if let Some(http) = &run.http_metrics {
        let families = ["permis_decide_phase_ns", "net_requests_total"];
        let missing = families.iter().filter(|f| !http.contains(*f)).count();
        if missing > 0 {
            eprintln!("cross-check: GET /metrics lacks {missing} expected families");
        }
    }

    let mut spans = run.spans.clone();
    spans.extend(tr.spans);
    write_spans(w.name, &spans);
}
