//! The end-to-end runs: set-up, the closed loop and the paced (open)
//! loop of each workload, recording every answer for the gate.
//!
//! Latency is measured here, not by `net::loadgen`: a batched request
//! is charged its whole batch's round trip, and a paced request is
//! timed from its scheduled send, so a stall is charged to every
//! request it delays.

use std::path::{Path, PathBuf};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use audit::TrailStore;
use msod::{RoleRef, ShardedAdi};
use net::{NetClient, NetConfig, NetServer};
use permis::{DecisionRequest, DecisionService};
use storage::{FaultVfs, PersistentAdi, Vfs};

use crate::check::Seen;
use crate::gen::{self, Op, Workload, ADMIN_DN};
use crate::measure::{call, host_probe_ms, median, quantile, wait_until, Span, Tracer, Usage};

/// The audit trail's HMAC key on every service the benchmark builds.
pub const TRAIL_KEY: &[u8] = b"ledger-trail-key";
/// ADI shards of the durable service (fixed across reopens).
pub const BANK_SHARDS: usize = 2;
/// A durable client seals and persists the audit segment every this
/// many requests.
pub const ROTATE_EVERY: u64 = 256;

/// Windows the closed loop's measured requests are split into, four
/// per round. In a traced run they alternate untraced, traced, traced,
/// untraced, so the traced and the untraced requests sample the same
/// stretches of the run.
pub const WINDOWS: usize = 4 * ROUNDS;

/// One window of a loop.
#[derive(Default)]
pub struct Window {
    /// Latency of every request in the window, ns.
    pub lat_ns: Vec<u64>,
    /// Wall time of the window, s (closed loop only).
    pub wall_s: f64,
    /// Process counters over the window (closed loop only).
    pub usage: Usage,
    /// Whether the benchmark recorded spans during the window.
    pub traced: bool,
}

/// One loop's measurements. Every statistic pools the requests of all
/// its traced or all its untraced windows: a quantile is taken over
/// every request, and a rate divides totals. (Interleaving the loops
/// in many short rounds spreads each loop's sample over the whole run,
/// so the pool sees the host's slow and fast spells in the proportion
/// the run had them.)
#[derive(Default)]
pub struct Loop {
    /// The measured windows, in order.
    pub windows: Vec<Window>,
    /// Paced loop: how late each send left, ns.
    pub lag_ns: Vec<u64>,
    /// Closed loop: the host-speed probe after each round, ms.
    pub host_probe_ms: Vec<f64>,
}

impl Loop {
    fn pooled(&self, traced: bool) -> impl Iterator<Item = &Window> {
        self.windows.iter().filter(move |w| w.traced == traced)
    }

    fn requests(&self) -> f64 {
        self.pooled(false).map(|w| w.lat_ns.len()).sum::<usize>() as f64
    }

    /// Throughput, requests/s (untraced windows).
    pub fn rps(&self) -> f64 {
        self.requests() / self.pooled(false).map(|w| w.wall_s).sum::<f64>()
    }

    /// Latency quantile `q` over every request of the traced or the
    /// untraced windows, ns.
    pub fn latency(&self, traced: bool, q: f64) -> f64 {
        let mut v: Vec<u64> = self.pooled(traced).flat_map(|w| w.lat_ns.iter().copied()).collect();
        v.sort_unstable();
        quantile(&v, q)
    }

    /// Process CPU per request, us (untraced windows).
    pub fn cpu_us_per_request(&self) -> f64 {
        self.pooled(false).map(|w| w.usage.cpu_us()).sum::<f64>() / self.requests()
    }

    /// A paced loop: its per-request latencies as one window.
    fn paced(lat_ns: Vec<u64>, lag_ns: Vec<u64>) -> Loop {
        Loop { windows: vec![Window { lat_ns, ..Window::default() }], lag_ns, ..Loop::default() }
    }
}

/// Everything a workload's run produced.
pub struct Run {
    /// Each set-up's duration, s.
    pub setups_s: Vec<f64>,
    /// The closed loop.
    pub closed: Loop,
    /// The paced loop.
    pub open: Loop,
    /// Answers per closed client, in stream order.
    pub seen_closed: Vec<Vec<Seen>>,
    /// Answers of the paced client.
    pub seen_open: Vec<Seen>,
    /// Outcomes of the preload (checked like any other stream).
    pub preload_outcomes: Vec<permis::DecisionOutcome>,
    /// The retained ADI the program holds after the run (for bank, as
    /// reopened from disk after a simulated crash).
    pub final_adi: Vec<msod::AdiRecord>,
    /// Spans recorded by the traced segments.
    pub spans: Vec<Span>,
    /// The service's `metrics_text()` at the end of the run.
    pub metrics_text: String,
    /// The server's `GET /metrics` body (wire_zipf).
    pub http_metrics: Option<String>,
    /// Audit records appended during the measured loops.
    pub audit_appends: u64,
    /// Requests decided during the measured loops (for ratios).
    pub decided: u64,
}

impl Run {
    /// Memory the benchmark itself holds in its records of the run
    /// (answers, outcomes, latencies, spans), MiB. It counts element
    /// sizes and the heap they own, not allocator overhead.
    pub fn recorded_mib(&self) -> f64 {
        use std::mem::size_of;
        let seen = |v: &Vec<Seen>| {
            v.capacity() * size_of::<Seen>() + v.iter().map(Seen::heap_bytes).sum::<usize>()
        };
        let roles = |r: &[RoleRef]| {
            r.iter()
                .map(|x| size_of::<RoleRef>() + x.role_type.len() + x.value.len())
                .sum::<usize>()
        };
        let outcomes = self.preload_outcomes.capacity() * size_of::<permis::DecisionOutcome>()
            + self
                .preload_outcomes
                .iter()
                .map(|o| match o {
                    permis::DecisionOutcome::Grant { roles: r, .. }
                    | permis::DecisionOutcome::Deny { roles: r, .. } => roles(r),
                })
                .sum::<usize>();
        let lat = |l: &Loop| {
            l.lag_ns.capacity() * 8
                + l.windows.iter().map(|w| w.lat_ns.capacity() * 8).sum::<usize>()
        };
        let bytes = self.seen_closed.iter().map(seen).sum::<usize>()
            + seen(&self.seen_open)
            + outcomes
            + lat(&self.closed)
            + lat(&self.open)
            + self.spans.capacity() * size_of::<Span>();
        bytes as f64 / (1024.0 * 1024.0)
    }
}

/// Executes one unit (one op, or one batch) of a client's stream and
/// returns how long the program took, ns (a unit may stage its input
/// first, untimed). Arguments: client state, the unit's ops, where to
/// push answers, the tracer when tracing, and the enclosing span.
type Exec<'a, C> =
    dyn Fn(&mut C, &[Op], &mut Vec<Seen>, &mut Option<Tracer>, u64) -> u64 + Sync + 'a;

/// Rounds each run alternates between the closed and the paced loop,
/// so both loops sample the whole run rather than one half of it. The
/// reference host's CPU speed changes every few seconds; with rounds
/// well under a second, each loop sees many of those spells.
pub const ROUNDS: usize = 16;

/// One closed-loop client's state, carried across rounds.
struct Lane<C> {
    client: C,
    seen: Vec<Seen>,
    tracer: Option<Tracer>,
    next: usize,
}

impl<C> Lane<C> {
    fn new(client: C, ci: usize, trace: Option<Instant>) -> Lane<C> {
        Lane {
            client,
            seen: Vec::new(),
            tracer: trace.map(|e| Tracer::new(e, ci as u64 + 1)),
            next: 0,
        }
    }
}

/// Whether closed-loop window `win` records spans: untraced, traced,
/// traced, untraced, repeated, so drift cancels out of the overhead.
fn traced_window(trace: bool, win: usize) -> bool {
    trace && matches!(win % 4, 1 | 2)
}

/// Run closed-loop windows `wins`: each client drives its stream one
/// unit at a time, all clients start each window together and meet at
/// its end. The first round runs the warm-up before its first window.
fn closed_round<C: Send>(
    lanes: &mut [Lane<C>],
    w: &Workload,
    wins: std::ops::Range<usize>,
    exec: &Exec<'_, C>,
    lp: &mut Loop,
) {
    let barrier = Barrier::new(lanes.len() + 1);
    let trace = lanes.iter().any(|l| l.tracer.is_some());
    let (lats, marks) = std::thread::scope(|s| {
        let hs: Vec<_> = lanes
            .iter_mut()
            .enumerate()
            .map(|(ci, lane)| {
                let ops = &w.closed[ci];
                let (barrier, wins) = (&barrier, wins.clone());
                s.spawn(move || {
                    let mut none = None;
                    let warm = w.warmup.min(ops.len());
                    while lane.next < warm {
                        let end = (lane.next + w.batch).min(warm);
                        exec(&mut lane.client, &ops[lane.next..end], &mut lane.seen, &mut none, 0);
                        lane.next = end;
                    }
                    let per = (ops.len() - warm).div_ceil(WINDOWS);
                    let mut lats = Vec::new();
                    barrier.wait();
                    for win in wins {
                        let end_win = (warm + per * (win + 1)).min(ops.len());
                        let tr =
                            if traced_window(trace, win) { &mut lane.tracer } else { &mut none };
                        let mut lat = Vec::with_capacity(per);
                        while lane.next < end_win {
                            let i = lane.next;
                            let end = (i + w.batch).min(end_win);
                            let open = tr.as_mut().map(|t| t.open());
                            let parent = open.map_or(0, |o| o.0);
                            let ns =
                                exec(&mut lane.client, &ops[i..end], &mut lane.seen, tr, parent);
                            if let (Some(o), Some(t)) = (open, tr.as_mut()) {
                                t.close(o, "e2e.request", 0, ((ci as u64 + 1) << 40) | i as u64);
                            }
                            lat.extend(std::iter::repeat_n(ns, end - i));
                            lane.next = end;
                            // Both clients share one CPU: hand it over
                            // between calls, so a call is not timed
                            // across the other client's time slice.
                            std::thread::yield_now();
                        }
                        lats.push(lat);
                        barrier.wait();
                    }
                    lats
                })
            })
            .collect();
        let mut marks = Vec::with_capacity(wins.len() + 1);
        for _ in 0..=wins.len() {
            barrier.wait();
            marks.push((Instant::now(), Usage::now()));
        }
        let lats: Vec<_> =
            hs.into_iter().map(|h| h.join().expect("closed-loop client panicked")).collect();
        (lats, marks)
    });
    for (k, win) in wins.enumerate() {
        let lat_ns = lats.iter().flat_map(|l| l[k].iter().copied()).collect();
        lp.windows.push(Window {
            lat_ns,
            wall_s: (marks[k + 1].0 - marks[k].0).as_secs_f64(),
            usage: marks[k + 1].1.since(marks[k].1),
            traced: traced_window(trace, win),
        });
    }
}

/// Requests of the paced loop left out of its statistics while caches
/// and the schedule settle.
fn open_warmup(n: usize) -> usize {
    (n / 10).min(1024)
}

/// The paced stream's ops for round `r`.
fn paced_range(w: &Workload, r: usize) -> std::ops::Range<usize> {
    let per = w.open.len().div_ceil(ROUNDS);
    (per * r).min(w.open.len())..(per * (r + 1)).min(w.open.len())
}

/// The paced client's answers and timings, accumulated across rounds.
#[derive(Default)]
struct Paced {
    seen: Vec<Seen>,
    lat: Vec<u64>,
    lag: Vec<u64>,
}

/// One round of the paced loop: the round's `i`-th request is due
/// `i / rate` after the round starts and is timed from then, so a
/// request that waits behind a slow predecessor is charged the wait.
fn paced_round<C>(client: &mut C, w: &Workload, r: usize, exec: &Exec<'_, C>, p: &mut Paced) {
    let ops = &w.open;
    let range = paced_range(w, r);
    let warm = open_warmup(ops.len());
    let mut none = None;
    let start = Instant::now();
    for i in range.clone() {
        let due = start + Duration::from_secs_f64((i - range.start) as f64 / w.open_rate);
        wait_until(due);
        let lag = (Instant::now() - due).as_nanos() as u64;
        let ns = exec(client, &ops[i..=i], &mut p.seen, &mut none, 0);
        if i >= warm {
            p.lag.push(lag);
            p.lat.push(lag + ns);
        }
    }
}

/// Drive the rounds: each runs its share of closed windows, then
/// round `r` of the paced loop.
fn alternate<C: Send>(
    lanes: &mut [Lane<C>],
    w: &Workload,
    exec: &Exec<'_, C>,
    mut paced: impl FnMut(usize),
) -> Loop {
    let mut closed = Loop::default();
    let per_round = WINDOWS / ROUNDS;
    for r in 0..ROUNDS {
        closed_round(lanes, w, r * per_round..(r + 1) * per_round, exec, &mut closed);
        paced(r);
        closed.host_probe_ms.push(host_probe_ms());
    }
    closed
}

fn finish_lanes<C>(lanes: Vec<Lane<C>>) -> (Vec<Vec<Seen>>, Vec<Span>) {
    let mut spans = Vec::new();
    let seen = lanes
        .into_iter()
        .map(|l| {
            spans.extend(l.tracer.map(|t| t.spans).unwrap_or_default());
            l.seen
        })
        .collect();
    (seen, spans)
}

fn median_setup<T>(reps: usize, mut build: impl FnMut() -> T) -> (Vec<f64>, T) {
    let mut times = Vec::with_capacity(reps);
    let mut kept = None;
    for _ in 0..reps {
        drop(kept.take());
        let t = Instant::now();
        let built = build();
        times.push(t.elapsed().as_secs_f64());
        kept = Some(built);
    }
    (times, kept.expect("at least one set-up"))
}

fn admin_roles() -> Vec<RoleRef> {
    vec![RoleRef::permis("RetainedADIController")]
}

fn audit_len<A: msod::RetainedAdi + 'static>(svc: &DecisionService<A>) -> u64 {
    svc.with_trail(|t| t.len() as u64)
}

// ---------------------------------------------------------------------
// wire_zipf

/// wire_zipf: a symbolized service behind an in-process `NetServer` on
/// loopback; clients speak the wire protocol.
pub fn wire_zipf(w: &Workload, trace: Option<Instant>) -> Run {
    type Ready = (Arc<DecisionService<msod::SymAdi>>, NetServer, Vec<NetClient>);
    let (setups_s, (svc, mut server, clients)): (Vec<f64>, Ready) = median_setup(25, || {
        let svc = Arc::new(
            DecisionService::from_xml_symbolized(w.policy_xml, TRAIL_KEY).expect("policy parses"),
        );
        let server = NetServer::bind("127.0.0.1:0", Arc::clone(&svc), NetConfig::default())
            .expect("bind loopback");
        let addr = server.local_addr().to_string();
        let clients = (0..w.closed.len())
            .map(|_| {
                let mut c = NetClient::connect(&addr).expect("connect");
                c.ping().expect("ping");
                c
            })
            .collect();
        (svc, server, clients)
    });
    let exec = |c: &mut NetClient,
                ops: &[Op],
                seen: &mut Vec<Seen>,
                tr: &mut Option<Tracer>,
                parent: u64| {
        let mut ns = 0;
        for op in ops {
            let t = Instant::now();
            let got = match op {
                Op::Decide(r) => {
                    call(tr, "net.client_decide", parent, 0, || c.decide(&r.req)).map(Seen::of_wire)
                }
                Op::Purge { scope, ts } => call(tr, "net.client_purge", parent, 0, || {
                    c.purge_context(ADMIN_DN, &admin_roles(), scope, *ts)
                })
                .map(|n| Seen::Purged(n as usize)),
            };
            ns += t.elapsed().as_nanos() as u64;
            seen.push(got.unwrap_or_else(|e| Seen::Failed(e.to_string())));
        }
        ns
    };
    let addr = server.local_addr().to_string();
    let mut lanes: Vec<_> =
        clients.into_iter().enumerate().map(|(ci, c)| Lane::new(c, ci, trace)).collect();
    let mut paced_client = NetClient::connect(&addr).expect("connect paced client");
    paced_client.ping().expect("ping");
    let mut paced = Paced::default();
    let audit0 = audit_len(&svc);
    let closed = alternate(&mut lanes, w, &exec, |r| {
        paced_round(&mut paced_client, w, r, &exec, &mut paced)
    });
    let (seen_closed, spans) = finish_lanes(lanes);
    let decided = (seen_closed.iter().map(Vec::len).sum::<usize>() + paced.seen.len()) as u64;
    let audit_appends = audit_len(&svc) - audit0;
    let http_metrics =
        trace.map(|_| net::http_get(&addr, "/metrics").map(|(_, b)| b).unwrap_or_default());
    let metrics_text = svc.metrics_text();
    drop(paced_client);
    server.shutdown();
    Run {
        setups_s,
        closed,
        open: Loop::paced(paced.lat, paced.lag),
        seen_closed,
        seen_open: paced.seen,
        preload_outcomes: Vec::new(),
        final_adi: svc.adi().snapshot(),
        spans,
        metrics_text,
        http_metrics,
        audit_appends,
        decided,
    }
}

// ---------------------------------------------------------------------
// bank_durable

type Durable = DecisionService<PersistentAdi>;

/// Open the durable service over `dir`, ready to serve push requests.
pub fn open_durable(w: &Workload, dir: &Path) -> Durable {
    let policy = policy::parse_rbac_policy(w.policy_xml).expect("policy parses");
    let (svc, reports) = DecisionService::open_persistent(policy, TRAIL_KEY, dir, BANK_SHARDS)
        .expect("open journal");
    assert!(reports.iter().all(|r| r.is_clean()), "a cleanly closed journal reopens clean");
    svc.register_authority_key(gen::HR_DN, gen::HR_KEY.to_vec());
    svc.attach_store(TrailStore::open(dir.join("trail")).expect("trail store"));
    svc
}

struct BankClient<'a> {
    svc: &'a Durable,
    done: u64,
}

/// One durable request: decide, and for a grant, acknowledge only once
/// `sync_adi` has returned. Every `ROTATE_EVERY` requests the client
/// also seals and persists the audit segment.
fn bank_exec(
    c: &mut BankClient<'_>,
    ops: &[Op],
    seen: &mut Vec<Seen>,
    tr: &mut Option<Tracer>,
    parent: u64,
) -> u64 {
    let mut ns = 0;
    for op in ops {
        let Op::Decide(r) = op else { unreachable!("bank streams only decide") };
        let t = Instant::now();
        let out = call(tr, "permis.decide", parent, 0, || c.svc.decide(&r.req));
        let acked = if out.is_granted() {
            call(tr, "permis.sync_adi", parent, 0, || c.svc.sync_adi())
                .map_err(|e| format!("sync_adi: {e}"))
        } else {
            Ok(())
        };
        c.done += 1;
        let rotated = if c.done.is_multiple_of(ROTATE_EVERY) {
            call(tr, "audit.rotate_and_persist", parent, 0, || c.svc.rotate_and_persist())
                .map(|_| ())
                .map_err(|e| format!("rotate_and_persist: {e}"))
        } else {
            Ok(())
        };
        ns += t.elapsed().as_nanos() as u64;
        seen.push(match acked.and(rotated) {
            Ok(()) => Seen::of(&out),
            Err(e) => Seen::Failed(e),
        });
    }
    ns
}

/// Build the fixed-size journal set-up reopens: the preload decided
/// through a durable service, synced, compacted, closed. Compaction
/// leaves one frame per live record (plus dictionary definitions).
/// Without it the journal keeps whatever the store's own compaction
/// schedule left, between one and two times the live set depending on
/// the seed, and reopen time followed that (0.024 s or 0.040 s).
pub fn build_bank_journal(w: &Workload, dir: &Path) -> Vec<permis::DecisionOutcome> {
    let svc = open_durable(w, dir);
    let outcomes = decide_in_chunks(&svc, &w.preload);
    svc.sync_adi().expect("sync preload");
    for i in 0..svc.adi().shard_count() {
        svc.adi().with_shard(i, |s| s.compact()).expect("compact the preload journal");
    }
    svc.sync_adi().expect("sync compacted journal");
    outcomes
}

/// bank_durable: the durable service in process, push credentials,
/// a grant acknowledged only after `sync_adi`.
pub fn bank_durable(w: &Workload, dir: &Path, trace: Option<Instant>) -> Run {
    let preload_outcomes = build_bank_journal(w, dir);
    crate::measure::settle_disk();
    let (setups_s, svc) = median_setup(7, || open_durable(w, dir));
    let exec: &Exec<'_, BankClient<'_>> = &bank_exec;
    let mut lanes: Vec<_> = (0..w.closed.len())
        .map(|ci| Lane::new(BankClient { svc: &svc, done: 0 }, ci, trace))
        .collect();
    let mut paced_client = BankClient { svc: &svc, done: 0 };
    let mut paced = Paced::default();
    let audit0 = audit_len(&svc);
    let closed =
        alternate(&mut lanes, w, exec, |r| paced_round(&mut paced_client, w, r, exec, &mut paced));
    let (seen_closed, spans) = finish_lanes(lanes);
    let decided = (seen_closed.iter().map(Vec::len).sum::<usize>() + paced.seen.len()) as u64;
    let audit_appends = audit_len(&svc) - audit0;
    let metrics_text = svc.metrics_text();
    // Simulated power cut: nothing unsynced may reach the disk, so only
    // acknowledged grants can survive; reopen and read what did.
    for i in 0..svc.adi().shard_count() {
        svc.adi().with_shard(i, |s| s.abandon());
    }
    drop(svc);
    let final_adi = open_durable(w, dir).adi().snapshot();
    Run {
        setups_s,
        closed,
        open: Loop::paced(paced.lat, paced.lag),
        seen_closed,
        seen_open: paced.seen,
        preload_outcomes,
        final_adi,
        spans,
        metrics_text,
        http_metrics: None,
        audit_appends,
        decided,
    }
}

/// The power-cut check, outside the timing: replay the bank workload
/// (history, then every client's stream) on a durable service whose
/// shards journal to an in-memory [`FaultVfs`], acknowledging each
/// grant with `sync_adi` as the timed run does. Then cut the power,
/// which keeps only what was fsynced (the unsynced tail survives up to
/// a seeded byte, possibly torn), reopen, and return the retained ADI.
/// Unlike an abandon on the real disk, this drops bytes that were
/// written but never fsynced, so a `sync_adi` that flushes without
/// syncing loses acknowledged grants here.
pub fn bank_power_cut(w: &Workload, seed: u64) -> Vec<msod::AdiRecord> {
    let vfs = FaultVfs::default();
    let disk: Arc<dyn Vfs> = Arc::new(vfs.clone());
    let path = |i: usize| PathBuf::from(format!("adi-shard-{i}.log"));
    let open = |disk: &Arc<dyn Vfs>| {
        let stores = (0..BANK_SHARDS)
            .map(|i| PersistentAdi::open_with_vfs(Arc::clone(disk), &path(i)).expect("open"))
            .collect();
        let policy = policy::parse_rbac_policy(w.policy_xml).expect("policy parses");
        let svc = DecisionService::from_shards(policy, TRAIL_KEY, ShardedAdi::from_shards(stores));
        svc.register_authority_key(gen::HR_DN, gen::HR_KEY.to_vec());
        svc
    };
    let svc = open(&disk);
    decide_in_chunks(&svc, &w.preload);
    svc.sync_adi().expect("sync preload");
    for op in w.closed.iter().chain([&w.open]).flatten() {
        let Op::Decide(r) = op else { unreachable!("bank streams only decide") };
        if svc.decide(&r.req).is_granted() {
            svc.sync_adi().expect("sync_adi on the in-memory disk");
        }
    }
    for i in 0..svc.adi().shard_count() {
        svc.adi().with_shard(i, |s| s.abandon());
    }
    drop(svc);
    vfs.power_cut(seed);
    open(&disk).adi().snapshot()
}

// ---------------------------------------------------------------------
// deep_history

type Sym = DecisionService<msod::SymAdi>;

/// Build the in-memory service and seed its history through
/// `decide_many`.
pub fn seed_deep(w: &Workload) -> (Sym, Vec<permis::DecisionOutcome>) {
    let svc = DecisionService::from_xml_symbolized(w.policy_xml, TRAIL_KEY).expect("policy parses");
    let outcomes = decide_in_chunks(&svc, &w.preload);
    (svc, outcomes)
}

/// `decide_many` over `reqs`, 256 at a time.
pub fn decide_in_chunks<A: msod::RetainedAdi + 'static>(
    svc: &DecisionService<A>,
    reqs: &[gen::Req],
) -> Vec<permis::DecisionOutcome> {
    let mut outcomes = Vec::with_capacity(reqs.len());
    let mut batch = Vec::with_capacity(256);
    for chunk in reqs.chunks(256) {
        batch.clear();
        batch.extend(chunk.iter().map(|r| r.req.clone()));
        outcomes.extend(svc.decide_many(&batch));
    }
    outcomes
}

struct DeepClient<'a> {
    svc: &'a Sym,
    batch: Vec<DecisionRequest>,
}

/// One `decide_many` batch; staging the batch's requests is untimed.
fn deep_exec(
    c: &mut DeepClient<'_>,
    ops: &[Op],
    seen: &mut Vec<Seen>,
    tr: &mut Option<Tracer>,
    parent: u64,
) -> u64 {
    c.batch.clear();
    c.batch.extend(ops.iter().map(|op| match op {
        Op::Decide(r) => r.req.clone(),
        Op::Purge { .. } => unreachable!("deep streams only decide"),
    }));
    let t = Instant::now();
    let outs = call(tr, "permis.decide_many", parent, 0, || c.svc.decide_many(&c.batch));
    let ns = t.elapsed().as_nanos() as u64;
    seen.extend(outs.iter().map(Seen::of));
    ns
}

/// deep_history: the in-memory symbolized service over a long seeded
/// history, queried in `decide_many` batches.
pub fn deep_history(w: &Workload, trace: Option<Instant>) -> Run {
    let (setups_s, (svc, preload_outcomes)) = median_setup(3, || seed_deep(w));
    let exec: &Exec<'_, DeepClient<'_>> = &deep_exec;
    let mut lanes: Vec<_> = (0..w.closed.len())
        .map(|ci| Lane::new(DeepClient { svc: &svc, batch: Vec::new() }, ci, trace))
        .collect();
    let mut paced_client = DeepClient { svc: &svc, batch: Vec::new() };
    let mut paced = Paced::default();
    let audit0 = audit_len(&svc);
    let closed =
        alternate(&mut lanes, w, exec, |r| paced_round(&mut paced_client, w, r, exec, &mut paced));
    let (seen_closed, spans) = finish_lanes(lanes);
    let decided = (seen_closed.iter().map(Vec::len).sum::<usize>() + paced.seen.len()) as u64;
    let audit_appends = audit_len(&svc) - audit0;
    Run {
        setups_s,
        closed,
        open: Loop::paced(paced.lat, paced.lag),
        seen_closed,
        seen_open: paced.seen,
        preload_outcomes,
        final_adi: svc.adi().snapshot(),
        spans,
        metrics_text: svc.metrics_text(),
        http_metrics: None,
        audit_appends,
        decided,
    }
}

/// The median set-up time of a run.
pub fn setup_median(r: &Run) -> f64 {
    median(&r.setups_s)
}
