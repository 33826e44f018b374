//! The load generator's latency accounting, pinned against a backend
//! whose service time is known: every decision sleeps a fixed `D`.
//! A closed-loop batch of `n` then takes at least `n·D`, and an open
//! loop paced faster than `1/D` queues, so its tail latency — timed
//! from each request's scheduled send — grows far beyond `D`.

use std::sync::Arc;
use std::time::Duration;

use msod::AdiRecord;
use net::loadgen::{run_closed, run_open, LoadgenConfig, BUILTIN_POLICY};
use net::{Backend, NetConfig, NetServer};
use permis::ManagementOp;
use permis::{Credentials, DecisionOutcome, DecisionRequest, DecisionService, DenyReason};

/// Per-decision service time of the slow backend.
const D: Duration = Duration::from_millis(2);

/// A decision service that sleeps `D` before every decision.
struct SlowBackend(DecisionService);

impl Backend for SlowBackend {
    fn decide(&self, req: &DecisionRequest) -> DecisionOutcome {
        std::thread::sleep(D);
        self.0.decide(req)
    }

    fn decide_many(&self, reqs: &[DecisionRequest]) -> Vec<DecisionOutcome> {
        std::thread::sleep(D * reqs.len() as u32);
        self.0.decide_many(reqs)
    }

    fn manage(
        &self,
        subject: String,
        credentials: Credentials,
        op: ManagementOp,
        timestamp: u64,
    ) -> Result<usize, DenyReason> {
        self.0.manage(subject, credentials, op, timestamp)
    }

    fn inspect(
        &self,
        subject: String,
        credentials: Credentials,
        user_filter: Option<&str>,
        timestamp: u64,
    ) -> Result<Vec<AdiRecord>, DenyReason> {
        self.0.inspect(subject, credentials, user_filter, timestamp)
    }

    fn inspect_metrics(
        &self,
        subject: String,
        credentials: Credentials,
        timestamp: u64,
    ) -> Result<String, DenyReason> {
        self.0.inspect_metrics(subject, credentials, timestamp)
    }

    fn metrics_text(&self) -> String {
        self.0.metrics_text()
    }

    fn trigger_flight(&self, reason: &str) {
        self.0.trigger_flight(reason)
    }
}

fn slow_server() -> (NetServer, String) {
    let svc = DecisionService::from_xml(BUILTIN_POLICY, b"loadgen-latency".to_vec()).unwrap();
    let server =
        NetServer::bind("127.0.0.1:0", Arc::new(SlowBackend(svc)), NetConfig::default()).unwrap();
    let addr = server.local_addr().to_string();
    (server, addr)
}

#[test]
fn closed_loop_charges_each_request_the_whole_batch() {
    let (_server, addr) = slow_server();
    let batch = 4;
    let cfg = LoadgenConfig { requests: 40, threads: 1, batch, open_rate: 0, ..Default::default() };
    let report = run_closed(&addr, &cfg).unwrap();
    assert_eq!(report.requests, 40);
    let floor_us = (D * batch as u32).as_micros() as u64;
    assert!(report.p50_us >= floor_us, "p50 {}us below one batch of {floor_us}us", report.p50_us);
}

#[test]
fn open_loop_times_from_the_scheduled_send() {
    let (_server, addr) = slow_server();
    // Paced at twice the service rate: the queue grows by one request
    // every 2·D, so late requests wait many service times.
    let rate = 2 * 1_000_000 / D.as_micros() as u64;
    let cfg = LoadgenConfig { requests: 60, open_rate: rate, ..Default::default() };
    let report = run_open(&addr, &cfg).unwrap();
    let d_us = D.as_micros() as u64;
    assert!(report.p99_us >= 5 * d_us, "p99 {}us does not show the queue", report.p99_us);
}
