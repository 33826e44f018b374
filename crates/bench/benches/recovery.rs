//! E7 — §5.2 start-up recovery: time to rebuild the retained ADI by
//! replaying the last *n* audit trails, as a function of trail length —
//! the scalability concern the paper flags in §6 ("we anticipate that
//! our current implementation will not be scalable, due to the time
//! taken to initialize the retained ADI from the secure audit trails").

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use permis::DecisionService;
use workflow::scenarios::{gen_requests, workload_policy_xml, WorkloadConfig};

/// Build a store directory containing a trail of `n_requests` decisions.
fn build_store(n_requests: usize, dir: &std::path::Path) -> String {
    let cfg = WorkloadConfig {
        users: 50,
        contexts: 10,
        role_pairs: 4,
        requests: n_requests,
        terminate_percent: 2,
    };
    let policy = workload_policy_xml(&cfg);
    let pdp = DecisionService::from_xml(&policy, b"key".to_vec()).unwrap();
    pdp.attach_store(audit::TrailStore::open(dir).unwrap());
    for (i, req) in gen_requests(&cfg, 42).iter().enumerate() {
        pdp.decide(req);
        if i % 2_000 == 1_999 {
            pdp.rotate_and_persist().unwrap();
        }
    }
    pdp.rotate_and_persist().unwrap();
    policy
}

fn recovery_vs_trail_length(c: &mut Criterion) {
    let mut group = c.benchmark_group("recovery/replay_vs_trail_len");
    group.sample_size(10);
    for n in [1_000usize, 5_000, 20_000] {
        let dir = std::env::temp_dir().join(format!("bench-recovery-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let policy = build_store(n, &dir);
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| {
                let pdp = DecisionService::from_xml(&policy, b"key".to_vec()).unwrap();
                pdp.attach_store(audit::TrailStore::open(&dir).unwrap());
                let report = pdp.recover(usize::MAX, 0).unwrap();
                assert!(report.grants_replayed > 0);
                report
            })
        });
        let _ = std::fs::remove_dir_all(&dir);
    }
    group.finish();
}

fn recovery_window_n(c: &mut Criterion) {
    // The administrative lever: recover only the last n trails.
    let dir = std::env::temp_dir().join(format!("bench-recovery-win-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let policy = build_store(20_000, &dir);
    let mut group = c.benchmark_group("recovery/last_n_trails");
    group.sample_size(10);
    for last_n in [1usize, 5, usize::MAX] {
        let label = if last_n == usize::MAX { "all".to_owned() } else { last_n.to_string() };
        group.bench_with_input(BenchmarkId::from_parameter(label), &last_n, |b, &last_n| {
            b.iter(|| {
                let pdp = DecisionService::from_xml(&policy, b"key".to_vec()).unwrap();
                pdp.attach_store(audit::TrailStore::open(&dir).unwrap());
                pdp.recover(last_n, 0).unwrap()
            })
        });
    }
    group.finish();
    let _ = std::fs::remove_dir_all(&dir);
}

fn trail_verification(c: &mut Criterion) {
    // The integrity-checking share of recovery: verifying a sealed
    // segment's hash chain + seal.
    let cfg = WorkloadConfig { requests: 5_000, ..Default::default() };
    let policy = workload_policy_xml(&cfg);
    let pdp = DecisionService::from_xml(&policy, b"key".to_vec()).unwrap();
    for req in gen_requests(&cfg, 1) {
        pdp.decide(&req);
    }
    let mut group = c.benchmark_group("recovery/trail_verify");
    group.sample_size(20);
    group.throughput(Throughput::Elements(5_000));
    group.bench_function("5000_records", |b| b.iter(|| pdp.with_trail(|t| t.verify()).unwrap()));
    group.finish();
}

criterion_group!(benches, recovery_vs_trail_length, recovery_window_n, trail_verification);
criterion_main!(benches);
