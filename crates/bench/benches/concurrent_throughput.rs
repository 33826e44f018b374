//! Concurrent decision throughput of the split-plane PDP
//! ([`permis::DecisionService`], lock-free read plane + sharded retained
//! ADI), swept over thread count × shard count.
//!
//! Every variant runs the identical workload: each thread issues
//! `PER_THREAD` grant-path decisions for thread-distinct users, so more
//! shards spread the writes while a single shard serialises them behind
//! one lock. Threads are spawned inside the timed routine; the spawn
//! cost is identical across variants and amortised over the per-thread
//! request batch.
//!
//! On a single-core host the sweep measures lock *contention* (handoff
//! and serialisation overhead), not parallel speedup — record the host
//! shape next to the numbers.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion, Throughput};
use msod::RoleRef;
use permis::{DecisionRequest, DecisionService};
use workflow::scenarios::{workload_policy_xml, WorkloadConfig, WORK_OP, WORK_TARGET};

/// Decisions issued by each thread per timed routine call.
const PER_THREAD: usize = 200;

fn cfg() -> WorkloadConfig {
    WorkloadConfig { users: 64, contexts: 8, role_pairs: 2, ..Default::default() }
}

/// Per-thread request stream: thread-distinct users (so shards see
/// independent writers), one conflict-free role each (pure grant path —
/// every decision commits a retained record and an audit append).
fn thread_requests(cfg: &WorkloadConfig, threads: usize) -> Vec<Vec<DecisionRequest>> {
    (0..threads)
        .map(|t| {
            (0..PER_THREAD)
                .map(|i| {
                    let pair = i % cfg.role_pairs;
                    DecisionRequest::with_roles(
                        format!("t{t}-user{}", i % cfg.users),
                        vec![RoleRef::new("permisRole", format!("A{pair}"))],
                        WORK_OP,
                        WORK_TARGET,
                        format!("Proc={}", i % cfg.contexts).parse().unwrap(),
                        (t * PER_THREAD + i) as u64,
                    )
                })
                .collect()
        })
        .collect()
}

fn concurrent_throughput(c: &mut Criterion) {
    let cfg = cfg();
    let parsed = policy::parse_rbac_policy(&workload_policy_xml(&cfg)).unwrap();
    let mut group = c.benchmark_group("concurrent/decide_throughput");

    for threads in [1usize, 2, 4, 8] {
        let requests = thread_requests(&cfg, threads);
        group.throughput(Throughput::Elements((threads * PER_THREAD) as u64));

        // Split plane: decide(&self), retained ADI partitioned across
        // `shards` user-keyed shard locks.
        for shards in [1usize, 4, 16] {
            group.bench_with_input(
                BenchmarkId::new(format!("sharded_{shards}"), threads),
                &threads,
                |b, _| {
                    b.iter_batched(
                        || {
                            DecisionService::<msod::MemoryAdi>::with_shard_count(
                                parsed.clone(),
                                b"k".to_vec(),
                                shards,
                            )
                        },
                        |service| {
                            let service_ref = &service;
                            std::thread::scope(|s| {
                                for reqs in &requests {
                                    s.spawn(move || {
                                        for req in reqs {
                                            let _ = service_ref.decide(req);
                                        }
                                    });
                                }
                            });
                            service
                        },
                        BatchSize::SmallInput,
                    )
                },
            );
        }
    }
    group.finish();
}

/// Instrumentation overhead: the identical grant-path workload through
/// the sharded service, with the compile-time obs configuration baked
/// into the group name via [`obs::mode`]. Run the bench twice — once
/// as-is (`obs_on`) and once with `--features obs-off` (`obs_off`) —
/// and compare the two sweeps; `BENCH_obs.json` records the result
/// (budget: ≤5 % decide-throughput cost).
fn obs_overhead(c: &mut Criterion) {
    let cfg = cfg();
    let parsed = policy::parse_rbac_policy(&workload_policy_xml(&cfg)).unwrap();
    let mut group = c.benchmark_group(format!("concurrent/obs_overhead_{}", obs::mode()));

    for threads in [1usize, 4] {
        let requests = thread_requests(&cfg, threads);
        group.throughput(Throughput::Elements((threads * PER_THREAD) as u64));
        group.bench_with_input(BenchmarkId::new("sharded_16", threads), &threads, |b, _| {
            b.iter_batched(
                || {
                    DecisionService::<msod::MemoryAdi>::with_shard_count(
                        parsed.clone(),
                        b"k".to_vec(),
                        16,
                    )
                },
                |service| {
                    let service_ref = &service;
                    std::thread::scope(|s| {
                        for reqs in &requests {
                            s.spawn(move || {
                                for req in reqs {
                                    let _ = service_ref.decide(req);
                                }
                            });
                        }
                    });
                    service
                },
                BatchSize::SmallInput,
            )
        });
        // The symbolized plane is the production hot path, and it also
        // carries the always-on provenance hooks (sampled flight
        // entries, slowest-exemplar gate, latency-trigger check) — so
        // the overhead budget is enforced here too.
        group.bench_with_input(BenchmarkId::new("symbolized", threads), &threads, |b, _| {
            b.iter_batched(
                || DecisionService::new_symbolized(parsed.clone(), b"k".to_vec()),
                |service| {
                    let service_ref = &service;
                    std::thread::scope(|s| {
                        for reqs in &requests {
                            s.spawn(move || {
                                for req in reqs {
                                    let _ = service_ref.decide(req);
                                }
                            });
                        }
                    });
                    service
                },
                BatchSize::SmallInput,
            )
        });
    }
    group.finish();
}

criterion_group!(benches, concurrent_throughput, obs_overhead);
criterion_main!(benches);
