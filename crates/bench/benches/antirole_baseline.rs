//! E11 — MSoD vs the Crampton anti-role baseline [18]: per-decision
//! cost as blacklists/ADI grow, and the effect of scoped (MSoD) vs
//! all-or-nothing (anti-role) purging on steady-state store size.

use std::hint::black_box;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use msod::{RetainedAdi, RoleRef};
use permis::DecisionService;
use workflow::scenarios::{gen_requests, workload_policy_xml, WorkloadConfig};
use workflow::AntiRoleEnforcer;

fn antirole_decide_vs_blacklist(c: &mut Criterion) {
    let mut group = c.benchmark_group("baseline/antirole_decide_vs_blacklist");
    for n_rules in [10usize, 100, 1_000] {
        let mut e = AntiRoleEnforcer::new();
        for i in 0..n_rules {
            e.add_rule(vec![
                RoleRef::new("e", format!("X{i}")),
                RoleRef::new("e", format!("Y{i}")),
            ]);
        }
        // User has touched one side of every rule: maximal blacklist.
        for i in 0..n_rules {
            e.decide("u", &RoleRef::new("e", format!("X{i}")));
        }
        let probe = RoleRef::new("e", "X0");
        group.bench_with_input(BenchmarkId::from_parameter(n_rules), &n_rules, |b, _| {
            b.iter(|| e.permits("u", black_box(&probe)))
        });
    }
    group.finish();
}

fn antirole_observe_cost(c: &mut Criterion) {
    let mut group = c.benchmark_group("baseline/antirole_observe_vs_rules");
    for n_rules in [10usize, 100, 1_000] {
        let mut base = AntiRoleEnforcer::new();
        for i in 0..n_rules {
            base.add_rule(vec![
                RoleRef::new("e", format!("X{i}")),
                RoleRef::new("e", format!("Y{i}")),
            ]);
        }
        let role = RoleRef::new("e", "X0");
        group.bench_with_input(BenchmarkId::from_parameter(n_rules), &n_rules, |b, _| {
            b.iter_batched(
                || base.clone(),
                |mut e| {
                    e.observe("u", &role);
                    e
                },
                criterion::BatchSize::SmallInput,
            )
        });
    }
    group.finish();
}

/// Steady-state store size under a workload with terminations: MSoD
/// purges per-context; the anti-role equivalent either never purges
/// (unbounded growth) or purges everything. The bench measures the
/// decision throughput of each at equal workload; the store sizes are
/// asserted and reported in EXPERIMENTS.md.
fn steady_state_throughput(c: &mut Criterion) {
    let cfg = WorkloadConfig {
        users: 50,
        contexts: 10,
        role_pairs: 4,
        requests: 1_000,
        terminate_percent: 10,
    };
    let policy = workload_policy_xml(&cfg);
    let requests = gen_requests(&cfg, 21);

    let mut group = c.benchmark_group("baseline/steady_state_1000req");
    group.sample_size(20);
    group.throughput(criterion::Throughput::Elements(1_000));

    group.bench_function("msod_pdp", |b| {
        b.iter_batched(
            || DecisionService::from_xml(&policy, b"k".to_vec()).unwrap(),
            |pdp| {
                for req in &requests {
                    pdp.decide(req);
                }
                // Terminations kept the ADI bounded.
                assert!(pdp.adi().len() < 400);
                pdp
            },
            criterion::BatchSize::LargeInput,
        )
    });

    group.bench_function("antirole", |b| {
        b.iter_batched(
            || {
                let mut e = AntiRoleEnforcer::new();
                for i in 0..cfg.role_pairs {
                    e.add_rule(vec![
                        RoleRef::new("permisRole", format!("A{i}")),
                        RoleRef::new("permisRole", format!("B{i}")),
                    ]);
                }
                e
            },
            |mut e| {
                for req in &requests {
                    if let permis::Credentials::Validated(roles) = &req.credentials {
                        // The anti-role scheme has no context dimension:
                        // it sees only (user, role).
                        e.decide(&req.subject, &roles[0]);
                    }
                }
                e
            },
            criterion::BatchSize::LargeInput,
        )
    });
    group.finish();
}

/// MSoD's scoped purge (last step) vs anti-role's global purge: cost of
/// the purge operation itself at various store sizes.
fn purge_cost(c: &mut Criterion) {
    let mut group = c.benchmark_group("baseline/purge_cost");
    for n in [1_000usize, 10_000] {
        // MSoD: purge one context out of 10.
        let cfg = WorkloadConfig { users: 50, contexts: 10, role_pairs: 4, ..Default::default() };
        let mut adi = msod::MemoryAdi::new();
        workflow::scenarios::seed_adi(&mut adi, &cfg, n, 3);
        let name: context::ContextName = "Proc=!".parse().unwrap();
        let bound = name.bind(&"Proc=3".parse().unwrap()).unwrap();
        group.bench_with_input(BenchmarkId::new("msod_scoped", n), &n, |b, _| {
            b.iter_batched(
                || adi.clone(),
                |mut adi| {
                    adi.purge(&bound);
                    adi
                },
                criterion::BatchSize::LargeInput,
            )
        });

        // Anti-role: the only available purge is everything.
        let mut e = AntiRoleEnforcer::new();
        for i in 0..n / 10 {
            e.add_rule(vec![
                RoleRef::new("e", format!("X{i}")),
                RoleRef::new("e", format!("Y{i}")),
            ]);
        }
        for u in 0..10 {
            for i in 0..n / 10 {
                e.decide(&format!("u{u}"), &RoleRef::new("e", format!("X{i}")));
            }
        }
        group.bench_with_input(BenchmarkId::new("antirole_global", n), &n, |b, _| {
            b.iter_batched(
                || e.clone(),
                |mut e| {
                    e.periodic_purge();
                    e
                },
                criterion::BatchSize::LargeInput,
            )
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    antirole_decide_vs_blacklist,
    antirole_observe_cost,
    steady_state_throughput,
    purge_cost
);
criterion_main!(benches);
