//! E8 — the paper's central scalability question (§4.3, §6): decision
//! latency as the retained ADI grows, and the overhead of the MSoD
//! stage over plain RBAC.
//!
//! Expected shape (recorded in EXPERIMENTS.md): plain-RBAC latency is
//! flat; MSoD latency is flat in the number of *other* users' records
//! per user-indexed lookup but grows with the store scan in
//! `context_active` — the degradation the paper predicts for its
//! in-memory design.

use std::hint::black_box;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use msod::{MemoryAdi, RetainedAdi, RoleRef, ShardedAdi};
use permis::{DecisionRequest, DecisionService};
use workflow::scenarios::{
    seed_adi, workload_policy_xml, workload_policy_xml_no_msod, WorkloadConfig,
};

fn cfg() -> WorkloadConfig {
    WorkloadConfig { users: 200, contexts: 50, role_pairs: 4, ..Default::default() }
}

fn decide_vs_adi_size(c: &mut Criterion) {
    // Two store implementations at each size: the paper's flat in-core
    // store and the context-trie IndexedAdi — the E8 ablation.
    let mut group = c.benchmark_group("decide/msod_vs_adi_size");
    let cfg = cfg();
    let policy = workload_policy_xml(&cfg);
    let probe_record = || msod::AdiRecord {
        user: "user0".into(),
        roles: vec![RoleRef::new("permisRole", "A0")],
        operation: workflow::scenarios::WORK_OP.into(),
        target: workflow::scenarios::WORK_TARGET.into(),
        context: "Proc=0".parse().unwrap(),
        timestamp: 0,
    };
    // The probe is a DENIED request: the deny path reads the full
    // history but never mutates the ADI, keeping the measured size fixed.
    let req = DecisionRequest::with_roles(
        "user0",
        vec![RoleRef::new("permisRole", "B0")],
        workflow::scenarios::WORK_OP,
        workflow::scenarios::WORK_TARGET,
        "Proc=0".parse().unwrap(),
        1,
    );
    for n in [0usize, 1_000, 10_000, 100_000] {
        let mut mem = MemoryAdi::new();
        seed_adi(&mut mem, &cfg, n, 7);
        mem.add(probe_record());
        let idx = msod::IndexedAdi::load(mem.snapshot());

        let base = policy::parse_rbac_policy(&policy).unwrap();
        let pdp_mem = DecisionService::from_shards(
            base.clone(),
            b"k".to_vec(),
            ShardedAdi::from_shards(vec![mem]),
        );
        let pdp_idx =
            DecisionService::from_shards(base, b"k".to_vec(), ShardedAdi::from_shards(vec![idx]));
        assert!(!pdp_mem.decide(&req).is_granted());
        assert!(!pdp_idx.decide(&req).is_granted());
        group.bench_with_input(BenchmarkId::new("memory", n), &n, |b, _| {
            b.iter(|| pdp_mem.decide(black_box(&req)))
        });
        group.bench_with_input(BenchmarkId::new("indexed", n), &n, |b, _| {
            b.iter(|| pdp_idx.decide(black_box(&req)))
        });
    }
    group.finish();
}

fn symbolized_vs_string_service(c: &mut Criterion) {
    // The PR-6 hot-path ablation (BENCH_hotpath.json): the full
    // DecisionService front end over the string-keyed indexed store
    // versus the symbolized plane (intern-once boundary, u32 matchers,
    // SymAdi trie, zero-alloc warm decide), same denied probe as E8.
    let mut group = c.benchmark_group("decide/symbolized_vs_string_service");
    let cfg = cfg();
    let policy = policy::parse_rbac_policy(&workload_policy_xml(&cfg)).unwrap();
    let probe_record = || msod::AdiRecord {
        user: "user0".into(),
        roles: vec![RoleRef::new("permisRole", "A0")],
        operation: workflow::scenarios::WORK_OP.into(),
        target: workflow::scenarios::WORK_TARGET.into(),
        context: "Proc=0".parse().unwrap(),
        timestamp: 0,
    };
    let req = DecisionRequest::with_roles(
        "user0",
        vec![RoleRef::new("permisRole", "B0")],
        workflow::scenarios::WORK_OP,
        workflow::scenarios::WORK_TARGET,
        "Proc=0".parse().unwrap(),
        1,
    );
    for n in [0usize, 1_000, 10_000, 100_000] {
        let mut seeded = MemoryAdi::new();
        seed_adi(&mut seeded, &cfg, n, 7);
        seeded.add(probe_record());

        let string_svc = DecisionService::<msod::IndexedAdi>::with_shard_count(
            policy.clone(),
            b"k".to_vec(),
            msod::DEFAULT_SHARDS,
        );
        let sym_svc = DecisionService::new_symbolized(policy.clone(), b"k".to_vec());
        assert!(
            sym_svc.core().sym_engine().is_some(),
            "workload policy must compile onto the symbol plane"
        );
        for rec in seeded.snapshot() {
            string_svc.adi().with_user_shard(&rec.user.clone(), |s| s.add(rec.clone()));
            sym_svc.adi().with_user_shard(&rec.user.clone(), |s| s.add(rec));
        }
        assert!(!string_svc.decide(&req).is_granted());
        assert!(!sym_svc.decide(&req).is_granted());
        group.bench_with_input(BenchmarkId::new("string_indexed", n), &n, |b, _| {
            b.iter(|| string_svc.decide(black_box(&req)))
        });
        group.bench_with_input(BenchmarkId::new("symbolized", n), &n, |b, _| {
            b.iter(|| sym_svc.decide(black_box(&req)))
        });
    }
    group.finish();
}

fn fresh_context_miss(c: &mut Criterion) {
    // E8b: the first request in a brand-new context instance — §4.2
    // step 3 must discover no history exists. Flat store: full scan.
    // Indexed store: one trie walk. Non-mutating thanks to the
    // first-step-gated policy.
    let mut group = c.benchmark_group("decide/fresh_context_miss");
    let cfg = cfg();
    let gated =
        policy::parse_rbac_policy(&workflow::scenarios::workload_policy_xml_first_step(&cfg))
            .unwrap();
    let req = DecisionRequest::with_roles(
        "user0",
        vec![RoleRef::new("permisRole", "A0")],
        workflow::scenarios::WORK_OP,
        workflow::scenarios::WORK_TARGET,
        "Proc=99999".parse().unwrap(),
        1,
    );
    for n in [1_000usize, 10_000, 100_000] {
        let mut seeded = MemoryAdi::new();
        seed_adi(&mut seeded, &cfg, n, 7);
        let pdp_mem = DecisionService::from_shards(
            gated.clone(),
            b"k".to_vec(),
            ShardedAdi::from_shards(vec![seeded.clone()]),
        );
        let pdp_idx = DecisionService::from_shards(
            gated.clone(),
            b"k".to_vec(),
            ShardedAdi::from_shards(vec![msod::IndexedAdi::load(seeded.snapshot())]),
        );
        assert!(pdp_mem.decide(&req).is_granted());
        assert_eq!(pdp_mem.adi().len(), n, "probe must not mutate");
        group.bench_with_input(BenchmarkId::new("memory", n), &n, |b, _| {
            b.iter(|| pdp_mem.decide(black_box(&req)))
        });
        group.bench_with_input(BenchmarkId::new("indexed", n), &n, |b, _| {
            b.iter(|| pdp_idx.decide(black_box(&req)))
        });
    }
    group.finish();
}

fn msod_overhead_vs_plain_rbac(c: &mut Criterion) {
    // The *grant-and-record* path (the common case), measured with a
    // fresh service per iteration so recorded history cannot accumulate
    // into the measurement. The resident ADI is kept modest so the
    // per-iteration setup stays cheap relative to the decide.
    let mut group = c.benchmark_group("decide/msod_overhead");
    let cfg = cfg();
    for (label, xml) in [
        ("plain_rbac", workload_policy_xml_no_msod(&cfg)),
        ("with_msod", workload_policy_xml(&cfg)),
    ] {
        let mut base_adi = MemoryAdi::new();
        seed_adi(&mut base_adi, &cfg, 1_000, 7);
        let parsed = policy::parse_rbac_policy(&xml).unwrap();
        let req = DecisionRequest::with_roles(
            "user0",
            vec![RoleRef::new("permisRole", "A0")],
            workflow::scenarios::WORK_OP,
            workflow::scenarios::WORK_TARGET,
            "Proc=0".parse().unwrap(),
            1,
        );
        group.bench_function(label, |b| {
            b.iter_batched(
                || {
                    DecisionService::from_shards(
                        parsed.clone(),
                        b"k".to_vec(),
                        ShardedAdi::from_shards(vec![base_adi.clone()]),
                    )
                },
                |pdp| {
                    let out = pdp.decide(black_box(&req));
                    (pdp, out)
                },
                criterion::BatchSize::SmallInput,
            )
        });
    }
    group.finish();
}

fn decide_throughput_workload(c: &mut Criterion) {
    // Whole-workload throughput: a mixed stream of grants/denies with
    // periodic terminations, as a realistic aggregate number.
    let cfg = WorkloadConfig {
        users: 100,
        contexts: 20,
        role_pairs: 4,
        requests: 1_000,
        terminate_percent: 2,
    };
    let policy = workload_policy_xml(&cfg);
    let requests = workflow::scenarios::gen_requests(&cfg, 11);
    let mut group = c.benchmark_group("decide/workload_1000req");
    group.sample_size(20);
    group.throughput(criterion::Throughput::Elements(1_000));
    group.bench_function("mixed_stream", |b| {
        b.iter_batched(
            || DecisionService::from_xml(&policy, b"k".to_vec()).unwrap(),
            |pdp| {
                for req in &requests {
                    pdp.decide(req);
                }
                pdp
            },
            criterion::BatchSize::LargeInput,
        )
    });
    group.finish();
}

fn deny_vs_grant_latency(c: &mut Criterion) {
    let cfg = cfg();
    let policy = workload_policy_xml(&cfg);
    let fresh = || DecisionService::from_xml(&policy, b"k".to_vec()).unwrap();
    let pdp = fresh();
    // user0 acts with A0 in Proc=0: grant, then B0 in Proc=0: deny.
    let grant = DecisionRequest::with_roles(
        "user0",
        vec![RoleRef::new("permisRole", "A0")],
        workflow::scenarios::WORK_OP,
        workflow::scenarios::WORK_TARGET,
        "Proc=0".parse().unwrap(),
        1,
    );
    pdp.decide(&grant);
    let deny = DecisionRequest::with_roles(
        "user0",
        vec![RoleRef::new("permisRole", "B0")],
        workflow::scenarios::WORK_OP,
        workflow::scenarios::WORK_TARGET,
        "Proc=0".parse().unwrap(),
        2,
    );
    let mut group = c.benchmark_group("decide/paths");
    // The grant path records history, so rebuild the (small) service
    // state per iteration; the deny path never mutates and can run in
    // place.
    group.bench_function("grant_same_role", |b| {
        b.iter_batched(
            || {
                let p = fresh();
                p.decide(&grant);
                p
            },
            |p| {
                let out = p.decide(black_box(&grant));
                (p, out)
            },
            criterion::BatchSize::SmallInput,
        )
    });
    group.bench_function("deny_conflicting_role", |b| b.iter(|| pdp.decide(black_box(&deny))));
    group.finish();
}

criterion_group!(
    benches,
    decide_vs_adi_size,
    symbolized_vs_string_service,
    fresh_context_miss,
    msod_overhead_vs_plain_rbac,
    decide_throughput_workload,
    deny_vs_grant_latency
);
criterion_main!(benches);
