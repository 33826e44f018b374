//! E10 — MSoD vs the Bertino et al. [12] planner on the shared
//! tax-refund workload: per-authorization cost and how the planner's
//! up-front/lookahead cost scales with the user population (the central
//!-authority price the paper criticizes). MSoD's cost is independent of
//! the user population — only the actor's own history matters.

use std::hint::black_box;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use msod::RoleRef;
use permis::{DecisionRequest, DecisionService};
use workflow::{Assignment, BertinoPlanner, ProcessDefinition, TAX_POLICY};

fn planner_with_users(n_users: usize) -> BertinoPlanner {
    let mut p = BertinoPlanner::new(ProcessDefinition::tax_refund());
    p.tax_refund_constraints();
    for i in 0..n_users / 2 {
        p.add_user(format!("clerk{i}"), ["Clerk".to_owned()]);
    }
    for i in 0..n_users.div_ceil(2) {
        p.add_user(format!("mgr{i}"), ["Manager".to_owned()]);
    }
    p
}

fn mid_process_assignment() -> Assignment {
    let mut a = Assignment::new();
    a.insert("T1".into(), vec!["clerk0".into()]);
    a.insert("T2".into(), vec!["mgr0".into()]);
    a
}

fn bertino_authorize_vs_population(c: &mut Criterion) {
    let mut group = c.benchmark_group("baseline/bertino_authorize_vs_users");
    for n in [6usize, 20, 60, 200] {
        let planner = planner_with_users(n);
        let assignment = mid_process_assignment();
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| planner.authorize(black_box(&assignment), "T2", "mgr1"))
        });
    }
    group.finish();
}

fn bertino_plan_vs_population(c: &mut Criterion) {
    let mut group = c.benchmark_group("baseline/bertino_plan_vs_users");
    for n in [6usize, 20, 60, 200] {
        let planner = planner_with_users(n);
        let empty = Assignment::new();
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| planner.plan_exists(black_box(&empty)))
        });
    }
    group.finish();
}

fn msod_decide_vs_population(c: &mut Criterion) {
    // The MSoD side of the comparison: the same T2 authorization with
    // other users' histories resident — population only affects the
    // store size, not the per-user lookup.
    let mut group = c.benchmark_group("baseline/msod_decide_vs_users");
    for n in [6usize, 20, 60, 200] {
        let pdp = DecisionService::from_xml(TAX_POLICY, b"k".to_vec()).unwrap();
        let ctx: context::ContextInstance = "TaxOffice=Kent, taxRefundProcess=1".parse().unwrap();
        // Populate: T1 done, plus (n-2) bystanders acting in other
        // instances.
        pdp.decide(&DecisionRequest::with_roles(
            "clerk0",
            vec![RoleRef::new("employee", "Clerk")],
            "prepareCheck",
            "http://www.myTaxOffice.com/Check",
            ctx.clone(),
            1,
        ));
        for i in 0..n {
            pdp.decide(&DecisionRequest::with_roles(
                format!("mgr{i}"),
                vec![RoleRef::new("employee", "Manager")],
                "approve/disapproveCheck",
                "http://www.myTaxOffice.com/Check",
                format!("TaxOffice=Kent, taxRefundProcess={}", 100 + i).parse().unwrap(),
                2 + i as u64,
            ));
        }
        let probe = DecisionRequest::with_roles(
            "mgr1",
            vec![RoleRef::new("employee", "Manager")],
            "approve/disapproveCheck",
            "http://www.myTaxOffice.com/Check",
            ctx,
            10_000,
        );
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| pdp.decide(black_box(&probe)))
        });
    }
    group.finish();
}

fn full_process_comparison(c: &mut Criterion) {
    // One complete 5-grant tax refund through each system.
    let mut group = c.benchmark_group("baseline/full_refund");
    group.bench_function("msod_pdp", |b| {
        b.iter_batched(
            || {
                (
                    DecisionService::from_xml(TAX_POLICY, b"k".to_vec()).unwrap(),
                    workflow::ProcessRun::new(
                        ProcessDefinition::tax_refund(),
                        "TaxOffice=Kent, taxRefundProcess=1".parse().unwrap(),
                    ),
                )
            },
            |(pdp, mut run)| {
                assert!(run.attempt(&pdp, "T1", "carol", 1).is_granted());
                assert!(run.attempt(&pdp, "T2", "mike", 2).is_granted());
                assert!(run.attempt(&pdp, "T2", "mary", 3).is_granted());
                assert!(run.attempt(&pdp, "T3", "max", 4).is_granted());
                assert!(run.attempt(&pdp, "T4", "chris", 5).is_granted());
                (pdp, run)
            },
            criterion::BatchSize::SmallInput,
        )
    });
    group.bench_function("bertino_planner", |b| {
        let planner = planner_with_users(10);
        b.iter(|| {
            let mut a = Assignment::new();
            for (task, user) in
                [("T1", "clerk0"), ("T2", "mgr0"), ("T2", "mgr1"), ("T3", "mgr2"), ("T4", "clerk1")]
            {
                assert!(planner.authorize(&a, task, user));
                a.entry(task.to_owned()).or_default().push(user.to_owned());
            }
            a
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bertino_authorize_vs_population,
    bertino_plan_vs_population,
    msod_decide_vs_population,
    full_process_comparison
);
criterion_main!(benches);
