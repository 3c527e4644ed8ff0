//! Experiment 5: incremental deployment latency — installing a tenant
//! policy and rerouting one against spare capacity, vs the full solve.

use flowplace_bench::harness::{criterion_group, criterion_main, Criterion};
use flowplace_rng::StdRng;

use flowplace_bench::experiments::{default_options, QUICK_TIME_LIMIT};
use flowplace_bench::{build_instance, ScenarioConfig};
use flowplace_classbench::{Generator, Profile};
use flowplace_core::{incremental, Objective, RulePlacer, SolveCtx};
use flowplace_routing::shortest;
use flowplace_topo::EntryPortId;

fn bench(c: &mut Criterion) {
    let cfg = ScenarioConfig {
        k: 4,
        ingresses: 8,
        paths_per_ingress: 2,
        rules_per_policy: 20,
        shared_rules: 0,
        capacity: 120,
        seed: 13,
    };
    let instance = build_instance(&cfg);
    let options = default_options(QUICK_TIME_LIMIT);
    let placer = RulePlacer::new(options.clone());
    let placement = placer
        .place(&instance, Objective::TotalRules)
        .expect("placement is infallible")
        .placement
        .expect("base is feasible");
    let generator = Generator::new(Profile::Firewall, 16).with_seed(77);

    let mut group = c.benchmark_group("exp5_incremental");
    group.sample_size(10);

    group.bench_function("full_solve", |b| {
        b.iter(|| {
            placer
                .place(&instance, Objective::TotalRules)
                .expect("placement is infallible")
        })
    });

    group.bench_function("install_policy", |b| {
        b.iter(|| {
            let mut rng = StdRng::seed_from_u64(99);
            let ingress = EntryPortId(cfg.ingresses);
            let route =
                shortest::shortest_path(instance.topology(), ingress, EntryPortId(15), &mut rng)
                    .expect("connected");
            incremental::install_policies(
                &instance,
                &placement,
                vec![(ingress, generator.policy(20, 1000), vec![route])],
                &options,
                Objective::TotalRules,
                SolveCtx::default(),
            )
            .expect("fresh ingress")
        })
    });

    group.bench_function("reroute_policy", |b| {
        b.iter(|| {
            let mut rng = StdRng::seed_from_u64(123);
            let ingress = EntryPortId(0);
            let mut new_routes = Vec::new();
            for egress in [EntryPortId(12), EntryPortId(9)] {
                if let Some(r) =
                    shortest::shortest_path(instance.topology(), ingress, egress, &mut rng)
                {
                    new_routes.push(r);
                }
            }
            incremental::reroute_policy(
                &instance,
                &placement,
                ingress,
                new_routes,
                &options,
                Objective::TotalRules,
                SolveCtx::default(),
            )
            .expect("policy exists")
        })
    });

    group.bench_function("add_rule_greedy", |b| {
        b.iter(|| {
            incremental::add_rule_greedy(
                &instance,
                &placement,
                EntryPortId(0),
                flowplace_acl::Rule::new(
                    flowplace_acl::Ternary::parse("1111111100000000").unwrap(),
                    flowplace_acl::Action::Drop,
                    0,
                ),
            )
            .expect("policy exists")
        })
    });

    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
