//! Criterion micro-benchmarks for E3 (meet / rexec migration) and E4
//! (folders, briefcases, cabinets), the routing fast path (cached vs
//! uncached shortest paths, E11's hot loop), plus the TacoScript interpreter
//! and the wire codec that both sit on every migration's critical path.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::Duration;
use tacoma_bench::{e3_local_meets, e3_migrate_once};
use tacoma_core::{codec, Briefcase, FileCabinet, Folder};
use tacoma_net::{LinkSpec, Router, Topology, TransportKind};
use tacoma_script::{analyze_with, AnalysisConfig, Interp, NullHost};
use tacoma_util::SiteId;

fn config() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_millis(1200))
}

fn bench_e3_meet_rexec(c: &mut Criterion) {
    let mut group = c.benchmark_group("e3_meet_rexec");
    group.bench_function("local_meet_x100", |b| {
        b.iter(|| std::hint::black_box(e3_local_meets(100)))
    });
    for payload in [1_024usize, 65_536] {
        for transport in TransportKind::ALL {
            group.bench_with_input(
                BenchmarkId::new(transport.label(), payload),
                &payload,
                |b, &payload| b.iter(|| std::hint::black_box(e3_migrate_once(payload, transport))),
            );
        }
    }
    group.finish();
}

fn bench_e4_folders(c: &mut Criterion) {
    let mut group = c.benchmark_group("e4_folders");
    for n in [100usize, 10_000] {
        group.bench_with_input(BenchmarkId::new("push_pop", n), &n, |b, &n| {
            b.iter(|| {
                let mut f = Folder::new();
                for i in 0..n {
                    f.push_u64(i as u64);
                }
                while f.pop().is_some() {}
                std::hint::black_box(f)
            })
        });
        let mut bc = Briefcase::new();
        let mut cab = FileCabinet::new();
        for i in 0..n {
            bc.folder_mut("DATA").push_str(format!("element-{i:08}"));
            cab.append_str("DATA", format!("element-{i:08}"));
        }
        let needle = format!("element-{:08}", n - 1);
        group.bench_with_input(BenchmarkId::new("briefcase_scan_lookup", n), &n, |b, _| {
            b.iter(|| {
                std::hint::black_box(bc.folder("DATA").unwrap().contains_elem(needle.as_bytes()))
            })
        });
        group.bench_with_input(BenchmarkId::new("cabinet_indexed_lookup", n), &n, |b, _| {
            b.iter(|| std::hint::black_box(cab.contains_elem(needle.as_bytes())))
        });
        group.bench_with_input(BenchmarkId::new("briefcase_encode", n), &n, |b, _| {
            b.iter(|| std::hint::black_box(codec::encode_briefcase(&bc)))
        });
        let encoded = codec::encode_briefcase(&bc);
        group.bench_with_input(BenchmarkId::new("briefcase_decode", n), &n, |b, _| {
            b.iter(|| std::hint::black_box(codec::decode_briefcase(&encoded).unwrap()))
        });
    }
    group.finish();
}

fn bench_routing(c: &mut Criterion) {
    let mut group = c.benchmark_group("routing");
    // The E11 shape at two scales: repeated queries over a fixed pair set,
    // the pattern the epoch-invalidated cache exists for.
    for cliques in [16u32, 128] {
        let topology = Topology::ring_of_cliques(cliques, 8, LinkSpec::lan(), LinkSpec::wan());
        let sites = topology.site_count();
        let pairs: Vec<(SiteId, SiteId)> = (0..64)
            .map(|i| {
                (
                    SiteId((i * 7) % sites),
                    SiteId((i * 13 + sites / 2) % sites),
                )
            })
            .collect();
        let alive = |_: SiteId| true;
        let unblocked = |_: SiteId, _: SiteId| false;
        // "uncached" hands the router a fresh epoch per query, so every one
        // of them misses and runs its BFS.
        for cached in [true, false] {
            let label = if cached { "cached" } else { "uncached" };
            group.bench_with_input(
                BenchmarkId::new(format!("route_{label}_x64"), sites),
                &pairs,
                |b, pairs| {
                    let mut router = Router::new(topology.clone());
                    let mut epoch = 0u64;
                    b.iter(|| {
                        let mut hops = 0usize;
                        for &(from, to) in pairs {
                            epoch += u64::from(!cached);
                            if let Some(p) = router.route(from, to, epoch, alive, unblocked) {
                                hops += p.len() - 1;
                            }
                        }
                        std::hint::black_box(hops)
                    })
                },
            );
        }
        // The uncached, allocating API, for the per-BFS cost itself.
        group.bench_with_input(
            BenchmarkId::new("shortest_path_single", sites),
            &pairs[0],
            |b, &(from, to)| {
                let router = Router::new(topology.clone());
                b.iter(|| std::hint::black_box(router.shortest_path(from, to, alive)))
            },
        );
    }
    group.finish();
}

fn bench_tacoscript(c: &mut Criterion) {
    let mut group = c.benchmark_group("tacoscript");
    let loop_script = r#"
        set total 0
        set i 0
        while {$i < 200} { incr i; set total [expr $total + $i] }
        set total
    "#;
    group.bench_function("loop_200", |b| {
        b.iter(|| {
            let mut host = NullHost;
            let mut interp = Interp::new(&mut host);
            std::hint::black_box(interp.run(loop_script).unwrap().result)
        })
    });
    let proc_script = r#"
        proc fib {n} { if {$n < 2} { return $n }; expr [fib [expr $n - 1]] + [fib [expr $n - 2]] }
        fib 12
    "#;
    group.bench_function("fib_12", |b| {
        b.iter(|| {
            let mut host = NullHost;
            let mut interp = Interp::new(&mut host);
            std::hint::black_box(interp.run(proc_script).unwrap().result)
        })
    });
    group.finish();
}

/// taco-vet cost next to the interpreted run it gates.  The install gate runs
/// the analyzer once per injected agent, so its budget is "well under one
/// execution of the same script" (target: <5% of `run_200` / `run_fib_12`).
fn bench_taco_vet(c: &mut Criterion) {
    let mut group = c.benchmark_group("taco_vet");
    let tour_script = include_str!("../../../examples/scripts/quickstart_tour.taco");
    let scripts = [
        (
            "loop_200",
            "set total 0\nset i 0\nwhile {$i < 200} { incr i; set total [expr $total + $i] }\nset total",
        ),
        (
            "fib_12",
            "proc fib {n} { if {$n < 2} { return $n }; expr [fib [expr $n - 1]] + [fib [expr $n - 2]] }\nfib 12",
        ),
        ("quickstart_tour", tour_script),
    ];
    let config = AnalysisConfig::new().known_agents(
        ["ag_tac", "rexec", "courier", "diffusion", "broker"]
            .iter()
            .map(|a| a.to_string()),
    );
    for (name, script) in scripts {
        group.bench_function(BenchmarkId::new("analyze", name), |b| {
            b.iter(|| std::hint::black_box(analyze_with(script, &config).len()))
        });
    }
    // The interpreted runs the analyze cost is compared against (the paper's
    // loop and proc shapes; the tour script needs a live host to run).
    for (name, script) in &scripts[..2] {
        group.bench_function(BenchmarkId::new("run", name), |b| {
            b.iter(|| {
                let mut host = NullHost;
                let mut interp = Interp::new(&mut host);
                std::hint::black_box(interp.run(script).unwrap().result)
            })
        });
    }
    group.finish();
}

criterion_group! {
    name = micro;
    config = config();
    targets = bench_e3_meet_rexec, bench_e4_folders, bench_routing, bench_tacoscript, bench_taco_vet
}
criterion_main!(micro);
