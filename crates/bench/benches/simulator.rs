//! Criterion benchmarks of the discrete-event simulator and the data-path
//! server: events per second and ticks per second under load.

#![allow(clippy::unwrap_used, clippy::float_cmp)]
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;
use std::sync::Arc;

use rand::RngCore;
use vod_dist::kinds::Gamma;
use vod_dist::rng::seeded;
use vod_model::{Rates, SystemParams};
use vod_server::{DeliveryBackend, HostedMovie, MovieId, ServerConfig, VodServer};
use vod_sim::{run_seeded, SimConfig};
use vod_workload::{BehaviorModel, VcrKind};

fn bench_sim(c: &mut Criterion) {
    let mut g = c.benchmark_group("sim_run");
    g.sample_size(10);
    for movies in [5u64, 20] {
        let params = SystemParams::new(120.0, 60.0, 20, Rates::paper()).expect("valid");
        let behavior =
            BehaviorModel::uniform_dist((0.2, 0.2, 0.6), 30.0, Arc::new(Gamma::paper_fig7()));
        let mut cfg = SimConfig::new(params, behavior);
        cfg.horizon = movies as f64 * 120.0;
        cfg.warmup = 120.0;
        g.throughput(Throughput::Elements(movies));
        g.bench_with_input(
            BenchmarkId::new("horizon_movies", movies),
            &cfg,
            |b, cfg| {
                let mut seed = 0u64;
                b.iter(|| {
                    seed += 1;
                    black_box(run_seeded(cfg, seed).runtime.resumes.trials())
                })
            },
        );
    }
    g.finish();
}

fn bench_server(c: &mut Criterion) {
    let mut g = c.benchmark_group("server_tick");
    g.sample_size(10);
    let minutes = 600u64;
    g.throughput(Throughput::Elements(minutes));
    g.bench_function("random_load_600min", |b| {
        b.iter(|| {
            let movie = HostedMovie::from_allocation(MovieId(0), 120, 10, 60.0);
            let mut server = VodServer::new(ServerConfig::provisioned(vec![movie], 8));
            let mut rng = seeded(3);
            let mut sessions = Vec::new();
            for _ in 0..minutes {
                if rng.next_u64().is_multiple_of(2) {
                    if let Ok(s) = server.open_session(MovieId(0)) {
                        sessions.push(s);
                    }
                }
                if !sessions.is_empty() && rng.next_u64().is_multiple_of(8) {
                    let s = sessions[(rng.next_u64() as usize) % sessions.len()];
                    let kind = match rng.next_u64() % 3 {
                        0 => VcrKind::FastForward,
                        1 => VcrKind::Rewind,
                        _ => VcrKind::Pause,
                    };
                    let _ = server.request_vcr(s, kind, 1 + (rng.next_u64() % 15) as u32);
                }
                server.tick();
            }
            black_box(server.metrics().runtime.buffer_minutes)
        })
    });
    g.finish();
}

criterion_group!(benches, bench_sim, bench_server);
criterion_main!(benches);
