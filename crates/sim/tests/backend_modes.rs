//! The continuous engine under the non-batching delivery backends:
//! pyramid boundary joins / prefix resumes, and the pure-unicast
//! baseline's all-miss accounting.

#![allow(clippy::unwrap_used, clippy::float_cmp)]

use std::sync::Arc;

use vod_dist::kinds::Exponential;
use vod_model::{Rates, SystemParams};
use vod_runtime::{BackendKind, PartitionWindows, PyramidGeometry};
use vod_sim::{run_catalog_seeded, CatalogConfig, MovieLoad, SimConfig};
use vod_workload::BehaviorModel;

fn base_config(backend: BackendKind) -> CatalogConfig {
    let params = SystemParams::new(120.0, 60.0, 20, Rates::paper()).unwrap();
    let behavior = BehaviorModel::paper_fig7d_over(Arc::new(Exponential::with_mean(5.0).unwrap()));
    let mut cfg: CatalogConfig = SimConfig::new(params, behavior).into();
    cfg.backend = backend;
    cfg
}

#[test]
fn pyramid_backend_bounds_startup_wait_by_one_unit() {
    let cfg = base_config(BackendKind::PyramidBroadcast);
    let report = run_catalog_seeded(&cfg, 11);
    // Same promise the batching config makes: T − b = 6 − 3 = 3 minutes
    // worst case, so the pyramid's segment-1 period is ≤ 3.
    let w = PartitionWindows::from_params(&cfg.movies[0].params);
    let geometry =
        PyramidGeometry::from_continuous(w.movie_len(), w.restart_interval() - w.window_len());
    let movie = &report.per_movie[0];
    assert!(movie.wait.count() > 100, "enough arrivals measured");
    assert!(
        movie.wait.mean() <= f64::from(geometry.unit()),
        "mean startup wait {} exceeds one segment-1 period {}",
        movie.wait.mean(),
        geometry.unit()
    );
    assert!(
        movie.runtime.resumes.trials() > 50,
        "workload exercised VCR"
    );
    // RW and Pause resume inside the received prefix; only FF beyond the
    // front can miss — the overall hit ratio reflects that.
    assert!(report.runtime.hit_ratio() > 0.5);
}

#[test]
fn dedicated_backend_misses_every_resume_except_ff_end() {
    let mut cfg = base_config(BackendKind::DedicatedStream);
    cfg.count_ff_end_as_hit = true;
    let report = run_catalog_seeded(&cfg, 11);
    let rt = &report.runtime;
    assert!(rt.resumes.trials() > 50);
    assert_eq!(
        rt.resumes.hits(),
        rt.ff_end,
        "unicast hits come only from the FF-to-end release convention"
    );
    assert_eq!(
        rt.buffer_minutes, 0.0,
        "no server buffer exists to serve from"
    );
    assert!(rt.disk_minutes > 0.0, "all delivery is private-stream disk");
}

#[test]
fn dedicated_backend_queues_on_a_capped_reserve() {
    let params = SystemParams::new(120.0, 60.0, 20, Rates::paper()).unwrap();
    let behavior = BehaviorModel::paper_fig7d_over(Arc::new(Exponential::with_mean(5.0).unwrap()));
    let cfg = CatalogConfig {
        movies: vec![MovieLoad {
            params,
            mean_interarrival: 2.0,
            behavior,
        }],
        horizon: 2400.0,
        warmup: 240.0,
        count_ff_end_as_hit: true,
        collect_trace: false,
        // Offered load ≈ l/λ = 60 concurrent viewers against 40 streams:
        // queueing is guaranteed.
        dedicated_capacity: Some(40),
        faults: vod_runtime::FaultPlan::empty(),
        backend: BackendKind::DedicatedStream,
    };
    let report = run_catalog_seeded(&cfg, 7);
    let movie = &report.per_movie[0];
    assert!(
        movie.wait.mean() > 0.0,
        "a saturated unicast pool must produce startup waits"
    );
    assert!(
        movie.type2_fraction.value() < 1.0,
        "some arrivals were queued"
    );
}

#[test]
fn backend_runs_are_deterministic() {
    for backend in BackendKind::ALL {
        let cfg = base_config(backend);
        let a = run_catalog_seeded(&cfg, 42);
        let b = run_catalog_seeded(&cfg, 42);
        assert_eq!(a, b, "{backend} replay diverged");
    }
}
