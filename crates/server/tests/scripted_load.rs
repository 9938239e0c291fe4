//! Drive the data-path server with a statistically principled load —
//! the one seeded [`Driver`] (Poisson arrivals, the paper's viewer) over
//! a Zipf-popular catalog — and check the global invariants hold under
//! sustained realistic traffic.

#![allow(clippy::unwrap_used, clippy::float_cmp)]
use vod_dist::rng::SeededRng;
use vod_server::{
    ArrivalShape, DeliveryBackend, Driver, HostedMovie, MovieId, ServerConfig, VodServer, Workload,
};
use vod_workload::{BehaviorModel, Zipf};

/// Arrivals pick a movie by popularity rank instead of round-robin.
struct Popularity(Zipf);

impl ArrivalShape<MovieId> for Popularity {
    fn pick_movie(&self, w: &Workload<MovieId>, _: u64, _: u64, rng: &mut SeededRng) -> MovieId {
        w.movies[self.0.sample(rng)]
    }
}

#[test]
fn scripted_load_preserves_invariants() {
    let lengths = [120u32, 90, 60];
    let movies: Vec<HostedMovie> = lengths
        .iter()
        .enumerate()
        .map(|(i, &l)| HostedMovie::from_allocation(MovieId(i as u32), l, l / 10, l as f64 / 2.0))
        .collect();
    let workload = Workload {
        behavior: BehaviorModel::paper_fig7d(),
        mean_interarrival: 1.0,
        warmup: 0,
        measure: 1000,
        movies: movies.iter().map(|m| m.movie).collect(),
    };
    let mut server = VodServer::new(ServerConfig::provisioned(movies, 25));

    // `check_invariants` (stream and buffer capacity among its clauses)
    // and counter monotonicity, after every tick.
    let backend: &mut dyn DeliveryBackend = &mut server;
    let tally = Driver::new(&workload, &Popularity(Zipf::new(3, 0.8)), 41).run(backend);
    assert_eq!(tally.violations, Vec::<String>::new());
    assert_eq!(tally.refused, 0, "every movie is hosted");

    let m = server.metrics();
    assert_eq!(m.verify_failures, 0, "data path must be byte-exact");
    assert_eq!(
        m.runtime.restart_failures, 0,
        "headroom guard must protect restarts"
    );
    assert!(m.sessions_done > 300, "done: {}", m.sessions_done);
    assert!(
        m.runtime.resumes.trials() > 100,
        "resumes: {}",
        m.runtime.resumes.trials()
    );
    assert!(
        m.buffer_service_fraction() > 0.6,
        "batched service should dominate: {}",
        m.buffer_service_fraction()
    );
}
