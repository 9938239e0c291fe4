//! Drive the data-path server with a statistically principled scripted
//! load (same primitives as the analytic model: Poisson arrivals, Zipf
//! popularity, behavior-model VCR interactions) and check the global
//! invariants hold under sustained realistic traffic.

#![allow(clippy::unwrap_used, clippy::float_cmp)]
use std::sync::Arc;

use vod_dist::kinds::Gamma;
use vod_dist::rng::seeded;
use vod_server::{DeliveryBackend, HostedMovie, MovieId, ServerConfig, SessionId, VodServer};
use vod_workload::{generate_script, BehaviorModel, LoadAction, Poisson, Zipf};

#[test]
fn scripted_load_preserves_invariants() {
    let lengths = [120u32, 90, 60];
    let movies: Vec<HostedMovie> = lengths
        .iter()
        .enumerate()
        .map(|(i, &l)| HostedMovie::from_allocation(MovieId(i as u32), l, l / 10, l as f64 / 2.0))
        .collect();
    let mut server = VodServer::new(ServerConfig::provisioned(movies, 25));

    let behavior =
        BehaviorModel::uniform_dist((0.2, 0.2, 0.6), 30.0, Arc::new(Gamma::paper_fig7()));
    let mut rng = seeded(41);
    let mut arrivals = Poisson::with_mean_interarrival(1.0);
    let catalog = Zipf::new(3, 0.8);
    let horizon = 1000.0;
    let script = generate_script(
        horizon,
        &mut arrivals,
        &behavior,
        &catalog,
        |rank| lengths[rank] as f64,
        &mut rng,
    );
    assert!(script.len() > 1500, "script too small: {}", script.len());

    // Replay: integer-minute server, so actions fire at floor(at).
    let mut cursor = 0usize;
    let mut session_ids: Vec<SessionId> = Vec::new();
    for minute in 0..horizon as u64 {
        while cursor < script.len() && script[cursor].at < (minute + 1) as f64 {
            match script[cursor].action {
                LoadAction::OpenSession { movie_rank } => {
                    let id = server
                        .open_session(MovieId(movie_rank as u32))
                        .expect("movie hosted");
                    session_ids.push(id);
                }
                LoadAction::Vcr {
                    session_seq,
                    kind,
                    magnitude,
                } => {
                    if let Some(&id) = session_ids.get(session_seq) {
                        // Sessions may have finished or be mid-VCR; the
                        // server rejects those — that is load, not error.
                        let _ = server.request_vcr(id, kind, magnitude.round().max(1.0) as u32);
                    }
                }
            }
            cursor += 1;
        }
        server.tick();
        assert!(server.disk().in_use() <= server.disk().capacity());
        assert!(server.buffer_pool().used() <= server.buffer_pool().budget());
    }

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
