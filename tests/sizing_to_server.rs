//! Cross-crate integration: model → sizing → server. A plan produced by
//! the §5 optimizer must, once hosted on the byte-exact server, deliver
//! (a) a correct data path, (b) zero restart failures, and (c) a VCR
//! resume hit ratio in the neighborhood the model promised.

#![allow(clippy::unwrap_used, clippy::float_cmp)]
use rand::RngCore;
use vod_prealloc::dist::rng::seeded;
use vod_prealloc::model::{ModelOptions, VcrMix};
use vod_prealloc::server::{config_from_plan, DeliveryBackend, MovieId, VodServer};
use vod_prealloc::sizing::{
    allocate_min_buffer, example1_movies, size_vcr_reserve, Budgets, VcrLoad,
};
use vod_prealloc::workload::VcrKind;

#[test]
fn planned_catalog_serves_cleanly() {
    // Use a modest stream budget so partitions stay large and the test
    // stays fast; P* = 0.5 must still hold per movie.
    let movies = example1_movies(VcrMix::paper_fig7d());
    let opts = ModelOptions::default();
    let plan = allocate_min_buffer(
        &movies,
        Budgets {
            streams: 60,
            buffer: None,
        },
        &opts,
    )
    .expect("satisfiable");
    for a in &plan.allocations {
        assert!(a.p_hit >= 0.5 - 1e-9, "{} misses its target", a.movie);
    }

    let lengths: Vec<u32> = movies.iter().map(|m| m.length as u32).collect();
    // Half an operation a minute, 3 minutes of sweep, a miss holding 30
    // more, at the plan's worst hit probability: 2 % Erlang-B denial.
    let load = VcrLoad {
        ops_per_minute: 0.5,
        mean_phase1: 3.0,
        mean_miss_hold: 30.0,
        p_hit: plan.allocations.iter().map(|a| a.p_hit).fold(1.0, f64::min),
    };
    let reserve = size_vcr_reserve(&load, 0.02).expect("valid target");
    assert!(reserve >= 1);
    let config = config_from_plan(&plan, &lengths, reserve);
    let mut server = VodServer::new(config);

    let mut rng = seeded(123);
    let mut sessions = Vec::new();
    for minute in 0..1500u64 {
        if minute % 3 == 0 {
            let movie = MovieId((rng.next_u64() % 3) as u32);
            sessions.push(server.open_session(movie).expect("hosted movie"));
        }
        if !sessions.is_empty() && rng.next_u64().is_multiple_of(4) {
            // Target recent sessions — older ones have likely finished.
            let recent = &sessions[sessions.len().saturating_sub(20)..];
            let s = recent[(rng.next_u64() as usize) % recent.len()];
            let kind = match rng.next_u64() % 5 {
                0 => VcrKind::FastForward,
                1 => VcrKind::Rewind,
                _ => VcrKind::Pause,
            };
            let _ = server.request_vcr(s, kind, 1 + (rng.next_u64() % 12) as u32);
        }
        server.tick();
    }

    let m = server.metrics();
    assert_eq!(m.verify_failures, 0, "data path must be byte-exact");
    assert_eq!(
        m.runtime.restart_failures, 0,
        "provisioning must cover the schedule"
    );
    assert!(
        m.sessions_done > 100,
        "load actually ran: {}",
        m.sessions_done
    );
    assert!(
        m.runtime.resumes.trials() > 50,
        "VCR ops actually resumed: {}",
        m.runtime.resumes.trials()
    );
    // The server quantizes to integer minutes and its piggyback merges
    // change the position distribution, so require only the neighborhood:
    // clearly better than pure batching (0) and consistent with P* ≈ 0.5.
    let hit = m.runtime.resumes.value();
    assert!(
        hit > 0.35,
        "resume hit ratio {hit} too far below the planned P* = 0.5"
    );
}

#[test]
fn under_provisioned_catalog_reports_denials_not_corruption() {
    let movies = example1_movies(VcrMix::paper_fig7d());
    let opts = ModelOptions::default();
    let plan = allocate_min_buffer(
        &movies,
        Budgets {
            streams: 30,
            buffer: None,
        },
        &opts,
    )
    .expect("satisfiable");
    let lengths: Vec<u32> = movies.iter().map(|m| m.length as u32).collect();
    // Deliberately zero VCR reserve: interactivity should degrade
    // (denials), never corrupt.
    let mut config = config_from_plan(&plan, &lengths, 0);
    config.disk_streams = config
        .movies
        .iter()
        .map(|m| {
            // Just enough for the playback schedule, nothing spare.
            (m.geometry.length + m.geometry.partition_capacity) / m.geometry.restart_interval + 1
        })
        .sum();
    let mut server = VodServer::new(config);

    let mut rng = seeded(7);
    let mut sessions = Vec::new();
    let mut denials = 0u64;
    for minute in 0..800u64 {
        if minute % 4 == 0 {
            sessions.push(
                server
                    .open_session(MovieId((rng.next_u64() % 3) as u32))
                    .expect("hosted"),
            );
        }
        if !sessions.is_empty() && rng.next_u64().is_multiple_of(6) {
            let s = sessions[(rng.next_u64() as usize) % sessions.len()];
            if server.request_vcr(s, VcrKind::FastForward, 5).is_err() {
                denials += 1;
            }
        }
        server.tick();
    }
    assert!(denials > 0, "saturated reserve must deny some VCR requests");
    assert_eq!(server.metrics().verify_failures, 0);
}
