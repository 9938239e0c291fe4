//! End-to-end data-path tests: byte-exact delivery under batching,
//! buffering, VCR operations, and piggybacking, with resource invariants
//! enforced throughout.

#![allow(clippy::unwrap_used, clippy::float_cmp)]
use rand::RngCore;
use vod_dist::rng::seeded;
use vod_server::{
    DeliveryBackend, DeliveryStats, HostedMovie, MovieId, ServerConfig, ServerError, SessionId,
    SessionStatus, VodServer,
};
use vod_workload::VcrKind;

fn one_movie_server() -> VodServer {
    // l = 120, n = 10 → T = 12; B = 60 → b = 6, w = 6.
    let movie = HostedMovie::from_allocation(MovieId(0), 120, 10, 60.0);
    assert_eq!(movie.geometry.restart_interval, 12);
    assert_eq!(movie.geometry.partition_capacity, 6);
    VodServer::new(ServerConfig::provisioned(vec![movie], 6))
}

/// Run `minutes` ticks and return the final record the server published
/// for `id` on the tick it finished — the one place a finished session's
/// statistics are to be had (`None`: still playing).
fn run_to_finish(server: &mut VodServer, minutes: u64, id: SessionId) -> Option<DeliveryStats> {
    let mut record = None;
    for _ in 0..minutes {
        server.tick();
        let published = server.finished_this_tick();
        record = record.or(published.iter().find(|(s, _)| *s == id).map(|&(_, r)| r));
    }
    record
}

#[test]
fn plain_viewing_is_byte_exact_and_buffer_served() {
    let mut server = one_movie_server();
    let s = server.open_session(MovieId(0)).unwrap();
    let stats = run_to_finish(&mut server, 140, s).unwrap();
    assert_eq!(server.session_status(s).unwrap(), SessionStatus::Done);
    assert_eq!(stats.total(), 120, "every minute delivered exactly once");
    assert_eq!(stats.verify_failures, 0);
    // A type-2 viewer rides the partition the whole way.
    assert_eq!(stats.from_buffer, 120);
    assert_eq!(stats.from_disk, 0);
}

#[test]
fn type1_viewer_waits_at_most_w() {
    let mut server = one_movie_server();
    // Advance to a point where the enrollment window (ages 0..=5) has
    // closed: age 7 at t = 7.
    server.run(7);
    let s = server.open_session(MovieId(0)).unwrap();
    match server.session_status(s).unwrap() {
        SessionStatus::Waiting(at) => {
            assert_eq!(at, 12, "queued for the next restart");
            assert!(at - server.now() <= 6, "wait bounded by w = T − b");
        }
        other => panic!("expected Waiting, got {other:?}"),
    }
    let stats = run_to_finish(&mut server, 130, s).unwrap();
    assert_eq!(stats.total(), 120);
    assert_eq!(stats.verify_failures, 0);
}

#[test]
fn ff_resume_hit_rejoins_partition() {
    let mut server = one_movie_server();
    let s = server.open_session(MovieId(0)).unwrap();
    server.run(30);
    // Sweep forward a full restart interval: lands one partition ahead
    // at the same relative offset — with b = 6 and a 12-minute phase the
    // hit outcome depends on geometry; just assert the invariants.
    server.request_vcr(s, VcrKind::FastForward, 12).unwrap();
    server.run(10);
    let status = server.session_status(s).unwrap();
    assert!(
        matches!(status, SessionStatus::Shared | SessionStatus::Dedicated),
        "resumed: {status:?}"
    );
    let stats = run_to_finish(&mut server, 150, s).unwrap();
    assert_eq!(server.session_status(s).unwrap(), SessionStatus::Done);
    assert_eq!(stats.verify_failures, 0);
    // 30 minutes watched + 12 swept (read at FF) + the rest: total reads
    // cover every position from 0..120 plus piggyback double-reads; at
    // minimum the sweep and the remainder were all delivered.
    assert!(stats.total() >= 120);
}

#[test]
fn pause_short_enough_hits_next_partition() {
    let mut server = one_movie_server();
    let s = server.open_session(MovieId(0)).unwrap();
    server.run(30);
    // Pause exactly one restart interval: the following stream's window
    // arrives at our position — a guaranteed hit (position 30, the next
    // stream is 12 minutes behind, after 12 paused minutes its front is
    // exactly at our position).
    server.request_vcr(s, VcrKind::Pause, 12).unwrap();
    server.run(13);
    assert_eq!(server.session_status(s).unwrap(), SessionStatus::Shared);
    let m = server.metrics();
    assert_eq!(m.runtime.resumes.hits(), 1);
    assert_eq!(m.runtime.resumes.trials(), 1);
    let stats = run_to_finish(&mut server, 140, s).unwrap();
    assert_eq!(stats.verify_failures, 0);
    assert_eq!(stats.total(), 120);
}

#[test]
fn long_pause_misses_and_piggyback_merges_back() {
    let mut server = one_movie_server();
    let s = server.open_session(MovieId(0)).unwrap();
    server.run(30);
    // Pause 15 minutes: (s + 15) mod 12 = 3 ∈ (0, 6]? offset logic aside,
    // choose a duration landing in the inter-partition gap: with b = 6,
    // w = 6, pausing 9 minutes from a front-of-window position lands mid-gap.
    server.request_vcr(s, VcrKind::Pause, 9).unwrap();
    server.run(10);
    let status = server.session_status(s).unwrap();
    assert_eq!(status, SessionStatus::Dedicated, "mid-gap resume must miss");
    assert_eq!(server.metrics().runtime.resumes.hits(), 0);
    // Piggyback at one catch-up segment per 20 ticks must eventually
    // merge the session back into a partition (gap ≤ 6 minutes to close).
    let stats = run_to_finish(&mut server, 150, s).unwrap();
    assert_eq!(server.metrics().piggyback_merges, 1);
    assert_eq!(server.session_status(s).unwrap(), SessionStatus::Done);
    assert_eq!(stats.verify_failures, 0);
}

#[test]
fn rewind_served_in_reverse_and_resumes() {
    let mut server = one_movie_server();
    let s = server.open_session(MovieId(0)).unwrap();
    server.run(40);
    let before = server.session_stats(s).unwrap();
    server.request_vcr(s, VcrKind::Rewind, 9).unwrap();
    server.run(3); // 9 segments at rate 3
    let after = server.session_stats(s).unwrap();
    assert_eq!(
        after.from_disk - before.from_disk,
        9,
        "rewind reads 9 segments"
    );
    assert!(server.session_position(s).unwrap() <= 31);
    let stats = run_to_finish(&mut server, 200, s).unwrap();
    assert_eq!(stats.verify_failures, 0);
    assert_eq!(server.session_status(s).unwrap(), SessionStatus::Done);
}

/// Regression: a rewind whose magnitude exceeds the playback position
/// must clamp the sweep at the start of the movie (counted once in
/// `rw_truncated`), resume cleanly from position 0, and never wrap the
/// residual-sweep arithmetic into a multi-billion-segment sweep.
#[test]
fn rewind_past_start_clamps_to_zero_and_resumes() {
    let mut server = one_movie_server();
    let s = server.open_session(MovieId(0)).unwrap();
    server.run(20);
    assert_eq!(server.session_position(s).unwrap(), 20);
    let before = server.session_stats(s).unwrap();
    server.request_vcr(s, VcrKind::Rewind, 50).unwrap();
    assert_eq!(server.metrics().runtime.rw_truncated, 1);
    // 20 segments at rate 3: the sweep bottoms out on its 7th tick.
    server.run(7);
    assert_eq!(server.session_position(s).unwrap(), 0, "clamped at start");
    let after = server.session_stats(s).unwrap();
    assert_eq!(
        after.from_disk - before.from_disk,
        20,
        "sweep reads exactly the segments above position 0"
    );
    let status = server.session_status(s).unwrap();
    assert!(
        matches!(status, SessionStatus::Shared | SessionStatus::Dedicated),
        "resumed after bottoming out: {status:?}"
    );
    assert_eq!(server.metrics().runtime.resumes.trials(), 1);
    // Replays the whole movie from the top without further incident.
    let stats = run_to_finish(&mut server, 140, s).unwrap();
    assert_eq!(server.session_status(s).unwrap(), SessionStatus::Done);
    assert_eq!(stats.verify_failures, 0);
    assert!(stats.total() >= before.total() + 20 + 120);
}

#[test]
fn vcr_denied_when_reserve_exhausted() {
    // Provision zero VCR reserve: every playback stream is accounted for,
    // so the first FF cannot get a lease... except retired streams leave
    // slack; use a tiny reserve and saturate it.
    let movie = HostedMovie::from_allocation(MovieId(0), 120, 10, 60.0);
    let mut server = VodServer::new(ServerConfig {
        disk_streams: 11, // exactly the live playback streams at steady state
        ..ServerConfig::provisioned(vec![movie], 0)
    });
    // Reach steady state first: all 10 playback streams live.
    server.run(150);
    let mut sessions = Vec::new();
    for _ in 0..4 {
        sessions.push(server.open_session(MovieId(0)).unwrap());
    }
    server.run(20);
    let mut denied = 0;
    for &s in &sessions {
        match server.request_vcr(s, VcrKind::FastForward, 6) {
            Ok(()) => {}
            Err(ServerError::VcrDenied) => denied += 1,
            Err(e) => panic!("unexpected error {e}"),
        }
    }
    assert!(denied > 0, "with no reserve, some VCR must be denied");
    assert_eq!(server.metrics().runtime.vcr_denied as usize, denied);
}

#[test]
fn no_restart_failures_when_provisioned() {
    let mut server = one_movie_server();
    for _ in 0..8 {
        server.open_session(MovieId(0)).unwrap();
        server.run(17);
    }
    server.run(500);
    assert_eq!(server.metrics().runtime.restart_failures, 0);
    assert_eq!(server.metrics().verify_failures, 0);
}

#[test]
fn disk_capacity_never_exceeded_under_random_load() {
    let movie_a = HostedMovie::from_allocation(MovieId(0), 120, 10, 60.0);
    let movie_b = HostedMovie::from_allocation(MovieId(1), 60, 6, 24.0);
    let mut server = VodServer::new(ServerConfig::provisioned(vec![movie_a, movie_b], 10));
    let mut rng = seeded(99);
    let mut sessions = Vec::new();
    for step in 0..600u64 {
        if rng.next_u64().is_multiple_of(3) {
            let movie = MovieId((rng.next_u64() % 2) as u32);
            sessions.push(server.open_session(movie).unwrap());
        }
        if !sessions.is_empty() && rng.next_u64().is_multiple_of(5) {
            let s = sessions[(rng.next_u64() as usize) % sessions.len()];
            let kind = match rng.next_u64() % 3 {
                0 => VcrKind::FastForward,
                1 => VcrKind::Rewind,
                _ => VcrKind::Pause,
            };
            let mag = 1 + (rng.next_u64() % 20) as u32;
            let _ = server.request_vcr(s, kind, mag); // denial is fine
        }
        server.tick();
        assert!(
            server.disk().in_use() <= server.disk().capacity(),
            "capacity violated at step {step}"
        );
        assert!(server.buffer_pool().used() <= server.buffer_pool().budget());
    }
    assert_eq!(server.metrics().verify_failures, 0);
    // The server actually did work.
    assert!(server.metrics().runtime.buffer_minutes > 1000.0);
}

#[test]
fn multi_movie_isolation() {
    // Sessions of different movies must receive their own movie's bytes
    // (verify_segment checks movie identity, not just index).
    let movie_a = HostedMovie::from_allocation(MovieId(0), 60, 6, 30.0);
    let movie_b = HostedMovie::from_allocation(MovieId(1), 60, 6, 30.0);
    let mut server = VodServer::new(ServerConfig::provisioned(vec![movie_a, movie_b], 4));
    let sa = server.open_session(MovieId(0)).unwrap();
    let sb = server.open_session(MovieId(1)).unwrap();
    let mut published = Vec::new();
    for _ in 0..70 {
        server.tick();
        published.extend_from_slice(server.finished_this_tick());
    }
    assert_eq!(published.len(), 2);
    for s in [sa, sb] {
        let st = published.iter().find(|(id, _)| *id == s).unwrap().1;
        assert_eq!(st.total(), 60);
        assert_eq!(st.verify_failures, 0);
    }
}

#[test]
fn unknown_ids_rejected() {
    let mut server = one_movie_server();
    assert!(matches!(
        server.open_session(MovieId(42)),
        Err(ServerError::UnknownMovie(_))
    ));
    assert!(matches!(
        server.request_vcr(SessionId(9), VcrKind::Pause, 1),
        Err(ServerError::UnknownSession(_))
    ));
}

#[test]
fn vcr_on_waiting_session_rejected() {
    let mut server = one_movie_server();
    server.run(8); // window closed
    let s = server.open_session(MovieId(0)).unwrap();
    assert!(matches!(
        server.request_vcr(s, VcrKind::FastForward, 5),
        Err(ServerError::InvalidState { .. })
    ));
}

#[test]
fn close_session_releases_resources() {
    let mut server = one_movie_server();
    let s = server.open_session(MovieId(0)).unwrap();
    server.run(20);
    // Put the session on a dedicated stream via a mid-gap pause miss.
    server.request_vcr(s, VcrKind::Pause, 9).unwrap();
    server.run(12);
    assert_eq!(server.session_status(s).unwrap(), SessionStatus::Dedicated);
    let in_use_before = server.disk().in_use();
    let stats = server.close_session(s).unwrap();
    assert!(stats.total() >= 20);
    assert_eq!(server.session_status(s).unwrap(), SessionStatus::Done);
    assert_eq!(server.disk().in_use(), in_use_before - 1, "lease released");
    assert_eq!(server.metrics().sessions_closed_early, 1);
    // The close retired the session and published the record it returned;
    // closing again changes nothing and says why.
    assert_eq!(server.finished_this_tick(), [(s, stats)]);
    assert!(matches!(
        server.close_session(s),
        Err(ServerError::SessionFinished(_))
    ));
    assert!(matches!(
        server.session_stats(s),
        Err(ServerError::SessionFinished(_))
    ));
    assert_eq!(server.metrics().sessions_closed_early, 1);
    // The server keeps running cleanly afterwards.
    server.run(200);
    assert_eq!(server.metrics().verify_failures, 0);
    assert_eq!(server.metrics().runtime.restart_failures, 0);
}

#[test]
fn close_enrolled_session_frees_partition_eventually() {
    let mut server = one_movie_server();
    let s = server.open_session(MovieId(0)).unwrap();
    server.run(5);
    assert_eq!(server.session_status(s).unwrap(), SessionStatus::Shared);
    server.close_session(s).unwrap();
    // The stream it was enrolled in must retire on schedule (no stuck
    // enrolled-count), so long runs keep the pool bounded.
    server.run(400);
    assert_eq!(server.metrics().runtime.restart_failures, 0);
    assert!(server.buffer_pool().used() <= server.buffer_pool().budget());
    assert!(matches!(
        server.close_session(SessionId(99)),
        Err(ServerError::UnknownSession(_))
    ));
}
