//! Drive the byte-exact VOD server: size a catalog with the model, host
//! it, subject it to interactive viewers, and report the data-path and
//! resource outcomes.
//!
//! ```sh
//! cargo run --release --example server_demo
//! ```

use rand::RngCore;
use vod_prealloc::dist::rng::seeded;
use vod_prealloc::model::{ModelOptions, VcrMix};
use vod_prealloc::server::{config_from_plan, DeliveryBackend, MovieId, VodServer};
use vod_prealloc::sizing::{
    allocate_min_buffer, example1_movies, size_vcr_reserve, Budgets, VcrLoad,
};
use vod_prealloc::workload::VcrKind;

fn main() {
    // 1. Size the catalog with the analytic model (Example 1's movies).
    let movies = example1_movies(VcrMix::paper_fig7d());
    let plan = allocate_min_buffer(
        &movies,
        Budgets {
            streams: 200,
            buffer: None,
        },
        &ModelOptions::default(),
    )
    .expect("plan exists");
    let lengths: Vec<u32> = movies.iter().map(|m| m.length as u32).collect();
    let load = VcrLoad {
        ops_per_minute: 0.5,
        mean_phase1: 3.0,
        mean_miss_hold: 20.0,
        p_hit: plan.allocations.iter().map(|a| a.p_hit).fold(1.0, f64::min),
    };
    let reserve = size_vcr_reserve(&load, 0.02).expect("valid denial target");
    println!(
        "sized plan: {} streams + {:.1} buffer minutes, VCR reserve {reserve}",
        plan.total_streams(),
        plan.total_buffer()
    );

    // 2. Host it.
    let config = config_from_plan(&plan, &lengths, reserve);
    println!(
        "server provisioned: {} disk streams, {} buffer segments, {} movies\n",
        config.disk_streams,
        config.buffer_budget,
        config.movies.len()
    );
    let mut server = VodServer::new(config);

    // 3. Interactive load: open sessions and fire random VCR operations.
    let mut rng = seeded(2026);
    let mut sessions = Vec::new();
    for minute in 0..1200u64 {
        if minute % 2 == 0 {
            let movie = MovieId((rng.next_u64() % 3) as u32);
            if let Ok(s) = server.open_session(movie) {
                sessions.push(s);
            }
        }
        if !sessions.is_empty() && rng.next_u64().is_multiple_of(10) {
            let s = sessions[(rng.next_u64() as usize) % sessions.len()];
            let kind = match rng.next_u64() % 5 {
                0 => VcrKind::FastForward,
                1 => VcrKind::Rewind,
                _ => VcrKind::Pause,
            };
            let magnitude = 1 + (rng.next_u64() % 16) as u32;
            let _ = server.request_vcr(s, kind, magnitude); // denials are data
        }
        server.tick();
    }

    // 4. Report — the runtime snapshot uses the same metric vocabulary
    // the simulator reports, so the two are directly comparable.
    let rt = server.runtime_metrics();
    let m = server.metrics();
    println!("after {} simulated minutes:", server.now());
    println!("  sessions completed        : {}", m.sessions_done);
    println!("  minutes from buffer       : {}", rt.buffer_minutes);
    println!("  minutes from disk         : {}", rt.disk_minutes);
    println!(
        "  buffer service fraction   : {:.1}%",
        100.0 * rt.buffer_service_fraction()
    );
    println!("  byte verification failures: {}", m.verify_failures);
    println!(
        "  VCR resume hit ratio      : {:.3} ({} of {})",
        rt.resumes.value(),
        rt.resumes.hits(),
        rt.resumes.trials()
    );
    println!("  piggyback merges          : {}", m.piggyback_merges);
    println!("  VCR denials               : {}", rt.vcr_denied);
    println!("  resume starvations        : {}", rt.resume_starved);
    println!("  restart failures          : {}", rt.restart_failures);
    println!(
        "  avg dedicated streams     : {:.2} (peak {:.0})",
        rt.dedicated_avg, rt.dedicated_peak
    );
    assert_eq!(m.verify_failures, 0, "data path must be byte-exact");
    assert_eq!(
        rt.restart_failures, 0,
        "provisioning must cover the schedule"
    );
}
