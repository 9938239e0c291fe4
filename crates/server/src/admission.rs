//! Bridging the sizing model to server provisioning.
//!
//! `vod-sizing` answers *how many streams and buffer minutes each popular
//! movie should get*; this module turns such a [`ResourcePlan`] into a
//! runnable [`ServerConfig`], adding the VCR reserve the caller sized
//! (`vod_sizing::size_vcr_reserve`).
//!
//! The produced config is the common currency of every
//! [`DeliveryBackend`](crate::DeliveryBackend): admission *policy*
//! (batch enrollment, boundary joins, FIFO stream grants) lives behind
//! the trait, but the provisioning envelope — hosted movies with their
//! `(T, b)` geometry, the stream pool, the buffer budget — is fixed
//! here, so `make_backend` comparisons hold the catalog and worst-case
//! startup promise constant while the delivery scheme varies.

use vod_sizing::ResourcePlan;

use crate::content::MovieId;
use crate::server::{HostedMovie, ServerConfig};

/// Build a provisioned [`ServerConfig`] from a sizing plan.
///
/// `lengths[i]` is the movie length in minutes for `plan.allocations[i]`;
/// movies are assigned ids `0, 1, …` in plan order.
///
/// # Panics
/// Panics when `lengths` and the plan disagree in length — the two come
/// from the same catalog and diverging them is a programming error.
pub fn config_from_plan(plan: &ResourcePlan, lengths: &[u32], vcr_reserve: u32) -> ServerConfig {
    assert_eq!(
        plan.allocations.len(),
        lengths.len(),
        "one length per planned movie"
    );
    let movies = plan
        .allocations
        .iter()
        .zip(lengths)
        .enumerate()
        .map(|(i, (alloc, &len))| {
            HostedMovie::from_allocation(MovieId(i as u32), len, alloc.n_streams, alloc.buffer)
        })
        .collect();
    ServerConfig::provisioned(movies, vcr_reserve)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vod_sizing::MovieAllocation;

    fn plan() -> ResourcePlan {
        ResourcePlan {
            allocations: vec![
                MovieAllocation {
                    movie: "a".into(),
                    n_streams: 10,
                    buffer: 30.0,
                    p_hit: 0.6,
                },
                MovieAllocation {
                    movie: "b".into(),
                    n_streams: 5,
                    buffer: 20.0,
                    p_hit: 0.8,
                },
            ],
        }
    }

    #[test]
    fn config_mirrors_plan() {
        let p = plan();
        let cfg = config_from_plan(&p, &[120, 60], 8);
        assert_eq!(cfg.movies.len(), 2);
        assert_eq!(cfg.movies[0].geometry.restart_interval, 12); // 120/10
        assert_eq!(cfg.movies[0].geometry.partition_capacity, 3); // 30/10
        assert_eq!(cfg.movies[1].geometry.restart_interval, 12); // 60/5
        assert_eq!(cfg.movies[1].geometry.partition_capacity, 4); // 20/5
        let live = cfg.movies.iter().map(|m| m.geometry.max_live_streams());
        assert_eq!(cfg.disk_streams, live.sum::<u32>() + 8); // every live stream + the reserve
    }

    #[test]
    #[should_panic(expected = "one length per planned movie")]
    fn mismatched_lengths_panic() {
        config_from_plan(&plan(), &[120], 1);
    }
}
