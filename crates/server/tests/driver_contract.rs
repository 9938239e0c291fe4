//! The shared workload `Driver`'s contract on the points where a harness
//! loop and a federation loop can disagree, pinned against a fake `Target`
//! that refuses every k-th admission: an arrival's interaction-gap draw
//! happens whether or not it was admitted, a refused arrival still takes
//! its round-robin turn, and the whole run is bitwise repeatable.

#![allow(clippy::unwrap_used)]

use std::sync::Arc;

use vod_dist::kinds::Gamma;
use vod_server::{Driver, RoundRobin, SessionStatus, Tally, Target, Workload};
use vod_workload::{BehaviorModel, VcrKind};

/// Everything the driver did to the fake, in call order.
#[derive(Debug, Clone, PartialEq)]
enum Call {
    Open {
        tick: u64,
        movie: u32,
        admitted: bool,
    },
    Vcr {
        tick: u64,
        session: usize,
        kind: VcrKind,
        magnitude: u32,
    },
    Reset {
        tick: u64,
    },
}

struct Refuser {
    /// Refuse every k-th arrival (0 = admit everyone).
    k: u64,
    /// Ticks a session plays before it is `Done`; `None` keeps every
    /// session `Waiting`, so no interaction ever draws from the RNG.
    plays_for: Option<u64>,
    now: u64,
    asked: u64,
    opened_at: Vec<u64>,
    calls: Vec<Call>,
}

impl Refuser {
    fn new(k: u64, plays_for: Option<u64>) -> Self {
        Self {
            k,
            plays_for,
            now: 0,
            asked: 0,
            opened_at: Vec::new(),
            calls: Vec::new(),
        }
    }

    /// `(tick, movie)` of every arrival, admitted or not.
    fn arrivals(&self) -> Vec<(u64, u32)> {
        self.calls
            .iter()
            .filter_map(|c| match *c {
                Call::Open { tick, movie, .. } => Some((tick, movie)),
                _ => None,
            })
            .collect()
    }
}

impl Target for Refuser {
    type Movie = u32;
    type Id = usize;
    type Counters = ();

    fn open(&mut self, movie: u32) -> Option<usize> {
        self.asked += 1;
        let admitted = !self.asked.is_multiple_of(self.k);
        self.calls.push(Call::Open {
            tick: self.now,
            movie,
            admitted,
        });
        admitted.then(|| {
            self.opened_at.push(self.now);
            self.opened_at.len() - 1
        })
    }

    fn status(&mut self, id: usize) -> SessionStatus {
        match self.plays_for {
            None => SessionStatus::Waiting(u64::MAX),
            Some(ticks) if self.now >= self.opened_at[id] + ticks => SessionStatus::Done,
            Some(_) => SessionStatus::Shared,
        }
    }

    fn vcr(&mut self, session: usize, kind: VcrKind, magnitude: u32) {
        self.calls.push(Call::Vcr {
            tick: self.now,
            session,
            kind,
            magnitude,
        });
    }

    fn tick(&mut self) {
        self.now += 1;
    }

    fn reset_metrics(&mut self) {
        self.calls.push(Call::Reset { tick: self.now });
    }

    fn audit(&mut self, _last: &mut Option<()>) -> Vec<String> {
        Vec::new()
    }
}

fn workload() -> Workload<u32> {
    Workload {
        behavior: BehaviorModel::uniform_dist((0.2, 0.2, 0.6), 12.0, Arc::new(Gamma::paper_fig7())),
        mean_interarrival: 1.5,
        warmup: 60,
        measure: 300,
        movies: vec![10, 20, 30],
    }
}

fn drive(mut fake: Refuser, seed: u64) -> (Refuser, Tally) {
    let workload = workload();
    let tally = Driver::new(&workload, &RoundRobin, seed).run(&mut fake);
    (fake, tally)
}

/// With no session ever interacting, the RNG stream is the arrivals'
/// alone — so if a refusal skipped the gap draw, or the round-robin ran
/// on admissions, the refusing run's arrivals would leave the all-admit
/// run's.
#[test]
fn refusals_shift_neither_the_arrival_stream_nor_the_round_robin() {
    let (admit_all, tally_all) = drive(Refuser::new(0, None), 17);
    let (refusing, tally) = drive(Refuser::new(4, None), 17);
    let arrivals = refusing.arrivals();
    assert!(arrivals.len() > 150, "workload too thin to pin anything");
    assert_eq!(arrivals, admit_all.arrivals());
    for (n, &(_, movie)) in arrivals.iter().enumerate() {
        assert_eq!(movie, [10, 20, 30][n % 3], "arrival {n} lost its turn");
    }
    assert_eq!(tally.refused, arrivals.len() as u64 / 4);
    assert_eq!(tally.opened + tally.refused, arrivals.len() as u64);
    assert_eq!(
        (tally_all.opened, tally_all.refused),
        (tally.opened + tally.refused, 0)
    );
}

#[test]
fn a_refusing_target_is_driven_bitwise_repeatably() {
    let (a, tally_a) = drive(Refuser::new(3, Some(45)), 2026);
    let (b, tally_b) = drive(Refuser::new(3, Some(45)), 2026);
    assert_eq!(a.calls, b.calls);
    assert_eq!(tally_a, tally_b);
    assert_eq!(a.now, 360, "one tick per step over warm-up + measure");
    assert!(
        a.calls.contains(&Call::Reset { tick: 60 }),
        "reset at the end of warm-up"
    );
    let vcrs = a
        .calls
        .iter()
        .filter(|c| matches!(c, Call::Vcr { .. }))
        .count();
    assert!(
        vcrs > 100,
        "playing sessions must interact ({vcrs} VCR calls)"
    );
    assert_ne!(a.calls, drive(Refuser::new(3, Some(45)), 2027).0.calls);
}
