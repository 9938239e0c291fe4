//! The front's second core: one helper thread that ticks or audits the
//! shards the front lends it while the front does the rest.
//!
//! # Ownership
//!
//! A lent shard is *moved*: the front takes the odd-indexed up shards
//! out of its table, puts the boxes into the helper's job slot (a
//! [`Mutex`]), does the even-indexed ones itself, waits, and puts the
//! boxes back. No shard is reachable from both threads at once and the
//! shards share no mutable state, so no `unsafe` is involved and nothing
//! a shard computes depends on the thread it ran on. The assignment is
//! fixed — a shard is always ticked and audited on the same side — and
//! nothing but [`DeliveryBackend::tick`] and
//! [`DeliveryBackend::check_invariants`] is called on a lent shard.
//!
//! # Determinism
//!
//! A shard's tick reads nothing another shard writes; the federation
//! shares only the tick grid. Everything the front reads back — the
//! finished-session relays, the audit findings — it reads after both
//! halves are done, in shard order, so every output is identical to the
//! serial front's.
//!
//! # Hand-off
//!
//! A parked hand-off costs tens of microseconds, as much as the shard
//! work of a tick. So the helper spins on the job generation with
//! [`std::hint::spin_loop`] for [`SPIN_BUDGET`] rounds after each job
//! and only then parks; the front posts a job, unparks the helper (a
//! no-op unless it is parked), does its own half, then spins until the
//! helper reports the generation done. Both spins yield the core every
//! [`SPINS_PER_YIELD`] rounds: on one core, or a busy machine, the
//! thread waited for may need exactly that core. A panic on the helper
//! is caught there and resumed on the front, after the lent shards are
//! back.

use std::any::Any;
use std::hint;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
// vod-lint: allow(nondet) — a lent shard is moved, not shared, and reads
// nothing another shard writes; results merge in shard order after both
// halves finish. Pinned by the lock-step test against the serial front and
// by the twice-run 42-cell FEDERATION_REPORT.json.
use std::thread;

use vod_server::DeliveryBackend;

/// One shard as the front owns it.
type Shard = Box<dyn DeliveryBackend>;

/// Rounds the helper waits for the next job before it parks: about
/// 1.5 ms at ~19 ns a spin and ~300 ns a yield, well past the front's
/// work between two jobs, so a federation that is being driven never
/// parks its helper (2¹³ rounds read slower in a short `federation`
/// A/B).
const SPIN_BUDGET: u32 = 1 << 16;

/// Every this many rounds a waiting thread yields its core instead of
/// spinning, about once a microsecond. Pinned to one core, a federation
/// that only spun ran 46× slower than the serial front; yielding, it
/// runs as fast.
const SPINS_PER_YIELD: u32 = 64;

/// Wait round `round`: a spin hint, or every [`SPINS_PER_YIELD`]th round
/// a `yield_now`.
fn pause(round: u32) {
    if round.is_multiple_of(SPINS_PER_YIELD) {
        thread::yield_now();
    } else {
        hint::spin_loop();
    }
}

/// What the helper does with the shards lent to it.
#[derive(Clone, Copy)]
pub(crate) enum Job {
    /// [`DeliveryBackend::tick`] each one.
    Tick,
    /// Collect each one's [`DeliveryBackend::check_invariants`] findings,
    /// tagged `shard <s>:`.
    Audit,
}

impl Job {
    /// Do this job on shard `s`.
    fn work(self, s: usize, shard: &mut Shard, findings: &mut Vec<(usize, String)>) {
        match self {
            Job::Tick => shard.tick(),
            Job::Audit => findings.extend(
                shard
                    .check_invariants()
                    .into_iter()
                    .map(|what| (s, format!("shard {s}: {what}"))),
            ),
        }
    }
}

/// The job slot: what the front lends and what the helper hands back.
struct Slot {
    job: Job,
    /// The lent shards with their indices, in shard order.
    shards: Vec<(usize, Shard)>,
    /// An audit's findings on the lent shards, in shard order.
    findings: Vec<(usize, String)>,
    /// The payload of a panic in the job.
    panic: Option<Box<dyn Any + Send>>,
}

/// What the two threads share. The slot's contents travel under its
/// lock; the generations only say when to look, each stored `Release` by
/// its one writer and loaded `Acquire` by the other thread.
struct Shared {
    slot: Mutex<Slot>,
    /// Generation of the last job posted (front-written).
    posted: AtomicU64,
    /// Generation of the last job finished (helper-written).
    done: AtomicU64,
    /// The helper returns at its next look.
    quit: AtomicBool,
}

impl Shared {
    /// The job slot. A panic is caught inside the guard's scope, so the
    /// lock is never poisoned; were it, the slot is still whole.
    fn slot(&self) -> MutexGuard<'_, Slot> {
        self.slot.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// The helper thread and the front's handle on it. Dropping it joins the
/// thread.
pub(crate) struct Helper {
    shared: Arc<Shared>,
    thread: Option<thread::JoinHandle<()>>,
}

impl Helper {
    /// Spawn the helper thread, spinning for its first job.
    pub(crate) fn spawn() -> Self {
        let shared = Arc::new(Shared {
            slot: Mutex::new(Slot {
                job: Job::Tick,
                shards: Vec::new(),
                findings: Vec::new(),
                panic: None,
            }),
            posted: AtomicU64::new(0),
            done: AtomicU64::new(0),
            quit: AtomicBool::new(false),
        });
        let theirs = Arc::clone(&shared);
        let thread = thread::spawn(move || serve(&theirs));
        Self {
            shared,
            thread: Some(thread),
        }
    }

    /// A handle on the shared state that dies with the helper thread and
    /// the front's handle both.
    #[cfg(test)]
    pub(crate) fn watch(&self) -> std::sync::Weak<dyn Any + Send + Sync> {
        let shared: Arc<dyn Any + Send + Sync> = self.shared.clone();
        Arc::downgrade(&shared)
    }

    /// Move the odd-indexed up shards into the job slot and post `job`;
    /// the generation to wait for, or `None` when there was nothing to
    /// lend.
    fn lend(&self, job: Job, shards: &mut [Option<Shard>]) -> Option<u64> {
        let mut slot = self.shared.slot();
        slot.job = job;
        for (s, shard) in shards.iter_mut().enumerate().skip(1).step_by(2) {
            if let Some(shard) = shard.take() {
                slot.shards.push((s, shard));
            }
        }
        let lent = !slot.shards.is_empty();
        drop(slot);
        lent.then(|| self.post())
    }

    /// Publish a new job generation and wake the helper if it parked.
    fn post(&self) -> u64 {
        let generation = self.shared.posted.fetch_add(1, Ordering::Release) + 1;
        if let Some(thread) = &self.thread {
            thread.thread().unpark();
        }
        generation
    }

    /// Spin until the helper finished `generation`.
    fn wait(&self, generation: u64) {
        let mut round: u32 = 0;
        while self.shared.done.load(Ordering::Acquire) != generation {
            round = round.wrapping_add(1);
            pause(round);
        }
    }
}

impl Drop for Helper {
    fn drop(&mut self) {
        self.shared.quit.store(true, Ordering::Release);
        if let Some(thread) = self.thread.take() {
            thread.thread().unpark();
            // The helper catches every panic in a job, so it returns
            // normally; a join error would carry nothing to report.
            let _ = thread.join();
        }
    }
}

/// Do `job` on every up shard and return the audit findings in shard
/// order. With a helper, the odd-indexed shards are lent to it and the
/// others done here; without one, all of them are done here. A panic on
/// either side is resumed here once every lent shard is back in
/// `shards`; the front's own comes first.
pub(crate) fn run(helper: Option<&Helper>, job: Job, shards: &mut [Option<Shard>]) -> Vec<String> {
    let generation = helper.and_then(|helper| helper.lend(job, shards));
    let mut findings = Vec::new();
    // The lent shards are out of the table: this walk skips them.
    let own = panic::catch_unwind(AssertUnwindSafe(|| {
        for (s, shard) in shards.iter_mut().enumerate() {
            if let Some(shard) = shard {
                job.work(s, shard, &mut findings);
            }
        }
    }));
    let mut their_panic = None;
    if let (Some(helper), Some(generation)) = (helper, generation) {
        helper.wait(generation);
        let mut slot = helper.shared.slot();
        for (s, shard) in slot.shards.drain(..) {
            shards[s] = Some(shard);
        }
        findings.append(&mut slot.findings);
        their_panic = slot.panic.take();
    }
    if let Some(payload) = own.err().or(their_panic) {
        panic::resume_unwind(payload);
    }
    // Stable: each shard's findings keep their order.
    findings.sort_by_key(|&(s, _)| s);
    findings.into_iter().map(|(_, what)| what).collect()
}

/// The helper's loop: wait for a job generation (spin, then park), do
/// the job on the lent shards, report the generation done.
fn serve(shared: &Shared) {
    let mut seen = 0;
    loop {
        let mut round = 0;
        let generation = loop {
            if shared.quit.load(Ordering::Acquire) {
                return;
            }
            let generation = shared.posted.load(Ordering::Acquire);
            if generation != seen {
                break generation;
            }
            if round < SPIN_BUDGET {
                round += 1;
                pause(round);
            } else {
                thread::park();
            }
        };
        seen = generation;
        let mut slot = shared.slot();
        let Slot {
            job,
            shards,
            findings,
            panic,
        } = &mut *slot;
        let caught = panic::catch_unwind(AssertUnwindSafe(|| {
            for (s, shard) in shards.iter_mut() {
                job.work(*s, shard, findings);
            }
        }));
        *panic = caught.err();
        drop(slot);
        shared.done.store(generation, Ordering::Release);
    }
}
