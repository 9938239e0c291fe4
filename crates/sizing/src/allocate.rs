//! Multi-movie resource allocation — the paper's §5 Step 3 optimization:
//!
//! ```text
//! minimize   Σ B_i
//! subject to Σ n_i ≤ n_s,  Σ B_i ≤ B_s,  P_i(B_i, n_i) ≥ P_i*
//! ```
//!
//! Along each movie's wait-bound line `B_i = l_i − n_i w_i` (Eq. 2), the
//! objective is *linear* in the integer stream counts `n_i`, the
//! feasibility constraint is a per-movie box `n_min,i ≤ n_i ≤ n_max,i`
//! (the feasible set is an interval in `n`, and `n_min,i` is 1 unless
//! `P(hit)` at one stream misses the target, see [`crate::feasible`]), and
//! the only coupling is the shared stream budget. The exact optimum is
//! therefore a greedy water-fill: hand streams to movies in decreasing
//! order of the buffer each one saves, `w_i`. The minimum of
//! `Σ (φ B_i + n_i)` is the lowest point of [`crate::cost_curve_with_catalog`], which
//! prices this split at every stream total. Brute-force tests verify both
//! optima on small instances.

use vod_model::{HitMemo, ModelOptions, SweepExecutor};

use crate::{feasible::feasible_streams_memo, MovieSpec, ResourceCost, SizingError};

/// Final allocation for one movie.
#[derive(Debug, Clone, PartialEq)]
pub struct MovieAllocation {
    /// Movie name (from [`MovieSpec::name`]).
    pub movie: String,
    /// Streams assigned (`n_i*`).
    pub n_streams: u32,
    /// Buffer minutes implied by Eq. 2 (`B_i*`).
    pub buffer: f64,
    /// Modelled hit probability at the chosen point.
    pub p_hit: f64,
}

/// A complete allocation across the catalog.
#[derive(Debug, Clone, PartialEq)]
pub struct ResourcePlan {
    /// Per-movie assignments, in input order.
    pub allocations: Vec<MovieAllocation>,
}

impl ResourcePlan {
    /// Total streams `Σ n_i`.
    pub fn total_streams(&self) -> u32 {
        self.allocations.iter().map(|a| a.n_streams).sum()
    }

    /// Total buffer minutes `Σ B_i`.
    pub fn total_buffer(&self) -> f64 {
        self.allocations.iter().map(|a| a.buffer).sum()
    }

    /// System cost under a resource price pair (Eq. 23).
    pub fn cost(&self, prices: &ResourceCost) -> f64 {
        prices.total(self.total_buffer(), self.total_streams())
    }
}

/// Budgets for an allocation problem.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Budgets {
    /// Stream budget `n_s` (I/O bandwidth available for normal playback).
    pub streams: u32,
    /// Optional buffer budget `B_s` in movie minutes.
    pub buffer: Option<f64>,
}

/// Per-movie candidate ranges computed once per problem, with the memo of
/// every `hit_probability(n)` the feasibility bisection evaluated — later
/// plan builds draw from it instead of recomputing.
struct Candidate<'a> {
    movie: &'a MovieSpec,
    n_min: u32,
    n_max: u32,
    memo: HitMemo,
}

fn candidates_with<'a>(
    movies: &'a [MovieSpec],
    opts: &ModelOptions,
    exec: &SweepExecutor,
) -> Result<Vec<Candidate<'a>>, SizingError> {
    // Per-movie bisections are independent; fan them across the executor.
    // Each candidate owns its memo (one (movie, opts) context each).
    exec.try_map(movies, |movie| {
        let memo = HitMemo::new();
        let (n_min, n_max) = feasible_streams_memo(movie, opts, &memo)
            .map_err(SizingError::Model)?
            .ok_or_else(|| SizingError::UnsatisfiableMovie {
                movie: movie.name.clone(),
            })?;
        Ok(Candidate {
            movie,
            n_min,
            n_max,
            memo,
        })
    })
}

/// Precomputed feasibility frontier for a catalog: the expensive
/// per-movie `n_max` bisections are done once, after which allocation
/// queries (e.g. every point of a Figure-9 cost curve) are pure
/// arithmetic.
pub struct Catalog<'a> {
    cands: Vec<Candidate<'a>>,
}

impl<'a> Catalog<'a> {
    /// Compute the feasibility frontier of `movies`.
    pub fn new(movies: &'a [MovieSpec], opts: &ModelOptions) -> Result<Self, SizingError> {
        Self::new_with(movies, opts, &SweepExecutor::serial())
    }

    /// [`Catalog::new`] with the per-movie feasibility bisections fanned
    /// across `exec`. The frontier is bitwise identical to the serial one.
    pub fn new_with(
        movies: &'a [MovieSpec],
        opts: &ModelOptions,
        exec: &SweepExecutor,
    ) -> Result<Self, SizingError> {
        if movies.is_empty() {
            return Err(SizingError::NoMovies);
        }
        Ok(Self {
            cands: candidates_with(movies, opts, exec)?,
        })
    }

    /// Total `hit_probability(n)` model evaluations performed for this
    /// catalog so far (memo misses summed over movies). Exposed so tests
    /// and benchmarks can demonstrate the memoization.
    pub fn model_evaluations(&self) -> usize {
        self.cands.iter().map(|c| c.memo.stats().1).sum()
    }

    /// Number of movies.
    pub fn len(&self) -> usize {
        self.cands.len()
    }

    /// Always false (construction requires at least one movie).
    pub fn is_empty(&self) -> bool {
        self.cands.is_empty()
    }

    /// Maximum feasible stream count per movie (`P(hit) ≥ P*` boundary).
    pub fn n_max(&self, movie_idx: usize) -> u32 {
        self.cands[movie_idx].n_max
    }

    /// `Σ n_max,i` — the largest total stream count with any effect.
    pub fn max_total_streams(&self) -> u32 {
        self.cands.iter().map(|c| c.n_max).sum()
    }

    /// Stream split minimizing total buffer at exactly `n_total` streams;
    /// `None` when `n_total` is outside `[Σ n_min, Σ n_max]`. No model
    /// evaluations are performed.
    pub fn min_buffer_split(&self, n_total: u32) -> Option<Vec<u32>> {
        if n_total < min_total_streams(&self.cands) || n_total > self.max_total_streams() {
            return None;
        }
        Some(water_fill(&self.cands, n_total))
    }

    /// Total buffer implied by a per-movie stream split (Eq. 2).
    pub fn total_buffer_of(&self, ns: &[u32]) -> f64 {
        self.cands
            .iter()
            .zip(ns)
            .map(|(c, &n)| c.movie.buffer_for_streams(n))
            .sum()
    }

    /// Full [`ResourcePlan`] at exactly `n_total` streams (minimum-buffer
    /// split), or `None` outside the feasible range. Repeated calls reuse
    /// this catalog's memo, so each `(movie, n)` hit probability is
    /// computed at most once across the catalog's lifetime.
    pub fn plan_at_stream_total(
        &self,
        n_total: u32,
        opts: &ModelOptions,
    ) -> Result<Option<ResourcePlan>, SizingError> {
        match self.min_buffer_split(n_total) {
            None => Ok(None),
            Some(ns) => Ok(Some(build_plan(&self.cands, &ns, opts)?)),
        }
    }

    /// The minimum-buffer plan that spends the whole stream budget, or the
    /// budget it breaks: fewer streams than `Σ n_min`, or more buffer than
    /// `budgets.buffer`.
    fn min_buffer_plan(
        &self,
        budgets: Budgets,
        opts: &ModelOptions,
    ) -> Result<ResourcePlan, SizingError> {
        let needed = min_total_streams(&self.cands);
        if budgets.streams < needed {
            return Err(SizingError::StreamBudgetTooSmall {
                needed,
                available: budgets.streams,
            });
        }
        // Minimizing Σ B = Σ l_i − Σ n_i w_i ⇒ maximize Σ n_i w_i: benefit
        // per stream is w_i (always positive, so fill the budget).
        let ns = water_fill(&self.cands, budgets.streams);
        let plan = build_plan(&self.cands, &ns, opts)?;
        if let Some(bs) = budgets.buffer {
            let total = plan.total_buffer();
            if total > bs + 1e-9 {
                return Err(SizingError::BufferBudgetTooSmall {
                    needed: total,
                    available: bs,
                });
            }
        }
        Ok(plan)
    }
}

/// `Σ n_min,i` — the smallest total stream count that meets every movie's
/// target; the movie count unless one stream misses a target.
fn min_total_streams(cands: &[Candidate<'_>]) -> u32 {
    cands.iter().map(|c| c.n_min).sum()
}

/// Greedy water-fill: start every movie at `n_i = n_min,i` and hand out
/// the remaining stream budget in decreasing order of `w_i` (the buffer
/// minutes one more stream saves), never exceeding `n_max,i`.
fn water_fill(cands: &[Candidate<'_>], stream_budget: u32) -> Vec<u32> {
    let mut ns: Vec<u32> = cands.iter().map(|c| c.n_min).collect();
    let mut remaining = stream_budget.saturating_sub(min_total_streams(cands));
    let mut order: Vec<usize> = (0..cands.len()).collect();
    order.sort_by(|&a, &b| cands[b].movie.max_wait.total_cmp(&cands[a].movie.max_wait));
    for &idx in &order {
        if remaining == 0 {
            break;
        }
        let room = cands[idx].n_max - ns[idx];
        let take = room.min(remaining);
        ns[idx] += take;
        remaining -= take;
    }
    ns
}

fn build_plan(
    cands: &[Candidate<'_>],
    ns: &[u32],
    opts: &ModelOptions,
) -> Result<ResourcePlan, SizingError> {
    let allocations = cands
        .iter()
        .zip(ns)
        .map(|(c, &n)| {
            let p_hit = c
                .memo
                .get_or_try_insert(n, || c.movie.hit_probability(n, opts))
                .map_err(SizingError::Model)?;
            Ok(MovieAllocation {
                movie: c.movie.name.clone(),
                n_streams: n,
                buffer: c.movie.buffer_for_streams(n),
                p_hit,
            })
        })
        .collect::<Result<Vec<_>, SizingError>>()?;
    Ok(ResourcePlan { allocations })
}

/// §5 Step 3 with the paper's stated objective: minimize total buffer
/// `Σ B_i*` subject to the stream budget (and optional buffer budget).
pub fn allocate_min_buffer(
    movies: &[MovieSpec],
    budgets: Budgets,
    opts: &ModelOptions,
) -> Result<ResourcePlan, SizingError> {
    allocate_min_buffer_with(movies, budgets, opts, &SweepExecutor::serial())
}

/// [`allocate_min_buffer`] with the per-movie feasibility work fanned
/// across `exec`; the plan is bitwise identical to the serial one.
pub fn allocate_min_buffer_with(
    movies: &[MovieSpec],
    budgets: Budgets,
    opts: &ModelOptions,
    exec: &SweepExecutor,
) -> Result<ResourcePlan, SizingError> {
    Catalog::new_with(movies, opts, exec)?.min_buffer_plan(budgets, opts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::movie::example1_movies;
    use std::sync::Arc;
    use vod_dist::kinds::Exponential;
    use vod_model::{Rates, VcrMix};

    fn opts() -> ModelOptions {
        ModelOptions::default()
    }

    fn toy_movies() -> Vec<MovieSpec> {
        // Short movies with coarse waits keep n_max small so brute force
        // stays cheap.
        let mk = |name: &str, l: f64, w: f64, mean: f64| {
            MovieSpec::new(
                name,
                l,
                w,
                0.5,
                VcrMix::paper_fig7d(),
                Arc::new(Exponential::with_mean(mean).unwrap()),
                Rates::paper(),
            )
            .unwrap()
        };
        vec![
            mk("a", 30.0, 1.0, 4.0),
            mk("b", 45.0, 1.5, 6.0),
            mk("c", 24.0, 0.5, 2.0),
        ]
    }

    fn assert_plans_bitwise_equal(a: &ResourcePlan, b: &ResourcePlan) {
        assert_eq!(a.allocations.len(), b.allocations.len());
        for (x, y) in a.allocations.iter().zip(&b.allocations) {
            assert_eq!(x.movie, y.movie);
            assert_eq!(x.n_streams, y.n_streams);
            assert_eq!(x.buffer.to_bits(), y.buffer.to_bits());
            assert_eq!(x.p_hit.to_bits(), y.p_hit.to_bits());
        }
    }

    #[test]
    fn parallel_allocation_matches_serial_bitwise() {
        let movies = toy_movies();
        let o = opts();
        let budgets = Budgets {
            streams: 40,
            buffer: None,
        };
        let serial = allocate_min_buffer(&movies, budgets, &o).unwrap();
        let exec = SweepExecutor::new(4);
        let par = allocate_min_buffer_with(&movies, budgets, &o, &exec).unwrap();
        assert_plans_bitwise_equal(&serial, &par);
        // Determinism: a second parallel run agrees exactly.
        let again = allocate_min_buffer_with(&movies, budgets, &o, &exec).unwrap();
        assert_plans_bitwise_equal(&par, &again);
    }

    #[test]
    fn catalog_memo_absorbs_repeat_plan_queries() {
        let movies = toy_movies();
        let o = opts();
        let catalog = Catalog::new(&movies, &o).unwrap();
        let after_frontier = catalog.model_evaluations();
        assert!(after_frontier > 0);
        let p1 = catalog.plan_at_stream_total(12, &o).unwrap().unwrap();
        let after_first = catalog.model_evaluations();
        let p2 = catalog.plan_at_stream_total(12, &o).unwrap().unwrap();
        assert_plans_bitwise_equal(&p1, &p2);
        assert_eq!(
            catalog.model_evaluations(),
            after_first,
            "repeat plan query must be served entirely from the memo"
        );
    }

    #[test]
    fn greedy_matches_brute_force_min_buffer() {
        let movies = toy_movies();
        let o = opts();
        let catalog = Catalog::new(&movies, &o).unwrap();
        let maxes: Vec<u32> = (0..movies.len()).map(|i| catalog.n_max(i)).collect();
        for budget in [3u32, 10, 25, 60, 200] {
            let Ok(plan) = allocate_min_buffer(
                &movies,
                Budgets {
                    streams: budget,
                    buffer: None,
                },
                &o,
            ) else {
                continue;
            };
            // Brute force over all (n_a, n_b, n_c) within boxes and budget.
            let mut best = f64::INFINITY;
            for na in 1..=maxes[0] {
                for nb in 1..=maxes[1] {
                    for nc in 1..=maxes[2] {
                        if na + nb + nc > budget {
                            continue;
                        }
                        let total = movies[0].buffer_for_streams(na)
                            + movies[1].buffer_for_streams(nb)
                            + movies[2].buffer_for_streams(nc);
                        best = best.min(total);
                    }
                }
            }
            assert!(
                (plan.total_buffer() - best).abs() < 1e-9,
                "budget {budget}: greedy {} vs brute {best}",
                plan.total_buffer()
            );
        }
    }

    #[test]
    fn greedy_matches_brute_force_min_cost() {
        let movies = toy_movies();
        let o = opts();
        let catalog = Catalog::new(&movies, &o).unwrap();
        let maxes: Vec<u32> = (0..movies.len()).map(|i| catalog.n_max(i)).collect();
        for phi in [0.2, 0.9, 2.0, 11.0] {
            let prices = ResourceCost::new(phi, 1.0).unwrap();
            let budget = 60u32;
            let curve = crate::cost_curve_with_catalog(&catalog, prices, 3, budget, 1);
            let cheapest = curve.optimum().unwrap().cost;
            let mut best = f64::INFINITY;
            for na in 1..=maxes[0] {
                for nb in 1..=maxes[1] {
                    for nc in 1..=maxes[2] {
                        if na + nb + nc > budget {
                            continue;
                        }
                        let buf = movies[0].buffer_for_streams(na)
                            + movies[1].buffer_for_streams(nb)
                            + movies[2].buffer_for_streams(nc);
                        best = best.min(prices.total(buf, na + nb + nc));
                    }
                }
            }
            assert!(
                (cheapest - best).abs() < 1e-9,
                "phi {phi}: greedy {cheapest} vs brute {best}"
            );
        }
    }

    #[test]
    fn plans_respect_constraints() {
        let movies = toy_movies();
        let o = opts();
        let plan = allocate_min_buffer(
            &movies,
            Budgets {
                streams: 40,
                buffer: None,
            },
            &o,
        )
        .unwrap();
        assert!(plan.total_streams() <= 40);
        for a in &plan.allocations {
            assert!(a.p_hit >= 0.5 - 1e-9, "{}: p_hit {}", a.movie, a.p_hit);
            assert!(a.n_streams >= 1);
        }
    }

    #[test]
    fn budget_errors() {
        let movies = toy_movies();
        let o = opts();
        assert!(matches!(
            allocate_min_buffer(
                &movies,
                Budgets {
                    streams: 2,
                    buffer: None
                },
                &o
            ),
            Err(SizingError::StreamBudgetTooSmall { .. })
        ));
        assert!(matches!(
            allocate_min_buffer(
                &movies,
                Budgets {
                    streams: 40,
                    buffer: Some(1.0)
                },
                &o
            ),
            Err(SizingError::BufferBudgetTooSmall { .. })
        ));
    }

    #[test]
    fn stream_total_sweep_monotone_in_buffer() {
        // More streams ⇒ no more buffer needed: minΣB is non-increasing.
        let movies = toy_movies();
        let o = opts();
        let catalog = Catalog::new(&movies, &o).unwrap();
        let mut prev = f64::INFINITY;
        for n in (3..=60).step_by(7) {
            if let Some(plan) = catalog.plan_at_stream_total(n, &o).unwrap() {
                let b = plan.total_buffer();
                assert!(b <= prev + 1e-9, "n={n}: {b} > {prev}");
                assert_eq!(plan.total_streams(), n);
                prev = b;
            }
        }
    }

    #[test]
    fn example1_saves_hundreds_of_streams() {
        // The paper's headline: pure batching needs 1230 streams; with
        // buffering the same QoS needs far fewer (the paper reports 602
        // streams + 113.5 buffer minutes; exact numbers depend on the
        // unpublished RW/PAU derivations, the qualitative claim must hold).
        let movies = example1_movies(VcrMix::paper_fig7d());
        let o = opts();
        let plan = allocate_min_buffer(
            &movies,
            Budgets {
                streams: 1230,
                buffer: None,
            },
            &o,
        )
        .unwrap();
        let pure: u32 = movies.iter().map(|m| m.pure_batching_streams()).sum();
        assert_eq!(pure, 1230);
        assert!(
            plan.total_streams() < 900,
            "expected large stream savings, used {}",
            plan.total_streams()
        );
        assert!(
            plan.total_buffer() < 250.0,
            "buffer cost should stay modest: {}",
            plan.total_buffer()
        );
        for a in &plan.allocations {
            assert!(a.p_hit >= 0.5 - 1e-9);
        }
    }
}
