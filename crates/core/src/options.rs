//! Evaluation options for the analytic model.

/// How far the jump-hit summation over partitions ahead/behind extends.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BoundaryMode {
    /// The paper's printed cutoff (Eq. 19): sum `hit_j^i` only for `i` with
    /// `l − α(B + il)/n ≥ 0`, i.e. while a *complete* jump hit is possible
    /// from some position. Partial-only partitions beyond the cutoff are
    /// dropped, exactly as in the paper.
    PaperEq19,
    /// Extended summation: keep adding partitions while *any* (complete or
    /// partial) jump hit has positive probability, clamping every
    /// integration range to `[0, l]`. This is the natural completion of the
    /// derivation and what a simulator measures; the `fig_ablation_eq19`
    /// bench quantifies the (small) difference.
    #[default]
    Extended,
}

/// Options for model evaluation. The model is closed-form (DESIGN.md §3),
/// so there is no numerical knob — only the summation policy.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ModelOptions {
    /// Jump-summation range policy.
    pub boundary: BoundaryMode,
}

impl ModelOptions {
    /// Options reproducing the paper's equations literally.
    pub fn paper() -> Self {
        Self {
            boundary: BoundaryMode::PaperEq19,
        }
    }
}
