//! The three functions of the duration law every hit probability is built
//! from: the cdf `F`, `H(y) = ∫₀^y F` and `HH(y) = ∫₀^y H`.
//!
//! With `HH` available the model's outer integral over the viewer position
//! `V_c` has an exact antiderivative in every region (DESIGN.md §3):
//! `∫H = HH`, `∫F = H` and `∫uF(u)du = uH − HH`.
//!
//! **Deficit form.** Every jump and pause term is a combination of cdf
//! *differences*, so it vanishes identically for `F ≡ 1`, i.e. for
//! `(F, H, HH) = (1, y, y²/2)`. Being linear in `(F, H, HH)`, such a term
//! has the same value on the deficits
//!
//! ```text
//! F − 1 = −S,    H − y = −A,    HH − y²/2 = −AA
//! ```
//!
//! (`S` the survival function, `A = ∫S`, `AA = ∫A`), and that is what
//! [`Kernel`] returns: the polynomial parts, which would cancel to rounding
//! error of order `eps·y²`, are never formed, and what is differenced is of
//! order `mean·y` at most. The two terms that are *not* cdf differences —
//! the within-partition mass and FF's `P(end)` — equal their value at
//! `F ≡ 1` (1 and 0) plus the same formula on the deficits.

use vod_dist::DurationDist;

/// Deficits `F − 1`, `H − y`, `HH − y²/2` of the displacement `scale·X` for
/// a duration `X ~ dist`. At and below 0, where `F = H = HH = 0`, they are
/// `−1`, `0`, `0` (no term evaluates a point below 0 beyond rounding).
/// Each point costs one call into the duration law
/// ([`Kernel::at`]), which hands back all three.
pub(crate) struct Kernel<'a> {
    dist: &'a dyn DurationDist,
    scale: f64,
}

impl<'a> Kernel<'a> {
    /// Kernel of the swept distance itself (FF, RW: `x` is in movie
    /// minutes already).
    pub(crate) fn new(dist: &'a dyn DurationDist) -> Self {
        Self::scaled(dist, 1.0)
    }

    /// Kernel of `scale·X` (PAU: a pause of `x` time units displaces the
    /// viewer `R_PB·x` movie minutes).
    pub(crate) fn scaled(dist: &'a dyn DurationDist, scale: f64) -> Self {
        Self { dist, scale }
    }

    /// The cdf itself, `P[scale·X ≤ x]` (0 for `x ≤ 0`); used by the 2-D
    /// oracles, which integrate cdf differences numerically.
    pub(crate) fn cdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            0.0
        } else {
            self.dist.cdf(x / self.scale)
        }
    }

    /// The deficits `(F(x) − 1, H(x) − x, HH(x) − x²/2)` at one point, from
    /// one [`DurationDist::cdf_and_survival_integrals`] call: every term
    /// the model writes asks for two or three of them at the same `x`.
    /// `H(y) = ∫₀^y F(u) du`, `HH(y) = ∫₀^y H(u) du`.
    pub(crate) fn at(&self, x: f64) -> (f64, f64, f64) {
        if x <= 0.0 {
            return (-1.0, 0.0, 0.0);
        }
        let (f, a, aa) = self.dist.cdf_and_survival_integrals(x / self.scale);
        (f - 1.0, -self.scale * a, -self.scale * self.scale * aa)
    }

    /// Within-partition hit mass shared by FF (`rate = α`, Eqs. 4–8) and RW
    /// (`rate = γ`): the viewer stays inside his own window iff the sweep is
    /// at most `rate·r`, `r ~ U[0, b]` his distance to the window edge he
    /// drifts towards, and at most `u`, `u ~ U[0, l]` his distance to the
    /// movie boundary in the sweep direction:
    ///
    /// ```text
    /// (1/(bl)) ∫₀^l ∫₀^b F(min(rate·r, u)) dr du.
    /// ```
    ///
    /// For `u ≥ rate·b` the inner integral is `H(rate·b)/rate` (Eq. 7); for
    /// `u < rate·b` it is `H(u)/rate + (b − u/rate)·F(u)` (Eq. 8), whose
    /// antiderivative in `u` is `2HH(u)/rate + (b − u/rate)·H(u)`. At
    /// `F ≡ 1` the double integral is 1.
    ///
    /// One point serves both terms: where `rate·b > l` the first term's
    /// weight `(l − rate·b)₊` is 0 and `H(u)` stands in for `H(rate·b)`,
    /// which changes at most the sign of a zero that `1 +` absorbs.
    pub(crate) fn within(&self, l: f64, b: f64, rate: f64) -> f64 {
        let u = l.min(rate * b);
        let (_, h, hh) = self.at(u);
        let full = (l - rate * b).max(0.0) * h / rate;
        let partial = 2.0 * hh / rate + (b - u / rate) * h;
        1.0 + (full + partial) / (b * l)
    }
}
