//! Scalar root finding: Brent's method.
//!
//! Used for distribution quantiles (inverting a cdf) and for the sizing
//! solver (finding the `n` at which `P(hit)` crosses a target `P*`).

/// Outcome of a bracketing root search.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RootError {
    /// `f(a)` and `f(b)` have the same sign, so `[a, b]` does not bracket a
    /// root.
    NotBracketed {
        /// Function value at the left endpoint.
        fa: f64,
        /// Function value at the right endpoint.
        fb: f64,
    },
    /// The function returned a non-finite value during the search.
    NonFinite {
        /// The abscissa where the non-finite value was produced.
        at: f64,
    },
}

impl std::fmt::Display for RootError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RootError::NotBracketed { fa, fb } => {
                write!(f, "interval does not bracket a root (f(a)={fa}, f(b)={fb})")
            }
            RootError::NonFinite { at } => write!(f, "function non-finite at x={at}"),
        }
    }
}

impl std::error::Error for RootError {}

/// Brent's method on `[a, b]`; requires a sign change. Combines bisection
/// with secant and inverse quadratic interpolation — superlinear on smooth
/// functions, never worse than bisection.
pub fn brent<F: FnMut(f64) -> f64>(mut f: F, a: f64, b: f64, tol: f64) -> Result<f64, RootError> {
    let (mut a, mut b) = (a, b);
    let mut fa = f(a);
    let mut fb = f(b);
    if !fa.is_finite() {
        return Err(RootError::NonFinite { at: a });
    }
    if !fb.is_finite() {
        return Err(RootError::NonFinite { at: b });
    }
    if crate::approx::exact_zero(fa) {
        return Ok(a);
    }
    if crate::approx::exact_zero(fb) {
        return Ok(b);
    }
    if crate::approx::exact_eq(fa.signum(), fb.signum()) {
        return Err(RootError::NotBracketed { fa, fb });
    }
    if fa.abs() < fb.abs() {
        std::mem::swap(&mut a, &mut b);
        std::mem::swap(&mut fa, &mut fb);
    }
    let mut c = a;
    let mut fc = fa;
    let mut d = b - a;
    let mut mflag = true;
    for _ in 0..200 {
        if crate::approx::exact_zero(fb) || (b - a).abs() <= tol {
            return Ok(b);
        }
        let s = if !crate::approx::exact_eq(fa, fc) && !crate::approx::exact_eq(fb, fc) {
            // Inverse quadratic interpolation.
            a * fb * fc / ((fa - fb) * (fa - fc))
                + b * fa * fc / ((fb - fa) * (fb - fc))
                + c * fa * fb / ((fc - fa) * (fc - fb))
        } else {
            // Secant.
            b - fb * (b - a) / (fb - fa)
        };
        let cond_range = {
            let lo = (3.0 * a + b) / 4.0;
            let hi = b;
            let (lo, hi) = (lo.min(hi), lo.max(hi));
            !(lo..=hi).contains(&s)
        };
        let cond_slow = if mflag {
            (s - b).abs() >= (b - c).abs() / 2.0
        } else {
            (s - b).abs() >= (c - d).abs() / 2.0
        };
        let cond_tiny = if mflag {
            (b - c).abs() < tol
        } else {
            (c - d).abs() < tol
        };
        let s = if cond_range || cond_slow || cond_tiny {
            mflag = true;
            0.5 * (a + b)
        } else {
            mflag = false;
            s
        };
        let fs = f(s);
        if !fs.is_finite() {
            return Err(RootError::NonFinite { at: s });
        }
        d = c;
        c = b;
        fc = fb;
        if !crate::approx::exact_eq(fa.signum(), fs.signum()) {
            b = s;
            fb = fs;
        } else {
            a = s;
            fa = fs;
        }
        if fa.abs() < fb.abs() {
            std::mem::swap(&mut a, &mut b);
            std::mem::swap(&mut fa, &mut fb);
        }
    }
    Ok(b)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn brent_finds_sqrt2_fast() {
        let mut evals = 0;
        let r = brent(
            |x| {
                evals += 1;
                x * x - 2.0
            },
            0.0,
            2.0,
            1e-14,
        )
        .unwrap();
        assert!((r - std::f64::consts::SQRT_2).abs() < 1e-12);
        assert!(evals < 40, "brent took {evals} evaluations");
    }

    #[test]
    fn unbracketed_is_error() {
        assert!(matches!(
            brent(|x| x * x + 1.0, -1.0, 1.0, 1e-9),
            Err(RootError::NotBracketed { .. })
        ));
    }

    #[test]
    fn endpoint_roots_returned_exactly() {
        assert_eq!(brent(|x| x, 0.0, 1.0, 1e-9).unwrap(), 0.0);
        assert_eq!(brent(|x| x - 1.0, 0.0, 1.0, 1e-9).unwrap(), 1.0);
    }

    #[test]
    fn brent_transcendental() {
        // Root of cos(x) = x, the Dottie number.
        let r = brent(|x| x.cos() - x, 0.0, 1.0, 1e-14).unwrap();
        assert!((r - 0.739_085_133_215_160_6).abs() < 1e-12);
    }

    #[test]
    fn brent_flat_then_steep() {
        // cdf-like shape: flat near 0, steep later.
        let f = |x: f64| (1.0 - (-5.0 * x).exp()) - 0.5;
        let r = brent(f, 0.0, 10.0, 1e-13).unwrap();
        assert!((r - (2.0f64.ln() / 5.0)).abs() < 1e-10);
    }
}
