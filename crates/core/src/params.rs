//! System parameters: the tuple `(l, B, n, w, R_FF, R_PB, R_RW)` of the
//! paper's `P(hit) = ξ(l, B, n, w, R_FF, R_PB, R_RW)` (§3.1.4), plus the
//! catch-up geometry of Eq. (1).

use crate::ModelError;

/// Display rates for normal playback and the two moving VCR operations.
///
/// Only the ratios matter; the convention throughout the workspace is
/// `playback = 1.0` so that one "time unit" is one movie minute. Rates are
/// multiples of the playback rate (the paper's §4 experiments use
/// `R_FF = R_RW = 3 R_PB`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rates {
    playback: f64,
    fast_forward: f64,
    rewind: f64,
}

impl Rates {
    /// Construct rates. Requires `playback > 0`, `fast_forward > playback`
    /// (otherwise a FF can never catch up with a stream) and `rewind > 0`.
    pub fn new(playback: f64, fast_forward: f64, rewind: f64) -> Result<Self, ModelError> {
        let check = |name, v: f64, req: &'static str, ok: bool| {
            if ok {
                Ok(v)
            } else {
                Err(ModelError::InvalidParameter {
                    name,
                    value: v,
                    requirement: req,
                })
            }
        };
        check(
            "playback",
            playback,
            "finite and > 0",
            playback.is_finite() && playback > 0.0,
        )?;
        check(
            "fast_forward",
            fast_forward,
            "finite and > playback",
            fast_forward.is_finite() && fast_forward > playback,
        )?;
        check(
            "rewind",
            rewind,
            "finite and > 0",
            rewind.is_finite() && rewind > 0.0,
        )?;
        Ok(Self {
            playback,
            fast_forward,
            rewind,
        })
    }

    /// FF and RW at `mult` times the playback rate — the paper's symmetric
    /// setting (`mult = 3` in §4).
    pub fn symmetric(mult: f64) -> Result<Self, ModelError> {
        Self::new(1.0, mult, mult)
    }

    /// The paper's §4 configuration: FF and RW at 3x playback.
    pub fn paper() -> Self {
        // vod-lint: allow(no-panic) — 3.0 is a fixed in-domain constant.
        Self::symmetric(3.0).expect("constants are valid")
    }

    /// Normal playback rate `R_PB`.
    pub fn playback(&self) -> f64 {
        self.playback
    }

    /// Fast-forward rate `R_FF`.
    pub fn fast_forward(&self) -> f64 {
        self.fast_forward
    }

    /// Rewind rate `R_RW`.
    pub fn rewind(&self) -> f64 {
        self.rewind
    }

    /// Eq. (1): `α = R_FF / (R_FF − R_PB)`.
    ///
    /// A viewer must fast-forward through `α·Δ` movie minutes to catch a
    /// normally-playing target `Δ` minutes ahead. Always `> 1`.
    pub fn alpha(&self) -> f64 {
        self.fast_forward / (self.fast_forward - self.playback)
    }

    /// Eq. (1): `γ = R_RW / (R_PB + R_RW)`.
    ///
    /// A viewer must rewind through `γ·Δ` movie minutes to meet a
    /// normally-playing target `Δ` minutes behind. Always `< 1`.
    pub fn gamma(&self) -> f64 {
        self.rewind / (self.playback + self.rewind)
    }
}

/// Buffers below this many movie minutes are the pure-batching case; see
/// [`SystemParams::is_pure_batching`].
const PURE_BATCHING_BUFFER: f64 = 1e-3;

/// Static-partitioning configuration for one movie (§3.1).
///
/// * `movie_len` — `l`, movie length in minutes.
/// * `buffer` — `B`, total effective buffer in movie minutes dedicated to
///   this movie's normal playback (the paper's `B = B' − nδ`, i.e. net of
///   the per-partition safety reserve `δ`).
/// * `n_streams` — `n`, the number of I/O streams == partitions; the movie
///   restarts every `l/n` minutes.
///
/// The derived maximum batching wait is `w = (l − B)/n` (Eq. 2).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SystemParams {
    movie_len: f64,
    buffer: f64,
    n_streams: u32,
    rates: Rates,
}

impl SystemParams {
    /// Construct from `(l, B, n)`. Requires `l > 0`, `0 ≤ B ≤ l`, `n ≥ 1`.
    pub fn new(
        movie_len: f64,
        buffer: f64,
        n_streams: u32,
        rates: Rates,
    ) -> Result<Self, ModelError> {
        if !(movie_len.is_finite() && movie_len > 0.0) {
            return Err(ModelError::InvalidParameter {
                name: "movie_len",
                value: movie_len,
                requirement: "finite and > 0",
            });
        }
        if !(buffer.is_finite() && buffer >= 0.0) {
            return Err(ModelError::InvalidParameter {
                name: "buffer",
                value: buffer,
                requirement: "finite and >= 0",
            });
        }
        if buffer > movie_len {
            return Err(ModelError::BufferExceedsMovie { buffer, movie_len });
        }
        if n_streams == 0 {
            return Err(ModelError::InvalidParameter {
                name: "n_streams",
                value: 0.0,
                requirement: ">= 1",
            });
        }
        Ok(Self {
            movie_len,
            buffer,
            n_streams,
            rates,
        })
    }

    /// Construct from `(l, w, n)` using Eq. (2): `B = l − n·w`.
    ///
    /// Fails when `n·w > l` (the requested wait cannot be met with `n`
    /// streams even with zero buffer).
    pub fn from_wait(
        movie_len: f64,
        max_wait: f64,
        n_streams: u32,
        rates: Rates,
    ) -> Result<Self, ModelError> {
        if !(max_wait.is_finite() && max_wait >= 0.0) {
            return Err(ModelError::InvalidParameter {
                name: "max_wait",
                value: max_wait,
                requirement: "finite and >= 0",
            });
        }
        let buffer = movie_len - n_streams as f64 * max_wait;
        if buffer < -1e-9 {
            return Err(ModelError::InvalidParameter {
                name: "max_wait",
                value: max_wait,
                requirement: "<= l/n (buffer would be negative)",
            });
        }
        Self::new(movie_len, buffer.max(0.0), n_streams, rates)
    }

    /// Movie length `l` in minutes.
    pub fn movie_len(&self) -> f64 {
        self.movie_len
    }

    /// Total effective buffer `B` in movie minutes.
    pub fn buffer(&self) -> f64 {
        self.buffer
    }

    /// Number of I/O streams / partitions `n`.
    pub fn n_streams(&self) -> u32 {
        self.n_streams
    }

    /// The display-rate configuration.
    pub fn rates(&self) -> &Rates {
        &self.rates
    }

    /// `n` as a float, for use in the continuous formulas.
    pub fn n(&self) -> f64 {
        self.n_streams as f64
    }

    /// Per-partition window length `B/n` in movie minutes.
    pub fn partition_len(&self) -> f64 {
        self.buffer / self.n()
    }

    /// Restart period `l/n`: a new I/O stream starts this often.
    pub fn restart_interval(&self) -> f64 {
        self.movie_len / self.n()
    }

    /// Maximum batching wait `w = (l − B)/n` (Eq. 2) — equivalently the
    /// inter-partition gap.
    pub fn max_wait(&self) -> f64 {
        (self.movie_len - self.buffer) / self.n()
    }

    /// True when the buffer cannot hold a partition, so the model evaluates
    /// the exact pure-batching limit `B = 0` (paper §3.1: "the hit
    /// probability will always equal zero").
    ///
    /// The cut is `B < 10⁻³` movie minutes — 60 ms, under two video frames.
    /// It has to sit above zero because `B = l − n·w` (Eq. 2) leaves a
    /// float residue of order `10⁻¹⁵` at `n = l/w`, and every hit term
    /// divides by `b·l`: rounding noise over such a `b` is not a
    /// probability (DESIGN.md §3 has the conditioning bound).
    pub fn is_pure_batching(&self) -> bool {
        self.buffer < PURE_BATCHING_BUFFER
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_rates_alpha_gamma() {
        let r = Rates::paper();
        // α = 3/(3−1) = 1.5, γ = 3/(1+3) = 0.75.
        assert!((r.alpha() - 1.5).abs() < 1e-15);
        assert!((r.gamma() - 0.75).abs() < 1e-15);
    }

    #[test]
    fn rates_validation() {
        assert!(Rates::new(1.0, 1.0, 3.0).is_err()); // FF must exceed PB
        assert!(Rates::new(0.0, 3.0, 3.0).is_err());
        assert!(Rates::new(1.0, 3.0, 0.0).is_err());
        assert!(Rates::new(1.0, 2.0, 5.0).is_ok()); // asymmetric is fine
    }

    #[test]
    fn wait_buffer_duality() {
        // l = 120, n = 30, w = 1 → B = 90; round-trips through Eq. (2).
        let p = SystemParams::from_wait(120.0, 1.0, 30, Rates::paper()).unwrap();
        assert!((p.buffer() - 90.0).abs() < 1e-12);
        assert!((p.max_wait() - 1.0).abs() < 1e-12);
        assert!((p.partition_len() - 3.0).abs() < 1e-12);
        assert!((p.restart_interval() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn pure_batching_from_wait() {
        // n = l/w exactly → B = 0 (paper: "corresponds to the pure batching
        // case").
        let p = SystemParams::from_wait(120.0, 2.0, 60, Rates::paper()).unwrap();
        assert!(p.is_pure_batching());
        assert_eq!(p.buffer(), 0.0);
    }

    #[test]
    fn sub_resolution_buffer_is_pure_batching() {
        // l − n·w at n = l/w leaves rounding residue, not a buffer.
        let residue = 62.7 - 110.0 * 0.57;
        assert!(residue > 0.0 && residue < 1e-9, "residue {residue}");
        let r = Rates::paper();
        assert!(SystemParams::new(62.7, residue, 110, r)
            .unwrap()
            .is_pure_batching());
        assert!(SystemParams::new(62.7, 9.9e-4, 110, r)
            .unwrap()
            .is_pure_batching());
        assert!(!SystemParams::new(62.7, 1e-3, 110, r)
            .unwrap()
            .is_pure_batching());
    }

    #[test]
    fn invalid_configs_rejected() {
        let r = Rates::paper();
        assert!(SystemParams::new(0.0, 0.0, 1, r).is_err());
        assert!(SystemParams::new(120.0, 121.0, 4, r).is_err());
        assert!(SystemParams::new(120.0, -1.0, 4, r).is_err());
        assert!(SystemParams::new(120.0, 30.0, 0, r).is_err());
        assert!(SystemParams::from_wait(120.0, 3.0, 60, r).is_err()); // n·w > l
    }
}
