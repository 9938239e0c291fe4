//! Argument parsing and driver for the `vodplan` capacity-planning CLI.
//!
//! Kept in the library so the parsing and the plan assembly are unit
//! tested; `src/bin/vodplan.rs` is a thin shell around [`run`].
//!
//! Movie syntax (fields separated by `;` so distribution specs keep their
//! commas):
//!
//! ```text
//! --movie "name;l=120;w=0.5;p=0.6;dist=gamma:shape=2,scale=4"
//! ```

use std::sync::Arc;

use vod_model::{expected_miss_hold_piggyback, ModelOptions, Rates, SweepExecutor, VcrMix};
use vod_sizing::{
    allocate_min_buffer_with, procurement, size_vcr_reserve, Budgets, HardwareSpec, MovieSpec,
    ResourceCost, VcrLoad,
};

/// Parsed command line.
#[derive(Debug)]
pub struct Options {
    /// The catalog.
    pub movies: Vec<MovieSpec>,
    /// Stream budget `n_s`.
    pub streams: u32,
    /// Optional buffer budget `B_s` (movie minutes).
    pub buffer: Option<f64>,
    /// Cost ratio φ for pricing the plan.
    pub phi: f64,
    /// VCR operations per minute across the catalog (reserve sizing).
    pub vcr_ops_per_minute: f64,
    /// Target VCR denial probability.
    pub denial_target: f64,
    /// Worker threads for the per-movie sizing sweeps (1 = serial,
    /// 0 = one per core).
    pub threads: usize,
}

/// Error with a user-facing message.
#[derive(Debug)]
pub struct CliError(pub String);

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}
impl std::error::Error for CliError {}

fn err<T>(msg: impl Into<String>) -> Result<T, CliError> {
    Err(CliError(msg.into()))
}

/// Usage text.
pub const USAGE: &str = "\
vodplan — size buffer and I/O streams for a VOD catalog (ICDE'97 model)

USAGE:
  vodplan --movie SPEC [--movie SPEC …] [OPTIONS]

MOVIE SPEC (fields separated by `;`):
  name;l=MINUTES;w=MAX_WAIT;p=TARGET_HIT;dist=DIST[;mix=FF,RW,PAU]
  e.g.  \"thriller;l=120;w=0.5;p=0.6;dist=gamma:shape=2,scale=4\"

OPTIONS:
  --streams N       stream budget n_s            [default: pure-batching total]
  --buffer MIN      buffer budget B_s in minutes [default: unlimited]
  --phi X           memory/stream cost ratio     [default: 10.71, Example 2]
  --vcr-rate X      VCR ops per minute (reserve) [default: 1.0]
  --denial P        VCR denial target            [default: 0.01]
  --threads N       worker threads for sizing sweeps (0 = all cores)
                                                 [default: 1]
  --help            print this text
";

/// Parse one `--movie` value.
pub fn parse_movie(spec: &str) -> Result<MovieSpec, CliError> {
    let mut name = None;
    let mut l = None;
    let mut w = None;
    let mut p = None;
    let mut dist = None;
    let mut mix = VcrMix::paper_fig7d();
    for (i, field) in spec.split(';').enumerate() {
        let field = field.trim();
        if field.is_empty() {
            continue;
        }
        if i == 0 && !field.contains('=') {
            name = Some(field.to_string());
            continue;
        }
        let (key, value) = field
            .split_once('=')
            .ok_or_else(|| CliError(format!("expected key=value in movie field `{field}`")))?;
        let num = |v: &str| -> Result<f64, CliError> {
            v.trim()
                .parse()
                .map_err(|_| CliError(format!("bad number `{v}` for `{key}`")))
        };
        match key.trim() {
            "l" => l = Some(num(value)?),
            "w" => w = Some(num(value)?),
            "p" => p = Some(num(value)?),
            "dist" => {
                dist = Some(
                    vod_dist::parse_spec(value)
                        .map_err(|e| CliError(format!("movie `{spec}`: {e}")))?,
                )
            }
            "mix" => {
                let parts: Vec<&str> = value.split(',').collect();
                if parts.len() != 3 {
                    return err(format!("mix needs three probabilities, got `{value}`"));
                }
                mix = VcrMix::new(num(parts[0])?, num(parts[1])?, num(parts[2])?)
                    .map_err(|e| CliError(format!("movie `{spec}`: {e}")))?;
            }
            other => return err(format!("unknown movie field `{other}`")),
        }
    }
    let name = name.ok_or_else(|| CliError(format!("movie `{spec}`: missing name")))?;
    let (Some(l), Some(w), Some(p), Some(dist)) = (l, w, p, dist) else {
        return err(format!("movie `{name}`: need l=, w=, p= and dist= fields"));
    };
    MovieSpec::new(name, l, w, p, mix, Arc::from(dist), Rates::paper())
        .map_err(|e| CliError(format!("movie `{spec}`: {e}")))
}

/// Streams the catalog needs under pure batching (`Σ ⌈l/w⌉`): the
/// default budget and the baseline the report compares against. A total
/// no `u32` holds is an error, not a wrapped budget.
fn pure_batching_total(movies: &[MovieSpec]) -> Result<u32, CliError> {
    movies
        .iter()
        .try_fold(0u32, |sum, m| sum.checked_add(m.pure_batching_streams()))
        .ok_or_else(|| CliError("pure-batching stream total exceeds u32::MAX".into()))
}

/// Parse the full argument list (without the program name).
pub fn parse_args(args: &[String]) -> Result<Options, CliError> {
    let mut movies = Vec::new();
    let mut streams = None;
    let mut buffer = None;
    let mut phi = 750.0 / 70.0;
    let mut vcr_rate = 1.0;
    let mut denial = 0.01;
    let mut threads = 1usize;
    let mut i = 0;
    while i < args.len() {
        let take = |i: &mut usize| -> Result<&String, CliError> {
            *i += 1;
            args.get(*i)
                .ok_or_else(|| CliError(format!("`{}` needs a value", args[*i - 1])))
        };
        match args[i].as_str() {
            "--movie" => movies.push(parse_movie(take(&mut i)?)?),
            "--streams" => {
                streams = Some(
                    take(&mut i)?
                        .parse()
                        .map_err(|_| CliError("--streams needs an integer".into()))?,
                )
            }
            "--buffer" => {
                buffer = Some(
                    take(&mut i)?
                        .parse()
                        .ok()
                        .filter(|b: &f64| !b.is_nan())
                        .ok_or_else(|| CliError("--buffer needs a number".into()))?,
                )
            }
            "--phi" => {
                phi = take(&mut i)?
                    .parse()
                    .map_err(|_| CliError("--phi needs a number".into()))?
            }
            "--vcr-rate" => {
                vcr_rate = take(&mut i)?
                    .parse()
                    .ok()
                    .filter(|r: &f64| r.is_finite() && *r >= 0.0)
                    .ok_or_else(|| CliError("--vcr-rate needs a finite number ≥ 0".into()))?
            }
            "--denial" => {
                denial = take(&mut i)?
                    .parse()
                    .map_err(|_| CliError("--denial needs a probability".into()))?
            }
            "--threads" => {
                threads = take(&mut i)?
                    .parse()
                    .map_err(|_| CliError("--threads needs an integer".into()))?
            }
            "--help" | "-h" => return err(USAGE),
            other => return err(format!("unknown argument `{other}`\n\n{USAGE}")),
        }
        i += 1;
    }
    if movies.is_empty() {
        return err(format!("no movies given\n\n{USAGE}"));
    }
    let streams = match streams {
        Some(n) => n,
        None => pure_batching_total(&movies)?,
    };
    Ok(Options {
        movies,
        streams,
        buffer,
        phi,
        vcr_ops_per_minute: vcr_rate,
        denial_target: denial,
        threads,
    })
}

/// Execute the plan and render a report.
pub fn run(opts: &Options) -> Result<String, CliError> {
    use std::fmt::Write;
    let model_opts = ModelOptions::default();
    let exec = SweepExecutor::new(opts.threads);
    let plan = allocate_min_buffer_with(
        &opts.movies,
        Budgets {
            streams: opts.streams,
            buffer: opts.buffer,
        },
        &model_opts,
        &exec,
    )
    .map_err(|e| CliError(format!("allocation failed: {e}")))?;

    let mut out = String::new();
    let pure = pure_batching_total(&opts.movies)?;
    let _ = writeln!(
        out,
        "catalog of {} movies; stream budget {}",
        opts.movies.len(),
        opts.streams
    );
    let _ = writeln!(
        out,
        "pure batching baseline: {pure} streams (hit probability 0)\n"
    );
    let _ = writeln!(
        out,
        "{:<16} {:>8} {:>10} {:>8} {:>8}",
        "movie", "streams", "buffer", "P(hit)", "w"
    );
    for (a, m) in plan.allocations.iter().zip(&opts.movies) {
        let _ = writeln!(
            out,
            "{:<16} {:>8} {:>10.1} {:>8.3} {:>8.2}",
            a.movie, a.n_streams, a.buffer, a.p_hit, m.max_wait
        );
    }
    let _ = writeln!(
        out,
        "\ntotals: {} streams + {:.1} buffer minutes ({} streams saved)",
        plan.total_streams(),
        plan.total_buffer(),
        pure.saturating_sub(plan.total_streams())
    );

    let prices = ResourceCost::from_phi(opts.phi).map_err(|e| CliError(format!("bad phi: {e}")))?;
    let _ = writeln!(
        out,
        "cost at phi = {:.2}: {:.1} stream-equivalents",
        opts.phi,
        plan.cost(&prices)
    );

    // Reserve sizing from the worst planned hit probability, with +5%
    // piggyback merge-back assumed for miss holds.
    let worst = plan
        .allocations
        .iter()
        .zip(&opts.movies)
        .min_by(|(a, _), (b, _)| a.p_hit.total_cmp(&b.p_hit))
        .ok_or_else(|| CliError("plan has no allocations".to_string()))?;
    let params = worst
        .1
        .params_for_streams(worst.0.n_streams)
        .map_err(|e| CliError(format!("internal: {e}")))?;
    let load = VcrLoad {
        ops_per_minute: opts.vcr_ops_per_minute,
        mean_phase1: 3.0,
        mean_miss_hold: expected_miss_hold_piggyback(&params, 0.05),
        p_hit: worst.0.p_hit,
    };
    let reserve = size_vcr_reserve(&load, opts.denial_target)
        .map_err(|e| CliError(format!("reserve sizing: {e}")))?;
    let _ = writeln!(
        out,
        "VCR reserve for ≤{:.1}% denials at {:.1} ops/min: {} streams \
         (offered load {:.1} Erlangs, piggyback +5%)",
        100.0 * opts.denial_target,
        opts.vcr_ops_per_minute,
        reserve,
        load.offered_erlangs()
    );
    let _ = writeln!(
        out,
        "grand total: {} I/O streams + {:.1} buffer minutes",
        plan.total_streams() + reserve,
        plan.total_buffer()
    );

    // Shopping list at the Example-2 hardware prices.
    let hw = HardwareSpec::paper_example2();
    let catalog_minutes: f64 = opts.movies.iter().map(|m| m.length).sum();
    let shopping = procurement(&plan, reserve, catalog_minutes, &hw)
        .map_err(|e| CliError(format!("procurement: {e}")))?;
    let _ = writeln!(
        out,
        "
hardware (1997 prices): {} disks (bandwidth {} / capacity {}), {:.0} MB RAM          — ${:.0} disks + ${:.0} memory = ${:.0}",
        shopping.disks,
        shopping.disks_for_bandwidth,
        shopping.disks_for_capacity,
        shopping.memory_mb,
        shopping.disk_dollars,
        shopping.memory_dollars,
        shopping.total_dollars()
    );
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parse_movie_full() {
        let m = parse_movie("thriller;l=120;w=0.5;p=0.6;dist=gamma:shape=2,scale=4").unwrap();
        assert_eq!(m.name, "thriller");
        assert_eq!(m.length, 120.0);
        assert_eq!(m.max_wait, 0.5);
        assert_eq!(m.target_hit, 0.6);
    }

    #[test]
    fn parse_movie_with_mix() {
        let m = parse_movie("x;l=90;w=1;p=0.5;dist=exp:mean=5;mix=0.5,0.3,0.2").unwrap();
        assert!((m.mix.ff() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn parse_movie_errors() {
        assert!(parse_movie("l=90;w=1;p=0.5;dist=exp:mean=5").is_err()); // no name
        assert!(parse_movie("x;l=90;w=1;p=0.5").is_err()); // no dist
        assert!(parse_movie("x;l=90;w=1;p=0.5;dist=bogus:a=1").is_err());
        assert!(parse_movie("x;l=90;w=1;p=0.5;dist=exp:mean=5;mix=0.5,0.5").is_err());
        assert!(parse_movie("x;l=90;w=1;p=2.0;dist=exp:mean=5").is_err()); // p > 1
    }

    #[test]
    fn a_weibull_whose_gamma_constants_overflow_is_refused_at_parse_time() {
        // 1/shape is infinite at 1e-320; Γ(1 + 2/shape) = Γ(2001) overflows
        // at 0.001. Either would reach the planner as a NaN moment.
        for shape in ["1e-320", "0.001"] {
            let spec = format!("m;l=60;w=0.5;p=0.5;dist=weibull:shape={shape},scale=2");
            let e = parse_movie(&spec).unwrap_err();
            assert!(e.0.contains("parameter `shape`"), "{shape}: {}", e.0);
        }
    }

    #[test]
    fn a_lognormal_whose_second_moment_overflows_names_the_mean() {
        // E[X²] = mean²·(1 + cv²) overflows; the derived sigma is 0.63.
        let e = parse_movie("m;l=60;w=0.5;p=0.5;dist=lognormal:mean=1e200,cv=0.7").unwrap_err();
        assert!(e.0.contains("parameter `mean`"), "{}", e.0);
    }

    #[test]
    fn parse_args_defaults() {
        let o = parse_args(&args(&["--movie", "a;l=60;w=0.5;p=0.5;dist=exp:mean=5"])).unwrap();
        assert_eq!(o.streams, 120); // pure batching default
        assert!((o.phi - 750.0 / 70.0).abs() < 1e-12);
        assert_eq!(o.threads, 1); // serial unless asked
    }

    #[test]
    fn parse_args_threads() {
        let o = parse_args(&args(&[
            "--movie",
            "a;l=60;w=0.5;p=0.5;dist=exp:mean=5",
            "--threads",
            "4",
        ]))
        .unwrap();
        assert_eq!(o.threads, 4);
        assert!(parse_args(&args(&["--threads", "x"])).is_err());
    }

    #[test]
    fn hostile_rates_and_buffers_are_refused_at_parse_time() {
        let with = |flag: &str, value: &str| {
            let movie = "a;l=60;w=1;p=0.5;dist=exp:mean=5";
            parse_args(&args(&["--movie", movie, flag, value])).map_err(|e| e.0)
        };
        for rate in ["nan", "inf", "-inf", "-1"] {
            let refused = with("--vcr-rate", rate).expect_err(rate);
            assert_eq!(refused, "--vcr-rate needs a finite number ≥ 0");
        }
        assert_eq!(with("--vcr-rate", "0").unwrap().vcr_ops_per_minute, 0.0);
        assert_eq!(
            with("--buffer", "nan").unwrap_err(),
            "--buffer needs a number"
        );
        assert_eq!(with("--buffer", "12").unwrap().buffer, Some(12.0));
    }

    #[test]
    fn parse_args_rejects_junk() {
        assert!(parse_args(&args(&["--bogus"])).is_err());
        assert!(parse_args(&args(&[])).is_err());
        assert!(parse_args(&args(&["--movie"])).is_err());
    }

    #[test]
    fn residue_buffer_does_not_yield_a_zero_buffer_plan() {
        // 62.7 − 110·0.57 = 7e-15: the plan used to stop at 110 streams,
        // "0.0" buffer minutes and a garbage P(hit) of 0.556.
        let o = parse_args(&args(&[
            "--movie",
            "m;l=62.7;w=0.57;p=0.5;dist=gamma:shape=2,mean=3",
        ]))
        .unwrap();
        let report = run(&o).unwrap();
        let row: Vec<&str> = report
            .lines()
            .find(|line| line.starts_with("m "))
            .unwrap_or_else(|| panic!("no plan row in {report}"))
            .split_whitespace()
            .collect();
        let (streams, buffer, p_hit): (u32, f64, f64) = (
            row[1].parse().unwrap(),
            row[2].parse().unwrap(),
            row[3].parse().unwrap(),
        );
        assert!(streams < 110 && buffer > 1.0, "{report}");
        assert!((0.5..0.6).contains(&p_hit), "{report}");
    }

    #[test]
    fn end_to_end_plan_renders() {
        let o = parse_args(&args(&[
            "--movie",
            "a;l=60;w=1;p=0.5;dist=exp:mean=5",
            "--movie",
            "b;l=90;w=1.5;p=0.5;dist=gamma:shape=2,scale=4",
            "--streams",
            "80",
        ]))
        .unwrap();
        let report = run(&o).unwrap();
        assert!(report.contains("totals:"), "{report}");
        assert!(report.contains("VCR reserve"), "{report}");
        assert!(report.contains("hardware (1997 prices)"), "{report}");
        assert!(report.contains('a') && report.contains('b'));
    }

    /// The report of the catalog in `src/bin/vodplan.rs`'s docs is
    /// `results/vodplan.txt`, byte for byte (`ci.sh` checks the binary).
    #[test]
    fn the_committed_report_regenerates() {
        let o = parse_args(&args(&[
            "--movie",
            "thriller;l=120;w=0.5;p=0.6;dist=gamma:shape=2,scale=4",
            "--movie",
            "classic;l=90;w=1;p=0.5;dist=exp:mean=5",
            "--streams",
            "300",
            "--phi",
            "11",
            "--vcr-rate",
            "2",
            "--denial",
            "0.01",
        ]))
        .unwrap();
        let committed = concat!(env!("CARGO_MANIFEST_DIR"), "/results/vodplan.txt");
        assert_eq!(
            run(&o).unwrap(),
            std::fs::read_to_string(committed).unwrap()
        );
    }
}
