//! `compare A.json B.json`: two run documents, metric by metric.
//!
//! Every end-to-end metric and every segment rate on every workload gets
//! its own row — both medians, the relative difference, the bound and a
//! verdict — because a combined score can hide a regression:
//!
//! * `worse` — B's median is worse than A's by more than the bound;
//! * `unresolved` — either side's own spread (interquartile range over
//!   median) is wider than the bound, so the medians cannot be told
//!   apart, unless every B sample is better than every A sample;
//! * `ok` — neither.
//!
//! Digests and exact-repeat values are compared for equality when both
//! documents used the same seed and sizes. Exit code 1 on any `worse`.

use std::fmt::Write;

use crate::json::Json;
use crate::metrics::end_to_end;

#[derive(Debug, Clone, Copy, PartialEq)]
struct Side {
    median: f64,
    min: f64,
    max: f64,
    spread: f64,
}

fn side_of_summary(metric: &Json) -> Option<Side> {
    let f = |k: &str| metric.get(k).and_then(Json::as_f64);
    let median = f("median")?;
    Some(Side {
        median,
        min: f("min")?,
        max: f("max")?,
        spread: if median == 0.0 {
            0.0
        } else {
            (f("q3")? - f("q1")?) / median.abs()
        },
    })
}

/// A segment's rate samples: its fixed work over each repetition's wall.
fn side_of_segment(segment: &Json) -> Option<Side> {
    let work = segment.get("work")?.as_f64()?;
    let rates: Vec<f64> = segment
        .get("wall_s")?
        .as_arr()
        .iter()
        .filter_map(Json::as_f64)
        .map(|wall| work / wall)
        .collect();
    if rates.is_empty() {
        return None;
    }
    let s = crate::stats::summarize(&rates);
    Some(Side {
        median: s.median,
        min: s.min,
        max: s.max,
        spread: s.spread(),
    })
}

fn verdict(a: Side, b: Side, higher_is_better: bool, bound: f64) -> (&'static str, f64) {
    let change = if a.median == 0.0 {
        0.0
    } else {
        (b.median - a.median) / a.median.abs()
    };
    let worse_by = if higher_is_better { -change } else { change };
    let all_better = if higher_is_better {
        b.min > a.max
    } else {
        b.max < a.min
    };
    let verdict = if a.spread.max(b.spread) > bound && !all_better {
        "unresolved"
    } else if worse_by > bound {
        "worse"
    } else {
        "ok"
    };
    (verdict, change)
}

/// Render the comparison; `Ok(true)` when nothing is `worse`.
pub fn compare(a: &Json, b: &Json) -> Result<(String, bool), String> {
    let mut out = String::new();
    let comparable = a.get("seed") == b.get("seed")
        && a.get("sizes") == b.get("sizes")
        && a.get("seed").is_some();
    let _ = writeln!(
        out,
        "{:<13} {:<28} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "A", "B", "change", "bound"
    );
    let (mut worse, mut unresolved, mut differs, mut rows) = (0, 0, 0, 0);
    let workloads_a = a.get("workloads").ok_or("A has no `workloads`")?;
    let workloads_b = b.get("workloads").ok_or("B has no `workloads`")?;
    let defs = end_to_end();
    for (workload, wa) in workloads_a.as_obj() {
        let Some(wb) = workloads_b.get(workload) else {
            let _ = writeln!(out, "{workload:<13} only in A");
            continue;
        };
        let mut row = |metric: &str, a: Side, b: Side, higher: bool, bound: f64| -> String {
            let (v, change) = verdict(a, b, higher, bound);
            match v {
                "worse" => worse += 1,
                "unresolved" => unresolved += 1,
                _ => {}
            }
            rows += 1;
            format!(
                "{workload:<13} {metric:<28} {:>14.6} {:>14.6} {:>+8.2}% {:>6.1}%  {v}\n",
                a.median,
                b.median,
                change * 100.0,
                bound * 100.0
            )
        };
        for def in &defs {
            let find = |w: &Json| {
                w.get("end_to_end")
                    .and_then(|e| e.get(&def.name))
                    .and_then(side_of_summary)
            };
            if let (Some(sa), Some(sb)) = (find(wa), find(wb)) {
                let higher = def.better == crate::metrics::Better::Higher;
                out.push_str(&row(&def.name, sa, sb, higher, def.bound.unwrap_or(0.0)));
            }
        }
        let rate_bound = defs
            .iter()
            .find(|d| d.name == "work_per_s")
            .and_then(|d| d.bound)
            .unwrap_or(0.1);
        let segments_b = wb.get("segments");
        for (segment, sa) in wa.get("segments").map_or(&[][..], Json::as_obj) {
            let Some(sb) = segments_b.and_then(|s| s.get(segment)) else {
                continue;
            };
            if let (Some(ra), Some(rb)) = (side_of_segment(sa), side_of_segment(sb)) {
                let unit = sa.get("work_unit").and_then(Json::as_str).unwrap_or("work");
                out.push_str(&row(
                    &format!("{segment}.{unit}_per_s"),
                    ra,
                    rb,
                    true,
                    rate_bound,
                ));
            }
            if comparable {
                for exact in ["digest", "hit_ratio", "refused", "attempted", "cost"] {
                    if sa.get(exact) != sb.get(exact) {
                        differs += 1;
                        let _ = writeln!(
                            out,
                            "{workload:<13} {:<28} {:>14} {:>14}  differs",
                            format!("{segment}.{exact}"),
                            sa.get(exact).map_or("-".into(), Json::compact),
                            sb.get(exact).map_or("-".into(), Json::compact),
                        );
                    }
                }
            }
        }
        if comparable {
            let same = wa.get("stats_digest") == wb.get("stats_digest");
            let _ = writeln!(
                out,
                "{workload:<13} {:<28} {:>14} {:>14}  {}",
                "stats_digest",
                "",
                "",
                if same { "same" } else { "differs" }
            );
        }
    }
    if !comparable {
        let _ = writeln!(
            out,
            "seeds or sizes differ: digests and exact-repeat values are per seed and were not compared"
        );
    }
    let _ = writeln!(
        out,
        "{rows} rows: {worse} worse, {unresolved} unresolved, {differs} exact values differ"
    );
    Ok((out, worse == 0))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn side(median: f64, min: f64, max: f64, spread: f64) -> Side {
        Side {
            median,
            min,
            max,
            spread,
        }
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let a = side(100.0, 98.0, 102.0, 0.02);
        // Throughput down 15 % against a 10 % bound.
        assert_eq!(
            verdict(a, side(85.0, 84.0, 86.0, 0.01), true, 0.10).0,
            "worse"
        );
        // Down 5 %: inside the bound.
        assert_eq!(verdict(a, side(95.0, 94.0, 96.0, 0.01), true, 0.10).0, "ok");
        // The same drop on a lower-is-better metric is an improvement.
        assert_eq!(
            verdict(a, side(85.0, 84.0, 86.0, 0.01), false, 0.10).0,
            "ok"
        );
        assert_eq!(
            verdict(a, side(115.0, 114.0, 116.0, 0.01), false, 0.10).0,
            "worse"
        );
        // A spread wider than the bound resolves nothing …
        assert_eq!(
            verdict(a, side(85.0, 70.0, 101.0, 0.2), true, 0.10).0,
            "unresolved"
        );
        // … unless every B sample beats every A sample.
        assert_eq!(
            verdict(a, side(130.0, 103.0, 150.0, 0.2), true, 0.10).0,
            "ok"
        );
    }
}
