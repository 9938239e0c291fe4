//! What a run prints and writes: every metric by name with its unit, the
//! per-segment breakdown, the digests, and the one-line result the
//! harness reads.

use std::fmt::Write;

use crate::json::{obj, Json};
use crate::metrics::{end_to_end, per_layer, MetricDef, WORKLOADS};
use crate::run::{end_to_end_samples, TimedPass, TracedPass};
use crate::segment::{digest_hex, Segment};
use crate::stats::{fnv1a64, summarize};

/// One digest for the whole workload: the segment digests, in order.
pub fn stats_digest(segments: &[Segment]) -> u64 {
    let bytes: Vec<u8> = segments
        .iter()
        .flat_map(|s| s.digest.to_le_bytes())
        .collect();
    fnv1a64(&bytes)
}

fn why(workload: &str) -> &'static str {
    WORKLOADS
        .iter()
        .find(|w| w.0 == workload)
        .map_or("", |w| w.1)
}

fn metric_json(def: &MetricDef, samples: &[f64]) -> Json {
    let s = summarize(samples);
    let mut pairs = vec![
        ("value", Json::from(s.median)),
        ("unit", Json::from(def.unit)),
        ("better", Json::from(def.better.as_str())),
    ];
    if let Some(bound) = def.bound {
        pairs.push(("bound", Json::from(bound)));
    }
    pairs.extend([
        ("n", Json::from(s.n)),
        ("min", Json::from(s.min)),
        ("q1", Json::from(s.q1)),
        ("median", Json::from(s.median)),
        ("q3", Json::from(s.q3)),
        ("max", Json::from(s.max)),
    ]);
    obj(pairs)
}

/// `(name → {value, unit})`, the shape of the harness's `metrics` object.
fn contract_metrics(values: impl Iterator<Item = (String, f64, &'static str)>) -> Json {
    obj(values.map(|(name, value, unit)| {
        (
            name,
            obj([("value", Json::from(value)), ("unit", Json::from(unit))]),
        )
    }))
}

fn result_line(reps: &[Vec<Segment>], metrics: Json) -> String {
    let attempted: u64 = reps.iter().flatten().map(|s| s.attempted).sum();
    let failed: u64 = reps.iter().flatten().map(|s| s.wrong).sum();
    obj([
        ("correct", Json::from(true)),
        ("attempted", Json::from(attempted)),
        ("failed", Json::from(failed)),
        ("metrics", metrics),
    ])
    .compact()
}

/// The timed pass of one workload: text, document entry, result line.
pub struct Rendered {
    pub text: String,
    pub doc: Vec<(&'static str, Json)>,
    pub result_line: String,
}

pub fn render_timed(workload: &str, pass: &TimedPass) -> Rendered {
    let defs = end_to_end();
    let samples = end_to_end_samples(pass);
    let first = &pass.reps[0];
    let digest = stats_digest(first);

    let mut text = String::new();
    let _ = writeln!(
        text,
        "== {workload}: {} reps in {:.1} s, stats_digest {}",
        pass.reps.len(),
        pass.wall_s,
        digest_hex(digest)
    );
    let _ = writeln!(text, "   why: {}", why(workload));
    let _ = writeln!(
        text,
        "   {:<18} {:>14} {:<10} {:>5}  {:>12} {:>12} {:>12} {:>12}  bound",
        "end-to-end", "median", "unit", "n", "min", "q1", "q3", "max"
    );
    let mut metrics = Vec::new();
    let mut e2e_doc = Vec::new();
    for (def, (name, values)) in defs.iter().zip(&samples) {
        assert_eq!(def.name, *name, "registry and sample order agree");
        let s = summarize(values);
        let _ = writeln!(
            text,
            "   {:<18} {:>14.6} {:<10} {:>5}  {:>12.6} {:>12.6} {:>12.6} {:>12.6}  {}",
            name,
            s.median,
            def.unit,
            s.n,
            s.min,
            s.q1,
            s.q3,
            s.max,
            def.bound.unwrap_or(0.0)
        );
        metrics.push((def.name.clone(), s.median, def.unit));
        e2e_doc.push((def.name.clone(), metric_json(def, values)));
    }

    let _ = writeln!(
        text,
        "   {:<18} {:>14} {:<10} {:>5}  {:>12} {:>12} {:>12}  digest",
        "segment", "rate", "unit", "n", "wall_s", "hit_ratio", "refused"
    );
    let mut segments_doc = Vec::new();
    for (i, seg) in first.iter().enumerate() {
        let walls: Vec<f64> = pass.reps.iter().map(|r| r[i].wall_s).collect();
        let wall = summarize(&walls);
        let rate = seg.work as f64 / wall.median;
        let _ = writeln!(
            text,
            "   {:<18} {:>14.3} {:<10} {:>5}  {:>12.6} {:>12.6} {:>12}  {}",
            seg.name,
            rate,
            format!("{}/s", seg.work_unit),
            wall.n,
            wall.median,
            seg.hit_ratio,
            format!("{}/{}", seg.refused, seg.attempted),
            digest_hex(seg.digest)
        );
        segments_doc.push((
            seg.name,
            obj([
                ("work", Json::from(seg.work)),
                ("work_unit", Json::from(seg.work_unit)),
                ("rate", Json::from(rate)),
                (
                    "wall_s",
                    Json::Arr(walls.iter().map(|&w| Json::from(w)).collect()),
                ),
                ("hit_ratio", Json::from(seg.hit_ratio)),
                ("attempted", Json::from(seg.attempted)),
                ("refused", Json::from(seg.refused)),
                ("cost", Json::from(seg.cost)),
                ("digest", Json::from(digest_hex(seg.digest))),
                ("counts", seg.counts_json()),
            ]),
        ));
    }

    Rendered {
        text,
        doc: vec![
            ("why", Json::from(why(workload))),
            ("reps", Json::from(pass.reps.len())),
            ("wall_s", Json::from(pass.wall_s)),
            ("stats_digest", Json::from(digest_hex(digest))),
            ("end_to_end", obj(e2e_doc)),
            ("segments", obj(segments_doc)),
        ],
        result_line: result_line(&pass.reps, contract_metrics(metrics.into_iter())),
    }
}

pub fn render_traced(workload: &str, pass: &TracedPass) -> Rendered {
    let defs = per_layer();
    for name in pass.layers.keys() {
        assert!(
            defs.iter().any(|d| d.name == *name),
            "computed metric `{name}` is not in the registry"
        );
    }
    let mut text = String::new();
    let _ = writeln!(
        text,
        "== {workload}, traced: {} reps, {} spans in {} ({:.1} s), stats_digest {}",
        pass.reps.len(),
        pass.spans,
        pass.trace_file.display(),
        pass.wall_s,
        digest_hex(stats_digest(&pass.reps[0]))
    );
    for (segment, share) in &pass.attributed {
        let _ = writeln!(
            text,
            "   {segment}: {:.1} % of wall in named spans",
            share * 100.0
        );
    }
    let mut metrics = Vec::new();
    let mut layers_doc = Vec::new();
    for def in &defs {
        // A layer this workload does not exercise did no work: 0.
        let value = pass.layers.get(&def.name).copied().unwrap_or(0.0);
        if pass.layers.contains_key(&def.name) {
            let _ = writeln!(text, "   {:<46} {:>16.4} {}", def.name, value, def.unit);
        }
        metrics.push((def.name.clone(), value, def.unit));
        layers_doc.push((
            def.name.clone(),
            obj([("value", Json::from(value)), ("unit", Json::from(def.unit))]),
        ));
    }
    Rendered {
        text,
        doc: vec![
            ("per_layer", obj(layers_doc)),
            (
                "trace",
                obj([
                    ("file", Json::from(pass.trace_file.display().to_string())),
                    ("spans", Json::from(pass.spans)),
                    ("traced_reps", Json::from(pass.reps.len())),
                    (
                        "attributed_share",
                        obj(pass
                            .attributed
                            .iter()
                            .map(|(k, v)| (k.as_str(), Json::from(*v)))),
                    ),
                ]),
            ),
        ],
        result_line: result_line(&pass.reps, contract_metrics(metrics.into_iter())),
    }
}
