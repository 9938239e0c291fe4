//! The numbers the docs quote from `results/` are the committed ones.
//!
//! In README.md, DESIGN.md and EXPERIMENTS.md a line
//! `<!-- mirrors results/<file> [rows] -->` marks the fenced block or the
//! table that follows it as a copy of that file, at the precision it
//! prints:
//!
//! * a fenced block quotes a text result: the whitespace-separated fields
//!   of each non-blank line are a prefix of the fields of a line of the
//!   file, the lines in file order;
//! * a table reads a JSON result: a header cell in backticks is a key path
//!   (keys joined by `.`; a key that itself holds dots is matched whole,
//!   an array takes an index) into each element of the array or object at
//!   `rows` (the whole document without one), and `` `[key]` `` is the
//!   element's own key or index. Every body row equals some element in all
//!   such columns. A header cell without backticks is prose: if one of its
//!   cells holds a digit, the header names the change (`PR n`) whose
//!   one-time measurement the column is.
//!
//! A number matches when the file's value printed at the doc's decimals
//! reads the doc's digits; everything else matches as text. A fenced block
//! that quotes a line of a `results/*.txt` file without a marker fails too,
//! so no quoted result escapes the check.

#![allow(clippy::unwrap_used)]

use std::fs;
use std::path::{Path, PathBuf};

use vod_runtime::json::{self, Json};

const DOCS: [&str; 3] = ["README.md", "DESIGN.md", "EXPERIMENTS.md"];

fn root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn read(rel: &str) -> Result<String, String> {
    fs::read_to_string(root().join(rel)).map_err(|e| format!("{rel}: {e}"))
}

enum Body<'a> {
    Fenced(Vec<&'a str>),
    Table(Vec<&'a str>),
}

/// One marked block: the file it mirrors, the optional rows path, the
/// 1-based line of its marker, and what follows the marker.
struct Mirror<'a> {
    file: &'a str,
    rows: Option<&'a str>,
    line: usize,
    body: Body<'a>,
}

/// The marked blocks of `doc`, and the fenced blocks no marker names.
fn blocks(doc: &str) -> Result<(Vec<Mirror<'_>>, Vec<Vec<&str>>), String> {
    let lines: Vec<&str> = doc.lines().collect();
    let (mut marked, mut unmarked) = (Vec::new(), Vec::new());
    let mut i = 0;
    while i < lines.len() {
        let line = lines[i].trim();
        if let Some(args) = line
            .strip_prefix("<!-- mirrors ")
            .and_then(|rest| rest.strip_suffix("-->"))
        {
            let mut args = args.split_whitespace();
            let file = args
                .next()
                .filter(|f| f.starts_with("results/"))
                .ok_or(format!("line {}: a marker names no results/ file", i + 1))?;
            let rows = args.next();
            let marker = i + 1;
            i += 1;
            while i < lines.len() && lines[i].trim().is_empty() {
                i += 1;
            }
            let body = if lines.get(i).is_some_and(|l| l.starts_with("```")) {
                let (body, next) = fence(&lines, i)?;
                i = next;
                Body::Fenced(body)
            } else if lines.get(i).is_some_and(|l| l.starts_with('|')) {
                let start = i;
                while i < lines.len() && lines[i].starts_with('|') {
                    i += 1;
                }
                Body::Table(lines[start..i].to_vec())
            } else {
                return Err(format!(
                    "line {marker}: no block or table follows the marker"
                ));
            };
            marked.push(Mirror {
                file,
                rows,
                line: marker,
                body,
            });
        } else if line.starts_with("```") {
            let (body, next) = fence(&lines, i)?;
            unmarked.push(body);
            i = next;
        } else {
            i += 1;
        }
    }
    Ok((marked, unmarked))
}

/// The lines of the fenced block opening at `open`, and the line after it.
fn fence<'a>(lines: &[&'a str], open: usize) -> Result<(Vec<&'a str>, usize), String> {
    let close = (open + 1..lines.len())
        .find(|&j| lines[j].trim_start().starts_with("```"))
        .ok_or(format!("line {}: unclosed fence", open + 1))?;
    Ok((lines[open + 1..close].to_vec(), close + 1))
}

/// `doc` (a number) is `x` printed at `doc`'s decimals.
fn same_number(doc: &str, x: f64) -> bool {
    let decimals = doc.split_once('.').map_or(0, |(_, frac)| frac.len());
    doc.parse::<f64>().is_ok() && format!("{x:.decimals$}") == doc
}

fn field_matches(doc: &str, file: &str) -> bool {
    doc == file || file.parse::<f64>().is_ok_and(|x| same_number(doc, x))
}

fn check_text(body: &[&str], file: &str) -> Result<(), String> {
    let rows: Vec<Vec<&str>> = file
        .lines()
        .map(|l| l.split_whitespace().collect())
        .collect();
    let mut from = 0;
    for line in body {
        let fields: Vec<&str> = line.split_whitespace().collect();
        if fields.is_empty() {
            continue;
        }
        let hit = (from..rows.len()).find(|&r| {
            fields.len() <= rows[r].len()
                && fields
                    .iter()
                    .zip(&rows[r])
                    .all(|(d, f)| field_matches(d, f))
        });
        match hit {
            Some(r) => from = r + 1,
            None => return Err(format!("no line (in order) starts with `{}`", line.trim())),
        }
    }
    Ok(())
}

/// The value at `path` under `at`: a key holding dots is matched whole.
fn lookup<'a>(mut at: &'a Json, path: &str) -> Option<&'a Json> {
    let mut rest = path;
    while !rest.is_empty() {
        let taken = match at {
            Json::Array(_, items) => {
                let index = rest.split('.').next()?;
                at = items.get(index.parse::<usize>().ok()?)?;
                index.len()
            }
            _ => {
                let (key, value) = at
                    .fields()?
                    .iter()
                    .filter(|(k, _)| {
                        rest.strip_prefix(k.as_ref())
                            .is_some_and(|tail| tail.is_empty() || tail.starts_with('.'))
                    })
                    .max_by_key(|(k, _)| k.len())?;
                at = value;
                key.len()
            }
        };
        rest = rest[taken..].strip_prefix('.').unwrap_or(&rest[taken..]);
    }
    Some(at)
}

fn value_matches(doc: &str, value: &Json) -> bool {
    match value {
        Json::Str(s) => doc == s,
        Json::Bool(b) => doc == b.to_string(),
        Json::Null => doc == "null",
        _ => value.as_f64().is_some_and(|x| same_number(doc, x)),
    }
}

fn cells(row: &str) -> Vec<String> {
    let row = row.trim().trim_start_matches('|').trim_end_matches('|');
    row.split('|')
        .map(|c| c.trim().replace("**", "").trim_matches('`').to_string())
        .collect()
}

fn check_table(table: &[&str], rows: Option<&str>, file: &str) -> Result<(), String> {
    let doc = json::parse(file).map_err(|e| e.to_string())?;
    let base = match rows {
        Some(path) => lookup(&doc, path).ok_or(format!("no `{path}` in the file"))?,
        None => &doc,
    };
    let elements: Vec<(String, &Json)> = match (rows, base) {
        (None, _) => vec![(String::new(), base)],
        (_, Json::Array(_, items)) => items
            .iter()
            .enumerate()
            .map(|(i, v)| (i.to_string(), v))
            .collect(),
        (_, Json::Object(_, fields)) => fields.iter().map(|(k, v)| (k.to_string(), v)).collect(),
        _ => return Err("`rows` is neither an array nor an object".into()),
    };
    let [header, rule, body @ ..] = table else {
        return Err("a table needs a header and a rule".into());
    };
    if !rule.contains("---") {
        return Err("the second line of a table is not a rule".into());
    }
    let raw_header: Vec<&str> = header
        .trim()
        .trim_matches('|')
        .split('|')
        .map(str::trim)
        .collect();
    let paths: Vec<Option<String>> = raw_header
        .iter()
        .map(|h| {
            (h.len() > 1 && h.starts_with('`') && h.ends_with('`'))
                .then(|| h.trim_matches('`').to_string())
        })
        .collect();
    for row in body {
        let cells = cells(row);
        if cells.len() != paths.len() {
            return Err(format!(
                "`{}` has {} cells, the header {}",
                row.trim(),
                cells.len(),
                paths.len()
            ));
        }
        for (cell, (path, name)) in cells.iter().zip(paths.iter().zip(&raw_header)) {
            let names_a_pr = name
                .split("PR ")
                .skip(1)
                .any(|t| t.starts_with(|c: char| c.is_ascii_digit()));
            if path.is_none() && cell.contains(|c: char| c.is_ascii_digit()) && !names_a_pr {
                return Err(format!(
                    "column `{name}` holds `{cell}` but names no `PR n`"
                ));
            }
        }
        let found = elements.iter().any(|(key, element)| {
            cells
                .iter()
                .zip(&paths)
                .all(|(cell, path)| match path.as_deref() {
                    None => true,
                    Some("[key]") => cell == key,
                    Some(path) => lookup(element, path).is_some_and(|v| value_matches(cell, v)),
                })
        });
        if !found {
            return Err(format!("no element matches `{}`", row.trim()));
        }
    }
    Ok(())
}

/// Every disagreement between `doc` (named `name`) and the files it
/// mirrors, with the files read through `read`.
fn check(name: &str, doc: &str, read: &dyn Fn(&str) -> Result<String, String>) -> Vec<String> {
    let (marked, unmarked) = match blocks(doc) {
        Ok(found) => found,
        Err(e) => return vec![format!("{name}: {e}")],
    };
    let mut errors = Vec::new();
    for m in &marked {
        let outcome = read(m.file).and_then(|file| match &m.body {
            Body::Fenced(body) if m.rows.is_none() => check_text(body, &file),
            Body::Fenced(_) => Err("a fenced block takes no rows path".into()),
            Body::Table(table) => check_table(table, m.rows, &file),
        });
        if let Err(e) = outcome {
            errors.push(format!("{name}:{} mirrors {}: {e}", m.line, m.file));
        }
    }
    let quoted = text_results();
    for block in unmarked {
        for line in block {
            let line = line.trim();
            if line.len() >= 8 && line.contains(|c: char| c.is_ascii_digit()) {
                if let Some((file, _)) = quoted
                    .iter()
                    .find(|(_, text)| text.lines().any(|l| l.trim() == line))
                {
                    errors.push(format!("{name}: `{line}` quotes {file} without a marker"));
                }
            }
        }
    }
    errors
}

/// Every `results/*.txt` file and its text.
fn text_results() -> Vec<(String, String)> {
    let dir = root().join("results");
    let mut files: Vec<(String, String)> = fs::read_dir(&dir)
        .expect("results/ is readable")
        .map(|e| e.expect("a results/ entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "txt"))
        .map(|p| {
            let name = format!("results/{}", p.file_name().unwrap().to_string_lossy());
            (
                name,
                fs::read_to_string(&p).expect("a results/ file is readable"),
            )
        })
        .collect();
    files.sort();
    files
}

#[test]
fn every_mirrored_block_matches_its_results_file() {
    let mut errors = Vec::new();
    let mut mirrored = Vec::new();
    for name in DOCS {
        let doc = read(name).unwrap();
        errors.extend(check(name, &doc, &read));
        mirrored.extend(blocks(&doc).unwrap().0.iter().map(|m| m.file.to_string()));
    }
    assert!(errors.is_empty(), "{}", errors.join("\n"));
    // The paper's five artefacts and the layer timings are all quoted.
    for file in [
        "results/fig7.txt",
        "results/fig8.txt",
        "results/fig9.txt",
        "results/example1.txt",
        "results/example2.txt",
        "results/BENCH_layers.json",
    ] {
        assert!(mirrored.iter().any(|m| m == file), "no doc mirrors {file}");
    }
}

/// The last digit of `line` inside a checked column (any digit of a
/// fenced line), bumped by one.
fn bump_a_digit(line: &str, checked: &dyn Fn(usize) -> bool) -> Option<String> {
    let mut column = 0;
    let mut at = None;
    for (i, c) in line.char_indices() {
        if c == '|' {
            column += 1;
        } else if c.is_ascii_digit() && checked(column) {
            at = Some((i, c));
        }
    }
    let (i, c) = at?;
    let bumped = if c == '9' { '0' } else { (c as u8 + 1) as char };
    Some(format!("{}{bumped}{}", &line[..i], &line[i + 1..]))
}

#[test]
fn a_changed_digit_fails_the_check() {
    let mut mutants = 0;
    for name in DOCS {
        let doc = read(name).unwrap();
        let lines: Vec<&str> = doc.lines().collect();
        for m in blocks(&doc).unwrap().0 {
            // The block's last line: a fenced block's is before its closing
            // fence, a table's ends it.
            let (row, checked): (usize, Vec<bool>) = match &m.body {
                Body::Fenced(body) => {
                    let last = body
                        .iter()
                        .rposition(|l| l.contains(|c: char| c.is_ascii_digit()));
                    let offset = lines[m.line..]
                        .iter()
                        .position(|l| l.starts_with("```"))
                        .unwrap();
                    (m.line + offset + 1 + last.unwrap(), Vec::new())
                }
                Body::Table(table) => {
                    let offset = lines[m.line..]
                        .iter()
                        .position(|l| l.starts_with('|'))
                        .unwrap();
                    // Column 0 is left of the first `|`.
                    let header = std::iter::once(false).chain(
                        table[0]
                            .trim()
                            .trim_matches('|')
                            .split('|')
                            .map(|h| h.trim().starts_with('`')),
                    );
                    (m.line + offset + table.len() - 1, header.collect())
                }
            };
            let is_checked =
                |column: usize| checked.is_empty() || checked.get(column).copied().unwrap_or(false);
            let Some(bumped) = bump_a_digit(lines[row], &is_checked) else {
                continue;
            };
            let mut copy: Vec<&str> = lines.clone();
            copy[row] = &bumped;
            let mutated = copy.join("\n");
            assert!(
                !check(name, &mutated, &read).is_empty(),
                "{name}:{}: `{bumped}` still passes the check",
                row + 1
            );
            mutants += 1;
        }
    }
    assert!(mutants > 0, "no mirrored digit to change");
}

#[test]
fn the_check_reads_json_at_the_printed_precision() {
    let file = r#"{"cells": [{"a": {"b.c": 0.12345}, "n": 7}, {"a": {"b.c": 2}, "n": 8}]}"#;
    let table = [
        "| `n` | `a.b.c` | note |",
        "|---|---|---|",
        "| 7 | 0.123 | prose |",
    ];
    assert_eq!(check_table(&table, Some("cells"), file), Ok(()));
    let wrong = ["| `n` | `a.b.c` |", "|---|---|", "| 8 | 0.123 |"];
    assert!(check_table(&wrong, Some("cells"), file).is_err());
    let untagged = ["| `n` | note |", "|---|---|", "| 7 | 1 |"];
    assert!(check_table(&untagged, Some("cells"), file).is_err());
    let keyed = ["| `[key]` | `n` |", "|---|---|", "| 1 | 8 |"];
    assert_eq!(check_table(&keyed, Some("cells"), file), Ok(()));
    assert_eq!(check_text(&["x  1.0", "y 2"], "x 1.04 z\ny 2.0\n"), Ok(()));
    assert!(check_text(&["y 2", "x 1.0"], "x 1.04 z\ny 2.0\n").is_err());
}
