//! What the report-writing bins share: the `--out PATH` flag, the one
//! argument loop of the bins with flags of their own, the write, the exit
//! code, and the seeded single-movie cell the chaos and federation
//! matrices are both built on.

use std::process::ExitCode;

use vod_model::SweepExecutor;
use vod_runtime::json::Json;
use vod_server::{HostedMovie, MovieId, ServerConfig};

/// The command line of a bin with flags of its own, checked against its
/// usage line: `"--threads N --out PATH"` declares two flags, each of
/// which takes a value.
pub struct Flags {
    bin: &'static str,
    usage: &'static str,
    given: Vec<(String, String)>,
}

impl Flags {
    /// Parse the process arguments. A flag the usage line does not have
    /// or a missing value exits 2 with a one-line message.
    pub fn parse(bin: &'static str, usage: &'static str) -> Self {
        let mut flags = Flags {
            bin,
            usage,
            given: Vec::new(),
        };
        let mut args = std::env::args().skip(1);
        while let Some(flag) = args.next() {
            if flags.takes(&flag).is_none() {
                flags.die(&format!("unknown argument `{flag}`"));
            }
            let value = args.next().unwrap_or_else(|| flags.expected(&flag));
            flags.given.push((flag, value));
        }
        flags
    }

    /// What the usage line says follows `flag`; `None` for a flag it does
    /// not have.
    fn takes(&self, flag: &str) -> Option<&'static str> {
        let mut words = self.usage.split(' ').skip_while(|w| *w != flag);
        words.next().filter(|w| w.starts_with("--"))?;
        words.next()
    }

    /// The last value given for `flag`, read by `read`; a value `read`
    /// refuses exits 2 naming what was expected.
    pub fn get<T>(&self, flag: &str, read: impl Fn(&str) -> Option<T>) -> Option<T> {
        let (_, value) = self.given.iter().rev().find(|(f, _)| f == flag)?;
        Some(read(value).unwrap_or_else(|| self.expected(flag)))
    }

    /// [`Self::get`] through `FromStr`.
    pub fn value<T: std::str::FromStr>(&self, flag: &str) -> Option<T> {
        self.get(flag, |s| s.parse().ok())
    }

    fn expected(&self, flag: &str) -> ! {
        let what = self.takes(flag).unwrap_or("");
        self.die(&format!("expected {flag} {what}"))
    }

    fn die(&self, message: &str) -> ! {
        eprintln!("{}: {message}", self.bin);
        std::process::exit(2);
    }
}

/// A report bin's command line — `[--out PATH]` and nothing else — as
/// the path to write (`default`, the committed file, without the flag).
pub fn out_path(bin: &'static str, default: &str) -> String {
    let out = Flags::parse(bin, "--out PATH").value("--out");
    out.unwrap_or_else(|| default.to_string())
}

/// Write `report` (JSON or text) to `path`, creating its directory, and
/// say so. A failed write exits 1: a report that was not written must not
/// look written.
pub fn write_report(bin: &str, path: &str, report: &str) {
    if let Some(dir) = std::path::Path::new(path).parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    if let Err(e) = std::fs::write(path, report) {
        eprintln!("{bin}: cannot write {path}: {e}");
        std::process::exit(1);
    }
    println!("wrote {path}");
}

/// [`write_report`] for a JSON document: its rendering and a final
/// newline.
pub fn write_json(bin: &str, path: &str, report: &Json) {
    write_report(bin, path, &format!("{}\n", report.render()));
}

/// The command line of a text bin that fans a sweep out —
/// `[--threads N] [--out PATH]` — as its executor (serial without
/// `--threads`) and the path [`emit_text`] writes to.
pub fn sweep_flags(bin: &'static str) -> (SweepExecutor, Option<String>) {
    let flags = Flags::parse(bin, "--threads N --out PATH");
    let exec = flags.value("--threads");
    (
        exec.map_or_else(SweepExecutor::serial, SweepExecutor::new),
        flags.value("--out"),
    )
}

/// Deliver the text of a [`sweep_flags`] bin: to the file its
/// `--out PATH` named (through [`write_report`]), to stdout without one.
pub fn emit_text(bin: &str, out: Option<&str>, text: &str) {
    match out {
        Some(path) => write_report(bin, path, text),
        None => print!("{text}"),
    }
}

/// A matrix bin's verdict: print each failure as `<LABEL> FAILURE: …` on
/// stderr and turn the list into the process exit code.
pub fn exit_code(label: &str, failures: &[String]) -> ExitCode {
    for f in failures {
        eprintln!("{label} FAILURE: {f}");
    }
    if failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The single-movie server of a chaos-matrix cell (`l = 120`, `w = 1`,
/// `n = 20`, so `B = l − n·w = 100`; VCR reserve 40, piggyback off); the
/// federation matrix replicates it per shard so its identity leg
/// compares like with like.
pub fn chaos_cell_server() -> ServerConfig {
    let movie = HostedMovie::from_allocation(MovieId(0), 120, 20, 100.0);
    ServerConfig {
        piggyback: None,
        ..ServerConfig::provisioned(vec![movie], 40)
    }
}
