//! What the report-writing bins share: the `--out PATH` flag, the write,
//! the exit code, and the seeded single-movie cell the chaos and
//! federation matrices are both built on.

use std::process::ExitCode;
use std::sync::Arc;

use vod_dist::kinds::Gamma;
use vod_server::{HostedMovie, MovieId, ServerConfig};
use vod_workload::BehaviorModel;

/// Parse a report bin's command line — `[--out PATH]` and nothing else —
/// into the path to write (`default`, the committed file, without the
/// flag). Anything else exits 2 with a one-line usage message.
pub fn out_path(bin: &str, default: &str) -> String {
    let mut args = std::env::args().skip(1);
    match (args.next().as_deref(), args.next(), args.next()) {
        (None, ..) => default.to_string(),
        (Some("--out"), Some(path), None) => path,
        _ => {
            eprintln!("{bin}: expected [--out PATH]");
            std::process::exit(2);
        }
    }
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

/// Deliver the text of a bin that has flags of its own: to the file its
/// `--out PATH` named (through [`write_report`]), to stdout without one —
/// with other flags set the text is not the committed result.
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

/// The Fig. 7(d) viewer every server-side matrix drives: VCR mix
/// 0.2 / 0.2 / 0.6, 30 minutes of play between interactions, the paper's
/// Gamma durations.
pub fn fig7d_behavior() -> BehaviorModel {
    BehaviorModel::uniform_dist((0.2, 0.2, 0.6), 30.0, Arc::new(Gamma::paper_fig7()))
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
