//! One loop of the procsim benchmark, run as a process of its own:
//! `farm`, `debug`, `monitor` or `timetravel`, from an optimised build.
//!
//! ```text
//! perfbench --loop <name> --seed <n> [--trace 0|1] [--spans <file>]
//! ```
//!
//! The process sets the loop up, prints `ready`, then takes commands on
//! standard input: `run <seconds> <left>` runs one more segment of the
//! measured window, `left` counting this one and those still to come,
//! and takes at least its share of the samples the loop still needs to
//! reach its minimum counts; `setup` times one more set-up of the same
//! machine and discards it; each answers `ok`. `end` checks the loop's
//! outputs and prints what it measured as one JSON line. `run.py` in this directory
//! drives one of these processes per run, and in a traced run an
//! untraced one beside it, taking the same turns.

mod common;
mod debug;
mod farm;
mod monitor;
mod trace;

use common::Phase;
use std::io::BufRead;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

/// Command-line settings of one loop process.
pub struct Args {
    pub seed: u64,
    /// Record spans and report per-layer metrics.
    pub trace: bool,
    /// Where a traced run writes its spans.
    pub spans: Option<PathBuf>,
}

/// A loop whose measured window is run in segments.
pub trait Loop {
    /// Runs the loop for `seconds` of host time, and for at least
    /// `1/left` of what its minimum sample counts still need; records the
    /// segment's end-to-end values in `p.segments`.
    fn segment(&mut self, p: &mut Phase, seconds: f64, left: u64) -> ksim::SysResult<()>;
    /// Builds the loop's machine again from scratch, as set-up did, and
    /// returns the seconds it took.
    fn set_up_again(&self) -> f64;
    /// Checks the outputs and fills in the metrics.
    fn report(self: Box<Self>, p: &mut Phase, spans: Option<&trace::Summary>);
}

fn parse() -> Result<(String, Args), String> {
    let mut it = std::env::args().skip(1);
    let mut name = None;
    let mut args = Args {
        seed: 1,
        trace: false,
        spans: None,
    };
    while let Some(flag) = it.next() {
        let val = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {val}: {e}");
        match flag.as_str() {
            "--loop" => name = Some(val),
            "--seed" => args.seed = val.parse().map_err(|e| bad(&e))?,
            "--trace" => args.trace = val == "1",
            "--spans" => args.spans = Some(PathBuf::from(val)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok((name.ok_or("--loop is required")?, args))
}

/// Peak resident memory of this process (`VmHWM`), in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kib = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok());
    kib.map_or(f64::NAN, |k| k / 1024.0)
}

/// Serves `run` commands until `end`, then reports.
fn drive(mut lp: Box<dyn Loop>, p: &mut Phase, args: &Args) {
    println!("ready");
    let mut failed = None;
    for line in std::io::stdin().lock().lines() {
        let Ok(line) = line else { break };
        let words: Vec<&str> = line.split_whitespace().collect();
        match words.as_slice() {
            ["run", secs, left] => {
                let secs: f64 = secs.parse().unwrap_or(0.0);
                let left: u64 = left.parse().unwrap_or(1).max(1);
                if failed.is_none() {
                    trace::set_on(args.trace);
                    let t = Instant::now();
                    let r = trace::span("loop", || lp.segment(p, secs, left));
                    p.wall_s += t.elapsed().as_secs_f64();
                    trace::set_on(false);
                    failed = r.err();
                }
                println!("ok");
            }
            ["setup"] => {
                p.setups.push(lp.set_up_again());
                println!("ok");
            }
            ["end"] => break,
            _ => p.check(false, || format!("unknown command {line:?}")),
        }
    }
    let spans = trace::finish(args.spans.as_deref());
    if let Some(e) = failed {
        p.check(false, || format!("loop failed: {e:?}"));
        return;
    }
    match spans {
        Ok(s) => lp.report(p, args.trace.then_some(&s)),
        Err(e) => p.check(false, || format!("writing spans failed: {e}")),
    }
    std::mem::take(&mut p.segments).report(&mut p.e2e);
}

fn main() -> ExitCode {
    if cfg!(debug_assertions) {
        eprintln!("perfbench: built with debug assertions; host-time metrics are only reported from --release builds");
        return ExitCode::from(2);
    }
    let (name, args) = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut p = Phase {
        name: "",
        ..Phase::default()
    };
    let lp = match name.as_str() {
        "farm" => farm::setup(&args, &mut p),
        "debug" => debug::setup(&args, &mut p, false),
        "timetravel" => debug::setup(&args, &mut p, true),
        "monitor" => monitor::setup(&args, &mut p),
        other => {
            eprintln!("perfbench: unknown loop {other}");
            return ExitCode::from(2);
        }
    };
    if let Some(lp) = lp {
        drive(lp, &mut p, &args);
    }
    println!("{}", p.to_json(peak_rss_mb()));
    if p.errors.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
