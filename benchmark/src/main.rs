//! The repository benchmark.
//!
//! `tn-e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! runs one workload (see `README.md` in this directory): its batch
//! part, then the fleet part, then the wire part, one after another in
//! this process. It checks every part's correctness gates, prints every
//! metric with its unit and sample count on stderr, writes the full
//! record (provenance, phases, gates) and, in a traced run, the spans
//! under `.bench_results/`, and prints the one-line JSON result as the
//! last line of stdout. With `--trace 0` the
//! metrics are the end-to-end ones, measured with no tracing attached;
//! with `--trace 1` they are the per-layer ones.
//!
//! `tn-e2ebench --golden <workload> <first-seed> <last-seed>` prints the
//! `golden.txt` lines for a range of seeds.

mod batch;
mod cpu;
mod fleet;
mod load;
mod report;
mod stats;
mod trace;
mod wire;

use report::{Provenance, Report};
use std::path::PathBuf;
use std::process::ExitCode;

pub const WORKLOADS: [&str; 2] = ["fullchip", "neovision"];

/// Shares of `--seconds` the batch, fleet and wire parts measure for.
/// Each share is sized so that its part's end-to-end metrics spread
/// little between runs (see "Run-to-run spread" in `README.md`).
const BATCH_SHARE: f64 = 0.45;
const FLEET_SHARE: f64 = 0.2;
const WIRE_SHARE: f64 = 0.35;

/// One run's parameters.
pub struct Ctx {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub out_dir: PathBuf,
}

impl Ctx {
    fn stem(&self) -> String {
        format!(
            "{}-seed{}-trace{}",
            self.workload, self.seed, self.trace as u8
        )
    }

    pub fn spans_path(&self) -> PathBuf {
        self.out_dir.join(format!("{}.spans.jsonl", self.stem()))
    }
}

/// Logical cores this process may use.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn status_kb(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with(field))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse::<f64>().ok())
        })
        .unwrap_or(0.0)
}

/// Peak resident memory of this process so far, in MB.
pub fn rss_peak_mb() -> f64 {
    status_kb("VmHWM:") / 1024.0
}

/// Current resident memory, in kB.
pub fn rss_kb() -> f64 {
    status_kb("VmRSS:")
}

fn parse_args() -> Result<Ctx, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut val = || it.next().ok_or(format!("{a} needs a value"));
        match a.as_str() {
            "--workload" => workload = Some(val()?),
            "--seed" => seed = Some(val()?.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = val()?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} outside (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match val()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    Ok(Ctx {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
        out_dir: PathBuf::from(".bench_results"),
    })
}

fn golden(args: &[String]) -> Result<(), String> {
    let [kind, first, last] = args else {
        return Err("--golden <fullchip|neovision> <first-seed> <last-seed>".into());
    };
    let kind = match kind.as_str() {
        "fullchip" => batch::Kind::FullChip,
        "neovision" => batch::Kind::NeoVision,
        other => return Err(format!("no recorded values for {other}")),
    };
    let seed = |s: &str| s.parse::<u64>().map_err(|e| format!("seed {s}: {e}"));
    batch::golden_lines(kind, seed(first)?..=seed(last)?);
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--golden") {
        return match golden(&args[1..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::from(2)
            }
        };
    }
    let ctx = match parse_args() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&ctx.out_dir) {
        eprintln!("error: creating {}: {e}", ctx.out_dir.display());
        return ExitCode::from(2);
    }
    let _ = std::fs::remove_file(ctx.spans_path());
    let prov = Provenance::collect();
    eprintln!(
        "{} seed {} for {} s, trace {}; {}",
        ctx.workload,
        ctx.seed,
        ctx.seconds,
        ctx.trace as u8,
        prov.json()
    );
    let mut rep = Report::default();
    let kind = match ctx.workload.as_str() {
        "fullchip" => batch::Kind::FullChip,
        "neovision" => batch::Kind::NeoVision,
        _ => unreachable!("validated in parse_args"),
    };
    // The batch part goes first: it pins every thread the process has
    // while it runs, and no other part's threads may be among them.
    let mut run = || -> Result<f64, String> {
        eprintln!("batch:");
        let batch = batch::run(&ctx, kind, ctx.seconds * BATCH_SHARE, &mut rep)?;
        eprintln!("fleet:");
        let fleet = fleet::run(&ctx, ctx.seconds * FLEET_SHARE, &mut rep)?;
        eprintln!("wire:");
        let wire = wire::run(&ctx, ctx.seconds * WIRE_SHARE, &mut rep)?;
        Ok(batch + fleet + wire)
    };
    match run() {
        Ok(setup_s) if !ctx.trace => {
            rep.metric("setup_s", setup_s, "s");
            rep.metric("rss_peak_mb", rss_peak_mb(), "MB");
        }
        Ok(_) => {}
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(1);
        }
    }
    rep.print_table();
    let record = rep.record_json(
        &prov,
        &[
            ("workload", report::json_str(&ctx.workload)),
            ("seed", ctx.seed.to_string()),
            ("seconds", report::json_num(ctx.seconds)),
            ("trace", ctx.trace.to_string()),
            ("correct", rep.correct().to_string()),
        ],
    );
    let path = ctx.out_dir.join(format!("{}.json", ctx.stem()));
    if let Err(e) = std::fs::write(&path, record) {
        eprintln!("error: writing {}: {e}", path.display());
        return ExitCode::from(1);
    }
    println!("{}", rep.result_line());
    if rep.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(3)
    }
}
