//! `perfbench` — the cfed campaign benchmark.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload <study-test|study-full|attack-serve> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. With `--trace 0` it measures the
//! end-to-end metrics (`trials_per_s`, `setup_s`, `peak_rss_mb`) through the
//! real entry points; with `--trace 1` it measures the per-layer metrics
//! from a traced run (see `layers.rs`). Either way the last line of standard
//! output is one JSON object, and the exit code is non-zero when a
//! correctness check fails. `--write-expected` instead records the reports
//! of the default seed's first campaign under `perfbench/expected/`.

mod campaign;
mod check;
mod engines;
mod layers;
mod traced;
mod workload;

use std::path::{Path, PathBuf};
use std::process::Command;

use cfed_perfbench::metrics::{result_line, MetricSet};
use cfed_perfbench::stats::{iqr_share, median};

use crate::campaign::CampaignRun;
use crate::workload::{campaign_seed, mix, Workload, DEFAULT_SEED};

/// Fewest set-up passes (and campaigns) per run; `setup_s` is the median
/// of the passes.
const MIN_SETUP_PASSES: usize = 3;

const USAGE: &str = "usage: perfbench --workload <study-test|study-full|attack-serve> --seed <n> \
                     --seconds <s> --trace <0|1> [--write-expected]";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    write_expected: bool,
    /// Set in the child process that runs one campaign (see
    /// [`run_campaign_process`]).
    campaign_seed: Option<u64>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut write_expected = false;
    let mut child_seed = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        if flag == "--write-expected" {
            write_expected = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = |what: &str| value.parse().map_err(|_| format!("bad {what} {value:?}"));
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(number("--seed")?),
            "--campaign-seed" => child_seed = Some(number("--campaign-seed")?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad --seconds {value:?}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(DEFAULT_SEED),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
        write_expected,
        campaign_seed: child_seed,
    })
}

/// What one run measured and checked.
pub struct Outcome {
    /// The metrics of the JSON line.
    pub metrics: MetricSet,
    /// Work units attempted.
    pub attempted: u64,
    /// Work units that failed.
    pub failed: u64,
    /// Correctness problems; empty when every check passed.
    pub problems: Vec<String>,
    /// Human-readable lines printed before the JSON line.
    pub notes: Vec<String>,
}

fn expected_path(workload: Workload) -> PathBuf {
    Path::new("perfbench/expected").join(format!("{}.txt", workload.name()))
}

/// Checks one finished campaign of a run: the default seed's first
/// campaign against the committed reports, and a sampled shard of every
/// campaign against the from-scratch injection path. Problems are pushed
/// onto `problems`; returns the number of trials re-run from scratch.
pub fn check_campaign(
    workload: Workload,
    seed: u64,
    rep: u64,
    phases: &[cfed_serve::PhasePlan],
    report: &str,
    problems: &mut Vec<String>,
) -> Result<u64, String> {
    if seed == DEFAULT_SEED && rep == 0 {
        let path = expected_path(workload);
        let expected = std::fs::read_to_string(&path)
            .map_err(|e| format!("reading {}: {e}", path.display()))?;
        if report != expected {
            problems.push(format!("reports of seed {seed} differ from {}", path.display()));
        }
    }
    match check::verify_sample(phases, mix(seed ^ rep), workload.check_trials()) {
        Ok(n) => Ok(n),
        Err(e) => {
            problems.push(e);
            Ok(0)
        }
    }
}

/// The child side: runs one campaign through the workload's entry point,
/// writes its reports to `report_path(dir)` and prints
/// `campaign <wall_s> <trials> <units> <failed_units> <peak_rss_mb>`.
fn campaign_process(w: Workload, seed: u64, dir: &Path) -> Result<(), String> {
    let run = campaign::run(w.served(), w.name(), &w.phases(seed, dir))?;
    let peak = campaign::peak_rss_mb()?;
    std::fs::write(report_path(dir), &run.report)
        .map_err(|e| format!("writing {}: {e}", report_path(dir).display()))?;
    println!("campaign {} {} {} {} {peak}", run.wall_s, run.trials, run.units, run.failed_units);
    Ok(())
}

fn report_path(dir: &Path) -> PathBuf {
    dir.join("report.txt")
}

/// Runs one campaign in a fresh process of this program, as one
/// `cfed-campaign` invocation would, and waits for it. Returns the campaign
/// and the child's peak resident set in MiB.
fn run_campaign_process(w: Workload, seed: u64, dir: &Path) -> Result<(CampaignRun, f64), String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this program: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", w.name(), "--campaign-seed", &seed.to_string()])
        .output()
        .map_err(|e| format!("starting a campaign process: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().unwrap_or_default();
    let fields: Vec<&str> = line.strip_prefix("campaign ").unwrap_or_default().split(' ').collect();
    if !out.status.success() || fields.len() != 5 {
        return Err(format!(
            "campaign process failed ({}): {}",
            out.status,
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    fn field<T: std::str::FromStr>(fields: &[&str], i: usize) -> Result<T, String> {
        fields[i].parse().map_err(|_| format!("unreadable campaign process output {fields:?}"))
    }
    let report = std::fs::read_to_string(report_path(dir))
        .map_err(|e| format!("reading {}: {e}", report_path(dir).display()))?;
    let run = CampaignRun {
        wall_s: field(&fields, 0)?,
        trials: field(&fields, 1)?,
        units: field(&fields, 2)?,
        failed_units: field(&fields, 3)?,
        report,
        serve: None,
    };
    Ok((run, field(&fields, 4)?))
}

fn end_to_end(args: &Args, dir: &Path) -> Result<Outcome, String> {
    let w = args.workload;
    let (mut setup, mut walls, mut peaks) = (Vec::new(), Vec::new(), Vec::new());
    let (mut trials, mut attempted, mut failed, mut checked) = (0, 0, 0, 0);
    let mut problems = Vec::new();
    let mut rep = 0;
    // Campaigns and set-up passes alternate, so both sample the host over
    // the whole run, and both count towards the measured time.
    while setup.len() < MIN_SETUP_PASSES || setup.iter().chain(&walls).sum::<f64>() < args.seconds {
        let seed = campaign_seed(args.seed, rep);
        let (run, peak) = run_campaign_process(w, seed, dir)?;
        walls.push(run.wall_s);
        peaks.push(peak);
        trials += run.trials;
        attempted += run.units;
        failed += run.failed_units;
        let phases = w.phases(seed, dir);
        checked += check_campaign(w, args.seed, rep, &phases, &run.report, &mut problems)?;
        setup.push(campaign::setup_pass(&w.phases(args.seed, dir))?);
        rep += 1;
    }
    let wall: f64 = walls.iter().sum();
    let mut metrics = MetricSet::end_to_end();
    metrics.push("trials_per_s", "1/s", trials as f64 / wall)?;
    metrics.push("setup_s", "s", median(&setup).expect("set-up passes ran"))?;
    metrics.push("peak_rss_mb", "MB", median(&peaks).expect("campaigns ran"))?;
    let notes = vec![
        format!("campaigns {rep}, trials {trials}, campaign wall {wall:.3} s"),
        format!("campaign walls (s): {walls:?}"),
        format!(
            "within-run spread of campaign trials/s (IQR / median): {:?}",
            iqr_share(&walls.iter().map(|w| 1.0 / w).collect::<Vec<_>>())
        ),
        format!("campaign peak RSS (MiB): {peaks:?}"),
        format!("set-up passes (s): {setup:?}"),
        format!("checked {checked} trials from scratch"),
    ];
    Ok(Outcome { metrics, attempted, failed, problems, notes })
}

fn write_expected(w: Workload, dir: &Path) -> Result<(), String> {
    let run = campaign::run(w.served(), w.name(), &w.phases(DEFAULT_SEED, dir))?;
    if run.failed_units > 0 {
        return Err(format!("{} units failed; not recording", run.failed_units));
    }
    let path = expected_path(w);
    std::fs::write(&path, run.report).map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(())
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&argv).unwrap_or_else(|e| {
        eprintln!("perfbench: {e}\n{USAGE}");
        std::process::exit(2);
    });
    let fail = |e: String| -> ! {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    };
    let dir = Path::new("perfbench/work").join(args.workload.name());
    campaign::ensure_dir(&dir).unwrap_or_else(|e| fail(e));
    if let Some(seed) = args.campaign_seed {
        campaign_process(args.workload, seed, &dir).unwrap_or_else(|e| fail(e));
        return;
    }
    if args.write_expected {
        write_expected(args.workload, &dir).unwrap_or_else(|e| fail(e));
        return;
    }
    let outcome = if args.trace {
        layers::measure(args.workload, args.seed, args.seconds, &dir)
    } else {
        end_to_end(&args, &dir)
    }
    .unwrap_or_else(|e| fail(e));
    for m in outcome.metrics.metrics() {
        println!("{} {} {}", m.name, m.value, m.unit);
    }
    for note in &outcome.notes {
        println!("{note}");
    }
    for problem in &outcome.problems {
        println!("CHECK FAILED: {problem}");
    }
    let correct = outcome.problems.is_empty();
    let (attempted, failed) =
        (outcome.attempted, if correct { outcome.failed } else { outcome.attempted });
    println!(
        "failed_frac {} ratio ({failed} of {attempted} units)",
        failed as f64 / attempted.max(1) as f64
    );
    println!("{}", result_line(correct, attempted, failed, &outcome.metrics));
    if !correct {
        std::process::exit(1);
    }
}
