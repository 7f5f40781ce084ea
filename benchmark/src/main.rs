//! `rio-benchmark`: end-to-end ns/task on four flows, a per-layer budget
//! measured from outside, and a traced run. See `benchmark/README.md`.
//!
//! ```text
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     [--workload <name>] [--seed <u64>] [--seconds <s>] [--trace <0|1>] [--repeat <n>]
//! ```
//!
//! With `--trace 0` a workload's end-to-end metrics are measured, with
//! `--trace 1` its per-layer metrics; without `--trace`, both. Without
//! `--workload`, all four. The last line of standard output is one JSON
//! object per workload run last: `correct`, `attempted`, `failed`, `metrics`.

mod contract;
mod floors;
mod heap;
mod json;
mod measure;
mod oracle;
mod spans;
mod stats;
mod workloads;

use std::path::Path;
use std::process::{Command, ExitCode};

use contract::{EndToEnd, END_TO_END, PER_LAYER, RUN_SECONDS};
use json::Json;
use measure::{Env, Outcome, BREAKEVEN_NEVER};
use spans::Spans;
use workloads::Spec;

#[global_allocator]
static ALLOCATOR: heap::Counting = heap::Counting;

const OUT_DIR: &str = "benchmark/out";
/// Printed and written to `result.json`, but not declared to the driver.
const INFORMATIONAL: [(&str, &str); 1] = [("peak_rss_mb", "MB")];
const USAGE: &str = "usage: rio-benchmark [--workload <name>] [--seed <u64>] [--seconds <s>] \
                     [--trace <0|1>] [--repeat <n>] [--emit-contract]";

struct Args {
    workloads: Vec<Spec>,
    seed: u64,
    seconds: f64,
    /// `Some(false)`: end-to-end only; `Some(true)`: traced only; `None`: both.
    trace: Option<bool>,
    repeat: usize,
    emit_contract: bool,
}

fn parse_args(argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workloads: workloads::all().to_vec(),
        seed: workloads::PINNED_SEED,
        seconds: RUN_SECONDS as f64,
        trace: None,
        repeat: 1,
        emit_contract: false,
    };
    let mut argv = argv;
    while let Some(flag) = argv.next() {
        if flag == "--emit-contract" {
            args.emit_contract = true;
            continue;
        }
        let value = argv
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
        let bad = || format!("bad value {value:?} for {flag}\n{USAGE}");
        match flag.as_str() {
            "--workload" => {
                args.workloads.retain(|w| w.name == value);
                if args.workloads.is_empty() {
                    let names: Vec<_> = workloads::all().iter().map(|w| w.name).collect();
                    return Err(format!("unknown workload {value:?}; one of {names:?}"));
                }
            }
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad())?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                args.trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            "--repeat" => {
                args.repeat = value.parse().map_err(|_| bad())?;
                if !(1..=10).contains(&args.repeat) {
                    return Err(bad());
                }
            }
            _ => return Err(format!("unknown argument {flag:?}\n{USAGE}")),
        }
    }
    Ok(args)
}

/// First line of a command's standard output, or `"unknown"`.
fn first_line_of(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

/// ISO-8601 UTC timestamp of now, from the days-to-civil algorithm.
fn iso8601_now() -> String {
    let secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    iso8601(secs)
}

fn iso8601(secs: u64) -> String {
    let (days, rem) = (secs / 86_400, secs % 86_400);
    // Howard Hinnant's civil_from_days, for days since 1970-01-01.
    let z = days as i64 + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1_460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let day = doy - (153 * mp + 2) / 5 + 1;
    let month = if mp < 10 { mp + 3 } else { mp - 9 };
    let year = yoe + era * 400 + i64::from(month <= 2);
    format!(
        "{year:04}-{month:02}-{day:02}T{:02}:{:02}:{:02}Z",
        rem / 3_600,
        rem % 3_600 / 60,
        rem % 60
    )
}

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .chain(INFORMATIONAL)
        .find(|(n, _)| *n == name)
        .map_or("", |(_, unit)| unit)
}

fn show(value: f64) -> String {
    if value == BREAKEVEN_NEVER {
        "inf".into()
    } else if value.fract() == 0.0 && value.abs() < 1e15 {
        format!("{value:.0}")
    } else {
        format!("{value:.4}")
    }
}

fn print_outcome(o: &Outcome) {
    println!(
        "{} [{}]",
        o.workload,
        if o.traced {
            "traced run: per-layer"
        } else {
            "tracing off: end-to-end"
        }
    );
    for m in &o.metrics {
        println!(
            "  {:<36} {:>16} {:<8} n={}{}{}",
            m.name,
            show(m.value),
            unit_of(m.name),
            m.samples,
            m.median
                .map_or(String::new(), |x| format!("  median {}", show(x))),
            m.iqr_share
                .map_or(String::new(), |s| format!("  iqr {:.2} %", 100.0 * s)),
        );
    }
    println!(
        "  {:<36} {:>16} {:<8} n={}",
        "failed_share",
        show(o.tally.failed_share()),
        "share",
        o.tally.attempted
    );
    if let Some((pct, value)) = o.steady_tail {
        println!("  steady tail: p{pct:.1} = {value:.4} ns/task (ten samples beyond it)");
    }
    for c in &o.checks {
        println!(
            "  {} {}: {}",
            if c.pass { "PASS" } else { "FAIL" },
            c.name,
            c.detail
        );
    }
    for note in &o.tally.notes {
        println!("  FAILED RUN {note}");
    }
}

/// The metrics the driver reads, in the order and under exactly the names
/// `BENCHMARK.json` declares. `Err` names a declared metric nobody measured.
fn declared_metrics(o: &Outcome) -> Result<Json, String> {
    let names: Vec<&str> = if o.traced {
        PER_LAYER.iter().map(|m| m.name).collect()
    } else {
        END_TO_END.iter().map(|m| m.name).collect()
    };
    let mut pairs = Vec::with_capacity(names.len());
    for name in names {
        let m = o
            .metric(name)
            .filter(|m| m.value.is_finite())
            .ok_or_else(|| format!("{}: {name} was not measured", o.workload))?;
        pairs.push((
            name,
            Json::obj([
                ("value", Json::Num(m.value)),
                ("unit", Json::str(unit_of(name))),
            ]),
        ));
    }
    Ok(Json::obj(pairs))
}

/// The line the driver reads: exactly `correct`, `attempted`, `failed`,
/// `metrics`.
fn driver_line(o: &Outcome) -> Result<Json, String> {
    Ok(Json::obj([
        ("correct", Json::Bool(o.correct())),
        ("attempted", Json::Int(o.tally.attempted)),
        ("failed", Json::Int(o.tally.failed)),
        ("metrics", declared_metrics(o)?),
    ]))
}

fn outcome_json(round: usize, o: &Outcome) -> Json {
    let f = &o.fingerprint;
    Json::obj([
        ("round", Json::Int(round as u64)),
        ("workload", Json::str(o.workload)),
        ("traced", Json::Bool(o.traced)),
        ("correct", Json::Bool(o.correct())),
        ("attempted", Json::Int(o.tally.attempted)),
        ("failed", Json::Int(o.tally.failed)),
        ("failed_share", Json::Num(o.tally.failed_share())),
        (
            "failures",
            Json::Arr(o.tally.notes.iter().map(Json::str).collect()),
        ),
        (
            "fingerprint",
            Json::obj([
                ("tasks", Json::Int(f.tasks as u64)),
                ("accesses", Json::Int(f.accesses as u64)),
                ("fnv1a", Json::str(format!("{:#018x}", f.fnv))),
                (
                    "mapping_histograms",
                    Json::Arr(
                        f.histograms
                            .iter()
                            .map(|h| Json::Arr(h.iter().map(|n| Json::Int(*n as u64)).collect()))
                            .collect(),
                    ),
                ),
            ]),
        ),
        (
            "steady_tail",
            o.steady_tail.map_or(Json::Null, |(pct, value)| {
                Json::obj([
                    ("percentile", Json::Num(pct)),
                    ("ns_per_task", Json::Num(value)),
                ])
            }),
        ),
        (
            "metrics",
            Json::obj(o.metrics.iter().map(|m| {
                (
                    m.name,
                    Json::obj([
                        ("value", Json::Num(m.value)),
                        ("unit", Json::str(unit_of(m.name))),
                        ("samples", Json::Int(m.samples)),
                        ("median", m.median.map_or(Json::Null, Json::Num)),
                        ("iqr_share", m.iqr_share.map_or(Json::Null, Json::Num)),
                    ]),
                )
            })),
        ),
        (
            "checks",
            Json::Arr(
                o.checks
                    .iter()
                    .map(|c| {
                        Json::obj([
                            ("name", Json::str(&c.name)),
                            ("pass", Json::Bool(c.pass)),
                            ("fatal", Json::Bool(c.fatal)),
                            ("detail", Json::str(&c.detail)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// One end-to-end metric of one workload, first round against a later one.
struct Agreement {
    workload: &'static str,
    metric: &'static EndToEnd,
    first: f64,
    later: f64,
}

impl Agreement {
    fn difference(&self) -> f64 {
        stats::relative_difference(self.first, self.later)
    }

    fn agrees(&self) -> bool {
        self.difference().abs() <= self.metric.bound
    }
}

/// Self-agreement: every end-to-end metric of every workload, round 0
/// against each later round.
fn agreements(rounds: &[Vec<Outcome>]) -> Vec<Agreement> {
    let Some((first, later)) = rounds.split_first() else {
        return Vec::new();
    };
    let mut out = Vec::new();
    for o in later.iter().flatten().filter(|o| !o.traced) {
        let Some(base) = first.iter().find(|b| !b.traced && b.workload == o.workload) else {
            continue;
        };
        for metric in &END_TO_END {
            if let (Some(a), Some(b)) = (base.metric(metric.name), o.metric(metric.name)) {
                out.push(Agreement {
                    workload: o.workload,
                    metric,
                    first: a.value,
                    later: b.value,
                });
            }
        }
    }
    out
}

/// Restarts the memory peaks, so that those of a workload are its own.
/// `first`: nothing ran in this process before, so `VmHWM` needs no reset.
fn reset_memory_peaks(first: bool) {
    heap::reset_peak();
    if !first {
        // Best effort: where the kernel refuses, the earlier peak stands.
        let _ = std::fs::write("/proc/self/clear_refs", "5");
    }
}

fn write_out(name: &str, value: &Json) -> std::io::Result<()> {
    std::fs::create_dir_all(OUT_DIR)?;
    std::fs::write(Path::new(OUT_DIR).join(name), format!("{value}\n"))
}

fn run(args: &Args) -> Result<bool, String> {
    let env = Env::detect();
    let rustc = first_line_of("rustc", &["-V"]);
    let commit = first_line_of("git", &["rev-parse", "HEAD"]);
    let timestamp = iso8601_now();
    println!(
        "rio-benchmark: seed {} | {} s per run | {} workers on {} hardware threads{} | {rustc}",
        args.seed,
        args.seconds,
        env.workers,
        env.nproc,
        if env.oversubscribed {
            " (OVERSUBSCRIBED: timings say little)"
        } else {
            ""
        },
    );

    let want_traced = args.trace != Some(false);
    let want_end_to_end = args.trace != Some(true);
    let mut spans = Spans::on();
    let floors = if want_traced {
        spans.scope("floors", |_| floors::measure())
    } else {
        Vec::new()
    };
    let mut rounds: Vec<Vec<Outcome>> = Vec::new();
    for round in 0..args.repeat {
        let mut outcomes = Vec::new();
        for (i, spec) in args.workloads.iter().enumerate() {
            if want_end_to_end {
                reset_memory_peaks(i == 0 && round == 0);
                let o = measure::end_to_end(spec, args.seed, args.seconds, &env)?;
                print_outcome(&o);
                outcomes.push(o);
            }
            if want_traced {
                let o = measure::traced(spec, args.seed, args.seconds, &env, &floors, &mut spans)?;
                print_outcome(&o);
                outcomes.push(o);
            }
        }
        rounds.push(outcomes);
    }

    let agreements = agreements(&rounds);
    for a in &agreements {
        println!(
            "{} {} {}: {} then {} ({:+.2} % against a bound of {} %)",
            if a.agrees() { "AGREE" } else { "DISAGREE" },
            a.workload,
            a.metric.name,
            show(a.first),
            show(a.later),
            100.0 * a.difference(),
            100.0 * a.metric.bound,
        );
    }

    let all: Vec<(usize, &Outcome)> = rounds
        .iter()
        .enumerate()
        .flat_map(|(round, os)| os.iter().map(move |o| (round, o)))
        .collect();
    let correct = all.iter().all(|(_, o)| o.correct()) && agreements.iter().all(Agreement::agrees);
    let result = Json::obj([
        ("schema", Json::Int(1)),
        ("commit", Json::str(commit)),
        ("timestamp", Json::str(timestamp)),
        ("rustc", Json::str(rustc)),
        ("nproc", Json::Int(env.nproc as u64)),
        ("workers", Json::Int(env.workers as u64)),
        ("oversubscribed", Json::Bool(env.oversubscribed)),
        ("seed", Json::Int(args.seed)),
        (
            "reps",
            Json::obj([
                ("seconds_per_run", Json::Num(args.seconds)),
                ("repeat", Json::Int(args.repeat as u64)),
                ("min_setups_per_run", Json::Int(measure::SETUPS as u64)),
                (
                    "compiles_per_rep",
                    Json::Int(measure::COMPILES_PER_REP as u64),
                ),
                ("warmups_per_mode", Json::Int(measure::WARMUPS as u64)),
                (
                    "min_samples_per_mode",
                    Json::Int(measure::MIN_SAMPLES as u64),
                ),
                ("min_traced_rounds", Json::Int(measure::MIN_ROUNDS as u64)),
            ]),
        ),
        (
            "interactions",
            Json::obj(PER_LAYER.iter().map(|m| (m.name, Json::str(m.moves)))),
        ),
        (
            "runs",
            Json::Arr(
                all.iter()
                    .map(|(round, o)| outcome_json(*round, o))
                    .collect(),
            ),
        ),
        (
            "agreement",
            Json::Arr(
                agreements
                    .iter()
                    .map(|a| {
                        Json::obj([
                            ("workload", Json::str(a.workload)),
                            ("metric", Json::str(a.metric.name)),
                            ("first", Json::Num(a.first)),
                            ("later", Json::Num(a.later)),
                            ("difference", Json::Num(a.difference())),
                            ("bound", Json::Num(a.metric.bound)),
                            ("agrees", Json::Bool(a.agrees())),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("correct", Json::Bool(correct)),
        ("claim", Json::Null),
    ]);
    write_out("result.json", &result).map_err(|e| format!("cannot write result.json: {e}"))?;
    write_out("trace.json", &spans.chrome_json())
        .map_err(|e| format!("cannot write trace.json: {e}"))?;
    println!(
        "summary: {} runs attempted, {} failed, {} spans in {OUT_DIR}/trace.json, \
         correct: {correct}, \"claim\": null",
        all.iter().map(|(_, o)| o.tally.attempted).sum::<u64>(),
        all.iter().map(|(_, o)| o.tally.failed).sum::<u64>(),
        spans.spans().len(),
    );
    // Last: what the driver reads. One line per outcome of the last round;
    // the driver's runs have exactly one.
    let lines: Vec<Json> = rounds
        .last()
        .into_iter()
        .flatten()
        .map(driver_line)
        .collect::<Result<_, _>>()?;
    for line in lines {
        println!("{line}");
    }
    Ok(correct)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    if args.emit_contract {
        println!("{}", contract::benchmark_json());
        return ExitCode::SUCCESS;
    }
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("rio-benchmark: FAILED (see the FAIL / FAILED RUN / DISAGREE lines above)");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("rio-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iso8601_of_known_instants() {
        assert_eq!(iso8601(0), "1970-01-01T00:00:00Z");
        assert_eq!(iso8601(951_782_400), "2000-02-29T00:00:00Z");
        assert_eq!(iso8601(1_790_349_296), "2026-09-25T15:14:56Z");
    }

    #[test]
    fn the_drivers_arguments_parse() {
        let argv = "--workload cholesky-fine --seed 7 --seconds 3 --trace 1";
        let args = parse_args(argv.split(' ').map(String::from)).unwrap();
        assert_eq!(args.workloads.len(), 1);
        assert_eq!(args.workloads[0].name, "cholesky-fine");
        assert_eq!((args.seed, args.seconds, args.trace), (7, 3.0, Some(true)));
        assert!(parse_args(["--workload".to_string(), "nope".to_string()].into_iter()).is_err());
        assert!(parse_args(["--bogus".to_string(), "1".to_string()].into_iter()).is_err());
        assert!(parse_args(["--seed".to_string()].into_iter()).is_err());
    }
}
