//! `repro` — regenerate every table and figure of the paper's evaluation.
//!
//! ```text
//! repro <subcommand> [options]
//!
//! Subcommands:
//!   fig2        exec time vs tile size, tiled DGEMM, centralized runtime
//!   fig3        sequential DGEMM kernel efficiency vs tile size
//!   fig4        efficiency decomposition, matmul, centralized runtime
//!   fig6        wall time vs task size, independent tasks, both runtimes
//!   fig7        2^k independent tasks per worker vs worker count
//!   fig8        efficiency decomposition vs task size (--exp 1..4)
//!   table1      model checking STF & Run-In-Order on LU flows
//!   protocol    model checking the Algorithm-1/2 micro-step protocol
//!   patterns    Task-Bench dependence-pattern sweep on both runtimes
//!   walks       randomized-walk protocol checking at scale
//!   mapping     mapping-quality sweep on the LU DAG
//!   costmodel   validate cost models (1) and (2)
//!   compiled    one-shot (compile + run) vs reused-flow management cost
//!   park        uncontended Park terminate: wake elision vs always-wake
//!   counters    always-on counters overhead vs counters disabled
//!   telemetry   live-telemetry (flight + registry + listener) overhead
//!   faults      recovery-policy overhead on a fault-free run vs disabled
//!   numa        locality-weighted remap vs topology-blind mappings
//!   doctor      diagnose Cholesky under round-robin, re-run the remap
//!   tune        closed-loop trace -> diagnose -> remap -> recompile
//!   regress     compare BENCH_repro.json runs against a baseline
//!   baseline    every BENCH_repro.json figure in one process (for --json)
//!   all         run everything
//!
//! Options:
//!   --threads N        thread count (default 4)
//!   --tasks N          task count for synthetic experiments (default 2048)
//!   --reps N           repetitions per point (default 3)
//!   --exp N            fig8 experiment number (default: all four)
//!   --n N              matrix size for fig2/3/4 (default 384)
//!   --tpw N            fig7/compiled tasks per worker (default 8192)
//!   --workers LIST     fig7/compiled worker counts, comma-separated (default 1,2,4,8)
//!   --grid N           doctor/tune Cholesky tile grid (default 8)
//!   --cost N           doctor/tune gemm cost hint, kernel iterations (default 4096)
//!   --baseline FILE    regress baseline records (required for regress)
//!   --current FILE     regress current records (default BENCH_repro.json)
//!   --csv              CSV output
//!   --quick            reduced sweeps
//!   --json             write per-task timings to BENCH_repro.json
//!                      (doctor: write the report to DOCTOR_repro.json;
//!                      tune: write the loop record to TUNE_repro.json)
//!   --assert-faster    (compiled) exit 1 if a reused flow's ns/task exceeds the one-shot's
//!                      (park) exit 1 if the elided path is not faster
//!   --check            (telemetry) scrape the live endpoint during a run,
//!                      validate every exposition, and write the last
//!                      scrape to TELEMETRY_scrape.txt
//!   --assert-overhead  (counters) exit 1 if counters cost more than
//!                      RIO_COUNTERS_THRESHOLD percent (default 1)
//!                      (faults) exit 1 if arming recovery costs more than
//!                      RIO_RECOVERY_THRESHOLD percent (default 1)
//!                      (telemetry) exit 1 if arming the live-telemetry
//!                      stack costs more than RIO_TELEMETRY_THRESHOLD
//!                      percent (default 2)
//!   --assert-improves  (tune) exit 1 if the loop fails to converge or the
//!                      tuned run is not faster than the untuned baseline
//!                      (RIO_TUNE_THRESHOLD percent of headroom, default 0)
//!   --assert-no-regress (numa) exit 1 unless the locality-weighted remap
//!                      strictly beats the topology-blind remap's weighted
//!                      cross-node edge cost (deterministic, no clocks)
//!
//! regress gates with RIO_REGRESS_THRESHOLD percent (default 10).
//! ```

use rio_bench::figures::{self, Options};
use rio_bench::{doctor, json, regress, tune};

fn parse_usize(args: &[String], key: &str, default: usize) -> usize {
    args.windows(2)
        .find(|w| w[0] == key)
        .map(|w| {
            w[1].parse()
                .unwrap_or_else(|_| panic!("bad value for {key}"))
        })
        .unwrap_or(default)
}

fn parse_str(args: &[String], key: &str) -> Option<String> {
    args.windows(2).find(|w| w[0] == key).map(|w| w[1].clone())
}

fn parse_list(args: &[String], key: &str, default: &[usize]) -> Vec<usize> {
    args.windows(2)
        .find(|w| w[0] == key)
        .map(|w| {
            w[1].split(',')
                .map(|x| x.parse().unwrap_or_else(|_| panic!("bad value for {key}")))
                .collect()
        })
        .unwrap_or_else(|| default.to_vec())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = args.first().map(String::as_str).unwrap_or("help");

    let opt = Options {
        threads: parse_usize(&args, "--threads", 4),
        tasks: parse_usize(&args, "--tasks", 2048),
        reps: parse_usize(&args, "--reps", 3),
        csv: args.iter().any(|a| a == "--csv"),
        quick: args.iter().any(|a| a == "--quick"),
    };
    let n = parse_usize(&args, "--n", 384);
    let tpw = parse_usize(&args, "--tpw", 8192);
    let workers = parse_list(&args, "--workers", &[1, 2, 4, 8]);
    let exp = parse_usize(&args, "--exp", 0);
    if args.iter().any(|a| a == "--json") {
        json::enable();
    }

    match cmd {
        "fig2" => {
            figures::fig2(&opt, n);
        }
        "fig3" => {
            figures::fig3(&opt, n);
        }
        "fig4" => {
            figures::fig4(&opt, n);
        }
        "fig6" => {
            figures::fig6(&opt);
        }
        "fig7" => {
            figures::fig7(&opt, tpw, &workers);
        }
        "fig8" => {
            if exp == 0 {
                for e in 1..=4 {
                    figures::fig8(&opt, e);
                }
            } else {
                figures::fig8(&opt, exp);
            }
        }
        "table1" => {
            figures::table1(&opt);
        }
        "protocol" => {
            figures::protocol_table(&opt);
        }
        "patterns" => {
            figures::patterns(&opt);
        }
        "walks" => {
            figures::walks(&opt);
        }
        "mapping" => {
            figures::mapping_quality(&opt);
        }
        "costmodel" => {
            figures::costmodel(&opt);
        }
        "compiled" => {
            let (_, rows) = figures::compiled(&opt, tpw, &workers);
            if args.iter().any(|a| a == "--assert-faster") {
                write_json();
                assert_compiled_faster(&rows);
            }
        }
        "park" => {
            let (_, rows) = figures::park(&opt);
            if args.iter().any(|a| a == "--assert-faster") {
                write_json();
                assert_park_faster(&rows);
            }
        }
        "counters" => {
            let (_, rows) = figures::counters_overhead(&opt, tpw);
            if args.iter().any(|a| a == "--assert-overhead") {
                write_json();
                assert_counters_cheap(&rows);
            }
        }
        "telemetry" => {
            let check = args.iter().any(|a| a == "--check");
            let (_, outcome) = figures::telemetry(&opt, tpw, check);
            if let Some(scrape) = &outcome.scrape {
                let path = std::path::Path::new("TELEMETRY_scrape.txt");
                if let Err(e) = std::fs::write(path, scrape) {
                    eprintln!("cannot write {}: {e}", path.display());
                    std::process::exit(1);
                }
                eprintln!("wrote the last live scrape to {}", path.display());
            }
            if args.iter().any(|a| a == "--assert-overhead") {
                write_json();
                assert_telemetry_cheap(&outcome.rows);
            }
        }
        "faults" => {
            let (_, rows) = figures::faults(&opt, tpw);
            if args.iter().any(|a| a == "--assert-overhead") {
                write_json();
                assert_recovery_cheap(&rows);
            }
        }
        "numa" => {
            let grid = parse_usize(&args, "--grid", 8);
            let cost = parse_usize(&args, "--cost", 4096) as u64;
            let (_, rows) = figures::numa(&opt, grid, cost);
            if args.iter().any(|a| a == "--assert-no-regress") {
                write_json();
                assert_numa_no_regress(&rows);
            }
        }
        "doctor" => {
            let grid = parse_usize(&args, "--grid", 8);
            let cost = parse_usize(&args, "--cost", 4096) as u64;
            let (_, outcome) = doctor::doctor(&opt, grid, cost);
            if json::enabled() {
                let path = std::path::Path::new("DOCTOR_repro.json");
                if let Err(e) = std::fs::write(path, outcome.to_json()) {
                    eprintln!("cannot write {}: {e}", path.display());
                    std::process::exit(1);
                }
                eprintln!("wrote doctor report to {}", path.display());
            }
        }
        "tune" => {
            let grid = parse_usize(&args, "--grid", 8);
            let cost = parse_usize(&args, "--cost", 4096) as u64;
            let (_, outcome) = tune::tune(&opt, grid, cost);
            if json::enabled() {
                let path = std::path::Path::new("TUNE_repro.json");
                if let Err(e) = std::fs::write(path, outcome.to_json()) {
                    eprintln!("cannot write {}: {e}", path.display());
                    std::process::exit(1);
                }
                eprintln!("wrote tuning record to {}", path.display());
            }
            if args.iter().any(|a| a == "--assert-improves") {
                assert_tune_improves(&outcome);
            }
        }
        "regress" => {
            let Some(baseline_path) = parse_str(&args, "--baseline") else {
                eprintln!("regress requires --baseline FILE");
                std::process::exit(2);
            };
            let current_path =
                parse_str(&args, "--current").unwrap_or_else(|| "BENCH_repro.json".to_string());
            let read = |p: &str| {
                std::fs::read_to_string(p).unwrap_or_else(|e| {
                    eprintln!("cannot read {p}: {e}");
                    std::process::exit(1);
                })
            };
            let base = regress::parse(&read(&baseline_path));
            let cur = regress::parse(&read(&current_path));
            let threshold = regress::threshold_from_env();
            let cmp = regress::compare(&base, &cur, threshold);
            print!("{}", cmp.render(threshold));
            if !cmp.passed() {
                for r in cmp.regressions() {
                    eprintln!(
                        "REGRESSION: {} {:.1}ns/task > baseline {:.1}ns/task ({:+.1}%)",
                        r.key, r.current, r.baseline, r.pct
                    );
                }
                std::process::exit(1);
            }
        }
        "baseline" => {
            // The committed-baseline sweep: every figure that feeds
            // BENCH_repro.json, in one process, so a single `--json` run
            // rewrites the whole file coherently (the JSON sink is
            // drained into the file once, on exit).
            figures::fig6(&opt);
            figures::fig7(&opt, tpw, &workers);
            figures::compiled(&opt, tpw, &workers);
            figures::park(&opt);
            figures::faults(&opt, tpw);
            figures::numa(&opt, 8, 4096);
        }
        "all" => {
            figures::table1(&opt);
            figures::protocol_table(&opt);
            figures::fig3(&opt, n);
            figures::fig2(&opt, n);
            figures::fig4(&opt, n);
            figures::fig6(&opt);
            figures::fig7(&opt, tpw, &workers);
            figures::compiled(&opt, tpw, &workers);
            figures::park(&opt);
            figures::counters_overhead(&opt, tpw);
            figures::telemetry(&opt, tpw, false);
            figures::faults(&opt, tpw);
            figures::numa(&opt, 8, 4096);
            doctor::doctor(&opt, 8, 4096);
            tune::tune(&opt, 8, 4096);
            for e in 1..=4 {
                figures::fig8(&opt, e);
            }
            figures::costmodel(&opt);
            figures::patterns(&opt);
            figures::mapping_quality(&opt);
            figures::walks(&opt);
        }
        _ => {
            eprintln!("usage: repro <fig2|...|table1|protocol|patterns|walks|mapping|costmodel|compiled|park|counters|telemetry|faults|numa|doctor|tune|regress|baseline|all> [options]");
            eprintln!("options: --threads N --tasks N --reps N --exp N --n N --tpw N --workers LIST --grid N --cost N --baseline FILE --current FILE --csv --quick --json --check --assert-faster --assert-overhead --assert-improves --assert-no-regress");
            std::process::exit(if cmd == "help" || cmd == "--help" {
                0
            } else {
                2
            });
        }
    }
    write_json();
}

/// Drains the JSON sink into `BENCH_repro.json` when `--json` was passed
/// (no-op otherwise; idempotent because draining empties the sink).
fn write_json() {
    if json::enabled() {
        let path = std::path::Path::new("BENCH_repro.json");
        match json::write(path) {
            Ok(0) => {}
            Ok(n) => eprintln!("wrote {n} records to {}", path.display()),
            Err(e) => {
                eprintln!("cannot write {}: {e}", path.display());
                std::process::exit(1);
            }
        }
    }
}

/// The CI gate behind `compiled --assert-faster`: a steady run of a reused
/// flow must never manage the independent-task workload slower than the
/// one-shot, which pays for the same run plus the compile.
fn assert_compiled_faster(rows: &[figures::CompiledRow]) {
    let mut ok = true;
    for r in rows {
        if r.compiled_ns > r.oneshot_ns {
            eprintln!(
                "REGRESSION: compiled {:.1}ns/task > one-shot {:.1}ns/task \
                 at {} workers / {} tasks",
                r.compiled_ns, r.oneshot_ns, r.workers, r.tasks
            );
            ok = false;
        }
    }
    if !ok {
        std::process::exit(1);
    }
    eprintln!("compiled <= one-shot on all {} rows", rows.len());
}

/// The CI gate behind `park --assert-faster`: the wake-elided terminate
/// path must beat the emulated always-wake path on every measured op.
fn assert_park_faster(rows: &[figures::ParkRow]) {
    let mut ok = true;
    for r in rows {
        if r.elided_ns > r.always_wake_ns {
            eprintln!(
                "REGRESSION: elided terminate_{} {:.1}ns/op > always-wake {:.1}ns/op",
                r.op, r.elided_ns, r.always_wake_ns
            );
            ok = false;
        }
    }
    if !ok {
        std::process::exit(1);
    }
    eprintln!("wake elision faster on all {} ops", rows.len());
}

/// The CI gate behind `tune --assert-improves`: the closed loop must
/// converge within its iteration cap AND the plan it settles on must beat
/// the untuned round-robin baseline in the best-of-reps re-measurement,
/// up to `RIO_TUNE_THRESHOLD` percent of wall-clock noise headroom
/// (default 0: strictly faster). Hosted runners need the headroom for
/// the same reason the regress gate does — two best-of-reps walls a few
/// hundred µs apart land well inside scheduler jitter.
fn assert_tune_improves(outcome: &rio_bench::tune::TuneOutcome) {
    let threshold: f64 = std::env::var("RIO_TUNE_THRESHOLD")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.0);
    let mut ok = true;
    if !outcome.converged {
        eprintln!(
            "REGRESSION: tuning loop hit its cap after {} iterations without converging",
            outcome.iterations.len()
        );
        ok = false;
    }
    let delta = outcome.delta_pct();
    if delta >= threshold {
        eprintln!(
            "REGRESSION: tuned run not faster than untuned baseline ({delta:+.1}%, allowed < {threshold:+.1}%)"
        );
        ok = false;
    }
    if !ok {
        std::process::exit(1);
    }
    eprintln!(
        "tune converged in {} iterations, {delta:+.1}% vs untuned",
        outcome.iterations.len()
    );
}

/// The CI gate behind `numa --assert-no-regress`, on the deterministic
/// weighted-cost metric (no clocks, so no flake budget):
///
/// * the locality-weighted remap must *strictly* reduce the weighted
///   cross-node edge cost vs the topology-blind remap;
/// * and must not cost more than the untouched round-robin baseline.
fn assert_numa_no_regress(rows: &[figures::NumaRow]) {
    let cost_of = |name: &str| {
        rows.iter()
            .find(|r| r.mapping == name)
            .unwrap_or_else(|| panic!("numa figure produced no `{name}` row"))
            .weighted_cost
    };
    let rr = cost_of("round-robin");
    let unweighted = cost_of("remap-unweighted");
    let weighted = cost_of("remap-weighted");
    let mut ok = true;
    if weighted >= unweighted {
        eprintln!(
            "REGRESSION: weighted remap cost {weighted} not strictly below \
             topology-blind remap cost {unweighted}"
        );
        ok = false;
    }
    if weighted > rr {
        eprintln!("REGRESSION: weighted remap cost {weighted} above round-robin cost {rr}");
        ok = false;
    }
    if !ok {
        std::process::exit(1);
    }
    eprintln!("weighted remap cost {weighted} < topology-blind {unweighted} (round-robin {rr})");
}

/// The CI gate behind `faults --assert-overhead`: arming a
/// `RecoveryPolicy` on a fault-free run must stay below
/// `RIO_RECOVERY_THRESHOLD` percent (default 1) of the recovery-disabled
/// walltime on every measured row.
fn assert_recovery_cheap(rows: &[figures::FaultsRow]) {
    let threshold: f64 = std::env::var("RIO_RECOVERY_THRESHOLD")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1.0);
    let mut ok = true;
    for r in rows {
        let pct = r.overhead_pct();
        if pct > threshold {
            eprintln!(
                "REGRESSION: recovery overhead {:+.2}% > {:.2}% at {} workers / {} tasks",
                pct, threshold, r.workers, r.tasks
            );
            ok = false;
        }
    }
    if !ok {
        std::process::exit(1);
    }
    eprintln!(
        "recovery overhead <= {threshold:.2}% on all {} rows",
        rows.len()
    );
}

/// The CI gate behind `telemetry --assert-overhead`: arming the live
/// telemetry stack — flight recorder, shared counter registry, run
/// registry, bound scrape listener — must stay below
/// `RIO_TELEMETRY_THRESHOLD` percent (default 2) of the all-off walltime
/// on every measured row.
fn assert_telemetry_cheap(rows: &[figures::TelemetryRow]) {
    let threshold: f64 = std::env::var("RIO_TELEMETRY_THRESHOLD")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(2.0);
    let mut ok = true;
    for r in rows {
        let pct = r.overhead_pct();
        if pct > threshold {
            eprintln!(
                "REGRESSION: telemetry overhead {:+.2}% > {:.2}% at {} workers / {} tasks",
                pct, threshold, r.workers, r.tasks
            );
            ok = false;
        }
    }
    if !ok {
        std::process::exit(1);
    }
    eprintln!(
        "telemetry overhead <= {threshold:.2}% on all {} rows",
        rows.len()
    );
}

/// The CI gate behind `counters --assert-overhead`: the always-on counter
/// increments must stay below `RIO_COUNTERS_THRESHOLD` percent (default 1)
/// of the counters-off walltime on every measured row.
fn assert_counters_cheap(rows: &[figures::CountersRow]) {
    let threshold: f64 = std::env::var("RIO_COUNTERS_THRESHOLD")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1.0);
    let mut ok = true;
    for r in rows {
        let pct = r.overhead_pct();
        if pct > threshold {
            eprintln!(
                "REGRESSION: counters overhead {:+.2}% > {:.2}% at {} workers / {} tasks",
                pct, threshold, r.workers, r.tasks
            );
            ok = false;
        }
    }
    if !ok {
        std::process::exit(1);
    }
    eprintln!(
        "counters overhead <= {threshold:.2}% on all {} rows",
        rows.len()
    );
}
