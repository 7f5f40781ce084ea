//! What the benchmark promises: its metrics, their units, directions and
//! regression bounds, and which end-to-end number each layer metric should
//! move. `BENCHMARK.json` at the repository root is generated from these
//! tables (`-- --emit-contract`) and a unit test keeps the two identical.

use crate::json::Json;
use crate::workloads;

/// Seconds one driver run measures (`--seconds`); also the default.
pub const RUN_SECONDS: u64 = 15;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// The end-to-end metric and workload this layer metric should move.
    pub moves: &'static str,
}

use Better::{Higher, Lower};

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

/// What a user of the runtime sees, per workload. `failed_share` is printed
/// and written to `result.json` too, but reaches the driver as
/// `failed / attempted`: a metric that is 0 on correct code has no bound.
/// So is `peak_rss_mb`, which does not repeat (see `heap`).
///
/// The bounds are what this machine resolves, not what one would wish for:
/// the issue asked for 0.08 to 0.10, but the host's noisy phases, minutes
/// long, moved the fastest `oneshot` of `indep-fine` by 15 % between two sets
/// of ten runs and the fastest `steady` of `cholesky-fine` by 17 % between
/// the two rounds of one process, and single-threaded `compile` comes in two
/// speeds 9 % apart from process to process (README, "Observed spreads").
/// Every timing therefore has the widest bound the driver takes.
pub const END_TO_END: [EndToEnd; 6] = [
    e2e("setup_s", "s", Lower, 0.25),
    e2e("steady_ns_per_task", "ns/task", Lower, 0.25),
    e2e("oneshot_ns_per_task", "ns/task", Lower, 0.25),
    e2e("compile_ns_per_task", "ns/task", Lower, 0.25),
    e2e("parallel_efficiency", "ratio", Higher, 0.25),
    e2e("peak_heap_mb", "MB", Lower, 0.10),
];

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        moves,
    }
}

const ONESHOT_INDEP: &str =
    "oneshot_ns_per_task on indep-fine (the n*t_r term); no change on cholesky-coarse";
const STEADY_INDEP: &str = "steady_ns_per_task on indep-fine; no change on cholesky-coarse";
const STEADY_CHOLESKY: &str = "steady_ns_per_task and parallel_efficiency on cholesky-fine, bounded below by doctor.critical_path_share; no change on indep-fine";
const COMPILE_INDEP: &str = "compile_ns_per_task and setup_s on indep-fine";
const CONTEXT: &str = "context: no end-to-end metric should move with it alone";

/// Single layers, measured by the traced run. Prefix = module.
pub const PER_LAYER: [PerLayer; 41] = [
    // Floors: loops of >= 10^6 calls into public functions.
    layer("protocol.declare_ns", "ns/op", Lower, ONESHOT_INDEP),
    layer("protocol.sync_apply_ns", "ns/op", Lower, STEADY_INDEP),
    layer("protocol.get_ready_ns", "ns/op", Lower, STEADY_INDEP),
    layer("protocol.terminate_write_elided_ns", "ns/op", Lower, STEADY_INDEP),
    layer(
        "protocol.terminate_read_elided_ns",
        "ns/op",
        Lower,
        "steady_ns_per_task on indep-fine and on randdeps-fine",
    ),
    layer("park.wake_handoff_ns", "ns/op", Lower, STEADY_CHOLESKY),
    layer("wait.spin_handoff_ns", "ns/op", Lower, STEADY_CHOLESKY),
    layer("counters.bump_ns", "ns/op", Lower, STEADY_INDEP),
    layer("flight.record_ns", "ns/op", Lower, STEADY_INDEP),
    layer(
        "steal.claim_ns",
        "ns/op",
        Lower,
        "none while stealing is off by default; steady_ns_per_task on cholesky-fine once armed",
    ),
    layer("stf.seq_walk_ns_per_task", "ns/task", Lower, ONESHOT_INDEP),
    layer("workloads.gen_ns_per_task", "ns/task", Lower, "setup_s on every workload"),
    layer("compile.w64_ns_per_task", "ns/task", Lower, ONESHOT_INDEP),
    // Exact counts.
    layer("compile.instructions", "count", Lower, COMPILE_INDEP),
    layer(
        "compile.folded_declares",
        "count",
        Lower,
        "steady_ns_per_task on indep-fine, through protocol.syncs",
    ),
    layer(
        "compile.irrelevant_declares",
        "count",
        Higher,
        "steady_ns_per_task against oneshot_ns_per_task on indep-fine",
    ),
    layer("compile.coalesce_factor", "ratio", Higher, COMPILE_INDEP),
    layer("protocol.declares", "count", Lower, ONESHOT_INDEP),
    layer("protocol.syncs", "count", Lower, STEADY_INDEP),
    layer(
        "protocol.gets",
        "count",
        Lower,
        "none: must equal the graph's access count",
    ),
    layer(
        "protocol.terminates",
        "count",
        Lower,
        "none: must equal the graph's access count",
    ),
    // From the traced run.
    layer(
        "executor.task_ns_per_task",
        "ns/task",
        Lower,
        "about stf.seq_ns_per_task on cholesky-coarse, where every other layer should be < 5 % of wall",
    ),
    layer("executor.idle_ns_per_task", "ns/task", Lower, STEADY_CHOLESKY),
    layer("executor.runtime_ns_per_task", "ns/task", Lower, STEADY_INDEP),
    layer(
        "executor.launch_ns_per_task",
        "ns/task",
        Lower,
        "steady_ns_per_task on indep-fine (per-run tables) and cholesky-fine (thread spawn and join); no change on cholesky-coarse",
    ),
    layer(
        "executor.budget_residual_share",
        "share",
        Lower,
        "none: task + idle + runtime + launch must sum to workers x wall (<= 0.05 or the run fails)",
    ),
    layer(
        "executor.steady_tail_ns_per_task",
        "ns/task",
        Lower,
        "the slow runs behind steady_ns_per_task, on every workload",
    ),
    layer(
        "protocol.wait_share",
        "share",
        Lower,
        "steady_ns_per_task on cholesky-fine and randdeps-fine; must stay 0 on indep-fine",
    ),
    layer("protocol.polls_per_wait", "count", Lower, STEADY_CHOLESKY),
    layer(
        "park.parks",
        "count",
        Lower,
        "steady_ns_per_task and parallel_efficiency on cholesky-fine; must stay 0 on indep-fine",
    ),
    layer("park.wakes_elided_share", "share", Higher, STEADY_CHOLESKY),
    layer(
        "steal.steals",
        "count",
        Lower,
        "none while stealing is off by default: must stay 0",
    ),
    layer("metrics.e_p", "ratio", Higher, STEADY_CHOLESKY),
    layer(
        "metrics.e_r",
        "ratio",
        Higher,
        "steady_ns_per_task and parallel_efficiency on indep-fine",
    ),
    layer(
        "doctor.critical_path_share",
        "share",
        Higher,
        "the floor under steady_ns_per_task on cholesky-fine: at 1 the mapping, not the runtime, limits the run",
    ),
    layer(
        "doctor.imbalance_factor",
        "ratio",
        Lower,
        "parallel_efficiency on the cholesky workloads (a property of the mapping)",
    ),
    layer(
        "trace.overhead_share",
        "share",
        Lower,
        "none: the cost of looking, traced against untraced steady",
    ),
    layer("extras.observe_share", "share", Lower, STEADY_INDEP),
    layer(
        "compile.breakeven_runs",
        "runs",
        Lower,
        "work moved from run into compile: steady_ns_per_task down with compile_ns_per_task and setup_s up",
    ),
    layer("centralized.ns_per_task", "ns/task", Lower, CONTEXT),
    layer(
        "stf.seq_ns_per_task",
        "ns/task",
        Lower,
        "the numerator of parallel_efficiency on every workload",
    ),
];

/// The repository's `BENCHMARK.json`.
pub fn benchmark_json() -> Json {
    let strs = |items: &[&str]| Json::Arr(items.iter().map(|s| Json::str(*s)).collect());
    Json::obj([
        (
            "command",
            strs(&[
                "cargo",
                "run",
                "--release",
                "--offline",
                "--manifest-path",
                "benchmark/Cargo.toml",
                "--",
            ]),
        ),
        ("paths", strs(&["benchmark"])),
        ("run_seconds", Json::Int(RUN_SECONDS)),
        (
            "workloads",
            Json::Arr(
                workloads::all()
                    .iter()
                    .map(|w| Json::obj([("name", Json::str(w.name)), ("why", Json::str(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.label())),
                            ("bound", Json::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.label())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn well_formed(name: &str, max: usize, extra: &str) -> bool {
        !name.is_empty()
            && name.len() <= max
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
    }

    #[test]
    fn benchmark_json_is_generated_from_these_tables() {
        let on_disk = include_str!("../../BENCHMARK.json");
        assert_eq!(
            on_disk.trim_end(),
            benchmark_json().to_string(),
            "regenerate with `-- --emit-contract > BENCHMARK.json`"
        );
    }

    #[test]
    fn names_and_units_stay_inside_the_drivers_limits() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name))
            .chain(workloads::all().iter().map(|w| w.name))
            .collect();
        for name in &names {
            assert!(well_formed(name, 64, "_.-"), "{name}");
            assert!(name.chars().next().unwrap().is_ascii_alphanumeric());
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        for unit in END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.unit))
        {
            assert!(well_formed(unit, 16, "_/%.-"), "{unit}");
        }
        for w in workloads::all() {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("the driver requires setup_s");
        assert!(setup.unit == "s" && setup.better == Better::Lower);
        assert!(
            END_TO_END.iter().all(|m| m.bound <= setup.bound),
            "setup_s has the largest bound"
        );
        assert!((1..=60).contains(&RUN_SECONDS));
    }
}
