//! The merge-path sparse stack's benchmark: one workload per process.
//!
//! ```text
//! mps-perfbench --workload <serve|suite|amg-transient> --seed <n> \
//!               --seconds <s> --trace <0|1> [--tiny]
//! ```
//!
//! A run sets the workload up several times, in windows of set-ups, then
//! executes whole rounds of ops until `--seconds` have passed and at least
//! the workload's minimum round count is done. Every result is checked
//! outside the timed spans. Host timings are taken per window (of set-ups,
//! or of `min_rounds` rounds) and the best window is reported: every
//! window does the same work, so only interference differs between them.
//! The last stdout line is one JSON object: `{"correct", "attempted",
//! "failed", "metrics"}`, holding the end-to-end metrics with `--trace 0`
//! and the per-layer metrics with `--trace 1`. The line before it records
//! provenance (seed, nproc, LLC size, working set, tail percentile, sample
//! counts, per-window medians and the process's resource counters). Any
//! failed op makes the exit code 1.
//!
//! In a traced run, untraced and traced rounds alternate; the traced ones
//! time the calls into each crate from here, and the ratio of their op
//! latencies is the tracing overhead.

mod amg;
mod report;
mod serve;
mod suite;

use std::ffi::c_long;
use std::time::{Duration, Instant};

use report::{
    json_list, json_num, json_str, median, metric, metrics_json, object, Metric, Recorder,
    WindowStats,
};

/// Set-up is timed in windows, like the ops: a window holds at least
/// `SETUP_WINDOW_REPS` set-ups and `SETUP_WINDOW_S` seconds of them, and a
/// run (except with `--tiny`) makes at least `SETUP_WINDOWS` windows and
/// `SETUP_MIN_S` seconds of set-up. `setup_s` is the lowest window median.
const SETUP_WINDOW_REPS: usize = 3;
const SETUP_WINDOW_S: f64 = 0.05;
const SETUP_WINDOWS: usize = 3;
const SETUP_MIN_S: f64 = 5.0;

#[derive(Debug, Clone)]
pub struct Opts {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Small inputs and the minimum round count: the smoke-test size.
    pub tiny: bool,
}

/// One benchmark workload. Rounds are the unit of work: each round runs a
/// fixed, seed-determined multiset of ops, so the first `min_rounds` form
/// a deterministic prefix that fixes `sim_ms_per_op` and the exact
/// counters whatever the run length.
pub trait Workload: Sized {
    /// Percentile reported as `tail_us`: the highest with at least ten
    /// samples beyond it in `min_rounds` rounds.
    const TAIL_PERCENTILE: f64;

    /// Rounds per window of the best-window rule: enough ops that one
    /// slow op does not move the window's median. `min_rounds` is a
    /// multiple; the tail pools that many rounds of the best windows, the
    /// fewest that give it ten samples beyond.
    const WINDOW_ROUNDS: u64;

    /// Seeded choices made once per run, before the timed set-ups: input
    /// draws whose cost depends on the seed (rejection sampling), so that
    /// set-up does the same work for every seed.
    type Choices;

    fn choose(opts: &Opts) -> Self::Choices;

    /// Generate inputs, register them, and warm every plan the timed
    /// rounds use.
    fn setup(opts: &Opts, choices: &Self::Choices) -> Self;

    /// Rounds every run completes, whatever `--seconds` says.
    fn min_rounds(&self) -> u64;

    /// Run round `round`, recording every op into `rec`; `traced` adds the
    /// layer-call timings. Returns the simulated device ms the round
    /// charged.
    fn round(&mut self, round: u64, traced: bool, rec: &mut Recorder) -> f64;

    /// Per-layer metrics from the traced rounds' recorder.
    fn layers(&mut self, traced: &Recorder) -> Vec<Metric>;

    /// Bytes of the inputs the timed rounds touch, computed from array
    /// sizes.
    fn working_set_bytes(&self) -> usize;

    /// Order-sensitive digest of the generated inputs (a different seed
    /// must change it).
    fn input_digest(&self) -> u64;
}

/// Names of every per-layer metric, in report order, with units. A metric
/// a workload does not exercise reads 0.
pub const LAYER_METRICS: &[(&str, &str)] = &[
    ("engine.plan_lookup_ns_per_nnz", "ns"),
    ("engine.direct_spmv_ns_per_nnz", "ns"),
    ("engine.direct_overhead_x", "x"),
    ("core.spmv_exec_ns_per_nnz", "ns"),
    ("core.spmm_exec_ns_per_nnz", "ns"),
    ("core.rowwise_ns_per_nnz", "ns"),
    ("core.spmv_gbps_computed", "GB/s"),
    ("core.host_rho_time_nnz", "ratio"),
    ("simt.sim_gflops", "GFLOP/s"),
    ("simt.spmv_frac.partition", "ratio"),
    ("simt.spmv_frac.reduction", "ratio"),
    ("simt.spmv_frac.update", "ratio"),
    ("simt.spgemm_frac.setup", "ratio"),
    ("simt.spgemm_frac.block_sort", "ratio"),
    ("simt.spgemm_frac.global_sort", "ratio"),
    ("simt.spgemm_frac.product_compute", "ratio"),
    ("simt.spgemm_frac.product_reduce", "ratio"),
    ("simt.spgemm_frac.numeric_tiny", "ratio"),
    ("simt.spgemm_frac.numeric_mid", "ratio"),
    ("simt.spgemm_frac.other", "ratio"),
    ("service.submit_us", "us"),
    ("service.flush_us", "us"),
    ("service.take_us", "us"),
    ("service.update_us", "us"),
    ("engine.cache_hit_rate", "ratio"),
    ("engine.batch_mean", "count"),
    ("engine.plan_build_sim_ms", "ms"),
    ("engine.pool_reuse_rate", "ratio"),
    ("engine.rejections", "count"),
    ("solvers.amg_setup_ms", "ms"),
    ("solvers.vcycle_ms", "ms"),
    ("solvers.krylov_rest_ms", "ms"),
    ("solvers.iters_per_solve", "count"),
    ("solvers.operator_complexity", "ratio"),
    ("trace.overhead_x", "x"),
    ("trace.uncovered_share", "ratio"),
];

fn parse_args() -> Result<Opts, String> {
    let mut opts = Opts {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        tiny: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if flag == "--tiny" {
            opts.tiny = true;
            continue;
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => opts.workload = value.clone(),
            "--seed" => opts.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => opts.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(opts.seconds.is_finite() && opts.seconds >= 0.0) {
        return Err("--seconds must be a non-negative number".into());
    }
    Ok(opts)
}

/// Peak resident set of this process (VmHWM), MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Size of the highest-level CPU cache, bytes (0 if unknown).
fn llc_bytes() -> u64 {
    let mut best = (0u32, 0u64);
    for i in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{i}");
        let read = |f: &str| std::fs::read_to_string(format!("{dir}/{f}")).ok();
        let (Some(level), Some(size)) = (read("level"), read("size")) else {
            continue;
        };
        let level: u32 = level.trim().parse().unwrap_or(0);
        let size = size.trim();
        let bytes = match size.strip_suffix('K') {
            Some(k) => k.parse::<u64>().unwrap_or(0) * 1024,
            None => match size.strip_suffix('M') {
                Some(m) => m.parse::<u64>().unwrap_or(0) << 20,
                None => size.parse().unwrap_or(0),
            },
        };
        if level > best.0 {
            best = (level, bytes);
        }
    }
    best.1
}

/// Resource counters of this process (`getrusage(RUSAGE_SELF)`, summed
/// over every thread), so a slow run can be told apart from a slow machine.
#[derive(Debug, Clone, Copy, Default)]
struct Usage {
    user_s: f64,
    sys_s: f64,
    minflt: c_long,
    majflt: c_long,
    nvcsw: c_long,
    nivcsw: c_long,
}

impl Usage {
    fn now() -> Usage {
        use std::ffi::c_int;
        extern "C" {
            fn getrusage(who: c_int, usage: *mut c_long) -> c_int;
        }
        // `struct rusage` on Linux: two `timeval`s, then fourteen longs.
        let mut ru: [c_long; 18] = [0; 18];
        // SAFETY: `ru` has the size and alignment of `struct rusage`, which
        // getrusage only writes.
        if unsafe { getrusage(0, ru.as_mut_ptr()) } != 0 {
            return Usage::default();
        }
        let secs = |s: c_long, us: c_long| s as f64 + us as f64 * 1e-6;
        Usage {
            user_s: secs(ru[0], ru[1]),
            sys_s: secs(ru[2], ru[3]),
            minflt: ru[8],
            majflt: ru[9],
            nvcsw: ru[16],
            nivcsw: ru[17],
        }
    }

    /// The counters accrued since `earlier`, as a JSON object.
    fn since(&self, earlier: &Usage) -> String {
        object(&[
            ("user_s", json_num(self.user_s - earlier.user_s)),
            ("sys_s", json_num(self.sys_s - earlier.sys_s)),
            ("minflt", (self.minflt - earlier.minflt).to_string()),
            ("majflt", (self.majflt - earlier.majflt).to_string()),
            ("nvcsw", (self.nvcsw - earlier.nvcsw).to_string()),
            ("nivcsw", (self.nivcsw - earlier.nivcsw).to_string()),
        ])
    }
}

/// Everything one run measured.
struct Outcome {
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
    provenance: Vec<(&'static str, String)>,
    failures: Vec<String>,
}

fn run<W: Workload>(opts: &Opts) -> Outcome {
    // Set-up: repeat in windows, keep the last instance. The first
    // repetition is the cold one (fresh heap, idle worker pool).
    let choices = W::choose(opts);
    let mut setup_windows: Vec<Vec<f64>> = Vec::new();
    let mut w = None;
    loop {
        let mut window: Vec<f64> = Vec::new();
        while window.len() < SETUP_WINDOW_REPS || window.iter().sum::<f64>() < SETUP_WINDOW_S {
            drop(w.take());
            let t = Instant::now();
            w = Some(W::setup(opts, &choices));
            window.push(t.elapsed().as_secs_f64());
        }
        setup_windows.push(window);
        let total: f64 = setup_windows.iter().flatten().sum();
        if opts.tiny || (setup_windows.len() >= SETUP_WINDOWS && total >= SETUP_MIN_S) {
            break;
        }
    }
    let mut w = w.expect("at least one set-up");
    let setup_medians: Vec<f64> = setup_windows.iter().map(|w| median(w)).collect();
    let setup_s = setup_medians.iter().copied().fold(f64::INFINITY, f64::min);

    let min_rounds = w.min_rounds();
    let budget = Duration::from_secs_f64(opts.seconds);
    let mut plain = Recorder::default();
    let mut traced = Recorder::default();
    let (mut prefix_sim_ms, mut prefix_ops) = (0.0, 0usize);
    let usage_start = Usage::now();
    let start = Instant::now();
    let mut round = 0u64;
    while round < min_rounds || (!opts.tiny && start.elapsed() < budget) {
        // Traced runs alternate plain and traced rounds so the overhead
        // ratio compares interleaved rounds.
        let is_traced = opts.trace && round % 2 == 1;
        let rec = if is_traced { &mut traced } else { &mut plain };
        let before = rec.ops();
        let sim_ms = w.round(round, is_traced, rec);
        rec.end_round();
        if round < min_rounds {
            prefix_sim_ms += sim_ms;
            prefix_ops += rec.ops() - before;
        }
        round += 1;
    }
    let wall_s = start.elapsed().as_secs_f64();
    let timed_usage = Usage::now().since(&usage_start);

    let attempted = (plain.ops() + traced.ops()) as u64;
    let failed = plain.failed + traced.failed;
    let mut failures = plain.failures.clone();
    failures.extend(traced.failures.iter().cloned());

    let tail_p = W::TAIL_PERCENTILE;
    // Best windows: every window runs the same ops, so only interference
    // from outside the program differs between them.
    let windows = plain.window_stats(W::WINDOW_ROUNDS as usize);
    // A `--tiny` run may hold fewer rounds than one window.
    let tail_pool = ((min_rounds / W::WINDOW_ROUNDS) as usize).max(1);
    let lowest = |f: fn(&WindowStats) -> f64| windows.iter().map(f).fold(f64::INFINITY, f64::min);
    let window_p50: Vec<f64> = windows.iter().map(|w| w.p50_us).collect();
    let mut provenance: Vec<(&'static str, String)> = vec![
        ("workload", json_str(&opts.workload)),
        ("seed", opts.seed.to_string()),
        ("trace", (opts.trace as u8).to_string()),
        (
            "nproc",
            std::thread::available_parallelism()
                .map_or(1, |n| n.get())
                .to_string(),
        ),
        ("llc_bytes", llc_bytes().to_string()),
        ("working_set_bytes", w.working_set_bytes().to_string()),
        (
            "input_digest",
            json_str(&format!("{:016x}", w.input_digest())),
        ),
        ("rounds", round.to_string()),
        ("prefix_rounds", min_rounds.to_string()),
        ("prefix_ops", prefix_ops.to_string()),
        ("wall_s", json_num(wall_s)),
        ("busy_s", json_num(plain.busy_s + traced.busy_s)),
        (
            "setup_reps",
            setup_windows
                .iter()
                .map(Vec::len)
                .sum::<usize>()
                .to_string(),
        ),
        ("setup_cold_s", json_num(setup_windows[0][0])),
        ("setup_windows", setup_windows.len().to_string()),
        (
            "setup_window_median_s_min_median_max",
            json_list(&[0.0, 0.5, 1.0].map(|q| report::quantile(&setup_medians, q))),
        ),
        ("tail_percentile", json_num(tail_p)),
        ("latency_samples", plain.ops().to_string()),
        ("window_rounds", W::WINDOW_ROUNDS.to_string()),
        ("windows", windows.len().to_string()),
        (
            "tail_pooled_windows",
            tail_pool.min(windows.len()).to_string(),
        ),
        (
            "window_p50_us_min_q1_median_q3_max",
            json_list(&[0.0, 0.25, 0.5, 0.75, 1.0].map(|q| report::quantile(&window_p50, q))),
        ),
        ("timed_usage", timed_usage),
    ];

    let metrics = if opts.trace {
        let mut layers = w.layers(&traced);
        let overhead = report::ratio(median(&traced.lat_us), median(&plain.lat_us));
        layers.push(metric("trace.overhead_x", "x", overhead));
        provenance.push(("traced_ops", traced.ops().to_string()));
        provenance.push(("untraced_p50_us", json_num(median(&plain.lat_us))));
        provenance.push(("traced_p50_us", json_num(median(&traced.lat_us))));
        // Report in the declared order; a layer the workload does not
        // exercise reads 0.
        LAYER_METRICS
            .iter()
            .map(|&(name, unit)| {
                let value = layers.iter().find(|m| m.name == name).map_or(0.0, |m| {
                    assert_eq!(m.unit, unit, "unit of {name}");
                    m.value
                });
                metric(name, unit, value)
            })
            .collect()
    } else {
        vec![
            metric("setup_s", "s", setup_s),
            metric("peak_rss_mb", "MB", peak_rss_mb()),
            metric(
                "ops_per_s",
                "1/s",
                windows.iter().map(|w| w.ops_per_s).fold(0.0, f64::max),
            ),
            metric("p50_us", "us", lowest(|w| w.p50_us)),
            metric(
                "tail_us",
                "us",
                plain.pooled_quantile(&windows, tail_pool, tail_p / 100.0),
            ),
            metric("ns_per_nnz_p50", "ns", lowest(|w| w.ns_per_work_p50)),
            metric("sim_ms_per_op", "ms", prefix_sim_ms / prefix_ops as f64),
            metric(
                "success_rate",
                "ratio",
                1.0 - failed as f64 / attempted as f64,
            ),
        ]
    };
    Outcome {
        attempted,
        failed,
        metrics,
        provenance,
        failures,
    }
}

fn main() {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("mps-perfbench: {e}");
            std::process::exit(2);
        }
    };
    let out = match opts.workload.as_str() {
        "serve" => run::<serve::Serve>(&opts),
        "suite" => run::<suite::Suite>(&opts),
        "amg-transient" => run::<amg::AmgTransient>(&opts),
        other => {
            eprintln!("mps-perfbench: unknown workload {other:?} (serve, suite, amg-transient)");
            std::process::exit(2);
        }
    };
    for f in &out.failures {
        eprintln!("mps-perfbench: FAILED {f}");
    }
    println!("{}", object(&[("provenance", object(&out.provenance))]));
    println!(
        "{}",
        object(&[
            ("correct", (out.failed == 0).to_string()),
            ("attempted", out.attempted.to_string()),
            ("failed", out.failed.to_string()),
            ("metrics", metrics_json(&out.metrics)),
        ])
    );
    if out.failed > 0 {
        std::process::exit(1);
    }
}
