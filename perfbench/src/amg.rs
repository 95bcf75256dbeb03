//! `amg-transient`: implicit time stepping on a fixed-pattern SPD
//! operator. Each step (one op) writes a seeded change into the operator's
//! values, rebuilds the smoothed-aggregation hierarchy
//! (`AmgHierarchy::build`: Galerkin SpGEMM / SpAdd), and solves with
//! AMG-preconditioned `pcg` to a fixed tolerance. The solver and SpGEMM
//! set-up do all the work; `Engine` and `Service` do none.

use std::cell::Cell;
use std::time::{Duration, Instant};

use mps_core::format_spmv::spmv_rowwise;
use mps_core::Workspace;
use mps_simt::trace::Phase;
use mps_simt::Device;
use mps_solvers::{pcg, AmgHierarchy, AmgOptions, Preconditioner, SolveReport, SolverOptions};
use mps_sparse::{gen, CsrMatrix};

use crate::report::{median, metric, ratio, Metric, Recorder, Rng};
use crate::{Opts, Workload};

/// Grid side of the 5-point operator. A step takes about 7 ms, so a
/// window of `WINDOW_ROUNDS` steps lasts about 0.07 s: the host's speed
/// swings by up to 1.7x within a second, and the best-window rule needs
/// windows that fit between the swings.
const GRID: usize = 24;
const TINY_GRID: usize = 16;
/// Relative residual every solve must reach, checked on the true residual.
const TOLERANCE: f64 = 1e-8;
const MAX_ITERATIONS: usize = 200;
/// 100 steps: p90 has 10 samples beyond it.
const MIN_ROUNDS: u64 = 100;
const TINY_ROUNDS: u64 = 4;

/// Every phase the SpGEMM charges, with its metric name: the paper's six
/// (Fig. 11) plus the bin-adaptive plan's numeric passes over tiny and mid
/// rows, which take the rows with few products (only heavy rows reach
/// product compute / reduce).
const SPGEMM_PHASES: [(Phase, &str); 8] = [
    (Phase::Setup, "simt.spgemm_frac.setup"),
    (Phase::BlockSort, "simt.spgemm_frac.block_sort"),
    (Phase::GlobalSort, "simt.spgemm_frac.global_sort"),
    (Phase::ProductCompute, "simt.spgemm_frac.product_compute"),
    (Phase::ProductReduce, "simt.spgemm_frac.product_reduce"),
    (Phase::NumericTiny, "simt.spgemm_frac.numeric_tiny"),
    (Phase::NumericMid, "simt.spgemm_frac.numeric_mid"),
    (Phase::Other, "simt.spgemm_frac.other"),
];

/// Phases the hierarchy build charges outside the SpGEMM: the power
/// iteration's SpMVs and BLAS-1, the prolongator SpAdd, and the level
/// plans' partitions.
const BUILD_OTHER_PHASES: [Phase; 8] = [
    Phase::Partition,
    Phase::EmptyRowFixup,
    Phase::Reduction,
    Phase::Update,
    Phase::Expand,
    Phase::Count,
    Phase::Fill,
    Phase::Blas1,
];

/// Times every V-cycle `pcg` applies through it.
struct TimedPreconditioner<'a> {
    inner: &'a AmgHierarchy,
    spent: Cell<Duration>,
    calls: Cell<u32>,
}

impl Preconditioner for TimedPreconditioner<'_> {
    fn apply(&self, device: &Device, r: &[f64]) -> (Vec<f64>, f64) {
        let t = Instant::now();
        let out = self.inner.apply(device, r);
        self.spent.set(self.spent.get() + t.elapsed());
        self.calls.set(self.calls.get() + 1);
        out
    }
}

pub struct AmgTransient {
    device: Device,
    /// Same device with the kernel tracer on, used by traced rounds.
    traced_device: Device,
    a: CsrMatrix,
    /// Positions of the diagonal entries in `a.values`.
    diag: Vec<usize>,
    b: Vec<f64>,
    seed: u64,
    min_rounds: u64,
    /// Solver iterations per step over the deterministic prefix.
    iterations: Vec<f64>,
    /// Facts of the last traced step's hierarchy.
    operator_complexity: f64,
    spmv_split: [f64; 3],
    spgemm_ms: [f64; 8],
    sim_gflops: f64,
    ws: Workspace,
    y: Vec<f64>,
}

impl AmgTransient {
    /// Seeded values for step `round`: the diagonal of a mass-plus-
    /// stiffness operator, `4 + s` with `s ∈ [0.05, 1.05)`, so the operator
    /// stays symmetric and strictly diagonally dominant (SPD).
    fn step_values(&self, round: u64) -> Vec<f64> {
        let mut rng = Rng::new(self.seed).fork(round.wrapping_add(1));
        let mut values = self.a.values.clone();
        for &d in &self.diag {
            values[d] = 4.05 + rng.unit();
        }
        values
    }

    fn solve(&self, device: &Device, pre: &impl Preconditioner) -> SolveReport {
        let opts = SolverOptions {
            max_iterations: MAX_ITERATIONS,
            rel_tolerance: TOLERANCE,
        };
        pcg(device, &self.a, &self.b, pre, &opts)
    }

    /// True relative residual `|b − A x| / |b|` through the sequential
    /// row-wise kernel.
    fn true_residual(&self, x: &[f64]) -> f64 {
        let mut ax = vec![0.0; self.a.num_rows];
        spmv_rowwise(&self.a, x, &mut ax);
        let norm = |v: &mut dyn Iterator<Item = f64>| v.map(|e| e * e).sum::<f64>().sqrt();
        let r = norm(&mut self.b.iter().zip(&ax).map(|(b, y)| b - y));
        r / norm(&mut self.b.iter().copied())
    }

    /// Record the traced step's hierarchy facts and layer probes.
    fn probe(&mut self, h: &AmgHierarchy, rec: &mut Recorder) {
        let fine = h.levels[0].a.nnz() as f64;
        self.operator_complexity = h.levels.iter().map(|l| l.a.nnz() as f64).sum::<f64>() / fine;
        self.spmv_split = [0.0; 3];
        for l in &h.levels {
            self.spmv_split[0] += l.a_plan.build_sim_ms();
            self.spmv_split[1] += l.a_plan.reduction_stats().sim_ms;
            self.spmv_split[2] += l.a_plan.update_stats().sim_ms;
        }
        let plan = &h.levels[0].a_plan;
        self.sim_gflops = ratio(2.0 * fine, plan.execute_sim_ms() * 1e6);
        if let Some(tracer) = &self.traced_device.tracer {
            let report = tracer.phase_report();
            for (i, (phase, _)) in SPGEMM_PHASES.iter().enumerate() {
                self.spgemm_ms[i] = report.ledger.phase_ms(*phase);
            }
            // The fractions cover the SpGEMM's whole cost only if no
            // launch of the build landed in a phase outside both lists.
            for e in report.ledger.entries() {
                let known = SPGEMM_PHASES.iter().any(|(p, _)| *p == e.phase)
                    || BUILD_OTHER_PHASES.contains(&e.phase);
                if !known {
                    rec.fail(format!(
                        "amg build charged {:.6} sim ms to phase {:?}, outside the SpGEMM split",
                        e.sim_ms, e.phase
                    ));
                }
            }
            tracer.clear();
        }
        // Kernel probes on the step's operator.
        let t = Instant::now();
        plan.execute_into(&self.a, &self.b, &mut self.y, &mut self.ws);
        let exec = t.elapsed().as_secs_f64() * 1e9;
        let t = Instant::now();
        spmv_rowwise(&self.a, &self.b, &mut self.y);
        let row = t.elapsed().as_secs_f64() * 1e9;
        rec.span_ns("core.spmv_exec_per_nnz", exec / fine);
        rec.span_ns("core.rowwise_per_nnz", row / fine);
        rec.span_ns("core.spmv_exec_ns", exec);
        let bytes = fine * 12.0 + (self.a.num_rows * 3 + 1) as f64 * 8.0;
        rec.span_ns("core.spmv_bytes", bytes);
    }
}

impl Workload for AmgTransient {
    type Choices = ();
    const TAIL_PERCENTILE: f64 = 90.0;
    /// Ten steps (about 70 ms): one slow step does not move their median.
    const WINDOW_ROUNDS: u64 = 10;

    fn choose(_: &Opts) {}

    fn setup(opts: &Opts, _: &()) -> AmgTransient {
        let grid = if opts.tiny { TINY_GRID } else { GRID };
        let a = gen::stencil_5pt(grid, grid);
        let diag = (0..a.num_rows)
            .map(|r| {
                let lo = a.row_offsets[r];
                lo + a
                    .row_cols(r)
                    .iter()
                    .position(|&c| c as usize == r)
                    .unwrap_or(0)
            })
            .collect();
        let b = Rng::new(opts.seed).fork(0xB).vec(a.num_rows, -1.0, 1.0);
        let mut w = AmgTransient {
            device: Device::titan(),
            traced_device: Device::titan().with_tracing(),
            y: vec![0.0; a.num_rows],
            a,
            diag,
            b,
            seed: opts.seed,
            min_rounds: if opts.tiny { TINY_ROUNDS } else { MIN_ROUNDS },
            iterations: Vec::new(),
            operator_complexity: 0.0,
            spmv_split: [0.0; 3],
            spgemm_ms: [0.0; 8],
            sim_gflops: 0.0,
            ws: Workspace::new(),
        };
        // One untimed step warms the allocator and the worker pool.
        w.a.values = w.step_values(u64::MAX);
        let h = AmgHierarchy::build(&w.device, w.a.clone(), AmgOptions::default());
        std::hint::black_box(w.solve(&w.device, &h));
        w
    }

    fn min_rounds(&self) -> u64 {
        self.min_rounds
    }

    fn round(&mut self, round: u64, traced: bool, rec: &mut Recorder) -> f64 {
        let values = self.step_values(round);
        // Traced rounds build on the tracing device, so its phase ledger
        // holds exactly the hierarchy build's launches.
        let build_device = if traced {
            &self.traced_device
        } else {
            &self.device
        };
        let t0 = Instant::now();
        self.a.values.copy_from_slice(&values);
        let t1 = Instant::now();
        let h = AmgHierarchy::build(build_device, self.a.clone(), AmgOptions::default());
        let t2 = Instant::now();
        let (report, vcycle) = if traced {
            let timed = TimedPreconditioner {
                inner: &h,
                spent: Cell::new(Duration::ZERO),
                calls: Cell::new(0),
            };
            let report = self.solve(&self.device, &timed);
            (report, Some((timed.spent.get(), timed.calls.get())))
        } else {
            (self.solve(&self.device, &h), None)
        };
        let t3 = Instant::now();
        let step = t3 - t0;
        rec.op(step, self.a.nnz() as f64);
        rec.busy_s += step.as_secs_f64();
        if round < self.min_rounds {
            self.iterations.push(report.iterations as f64);
        }

        if let Some((spent, calls)) = vcycle {
            let ns = |d: Duration| d.as_secs_f64() * 1e9;
            rec.span("solvers.amg_setup", t2 - t1);
            rec.span_ns("solvers.vcycle", ratio(ns(spent), calls as f64));
            rec.span_ns("solvers.krylov_rest", ns(t3 - t2) - ns(spent));
            rec.span_ns("op_ns", ns(step));
            // Timed calls: the value write, the hierarchy build and the
            // V-cycles; the Krylov remainder inside `pcg` is not one.
            rec.span_ns("covered_ns", ns(t2 - t0) + ns(spent));
            self.probe(&h, rec);
        }

        let residual = self.true_residual(&report.x);
        if !report.converged || residual.is_nan() || residual > TOLERANCE {
            rec.fail(format!(
                "amg step {round}: converged={} true residual {residual:e} > {TOLERANCE:e}",
                report.converged
            ));
        }
        h.setup_sim_ms + report.sim_ms
    }

    fn layers(&mut self, t: &Recorder) -> Vec<Metric> {
        let ms = |name: &str| median(t.get(name)) / 1e6;
        let spgemm_total: f64 = self.spgemm_ms.iter().sum();
        let split_total: f64 = self.spmv_split.iter().sum();
        let mut out = vec![
            metric(
                "core.spmv_exec_ns_per_nnz",
                "ns",
                median(t.get("core.spmv_exec_per_nnz")),
            ),
            metric(
                "core.rowwise_ns_per_nnz",
                "ns",
                median(t.get("core.rowwise_per_nnz")),
            ),
            metric(
                "core.spmv_gbps_computed",
                "GB/s",
                ratio(t.total("core.spmv_bytes"), t.total("core.spmv_exec_ns")),
            ),
            metric("simt.sim_gflops", "GFLOP/s", self.sim_gflops),
            metric(
                "simt.spmv_frac.partition",
                "ratio",
                ratio(self.spmv_split[0], split_total),
            ),
            metric(
                "simt.spmv_frac.reduction",
                "ratio",
                ratio(self.spmv_split[1], split_total),
            ),
            metric(
                "simt.spmv_frac.update",
                "ratio",
                ratio(self.spmv_split[2], split_total),
            ),
            metric("solvers.amg_setup_ms", "ms", ms("solvers.amg_setup")),
            metric("solvers.vcycle_ms", "ms", ms("solvers.vcycle")),
            metric("solvers.krylov_rest_ms", "ms", ms("solvers.krylov_rest")),
            metric(
                "solvers.iters_per_solve",
                "count",
                self.iterations.iter().sum::<f64>() / self.iterations.len().max(1) as f64,
            ),
            metric(
                "solvers.operator_complexity",
                "ratio",
                self.operator_complexity,
            ),
            metric(
                "trace.uncovered_share",
                "ratio",
                1.0 - ratio(t.total("covered_ns"), t.total("op_ns")),
            ),
        ];
        for (i, (_, name)) in SPGEMM_PHASES.iter().enumerate() {
            out.push(metric(
                name,
                "ratio",
                ratio(self.spgemm_ms[i], spgemm_total),
            ));
        }
        out
    }

    fn working_set_bytes(&self) -> usize {
        self.a.nnz() * 12 + (self.a.num_rows + 1) * 8 + self.a.num_rows * 8 * 3
    }

    fn input_digest(&self) -> u64 {
        let v = self.step_values(0);
        v.iter().chain(&self.b).fold(0xCBF2_9CE4_8422_2325, |h, x| {
            (h ^ x.to_bits()).wrapping_mul(0x0100_0000_01B3)
        })
    }
}
