//! The measurement loop shared by every workload: timed iterations for
//! `--seconds`, alternating untraced and traced iterations when the
//! per-layer run is asked for, and the report each workload returns.
//!
//! The wall-time end-to-end metrics are reported at a reference host
//! speed. On a shared host the speed of the same code drifts by tens of
//! percent within minutes, so a fixed reference computation that shares
//! no code with the program is timed before the first iteration, after
//! every iteration and, where a workload's iterations are long, between
//! their parts. Each iteration's wall times are scaled by `REFERENCE_MS`
//! over the mean kernel time of the probes within and around it. The host
//! speed swings by tens of percent from one 12 ms kernel call to the next,
//! and a pass takes the mean of those swings, so the probe takes the mean
//! too, not the median. A probe runs the kernel on as many threads as the
//! workload keeps busy, since the two vCPUs of a shared host slow down
//! apart. The raw values are printed too.

use crate::metrics::{median, Fnv, Layers};
use dmi_obs::Trace;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// What the command line asked for.
#[derive(Debug, Clone)]
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    /// Per-layer run: odd iterations are traced.
    pub trace: bool,
    /// Self-check size: small apps, one run seed, a short request batch.
    pub tiny: bool,
}

impl Ctx {
    /// The Table 3 grid's run seeds: `3·seed + 1 ..= 3·seed + 3`, so the
    /// default seed 0 gives `exp_table3`'s seeds 1–3.
    pub fn run_seeds(&self) -> Vec<u64> {
        self.seeds(3)
    }

    /// The run seeds of the core-setting sample the agent metrics come
    /// from: `12·seed + 1 ..= 12·seed + 12`. Twelve seeds make 324 runs
    /// per mode, enough to hold a success rate's spread across seeds
    /// within its bound; 81 runs are not.
    pub fn sample_seeds(&self) -> Vec<u64> {
        self.seeds(12)
    }

    fn seeds(&self, n: u64) -> Vec<u64> {
        let n = if self.tiny { 1 } else { n };
        (1..=n).map(|k| self.seed.wrapping_mul(n).wrapping_add(k)).collect()
    }
}

/// A workload's result.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<&'static str, f64>,
    /// Printed lines that must repeat exactly for one seed: output digests
    /// and the printed-only agent figures.
    pub deterministic: Vec<String>,
    /// Other printed lines (sample counts, timing tails).
    pub notes: Vec<String>,
}

/// One traced window's record.
pub struct Observed {
    pub trace: Trace,
    pub tallies: BTreeMap<&'static str, u64>,
}

/// Runs `f`, traced when `on`, returning its result, wall seconds and
/// (when traced) what `dmi-obs` recorded.
pub fn observe<T>(on: bool, f: impl FnOnce() -> T) -> (T, f64, Option<Observed>) {
    if on {
        dmi_obs::clear();
        dmi_obs::set_enabled(true);
    }
    let t = Instant::now();
    let out = f();
    let secs = t.elapsed().as_secs_f64();
    if !on {
        return (out, secs, None);
    }
    dmi_obs::set_enabled(false);
    let obs = Observed { trace: dmi_obs::drain(), tallies: dmi_obs::tallies() };
    (out, secs, Some(obs))
}

/// One finished iteration's wall seconds and the operations its pass
/// completed.
struct Timing {
    traced: bool,
    setup: f64,
    pass: f64,
    ops: f64,
}

/// Iteration bookkeeping for one workload run.
pub struct Run {
    ctx: Ctx,
    start: Instant,
    traced_iters: usize,
    /// One entry per finished iteration, in order.
    timings: Vec<Timing>,
    pub layers: Layers,
    pub attempted: u64,
    pub failed: u64,
    /// Threads each probe runs `reference_kernel` on at once.
    probe_threads: usize,
    /// The `reference_kernel` milliseconds of each probe, by the iteration
    /// it opens or falls in: `probe_ms[i][0]` opens iteration `i` and
    /// closes iteration `i - 1`.
    probe_ms: Vec<Vec<Vec<f64>>>,
}

/// A typical `reference_kernel` time on the host the bounds were set on
/// (a 2-vCPU x86-64 VM at 2.0 GHz), in milliseconds: scaled times read as
/// if every probe had taken this long.
const REFERENCE_MS: f64 = 12.5;

fn mean<'a>(v: impl Iterator<Item = &'a f64>) -> f64 {
    let (sum, n) = v.fold((0.0, 0usize), |(s, n), x| (s + x, n + 1));
    sum / n as f64
}

/// The host-speed probe: string formatting, hashing, sorting and
/// allocation, like the program's own work, on fixed input.
fn reference_kernel() -> u64 {
    let mut names: Vec<String> = (0..20_000u64)
        .map(|i| format!("control-{}-{i}", i.wrapping_mul(2_654_435_761) % 997))
        .collect();
    let mut counts = std::collections::HashMap::new();
    for (i, name) in names.iter().enumerate() {
        *counts.entry(name.clone()).or_insert(0u64) += i as u64;
    }
    names.sort();
    let mut h = Fnv::default();
    for name in &names {
        h.write(name.as_bytes());
    }
    h.0 ^ counts.len() as u64
}

impl Run {
    /// A run whose workload keeps `probe_threads` threads busy.
    pub fn new(ctx: &Ctx, probe_threads: usize) -> Run {
        Run {
            ctx: ctx.clone(),
            start: Instant::now(),
            traced_iters: 0,
            timings: Vec::new(),
            layers: Layers::default(),
            attempted: 0,
            failed: 0,
            probe_threads,
            probe_ms: Vec::new(),
        }
    }

    /// Probes the host speed: times `reference_kernel` three times on
    /// each of `probe_threads` threads at once. A workload may probe
    /// between the parts of a long iteration; it must leave the probe's
    /// time out of what it records.
    pub fn probe(&mut self) {
        let calls = || -> Vec<f64> {
            (0..3)
                .map(|_| {
                    let t = Instant::now();
                    std::hint::black_box(reference_kernel());
                    t.elapsed().as_secs_f64() * 1e3
                })
                .collect()
        };
        let ms: Vec<f64> = std::thread::scope(|s| {
            let threads: Vec<_> = (0..self.probe_threads).map(|_| s.spawn(calls)).collect();
            threads.into_iter().flat_map(|t| t.join().expect("probe thread")).collect()
        });
        let iter = self.timings.len();
        if self.probe_ms.len() == iter {
            self.probe_ms.push(Vec::new());
        }
        self.probe_ms[iter].push(ms);
    }

    /// Starts another iteration while the time budget lasts (and at least
    /// `min` times, two in a traced run); returns whether it is traced.
    /// Every iteration must end with `record`.
    pub fn next_iter(&mut self, min: usize) -> Option<bool> {
        let iters = self.timings.len();
        assert!(self.probe_ms.len() <= iters, "the last iteration was not recorded");
        self.probe();
        let min = if self.ctx.trace { min.max(2) } else { min };
        if iters >= min && self.start.elapsed().as_secs_f64() >= self.ctx.seconds {
            return None;
        }
        let traced = self.ctx.trace && iters % 2 == 1;
        self.traced_iters += usize::from(traced);
        Some(traced)
    }

    /// Records a finished iteration: its set-up and pass wall seconds and
    /// the operations (apps modeled, task runs, served requests) the pass
    /// completed.
    pub fn record(&mut self, traced: bool, setup: f64, pass: f64, ops: usize) {
        self.timings.push(Timing { traced, setup, pass, ops: ops as f64 });
    }

    /// How many iterations ran.
    pub fn iters(&self) -> usize {
        self.timings.len()
    }

    /// Folds a traced window into the per-layer accumulator.
    pub fn absorb(&mut self, obs: &Option<Observed>) {
        if let Some(o) = obs {
            self.layers.absorb(&o.trace, &o.tallies);
        }
    }

    /// The wall-time metrics from `timings`, each time multiplied by its
    /// `scale`: median set-up, median pass, and operations per second.
    fn wall_metrics(timings: &[(&Timing, f64)]) -> [f64; 3] {
        let setup: Vec<f64> = timings.iter().map(|(t, k)| t.setup * k).collect();
        let pass: Vec<f64> = timings.iter().map(|(t, k)| t.pass * k).collect();
        let ops: f64 = timings.iter().map(|(t, _)| t.ops).sum();
        [median(&setup), median(&pass) * 1e3, ops / pass.iter().sum::<f64>()]
    }

    /// Fills the outcome's metrics: the workload's own from `e2e` plus
    /// `setup_s`, `op_ms_p50` and `tasks_per_s` scaled to the reference
    /// host speed, or, in a traced run, every per-layer metric plus the
    /// tracing overhead.
    pub fn finish(
        self,
        e2e: BTreeMap<&'static str, f64>,
        deterministic: Vec<String>,
        mut notes: Vec<String>,
    ) -> Outcome {
        let iter_wall = |traced: bool| -> Vec<f64> {
            self.timings.iter().filter(|t| t.traced == traced).map(|t| t.setup + t.pass).collect()
        };
        let metrics = if self.ctx.trace {
            let mut m = self.layers.finish(self.traced_iters);
            let (off, on) = (iter_wall(false), iter_wall(true));
            let (off_s, on_s) = (median(&off), median(&on));
            let overhead = if off_s > 0.0 { (on_s - off_s) / off_s * 100.0 } else { 0.0 };
            m.insert("obs.overhead_pct", overhead);
            notes.push(format!(
                "traced iterations: {} (median {:.1} ms) vs untraced {} (median {:.1} ms)",
                on.len(),
                on_s * 1e3,
                off.len(),
                off_s * 1e3
            ));
            if self.layers.dropped() > 0.0 {
                notes.push(format!("WARNING: {} trace events dropped", self.layers.dropped()));
            }
            m
        } else {
            let raw: Vec<(&Timing, f64)> = self.timings.iter().map(|t| (t, 1.0)).collect();
            let scaled: Vec<(&Timing, f64)> = self
                .timings
                .iter()
                .zip(self.probe_ms.windows(2))
                .map(|(t, k)| (t, REFERENCE_MS / mean(k[0].iter().chain(&k[1][..1]).flatten())))
                .collect();
            let [setup, op, rate] = Run::wall_metrics(&raw);
            let samples = self.probe_ms.iter().flatten().flatten();
            notes.push(format!(
                "raw: setup_s = {setup} s, op_ms_p50 = {op} ms, tasks_per_s = {rate} 1/s; \
                 reference kernel {} ms (mean of {} calls on {} threads)",
                mean(samples.clone()),
                samples.count(),
                self.probe_threads
            ));
            let mut m = e2e;
            let [setup, op, rate] = Run::wall_metrics(&scaled);
            m.insert("setup_s", setup);
            m.insert("op_ms_p50", op);
            m.insert("tasks_per_s", rate);
            m
        };
        Outcome { attempted: self.attempted, failed: self.failed, metrics, deterministic, notes }
    }
}

/// A scratch directory under `.dmibench_tmp/` in the working directory,
/// removed on drop.
pub struct TempDir(PathBuf);

impl TempDir {
    pub fn new(tag: &str) -> TempDir {
        let dir = PathBuf::from(".dmibench_tmp").join(format!("{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create the benchmark scratch directory");
        TempDir(dir)
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Only succeeds once the last concurrent user is gone.
        let _ = std::fs::remove_dir(".dmibench_tmp");
    }
}
