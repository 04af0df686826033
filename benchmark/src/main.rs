//! The repository benchmark: four fixed workloads that drive the public
//! entry points of `tucker-core` from outside the program.
//!
//! ```text
//! tucker-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! tucker-benchmark --list
//! ```
//!
//! With `--trace 0` the last line of standard output carries the
//! end-to-end metrics, measured with tracing off; with `--trace 1` it
//! carries the per-layer metrics of a traced run, which also writes a
//! Chrome trace and prints the per-layer self-time table. Every operation
//! is checked; a failed check counts the operation as failed.

mod alloc;
mod dist;
mod hooi;
mod metrics;
mod ooc;
mod serve;
mod sys;
mod trace;

use metrics::{result_line, Values, END_TO_END, PER_LAYER};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::time::Instant;
use trace::{SelfTimes, Tracer};

/// The workloads and why each was chosen.
const WORKLOADS: &[(&str, &str)] = &[
    ("hooi-large", "kernel-bound host HOOI on RayonBackend: tensor and linalg layers, bypasses plan, distsim and serve"),
    ("ooc-tiled", "out-of-core tiled sweeps through strided tile views under a workspace byte cap"),
    ("dist-p4096", "distributed HOOI in virtual time at P = 4096, where fiber scheduling and simulated collectives dominate"),
    ("serve-burst", "closed-loop clients submitting bursts of small jobs: queue, batching, coalescing, plan cache"),
];

/// Set-ups per run at least; `setup_s` is their median. Cheap set-ups
/// repeat until [`SETUP_MIN_S`] has passed, so their median stays steady.
pub const SETUPS: usize = 3;
/// Set-up time a run spends at least, in seconds.
pub const SETUP_MIN_S: f64 = 3.0;

/// One run's parameters.
pub struct Ctx {
    /// Workload seed: the same seed generates the same inputs.
    pub seed: u64,
    /// Measurement length in seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
    /// `available_parallelism` of the host: rayon threads, mesh workers
    /// and the client-thread cap.
    pub cores: usize,
}

/// What a workload run produced.
#[derive(Default)]
pub struct Outcome {
    /// Metric values (end-to-end or per-layer, by mode).
    pub values: Values,
    /// Operations attempted (decompositions, or jobs on serve-burst).
    pub attempted: u64,
    /// Operations that errored, were refused, panicked or failed a check.
    pub failed: u64,
    /// The first few failure reasons.
    pub problems: Vec<String>,
    /// Values that must repeat bit for bit on every run of this binary with
    /// this seed (compared across runs through a record file).
    pub fingerprint: String,
    /// Per-layer self-time table of the traced run.
    pub table: Option<SelfTimes>,
}

impl Outcome {
    /// Count one failed operation.
    pub fn fail(&mut self, why: impl Into<String>) {
        self.failed += 1;
        if self.problems.len() < 20 {
            self.problems.push(why.into());
        }
    }

    /// Add another outcome's operations and failures to this one.
    pub fn absorb(&mut self, other: Outcome) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        let room = 20usize.saturating_sub(self.problems.len());
        self.problems.extend(other.problems.into_iter().take(room));
    }
}

/// Seconds of untraced measurement: the whole run, or the first half of a
/// traced run (the second half is traced; their ratio is the overhead).
pub fn untraced_seconds(ctx: &Ctx) -> f64 {
    if ctx.trace {
        ctx.seconds / 2.0
    } else {
        ctx.seconds
    }
}

/// Run `f` at least [`SETUPS`] times and until [`SETUP_MIN_S`] has passed,
/// dropping each result before the next set-up starts; returns the median
/// set-up seconds and the last result.
pub fn setup_median<T>(mut f: impl FnMut() -> T) -> (f64, T) {
    let t0 = Instant::now();
    let mut last: Option<T> = None;
    let mut secs = Vec::new();
    while secs.len() < SETUPS || t0.elapsed().as_secs_f64() < SETUP_MIN_S {
        drop(last.take());
        let t1 = Instant::now();
        last = Some(f());
        secs.push(t1.elapsed().as_secs_f64());
    }
    (
        metrics::median(&secs),
        last.expect("at least one set-up ran"),
    )
}

/// Repeat `op` until `seconds` have passed and at least `min_ops` ran.
/// Each call is one attempted operation; a panic counts it as failed.
/// Returns the results of the operations that returned and the elapsed
/// seconds.
pub fn measure<R>(
    o: &mut Outcome,
    seconds: f64,
    min_ops: usize,
    mut op: impl FnMut() -> R,
) -> (Vec<R>, f64) {
    let t0 = Instant::now();
    let mut out = Vec::new();
    let mut ran = 0;
    while ran < min_ops || t0.elapsed().as_secs_f64() < seconds {
        ran += 1;
        o.attempted += 1;
        match guarded(&mut op) {
            Ok(r) => out.push(r),
            Err(why) => o.fail(why),
        }
    }
    (out, t0.elapsed().as_secs_f64())
}

/// Record the end-to-end metrics of an untraced measurement: `op_s` holds
/// the wall of each operation that returned, `jobs` the decompositions
/// completed in `elapsed_s`.
pub fn report_end_to_end(
    v: &mut Values,
    setup_s: f64,
    op_s: &[f64],
    jobs: usize,
    elapsed_s: f64,
    rel_error: Option<f64>,
    peak_rss_mib: Option<f64>,
) {
    v.set("setup_s", setup_s);
    if !op_s.is_empty() {
        v.set("op_p50_ms", metrics::median(op_s) * 1e3);
    }
    v.set("jobs_per_s", jobs as f64 / elapsed_s);
    if let Some(e) = rel_error {
        v.set("rel_error", e);
    }
    if let Some(rss) = peak_rss_mib {
        v.set("peak_rss_mib", rss);
    }
}

/// `trace.overhead_share`: median traced over median untraced operation
/// time, minus one.
pub fn overhead_share(traced_s: &[f64], untraced_s: &[f64]) -> f64 {
    metrics::median(traced_s) / metrics::median(untraced_s) - 1.0
}

/// Run `f`, turning a panic into its message.
pub fn guarded<R>(f: impl FnOnce() -> R) -> Result<R, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|p| {
        p.downcast_ref::<String>()
            .cloned()
            .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "panic".to_string())
    })
}

/// Best rate of the packed GEMM on a cache-resident 256³ product, in
/// GFLOP/s, over the host's worker threads (the kernels' own partition).
pub fn peak_gflops() -> f64 {
    use tucker_linalg::{gemm, Matrix, Transpose};
    const N: usize = 256;
    let a = Matrix::from_fn(N, N, |i, j| ((i * 7 + j * 3) % 11) as f64 - 5.0);
    let b = Matrix::from_fn(N, N, |i, j| ((i * 5 + j) % 13) as f64 - 6.0);
    let flops = 2.0 * (N * N * N) as f64;
    let mut best = f64::INFINITY;
    for _ in 0..40 {
        let t0 = Instant::now();
        let c = gemm(
            std::hint::black_box(&a),
            Transpose::No,
            std::hint::black_box(&b),
            Transpose::No,
            1.0,
        );
        best = best.min(t0.elapsed().as_secs_f64());
        std::hint::black_box(c);
    }
    flops / best / 1e9
}

fn usage() -> ! {
    eprintln!(
        "usage: tucker-benchmark --workload <{}> --seed <n> --seconds <s> --trace <0|1>\n       \
         tucker-benchmark --list",
        WORKLOADS.iter().map(|w| w.0).collect::<Vec<_>>().join("|")
    );
    std::process::exit(2);
}

fn list() {
    println!("workloads:");
    for (name, why) in WORKLOADS {
        println!("  {name:<12} {why}");
    }
    for (title, defs) in [
        ("end-to-end (--trace 0)", END_TO_END),
        ("per-layer (--trace 1)", PER_LAYER),
    ] {
        println!("{title}:");
        for d in defs {
            println!("  {:<32} {:<10} {}", d.name, d.unit, d.about);
        }
    }
}

/// Where traces and determinism records go: next to the binary, inside the
/// build directory of the checkout.
fn out_dir() -> PathBuf {
    let exe = std::env::current_exe().expect("current executable path");
    exe.parent()
        .expect("the executable lives in a directory")
        .join("tucker-benchmark-out")
}

/// Compare `fingerprint` with the record an earlier run of this same binary
/// left for `(workload, seed)`, or leave one. `Err` on a mismatch.
fn check_repeat(workload: &str, seed: u64, fingerprint: &str) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let meta = std::fs::metadata(&exe).map_err(|e| e.to_string())?;
    let built = meta
        .modified()
        .ok()
        .and_then(|t| t.duration_since(std::time::UNIX_EPOCH).ok())
        .map_or(0, |d| d.as_nanos());
    let dir = out_dir().join("repeat");
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let path = dir.join(format!("{workload}-{seed}.txt"));
    let record = format!("binary {} {built}\n{fingerprint}\n", meta.len());
    match std::fs::read_to_string(&path) {
        Ok(prev) if prev.lines().next() == record.lines().next() => {
            if prev == record {
                Ok(())
            } else {
                Err(format!(
                    "deterministic values differ from an earlier run with seed {seed}:\n\
                     earlier: {prev}\nnow:     {record}"
                ))
            }
        }
        // No record, or one from another build: start a new one.
        _ => std::fs::write(&path, record).map_err(|e| e.to_string()),
    }
}

/// Set in the environment of the measuring child process.
const CHILD_ENV: &str = "TUCKER_BENCHMARK_CHILD";

/// Run this binary again with `args` as a child process, wait for it, and
/// return its exit code. `ru_maxrss` survives `exec`, so a process
/// started through a launcher such as `cargo run` would report the
/// launcher's peak as its own; the child starts from this small process
/// and reports only what the workload adds.
fn run_in_child(args: &[String]) -> i32 {
    let exe = std::env::current_exe().expect("current executable path");
    let status = std::process::Command::new(exe)
        .args(args)
        .env(CHILD_ENV, "1")
        .stdin(std::process::Stdio::null())
        .status()
        .expect("start the measuring process");
    status.code().unwrap_or(1)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--list") {
        list();
        return;
    }
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else { usage() };
        match flag.as_str() {
            "--workload" => workload = WORKLOADS.iter().find(|w| w.0 == value).map(|w| w.0),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => None,
                }
            }
            _ => usage(),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        usage()
    };

    if std::env::var_os(CHILD_ENV).is_none() {
        std::process::exit(run_in_child(&args));
    }

    let ctx = Ctx {
        seed,
        seconds,
        trace,
        cores: sys::host_cores(),
    };
    let env: Vec<(&str, String)> = vec![
        ("workload", workload.to_string()),
        ("seed", seed.to_string()),
        ("seconds", seconds.to_string()),
        ("trace", u8::from(trace).to_string()),
        ("host_cores", ctx.cores.to_string()),
        (
            "rayon_threads",
            tucker_core::RayonBackend::new().threads().to_string(),
        ),
        ("mesh_workers", ctx.cores.to_string()),
        (
            "client_threads",
            serve::client_threads(ctx.cores).to_string(),
        ),
        ("llc_bytes", sys::llc_bytes().to_string()),
        ("rustc", sys::RUSTC_VERSION.to_string()),
        ("git_commit", sys::GIT_COMMIT.to_string()),
    ];
    let env_json: Vec<String> = env
        .iter()
        .map(|(k, v)| format!("\"{k}\": \"{v}\""))
        .collect();
    let env_line = format!("env {{{}}}", env_json.join(", "));
    println!("{env_line}");

    let tracer = Tracer::new(trace);
    let mut o = match workload {
        "hooi-large" => hooi::run(&ctx, &tracer),
        "ooc-tiled" => ooc::run(&ctx, &tracer),
        "dist-p4096" => dist::run(&ctx, &tracer),
        "serve-burst" => serve::run(&ctx, &tracer),
        _ => unreachable!("workload names are validated above"),
    };
    let mut correct = o.failed == 0 && o.attempted > 0;
    if let Err(why) = check_repeat(workload, seed, &o.fingerprint) {
        correct = false;
        o.problems.push(why);
    }
    for p in &o.problems {
        eprintln!("check failed: {p}");
    }

    let defs = if trace { PER_LAYER } else { END_TO_END };
    for d in defs {
        if let Some(v) = o.values.get(d.name) {
            println!("  {:<32} {:>16} {}", d.name, metrics::json_num(v), d.unit);
        }
    }
    println!("  attempted {} failed {}", o.attempted, o.failed);
    if let Some(table) = &o.table {
        let table = table.render();
        print!("{table}");
        let dir = out_dir();
        let trace_path = dir.join(format!("trace-{workload}-seed{seed}.json"));
        let table_path = dir.join(format!("layers-{workload}-seed{seed}.txt"));
        let run = format!("{workload}/seed{seed}");
        let written = std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&trace_path, tracer.chrome_json(workload, &run, &env)))
            .and_then(|()| std::fs::write(&table_path, format!("{env_line}\n{table}")));
        match written {
            Ok(()) => println!("chrome trace: {}", trace_path.display()),
            Err(e) => eprintln!("could not write the trace: {e}"),
        }
    }
    println!(
        "{}",
        result_line(defs, &o.values, correct, o.attempted, o.failed)
    );
}
