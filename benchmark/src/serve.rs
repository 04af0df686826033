//! `serve-burst`: a closed loop of client threads, one per host core but
//! one (the server's single worker takes the last core). Each client
//! submits a burst of eight compress jobs, waits on every ticket, then
//! sends its next burst. Jobs mix small 3- and 4-way shapes, run two
//! sweeps, and draw their seeds from a pool of four, so identical jobs
//! recur. Per-job fixed costs dominate: queue, batching, coalescing,
//! plan-cache lookup and small kernels. Bursts, because a closed loop of
//! single-job clients almost never forms a multi-job batch.

use crate::metrics::{median, tail};
use crate::trace::Tracer;
use crate::{guarded, report_end_to_end, setup_median, untraced_seconds, Ctx, Outcome};
use std::collections::BTreeMap;
use std::time::Instant;
use tucker_core::{JobOutput, JobSpec, ServeCfg, Server, ServerReport};

/// `(input shape, core shape)` of the job mix.
const SHAPES: [(&[usize], &[usize]); 4] = [
    (&[24, 20, 16], &[6, 5, 4]),
    (&[32, 24, 16], &[8, 6, 4]),
    (&[16, 12, 10, 8], &[4, 4, 3, 3]),
    (&[20, 16, 12, 8], &[5, 4, 4, 3]),
];
const SEED_POOL: u64 = 4;
const JOBS_PER_BURST: u64 = 8;
const SWEEPS: usize = 2;
/// Ranks each job's plan is priced for.
const NRANKS: usize = 4;
/// Bursts every client sends at least, however short the run.
const MIN_BURSTS: u64 = 20;

/// Client threads on a host with `cores` cores: one core is left to the
/// server's worker thread, so clients and worker never contend for a CPU.
pub fn client_threads(cores: usize) -> usize {
    cores.saturating_sub(1).max(1)
}

/// A job's identity in the pool: `(shape index, pool slot)`.
type Key = (usize, u64);

fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The pool job a client sends as job `j` of burst `b`. The sequence is
/// the same for every workload seed, so every seed offers the same mix of
/// shapes and repeats; the seed only changes the jobs' data (see [`spec`]).
fn job_key(client: u64, burst: u64, j: u64) -> Key {
    let h = splitmix((client << 48) ^ (burst << 8) ^ j);
    ((h % SHAPES.len() as u64) as usize, (h >> 32) % SEED_POOL)
}

fn spec(seed: u64, (shape, slot): Key) -> JobSpec {
    let (dims, core) = SHAPES[shape];
    JobSpec {
        sweeps: SWEEPS,
        ..JobSpec::compress(
            dims.to_vec(),
            core.to_vec(),
            NRANKS,
            splitmix(seed.wrapping_add(slot)),
        )
    }
}

/// Submit `key`, wait, and return the job's error trace and summed sweep
/// wall, or why it failed.
fn submit_wait(srv: &Server, seed: u64, key: Key) -> Result<(Vec<f64>, f64), String> {
    let ticket = srv.submit(spec(seed, key)).map_err(|e| e.to_string())?;
    answer(ticket)
}

fn answer(ticket: tucker_core::Ticket) -> Result<(Vec<f64>, f64), String> {
    match ticket.wait().map_err(|e| e.to_string())?.output {
        JobOutput::Compressed {
            errors, per_sweep, ..
        } => Ok((errors, per_sweep.iter().map(|s| s.wall.as_secs_f64()).sum())),
        _ => Err("a compress job answered with another output".to_string()),
    }
}

/// The reference error trace of every pool job.
type Reference = BTreeMap<Key, Vec<f64>>;

fn start_server() -> Server {
    Server::start(ServeCfg {
        return_decompositions: false,
        ..ServeCfg::default()
    })
}

/// A started server plus the reference error trace of every pool job.
struct Setup {
    server: Server,
    reference: Reference,
}

/// Start a server and run each distinct pool job once: the warm-up, and
/// the reference every later identical job must reproduce bit for bit.
fn set_up(o: &mut Outcome, seed: u64) -> Setup {
    let server = start_server();
    let mut reference = BTreeMap::new();
    for shape in 0..SHAPES.len() {
        for slot in 0..SEED_POOL {
            o.attempted += 1;
            match submit_wait(&server, seed, (shape, slot)) {
                Ok((errors, _)) => {
                    reference.insert((shape, slot), errors);
                }
                Err(why) => o.fail(format!("reference job {shape}/{slot}: {why}")),
            }
        }
    }
    Setup { server, reference }
}

/// What the clients of one phase saw.
#[derive(Default)]
struct Phase {
    bursts_s: Vec<f64>,
    submits_s: Vec<f64>,
    sweeps_s: Vec<f64>,
    answered: u64,
    elapsed_s: f64,
}

/// Run the closed loop for `seconds` with `clients` threads.
fn phase(
    o: &mut Outcome,
    server: &Server,
    reference: &Reference,
    seed: u64,
    clients: u64,
    seconds: f64,
    tracer: &Tracer,
) -> Phase {
    let t0 = Instant::now();
    let logs: Vec<(Phase, Outcome)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| scope.spawn(move || client(server, reference, seed, c, t0, seconds, tracer)))
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join().unwrap_or_else(|_| {
                    let mut lost = Outcome::default();
                    lost.fail("a client thread panicked");
                    (Phase::default(), lost)
                })
            })
            .collect()
    });
    let mut all = Phase {
        elapsed_s: t0.elapsed().as_secs_f64(),
        ..Phase::default()
    };
    for (p, co) in logs {
        all.bursts_s.extend(p.bursts_s);
        all.submits_s.extend(p.submits_s);
        all.sweeps_s.extend(p.sweeps_s);
        all.answered += p.answered;
        o.absorb(co);
    }
    all
}

/// One client: bursts until the deadline, checking every answer against
/// the pool reference.
fn client(
    server: &Server,
    reference: &Reference,
    seed: u64,
    c: u64,
    t0: Instant,
    seconds: f64,
    tracer: &Tracer,
) -> (Phase, Outcome) {
    let mut log = Phase::default();
    let mut o = Outcome::default();
    let mut burst = 0;
    while burst < MIN_BURSTS || t0.elapsed().as_secs_f64() < seconds {
        let span = tracer.span("op", 0);
        let b0 = Instant::now();
        let mut tickets = Vec::with_capacity(JOBS_PER_BURST as usize);
        for j in 0..JOBS_PER_BURST {
            let key = job_key(c, burst, j);
            let _s = tracer.span("serve.submit", span.id());
            let s0 = Instant::now();
            let r = server.submit(spec(seed, key));
            log.submits_s.push(s0.elapsed().as_secs_f64());
            tickets.push((key, r));
        }
        for (key, r) in tickets {
            o.attempted += 1;
            let _s = tracer.span("serve.wait", span.id());
            let got = r.map_err(|e| e.to_string()).and_then(answer);
            match got {
                Ok((errors, sweep_s)) => {
                    log.answered += 1;
                    log.sweeps_s.push(sweep_s);
                    let same = reference.get(&key).is_some_and(|r| {
                        r.len() == errors.len()
                            && r.iter()
                                .zip(&errors)
                                .all(|(a, b)| a.to_bits() == b.to_bits())
                    });
                    if !same {
                        o.fail(format!(
                            "job {key:?}: error trace {errors:?} differs from the reference"
                        ));
                    }
                }
                Err(why) => o.fail(format!("job {key:?}: {why}")),
            }
        }
        log.bursts_s.push(b0.elapsed().as_secs_f64());
        burst += 1;
    }
    (log, o)
}

/// Fail the run if the server's report says its worker panicked.
fn check_report(o: &mut Outcome, report: Result<ServerReport, String>) -> Option<ServerReport> {
    match report {
        Ok(r) if r.worker_panics > 0 || r.worker_error.is_some() => {
            o.fail(format!(
                "worker panicked {} time(s): {:?}",
                r.worker_panics, r.worker_error
            ));
            None
        }
        Ok(r) => Some(r),
        Err(why) => {
            o.fail(format!("shutdown panicked: {why}"));
            None
        }
    }
}

pub fn run(ctx: &Ctx, tracer: &Tracer) -> Outcome {
    let mut o = Outcome::default();
    let clients = client_threads(ctx.cores) as u64;
    let off = Tracer::new(false);

    let (setup_s, Setup { server, reference }) = setup_median(|| set_up(&mut o, ctx.seed));
    let untraced = phase(
        &mut o,
        &server,
        &reference,
        ctx.seed,
        clients,
        untraced_seconds(ctx),
        &off,
    );
    let peak_rss = crate::sys::peak_rss_mib();
    check_report(&mut o, guarded(|| server.shutdown()));

    let mut pool_errors: Vec<f64> = reference
        .values()
        .filter_map(|e| e.last().copied())
        .collect();
    pool_errors.sort_by(f64::total_cmp);
    o.fingerprint = format!("{pool_errors:?}");

    if !ctx.trace {
        report_end_to_end(
            &mut o.values,
            setup_s,
            &untraced.bursts_s,
            untraced.answered as usize,
            untraced.elapsed_s,
            (!pool_errors.is_empty()).then(|| median(&pool_errors)),
            peak_rss,
        );
        return o;
    }

    // A fresh server for the traced half, so that its report (batches,
    // coalescing, plan cache, high-water marks) covers the traced traffic
    // only: no set-up reference jobs, no untraced half.
    let server = start_server();
    let traced = phase(
        &mut o,
        &server,
        &reference,
        ctx.seed,
        clients,
        ctx.seconds / 2.0,
        tracer,
    );
    let Some(r) = check_report(&mut o, guarded(|| server.shutdown())) else {
        return o;
    };
    let v = &mut o.values;
    if !traced.submits_s.is_empty() {
        v.set("serve.submit_ms_p50", median(&traced.submits_s) * 1e3);
    }
    if !traced.sweeps_s.is_empty() {
        v.set("serve.sweep_ms_p50", median(&traced.sweeps_s) * 1e3);
    }
    let share = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    v.set("serve.batches", r.batches as f64);
    v.set("serve.batch_jobs_mean", share(r.jobs, r.batches));
    v.set(
        "serve.multi_job_batch_share",
        share(r.multi_job_batches, r.batches),
    );
    v.set("serve.coalesced_share", share(r.coalesced_jobs, r.jobs));
    v.set(
        "serve.sweeps_saved_share",
        1.0 - share(r.executed_sweeps, r.requested_sweeps),
    );
    v.set("plan_cache.hit_rate", r.cache.hit_rate());
    v.set("plan_cache.misses", r.cache.misses as f64);
    v.set("serve.queue_depth_hwm", r.queue_depth_hwm as f64);
    v.set("serve.workspace_hwm_bytes", r.workspace_bytes_hwm as f64);
    v.set("serve.rejected", r.rejected as f64);
    if let Some((pct, value)) = tail(&untraced.bursts_s, 10) {
        v.set("serve.burst_tail_ms", value * 1e3);
        v.set("serve.burst_tail_pct", pct);
    }
    v.set("serve.bursts", untraced.bursts_s.len() as f64);
    v.set("linalg.peak_gflops", crate::peak_gflops());
    let untraced_rate = untraced.answered as f64 / untraced.elapsed_s;
    let traced_rate = traced.answered as f64 / traced.elapsed_s;
    v.set("trace.overhead_share", untraced_rate / traced_rate - 1.0);
    o.table = Some(tracer.self_times("op"));
    o
}
