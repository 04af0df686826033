//! `ooc-tiled`: a video field 128×128×192 → 10×10×8 (24 MiB) through
//! `tucker_outofcore`, tiles of 16 frames, workspace pool capped at a
//! quarter of the tensor. It drives the Gram/TTM/EVD layers through tile
//! views under a byte cap, so a kernel change that helps contiguous
//! operands but hurts views shows here. The only workload that reaches
//! `core::outofcore` and `tensor::view`.

use crate::alloc::peak_growth;
use crate::metrics::median;
use crate::trace::Tracer;
use crate::{
    guarded, measure, overhead_share, report_end_to_end, setup_median, untraced_seconds, Ctx,
    Outcome,
};
use std::time::Instant;
use tucker_core::{
    full_recompute, hooi_sweep_outofcore, sthosvd_outofcore, tucker_outofcore, LoopCfg, TuckerMeta,
};
use tucker_suite::fields::{hash_noise, video_field};
use tucker_tensor::{view_bytes_copied, DenseTensor, Shape, TensorView, TtmWorkspace};

const DIMS: [usize; 3] = [128, 128, 192];
const CORE: [usize; 3] = [10, 10, 8];
const TILE: usize = 16;
const SWEEPS: usize = 3;
/// Amplitude of the seeded noise added to the field.
const NOISE: f64 = 0.02;
/// `rel_error` must match the in-core `full_recompute` within this.
const TOL: f64 = 1e-10;
/// Bytes of one tile of the input (`TILE` frames).
const TILE_BYTES: usize = DIMS[0] * DIMS[1] * TILE * std::mem::size_of::<f64>();
/// Live heap a decomposition may add over what it started with: the pool
/// cap plus two tiles of unpooled working set. Anything proportional to
/// the whole input (here 12 tiles) breaks it.
fn heap_bound(cap: usize) -> usize {
    cap + 2 * TILE_BYTES
}

struct Input {
    t: DenseTensor,
    meta: TuckerMeta,
    cap: usize,
}

fn generate(seed: u64) -> Input {
    let t = DenseTensor::from_fn(Shape::new(DIMS.to_vec()), |c| {
        video_field(c, &DIMS) + NOISE * hash_noise(c, seed)
    });
    let cap = t.cardinality() * std::mem::size_of::<f64>() / 4;
    Input {
        t,
        meta: TuckerMeta::new(DIMS.to_vec(), CORE.to_vec()),
        cap,
    }
}

/// One decomposition's measurements.
#[derive(Clone, Copy, Default)]
struct Run {
    wall_s: f64,
    err: f64,
    init_s: f64,
    sweep_s: f64,
    view_bytes: u64,
    /// Largest pooled workspace bytes seen between calls.
    pool_peak: usize,
    /// Peak live heap bytes above the level the decomposition started at.
    heap_growth: usize,
}

/// The entry point as users call it: `tucker_outofcore`.
fn decompose(inp: &Input, ws: &mut TtmWorkspace) -> Run {
    let copied0 = view_bytes_copied();
    let ((out, wall_s), heap_growth) = peak_growth(|| {
        let t0 = Instant::now();
        let out = tucker_outofcore(&inp.t, &inp.meta, TILE, LoopCfg::exactly(SWEEPS), ws);
        (out, t0.elapsed().as_secs_f64())
    });
    let pool_peak = ws.pooled_bytes();
    let err = *out.errors.last().expect("at least one sweep ran");
    ws.recycle(out.decomposition.core);
    Run {
        wall_s,
        err,
        view_bytes: view_bytes_copied() - copied0,
        pool_peak: pool_peak.max(ws.pooled_bytes()),
        heap_growth,
        ..Run::default()
    }
}

/// ‖X‖² summed tile by tile, in the order `tucker_outofcore` sums it.
fn streamed_norm_sq(t: &DenseTensor) -> f64 {
    let last = t.order() - 1;
    let len = t.shape().dim(last);
    (0..len)
        .step_by(TILE)
        .map(|t0| {
            let tile = TensorView::of(t).slice(last, t0, TILE.min(len - t0));
            let data = tile
                .contiguous_data()
                .expect("last-mode slabs are contiguous");
            data.iter().map(|&x| x * x).sum::<f64>()
        })
        .sum()
}

/// The same decomposition through its public steps, each call timed:
/// `sthosvd_outofcore` init, then `hooi_sweep_outofcore` per sweep. It
/// follows `tucker_outofcore` step for step (norm, recycling order), so
/// its `rel_error` must equal the untraced one bit for bit.
fn decompose_traced(inp: &Input, ws: &mut TtmWorkspace, tracer: &Tracer) -> Run {
    let copied0 = view_bytes_copied();
    let mut run = Run::default();
    let ((), heap_growth) = peak_growth(|| {
        let t0 = Instant::now();
        let op = tracer.span("op", 0);
        let norm_sq = streamed_norm_sq(&inp.t);
        let init = {
            let _s = tracer.span("outofcore.sthosvd", op.id());
            let t1 = Instant::now();
            let init = sthosvd_outofcore(&inp.t, &inp.meta, TILE, ws);
            run.init_s = t1.elapsed().as_secs_f64();
            init
        };
        run.pool_peak = ws.pooled_bytes();
        let mut factors = init.factors;
        ws.recycle(init.core);
        let mut core: Option<DenseTensor> = None;
        for _ in 0..SWEEPS {
            let _s = tracer.span("outofcore.hooi_sweep", op.id());
            let t1 = Instant::now();
            let (f, c, err) = hooi_sweep_outofcore(&inp.t, &inp.meta, &factors, TILE, ws, norm_sq);
            run.sweep_s += t1.elapsed().as_secs_f64();
            run.pool_peak = run.pool_peak.max(ws.pooled_bytes());
            factors = f;
            run.err = err;
            if let Some(old) = core.replace(c) {
                ws.recycle(old);
            }
        }
        drop(op);
        run.wall_s = t0.elapsed().as_secs_f64();
        if let Some(c) = core {
            ws.recycle(c);
        }
    });
    run.heap_growth = heap_growth;
    run.view_bytes = view_bytes_copied() - copied0;
    run.pool_peak = run.pool_peak.max(ws.pooled_bytes());
    run
}

pub fn run(ctx: &Ctx, tracer: &Tracer) -> Outcome {
    let mut o = Outcome::default();
    let (setup_s, (inp, mut ws, warm_up)) = setup_median(|| {
        let inp = generate(ctx.seed);
        let mut ws = TtmWorkspace::with_limit(inp.cap);
        let warm_up = decompose(&inp, &mut ws);
        (inp, ws, warm_up)
    });
    // The warm-up started on an empty pool: the heap check's hardest case.
    o.attempted += 1;

    let (untraced, elapsed) = measure(&mut o, untraced_seconds(ctx), 3, || {
        decompose(&inp, &mut ws)
    });
    let peak_rss = crate::sys::peak_rss_mib();
    let traced = if ctx.trace {
        measure(&mut o, ctx.seconds / 2.0, 3, || {
            decompose_traced(&inp, &mut ws, tracer)
        })
        .0
    } else {
        Vec::new()
    };

    // The checks, once, outside the timed region.
    let t0 = Instant::now();
    let reference = guarded(|| full_recompute(&inp.t, &inp.meta, LoopCfg::exactly(SWEEPS)).1);
    let incore_s = t0.elapsed().as_secs_f64();
    let bound = heap_bound(inp.cap);
    for r in std::iter::once(&warm_up).chain(&untraced).chain(&traced) {
        let err_ok = match &reference {
            Ok(e) => (r.err - e).abs() < TOL,
            Err(_) => false,
        };
        // Same input, same steps: every run's error is the warm-up's, bit
        // for bit, traced runs included.
        if !err_ok || r.err.to_bits() != warm_up.err.to_bits() {
            o.fail(format!(
                "rel_error {} vs in-core {reference:?} (tolerance {TOL}) and warm-up {}",
                r.err, warm_up.err
            ));
        } else if r.heap_growth > bound {
            o.fail(format!(
                "live heap rose {} B during a decomposition, over cap + 2 tiles = {bound} B",
                r.heap_growth
            ));
        }
    }
    o.fingerprint = format!("rel_error {:?}", warm_up.err);

    let v = &mut o.values;
    let walls = |rs: &[Run]| rs.iter().map(|r| r.wall_s).collect::<Vec<_>>();
    if !ctx.trace {
        let op_s = walls(&untraced);
        let err = untraced.first().map(|r| r.err);
        report_end_to_end(v, setup_s, &op_s, op_s.len(), elapsed, err, peak_rss);
        return o;
    }

    if traced.is_empty() || untraced.is_empty() {
        return o;
    }
    let med = |f: fn(&Run) -> f64| median(&traced.iter().map(f).collect::<Vec<_>>());
    v.set("outofcore.init_s", med(|r| r.init_s));
    v.set("outofcore.sweep_s", med(|r| r.sweep_s));
    v.set(
        "outofcore.residual_s",
        med(|r| r.wall_s - r.init_s - r.sweep_s),
    );
    v.set("tensor.view_bytes_copied", med(|r| r.view_bytes as f64));
    v.set(
        "outofcore.pool_peak_bytes",
        traced.iter().map(|r| r.pool_peak).max().unwrap_or(0) as f64,
    );
    v.set("outofcore.cap_bytes", inp.cap as f64);
    v.set(
        "outofcore.heap_growth_bytes",
        std::iter::once(&warm_up)
            .chain(&untraced)
            .chain(&traced)
            .map(|r| r.heap_growth)
            .max()
            .unwrap_or(0) as f64,
    );
    v.set("outofcore.incore_decompose_s", incore_s);
    v.set("linalg.peak_gflops", crate::peak_gflops());
    v.set(
        "trace.overhead_share",
        overhead_share(&walls(&traced), &walls(&untraced)),
    );
    o.table = Some(tracer.self_times("op"));
    o
}
