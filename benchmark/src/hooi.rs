//! `hooi-large`: a combustion field 192×160×144 → 32×32×32 on
//! `RayonBackend`, HOSVD init plus three HOOI sweeps over the optimal
//! single-node TTM-tree. Kernel-bound: it exercises `tensor` and `linalg`
//! through `core::executor` and bypasses plan, distsim and serve. A
//! structured field, because a truncated eigensolver behaves differently on
//! a noise spectrum.

use crate::metrics::median;
use crate::trace::{SpanId, Tracer};
use crate::{
    guarded, measure, overhead_share, report_end_to_end, setup_median, untraced_seconds, Ctx,
    Outcome,
};
use std::time::Instant;
use tucker_core::executor::hooi_loop;
use tucker_core::tree::TtmTree;
use tucker_core::{
    GridStrategy, LoopCfg, Planner, RayonBackend, SeqBackend, SweepBackend, SweepStats,
    TreeStrategy, TuckerMeta,
};
use tucker_linalg::{bytes_packed, leading_from_gram, Matrix};
use tucker_suite::fields::{combustion_field, hash_noise};
use tucker_tensor::norm::fro_norm_sq;
use tucker_tensor::{gram_threads, DenseTensor, Shape};

const DIMS: [usize; 3] = [192, 160, 144];
const CORE: [usize; 3] = [32, 32, 32];
const SWEEPS: usize = 3;
/// Amplitude of the seeded noise added to the field.
const NOISE: f64 = 0.01;
/// `rel_error` must match the `SeqBackend` run within this.
const TOL: f64 = 1e-10;

struct Input {
    t: DenseTensor,
    meta: TuckerMeta,
    tree: TtmTree,
    norm_sq: f64,
}

fn generate(seed: u64) -> Input {
    let t = DenseTensor::from_fn(Shape::new(DIMS.to_vec()), |c| {
        combustion_field(c, &DIMS) + NOISE * hash_noise(c, seed)
    });
    let meta = TuckerMeta::new(DIMS.to_vec(), CORE.to_vec());
    let tree = Planner::new(meta.clone(), 1)
        .plan(TreeStrategy::Optimal, GridStrategy::StaticOptimal)
        .tree;
    let norm_sq = fro_norm_sq(&t);
    Input {
        t,
        meta,
        tree,
        norm_sq,
    }
}

/// Layer tallies of one decomposition.
#[derive(Clone, Copy, Default)]
struct Tally {
    wall_s: f64,
    err: f64,
    init_s: f64,
    gram_s: f64,
    gram_calls: u64,
    gram_flops: f64,
    /// Part of `SweepStats::svd` the in-sweep Gram calls charged.
    gram_svd_s: f64,
    ttm_s: f64,
    ttm_calls: u64,
    ttm_flops: f64,
    evd_s: f64,
    evd_calls: u64,
    /// EVD time inside `hooi_loop` (derived from `SweepStats::svd`).
    loop_evd_s: f64,
    bytes_packed: u64,
}

/// A `SweepBackend` that delegates to a host backend and times each Gram
/// and TTM call the executor makes.
struct Probe<'a, B> {
    inner: &'a mut B,
    tracer: &'a Tracer,
    parent: SpanId,
    tally: Tally,
}

impl<B: SweepBackend<Tensor = DenseTensor>> SweepBackend for Probe<'_, B> {
    type Tensor = DenseTensor;

    fn clock(&self) -> std::time::Duration {
        self.inner.clock()
    }

    fn sweep_begin(&mut self) {
        self.inner.sweep_begin();
    }

    fn sweep_end(&mut self, stats: &mut SweepStats) {
        self.inner.sweep_end(stats);
    }

    fn gram(&mut self, t: &DenseTensor, n: usize, stats: &mut SweepStats) -> Matrix {
        let svd0 = stats.svd;
        let _span = self.tracer.span("tensor.gram", self.parent);
        let t0 = Instant::now();
        let g = self.inner.gram(t, n, stats);
        self.tally.gram_s += t0.elapsed().as_secs_f64();
        self.tally.gram_calls += 1;
        self.tally.gram_flops += gram_flops(t.cardinality(), t.shape().dim(n));
        self.tally.gram_svd_s += (stats.svd - svd0).as_secs_f64();
        g
    }

    fn ttm(
        &mut self,
        t: &DenseTensor,
        n: usize,
        factor_t: &Matrix,
        stats: &mut SweepStats,
    ) -> DenseTensor {
        let _span = self.tracer.span("tensor.ttm", self.parent);
        let t0 = Instant::now();
        let out = self.inner.ttm(t, n, factor_t, stats);
        self.tally.ttm_s += t0.elapsed().as_secs_f64();
        self.tally.ttm_calls += 1;
        self.tally.ttm_flops += 2.0 * t.cardinality() as f64 * factor_t.nrows() as f64;
        out
    }

    fn regrid(
        &mut self,
        t: &DenseTensor,
        node: usize,
        stats: &mut SweepStats,
    ) -> Option<DenseTensor> {
        self.inner.regrid(t, node, stats)
    }

    fn recycle(&mut self, t: DenseTensor) {
        self.inner.recycle(t);
    }

    fn local_norm_sq(&mut self, t: &DenseTensor) -> f64 {
        self.inner.local_norm_sq(t)
    }

    fn allreduce(&mut self, x: f64) -> f64 {
        self.inner.allreduce(x)
    }
}

/// One decomposition: HOSVD init from full-tensor Grams on `threads`
/// workers, then [`SWEEPS`] sweeps of `hooi_loop` on `backend`.
fn decompose<B: SweepBackend<Tensor = DenseTensor>>(
    backend: &mut B,
    inp: &Input,
    threads: usize,
    tracer: &Tracer,
) -> Tally {
    let pack0 = bytes_packed();
    let t0 = Instant::now();
    let op = tracer.span("op", 0);
    let mut p = Probe {
        inner: backend,
        tracer,
        parent: 0,
        tally: Tally::default(),
    };

    let init = tracer.span("executor.init", op.id());
    let mut factors = Vec::with_capacity(inp.meta.order());
    for n in 0..inp.meta.order() {
        let g = {
            let _s = tracer.span("tensor.gram", init.id());
            let t1 = Instant::now();
            let g = gram_threads(&inp.t, n, threads);
            p.tally.gram_s += t1.elapsed().as_secs_f64();
            g
        };
        p.tally.gram_calls += 1;
        p.tally.gram_flops += gram_flops(inp.t.cardinality(), inp.meta.l(n));
        let _s = tracer.span("linalg.evd", init.id());
        let t1 = Instant::now();
        factors.push(leading_from_gram(&g, inp.meta.k(n)).u);
        p.tally.evd_s += t1.elapsed().as_secs_f64();
        p.tally.evd_calls += 1;
    }
    drop(init);
    p.tally.init_s = t0.elapsed().as_secs_f64();

    let sweeps = tracer.span("executor.hooi_loop", op.id());
    p.parent = sweeps.id();
    let grams_before = p.tally.gram_calls;
    let out = hooi_loop(
        &mut p,
        &inp.t,
        &inp.meta,
        &inp.tree,
        factors,
        inp.norm_sq,
        LoopCfg::exactly(SWEEPS),
    );
    drop(sweeps);
    // The executor charges each leaf's Gram and its EVD truncation to
    // `SweepStats::svd`; the Gram share is known from the probe.
    let svd_s: f64 = out.per_sweep.iter().map(|s| s.svd.as_secs_f64()).sum();
    p.tally.loop_evd_s = (svd_s - p.tally.gram_svd_s).max(0.0);
    p.tally.evd_s += p.tally.loop_evd_s;
    p.tally.evd_calls += p.tally.gram_calls - grams_before; // one truncation per leaf Gram
    p.recycle(out.core);
    drop(op);

    let mut tally = p.tally;
    tally.wall_s = t0.elapsed().as_secs_f64();
    tally.err = *out.errors.last().expect("at least one sweep ran");
    tally.bytes_packed = bytes_packed() - pack0;
    tally
}

pub fn run(ctx: &Ctx, tracer: &Tracer) -> Outcome {
    let mut o = Outcome::default();
    let off = Tracer::new(false);
    let threads = RayonBackend::new().threads();
    let (setup_s, (inp, mut backend)) = setup_median(|| {
        let inp = generate(ctx.seed);
        let mut backend = RayonBackend::new();
        decompose(&mut backend, &inp, threads, &off); // warm-up
        (inp, backend)
    });

    let (untraced, elapsed) = measure(&mut o, untraced_seconds(ctx), 3, || {
        decompose(&mut backend, &inp, threads, &off)
    });
    let peak_rss = crate::sys::peak_rss_mib();
    let traced = if ctx.trace {
        measure(&mut o, ctx.seconds / 2.0, 3, || {
            decompose(&mut backend, &inp, threads, tracer)
        })
        .0
    } else {
        Vec::new()
    };

    // The check, once, outside the timed region.
    let t0 = Instant::now();
    let reference = guarded(|| decompose(&mut SeqBackend::new(), &inp, 1, &off));
    let seq_s = t0.elapsed().as_secs_f64();
    let all: Vec<&Tally> = untraced.iter().chain(&traced).collect();
    match &reference {
        Ok(r) => {
            for t in &all {
                if (t.err - r.err).abs() >= TOL {
                    o.fail(format!(
                        "rel_error {} vs SeqBackend {} (tolerance {TOL})",
                        t.err, r.err
                    ));
                }
            }
        }
        Err(why) => o.fail(format!("SeqBackend reference panicked: {why}")),
    }
    if let Some(first) = all.first() {
        for t in &all[1..] {
            if t.err.to_bits() != first.err.to_bits() {
                o.fail(format!(
                    "rel_error {} != {} on the same input",
                    t.err, first.err
                ));
            }
        }
        o.fingerprint = format!("rel_error {:?}", first.err);
    }

    let v = &mut o.values;
    let walls = |ts: &[Tally]| ts.iter().map(|t| t.wall_s).collect::<Vec<_>>();
    if !ctx.trace {
        let op_s = walls(&untraced);
        let err = untraced.first().map(|t| t.err);
        report_end_to_end(v, setup_s, &op_s, op_s.len(), elapsed, err, peak_rss);
        return o;
    }

    if traced.is_empty() || untraced.is_empty() {
        return o;
    }
    let med = |f: fn(&Tally) -> f64| median(&traced.iter().map(f).collect::<Vec<_>>());
    let peak = crate::peak_gflops();
    let gram_s = med(|t| t.gram_s);
    let ttm_s = med(|t| t.ttm_s);
    let gram_gflops = med(|t| t.gram_flops / t.gram_s / 1e9);
    let ttm_gflops = med(|t| t.ttm_flops / t.ttm_s / 1e9);
    v.set("executor.init_s", med(|t| t.init_s));
    v.set("tensor.gram_s", gram_s);
    v.set("tensor.gram_calls", traced[0].gram_calls as f64);
    v.set("tensor.gram_gflops", gram_gflops);
    v.set("tensor.ttm_s", ttm_s);
    v.set("tensor.ttm_calls", traced[0].ttm_calls as f64);
    v.set("tensor.ttm_gflops", ttm_gflops);
    v.set("linalg.evd_s", med(|t| t.evd_s));
    v.set("linalg.evd_calls", traced[0].evd_calls as f64);
    v.set("linalg.peak_gflops", peak);
    v.set("tensor.ttm_roofline_frac", ttm_gflops / peak);
    v.set("tensor.gram_roofline_frac", gram_gflops / peak);
    v.set("linalg.bytes_packed", med(|t| t.bytes_packed as f64));
    v.set(
        "executor.residual_s",
        med(|t| t.wall_s - t.gram_s - t.ttm_s - t.evd_s),
    );
    v.set("executor.seq_decompose_s", seq_s);
    v.set(
        "trace.overhead_share",
        overhead_share(&walls(&traced), &walls(&untraced)),
    );

    let mut table = tracer.self_times("op");
    let loop_evd: f64 = traced.iter().map(|t| t.loop_evd_s).sum();
    table.split("executor.hooi_loop", "linalg.evd", loop_evd);
    o.table = Some(table);
    o
}

/// Flops of one mode-`n` Gram of a tensor with `card` elements: the kernel
/// computes the lower triangle only (SYRK), `L_n (L_n + 1) / 2` dot
/// products of length `card / L_n`, two flops per term.
fn gram_flops(card: usize, ln: usize) -> f64 {
    card as f64 * (ln + 1) as f64
}
