//! `dist-p4096`: the scaling metadata 16×12×12×10×10 → 8×8×8×6×6 through
//! `run_distributed_hooi_mesh` at P = 4096 in virtual time (BG/Q α–β
//! model, no core gather), two sweeps, on random data (the paper's §6.1
//! setting: execution cost depends on the metadata only).
//!
//! At this P the planner's joint DP is a small share of host time; the rest
//! is fiber scheduling, simulated collectives and regrid. With thousands of
//! ranks on a few cores, host time is what the simulator costs, not a
//! scaling figure; the modeled communication (unit `s_virtual`) is what the
//! paper's machine would spend.

use crate::metrics::median;
use crate::trace::Tracer;
use crate::{
    guarded, measure, overhead_share, report_end_to_end, setup_median, untraced_seconds, Ctx,
    Outcome,
};
use std::time::{Duration, Instant};
use tucker_core::plan::grid::candidate_grids;
use tucker_core::{
    run_distributed_hooi_mesh, EngineConfig, MeshHooiOutput, NetCostModel, Plan, Planner,
    SearchBudget, TuckerMeta,
};
use tucker_distsim::{MeshCfg, NetModel, VolumeCategory};
use tucker_suite::fields::hash_noise;

const DIMS: [usize; 5] = [16, 12, 12, 10, 10];
const CORE: [usize; 5] = [8, 8, 8, 6, 6];
const SWEEPS: usize = 2;
/// Simulated ranks.
const P: usize = 4096;

/// Everything one mesh run needs.
struct Setup {
    meta: TuckerMeta,
    cfg: EngineConfig,
    mesh: MeshCfg,
    net: NetModel,
}

fn configure(cores: usize) -> Setup {
    let net = NetModel::bgq();
    Setup {
        meta: TuckerMeta::new(DIMS.to_vec(), CORE.to_vec()),
        cfg: EngineConfig {
            gather_core: false,
            ..EngineConfig::virtual_time(net)
        },
        mesh: MeshCfg {
            workers: cores,
            ..MeshCfg::default()
        },
        net,
    }
}

/// The deterministic part of one run, compared bit for bit across runs.
#[derive(Clone, Debug, PartialEq)]
struct Figures {
    plan: String,
    comm_wall: Vec<Duration>,
    predicted: Vec<Option<Duration>>,
    volumes: [u64; 4],
    err: u64,
}

impl Figures {
    fn of(out: &MeshHooiOutput) -> Self {
        let mut volumes = [0u64; 4];
        for v in &out.epoch_volumes {
            for (slot, cat) in volumes.iter_mut().zip(CATEGORIES) {
                *slot += v.elements(cat);
            }
        }
        Figures {
            plan: out.plans.join(" / "),
            comm_wall: out.per_sweep.iter().map(|s| s.comm_wall).collect(),
            predicted: out
                .per_sweep
                .iter()
                .map(|s| s.provenance.as_ref().and_then(|p| p.predicted_comm))
                .collect(),
            volumes,
            err: out.per_sweep.last().map_or(0, |s| s.error.to_bits()),
        }
    }

    fn err(&self) -> f64 {
        f64::from_bits(self.err)
    }
}

const CATEGORIES: [VolumeCategory; 4] = [
    VolumeCategory::TtmReduceScatter,
    VolumeCategory::Regrid,
    VolumeCategory::Gram,
    VolumeCategory::Other,
];

/// One operation's measurements.
struct Run {
    wall_s: f64,
    /// Standalone planner call (traced operations only).
    dp_s: f64,
    figures: Figures,
    rank_cpu_s: f64,
    workers: usize,
    recoveries: usize,
}

fn decompose(s: &Setup, seed: u64, tracer: &Tracer) -> Run {
    // Traced runs first time the planner standalone, outside the operation.
    let mut dp_s = 0.0;
    if tracer.on() {
        let _s = tracer.span("plan.best_plan", 0);
        let t1 = Instant::now();
        std::hint::black_box(engine_plan(s));
        dp_s = t1.elapsed().as_secs_f64();
    }
    let t0 = Instant::now();
    let op = tracer.span("op", 0);
    let out = {
        let _s = tracer.span("engine.run_mesh", op.id());
        run_distributed_hooi_mesh(
            |c: &[usize]| hash_noise(c, seed),
            &s.meta,
            P,
            SWEEPS,
            &s.cfg,
            &s.mesh,
            None,
        )
    };
    drop(op);
    Run {
        wall_s: t0.elapsed().as_secs_f64(),
        dp_s,
        figures: Figures::of(&out),
        rank_cpu_s: out
            .per_sweep
            .iter()
            .map(|s| (s.ttm_compute + s.svd).as_secs_f64())
            .sum(),
        workers: out.workers,
        recoveries: out.recoveries.len(),
    }
}

/// The plan the engine searches for internally: the joint DP under the
/// α–β model, winner only.
fn engine_plan(s: &Setup) -> Plan {
    Planner::new(s.meta.clone(), P)
        .best_plan_with(&NetCostModel::new(s.net, P), &SearchBudget::winner_only())
}

/// Check one run against the plan: every sweep's executed comm wall equals
/// its stamped prediction and the planner's, to the nanosecond, and the
/// ledger's TTM volume equals the §4.1 model.
fn check(r: &Run, plan: &Plan, predicted: Duration) -> Result<(), String> {
    let f = &r.figures;
    if r.recoveries != 0 {
        return Err(format!("{} unexpected recovery rounds", r.recoveries));
    }
    if f.plan != plan.name() {
        return Err(format!(
            "engine ran {} but the planner picks {}",
            f.plan,
            plan.name()
        ));
    }
    if f.comm_wall.len() != SWEEPS {
        return Err(format!("{} sweeps, expected {SWEEPS}", f.comm_wall.len()));
    }
    for (i, (wall, stamped)) in f.comm_wall.iter().zip(&f.predicted).enumerate() {
        if *stamped != Some(*wall) || *wall != predicted {
            return Err(format!(
                "sweep {i}: comm wall {wall:?}, stamped prediction {stamped:?}, planner {predicted:?}"
            ));
        }
    }
    let model = SWEEPS as f64 * plan.modeled_sweep_ttm_elements();
    let ledger = f.volumes[0] as f64;
    if (ledger - model).abs() > model.max(1.0) * 1e-9 {
        return Err(format!("ledger TTM {ledger} vs §4.1 model {model}"));
    }
    let err = f.err();
    if !(err > 0.0 && err < 1.0) {
        return Err(format!("rel_error {err} outside (0, 1)"));
    }
    Ok(())
}

pub fn run(ctx: &Ctx, tracer: &Tracer) -> Outcome {
    let mut o = Outcome::default();
    let off = Tracer::new(false);
    let (setup_s, s) = setup_median(|| {
        let s = configure(ctx.cores);
        decompose(&s, ctx.seed, &off); // warm-up
        s
    });

    let (untraced, elapsed) = measure(&mut o, untraced_seconds(ctx), 3, || {
        decompose(&s, ctx.seed, &off)
    });
    let peak_rss = crate::sys::peak_rss_mib();
    let traced = if ctx.trace {
        measure(&mut o, ctx.seconds / 2.0, 2, || {
            decompose(&s, ctx.seed, tracer)
        })
        .0
    } else {
        Vec::new()
    };

    // The check, once, outside the timed region.
    let plan = guarded(|| engine_plan(&s));
    let plan = match plan {
        Ok(plan) => plan,
        Err(why) => {
            o.fail(format!("planner panicked: {why}"));
            return o;
        }
    };
    let net_model = NetCostModel::new(s.net, P);
    let pred = plan.predict_net(&net_model);
    for r in untraced.iter().chain(&traced) {
        if let Err(why) = check(r, &plan, pred.comm_wall) {
            o.fail(why);
        }
    }
    let Some(first) = untraced.first() else {
        return o;
    };
    for r in untraced.iter().chain(&traced).skip(1) {
        if r.figures != first.figures {
            o.fail(format!(
                "deterministic figures differ between operations: {:?} vs {:?}",
                r.figures, first.figures
            ));
        }
    }
    let f = &first.figures;
    o.fingerprint = format!("{f:?}");

    let v = &mut o.values;
    let walls = |rs: &[Run]| rs.iter().map(|r| r.wall_s).collect::<Vec<_>>();
    if !ctx.trace {
        let op_s = walls(&untraced);
        report_end_to_end(
            v,
            setup_s,
            &op_s,
            op_s.len(),
            elapsed,
            Some(f.err()),
            peak_rss,
        );
        return o;
    }

    if traced.is_empty() {
        return o;
    }
    let med = |g: fn(&Run) -> f64| median(&traced.iter().map(g).collect::<Vec<_>>());
    let dp_s = med(|r| r.dp_s);
    let sim_s = med(|r| r.wall_s) - dp_s;
    v.set("plan.dp_s", dp_s);
    v.set(
        "plan.grid_candidates",
        candidate_grids(&s.meta, P).len() as f64,
    );
    v.set("plan.predicted_comm_s", pred.comm_wall.as_secs_f64());
    v.set("engine.sim_s", sim_s);
    v.set(
        "engine.sim_us_per_rank_sweep",
        sim_s / (P * SWEEPS) as f64 * 1e6,
    );
    let comm: Duration = f.comm_wall.iter().sum();
    v.set("distsim.virtual_comm_s", comm.as_secs_f64() / SWEEPS as f64);
    v.set("distsim.ttm_comm_s", pred.ttm_comm.as_secs_f64());
    v.set("distsim.regrid_comm_s", pred.regrid_comm.as_secs_f64());
    v.set("distsim.gram_comm_s", pred.gram_comm.as_secs_f64());
    v.set("distsim.volume_elems", f.volumes.iter().sum::<u64>() as f64);
    v.set("distsim.ttm_volume_elems", f.volumes[0] as f64);
    v.set("distsim.regrid_volume_elems", f.volumes[1] as f64);
    v.set("distsim.gram_volume_elems", f.volumes[2] as f64);
    v.set("distsim.other_volume_elems", f.volumes[3] as f64);
    v.set("distsim.rank_cpu_s", med(|r| r.rank_cpu_s));
    v.set("mesh.workers", first.workers as f64);
    v.set("linalg.peak_gflops", crate::peak_gflops());
    v.set(
        "trace.overhead_share",
        overhead_share(&walls(&traced), &walls(&untraced)),
    );

    // The DP runs inside the engine call as well; the standalone call's
    // time stands in for that share of the engine span.
    let mut table = tracer.self_times("op");
    let dp_total: f64 = traced.iter().map(|r| r.dp_s).sum();
    table.split("engine.run_mesh", "plan.dp (in engine call)", dp_total);
    o.table = Some(table);
    o
}
