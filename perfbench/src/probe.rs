//! The layer probe: times one call of each public EDA function, in
//! paper Fig. 1 order, on each distinct design of a workload, plus the
//! durable-store and wire-frame primitives the server path rests on.
//! Runs only in the traced run, never inside a timed pass.

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use m3d_cells::CellLibrary;
use m3d_netlist::{BenchScale, Benchmark};
use m3d_place::Placer;
use m3d_power::{try_analyze_power, PowerConfig};
use m3d_route::Router;
use m3d_sta::{
    plan_load_sizing, plan_power_recovery, plan_timing_moves, try_analyze, TimingConfig,
};
use m3d_synth::{try_synthesize, SynthConfig, WireLoadModel};
use m3d_tech::{DesignStyle, MetalStack, NodeId, TechNode};
use monolith3d::{
    default_clock_scale_at, estimate_models, try_extraction_models, DiskStore, Flow, FlowConfig,
    FlowKey,
};

use crate::util::{median, Metrics};

/// Probe steps, in the order they run.
pub const STEPS: [&str; 15] = [
    "library",
    "generate",
    "place_prelim",
    "wlm",
    "synth",
    "place",
    "estimate",
    "sta",
    "plan_timing",
    "plan_sizing",
    "plan_recovery",
    "clone",
    "route",
    "extract",
    "power",
];

/// One distinct design of a workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Design {
    pub bench: Benchmark,
    pub style: DesignStyle,
    pub node: NodeId,
    pub scale: BenchScale,
}

#[derive(Debug, Default)]
pub struct ProbeTotals {
    /// Seconds per entry of [`STEPS`], summed over designs.
    pub step_s: [f64; 15],
    pub cells: u64,
    pub nets: u64,
}

fn timed<T>(slot: &mut f64, f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let v = black_box(f());
    *slot += t.elapsed().as_secs_f64();
    v
}

/// Runs every step once on `d`, adding the times to `acc`.
pub fn probe_design(d: Design, acc: &mut ProbeTotals) -> Result<(), String> {
    let err = |step: &str, e: &dyn std::fmt::Display| {
        format!(
            "probe {}/{}/{} {step}: {e}",
            d.bench.name(),
            d.style.label(),
            d.node.label()
        )
    };
    let cfg = FlowConfig::new(d.node).scale(d.scale);
    let node = TechNode::for_id(d.node);
    let stack = MetalStack::new(&node, d.style.default_stack());
    let util = d.bench.target_utilization();
    let clock_ps = d.bench.target_clock_ps(d.node) * default_clock_scale_at(d.bench, d.node);
    let s = &mut acc.step_s;

    let lib = timed(&mut s[0], || CellLibrary::build(&node, d.style));
    let raw = timed(&mut s[1], || d.bench.generate(&lib, d.scale));
    let prelim = timed(&mut s[2], || {
        Placer::new(&lib)
            .utilization(util)
            .iterations(16)
            .try_place(&raw)
    })
    .map_err(|e| err("place_prelim", &e))?;
    let wlm = timed(&mut s[3], || WireLoadModel::from_placement(&raw, &prelim));
    let netlist = timed(&mut s[4], || {
        try_synthesize(raw, &lib, &wlm, &SynthConfig::new(clock_ps))
    })
    .map_err(|e| err("synth", &e))?;
    let placement = timed(&mut s[5], || {
        Placer::new(&lib)
            .utilization(util)
            .iterations(cfg.place_iterations)
            .try_place(&netlist)
    })
    .map_err(|e| err("place", &e))?;
    let est = timed(&mut s[6], || {
        estimate_models(&netlist, &placement, &node, &stack)
    });
    let timing = TimingConfig::new(clock_ps);
    let report = timed(&mut s[7], || try_analyze(&netlist, &lib, &est, &timing))
        .map_err(|e| err("sta", &e))?;
    // The same move budgets and targets the flow's stages use.
    timed(&mut s[8], || {
        let limit = 3000.max(netlist.net_count() / 4);
        plan_timing_moves(&netlist, &lib, &est, &report, limit)
    });
    let depth = m3d_netlist::levelize(&netlist, &lib)
        .map(|(levels, _)| levels.iter().copied().max().unwrap_or(1) as f64 + 3.0)
        .map_err(|c| {
            err(
                "levelize",
                &format!("combinational cycle over {} cells", c.len()),
            )
        })?;
    let tau_ps = (0.55 * clock_ps / depth).clamp(20.0, 200.0);
    timed(&mut s[9], || plan_load_sizing(&netlist, &lib, &est, tau_ps));
    timed(&mut s[10], || {
        let batch = 500.max(netlist.instance_count() / 6);
        plan_power_recovery(&netlist, &lib, &report, 0.02 * clock_ps, batch)
    });
    timed(&mut s[11], || (netlist.clone(), placement.clone()));
    let routed = timed(&mut s[12], || {
        Router::new(&node, &stack).try_route(&netlist, &placement, &lib)
    })
    .map_err(|e| err("route", &e))?;
    let models = timed(&mut s[13], || {
        try_extraction_models(&netlist, &routed, &node)
    })
    .map_err(|e| err("extract", &e))?;
    timed(&mut s[14], || {
        try_analyze_power(&netlist, &lib, &models, &PowerConfig::new(clock_ps))
    })
    .map_err(|e| err("power", &e))?;
    acc.cells += netlist.instance_count() as u64;
    acc.nets += netlist.net_count() as u64;
    Ok(())
}

/// Median milliseconds of `DiskStore::store_flow` and `load_flow` over
/// `reps` round trips of one small-scale result, in `dir`.
pub fn probe_store(dir: &Path, reps: usize) -> Result<(f64, f64), String> {
    let cfg = FlowConfig::new(NodeId::N45).scale(BenchScale::Small);
    let result = Flow::new(Benchmark::Des, DesignStyle::TwoD, cfg.clone())
        .try_run_with_cache(&std::sync::Arc::new(monolith3d::ArtifactCache::default()))
        .map_err(|e| format!("store probe flow: {e}"))?;
    let key = FlowKey::of(Benchmark::Des, DesignStyle::TwoD, &cfg);
    let store = DiskStore::open(dir);
    let (mut publish, mut load) = (Vec::new(), Vec::new());
    for _ in 0..reps {
        let t = Instant::now();
        store.store_flow(&key, &result);
        publish.push(t.elapsed().as_secs_f64() * 1e3);
        let t = Instant::now();
        let back = store.load_flow(&key);
        load.push(t.elapsed().as_secs_f64() * 1e3);
        if back.as_ref() != Some(&result) {
            return Err("store probe: load_flow did not return the stored result".to_string());
        }
    }
    Ok((median(&publish), median(&load)))
}

/// Probes every design and the store; appends the `probe.*` metrics.
pub fn run(designs: &[Design], store_dir: &Path, out: &mut Metrics) -> Result<(), String> {
    let mut acc = ProbeTotals::default();
    for d in designs {
        probe_design(*d, &mut acc)?;
    }
    for (name, s) in STEPS.iter().zip(acc.step_s) {
        out.num(&format!("probe.{name}_s"), s);
    }
    out.int("probe.cells", acc.cells)
        .int("probe.nets", acc.nets);
    let (publish_ms, load_ms) = probe_store(store_dir, 20)?;
    out.num("probe.store_load_ms", load_ms)
        .num("probe.store_publish_ms", publish_ms);
    Ok(())
}
