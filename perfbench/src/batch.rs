//! The two batch workloads, `paper45` and `small-suite`.
//!
//! Every pass runs in a process of its own (`perfbench pass ...`), so
//! each pass starts from an empty flow cache, pays the set-up a user
//! pays, and has its own peak resident set. The orchestrating process
//! times set-up from the spawn to the child's `setup_done` line; the
//! child times the pass itself and checks its output.

use std::collections::{BTreeMap, HashSet};
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::Arc;
use std::time::Instant;

use m3d_netlist::{BenchScale, Benchmark};
use m3d_tech::{DesignStyle, NodeId, PdkRegistry};
use monolith3d::{
    experiments, ArtifactCache, CancelToken, Comparison, ExperimentPlan, FlowConfig, FlowResult,
    ParallelExecutor, PlanPoint, PointOutcome,
};

use crate::trace::{SpanRecorder, STAGES};
use crate::util::{self, field, Metrics, Rng};

/// The `paper45` circuits. M256 (227k cells) is left out: its 2D/T-MI
/// pair alone takes ~37 s, longer than one measuring window.
pub const PAPER45_BENCHES: [Benchmark; 4] = [
    Benchmark::Fpu,
    Benchmark::Aes,
    Benchmark::Ldpc,
    Benchmark::Des,
];

/// Workers of the `small-suite` fan-out.
const SMALL_SUITE_WORKERS: usize = 2;

const PAPER_TABLES_OUTPUT: &str = include_str!("../../paper_tables_output.txt");
const SMOKE_GOLDEN: &str = include_str!("../../tests/golden/paper_tables_subset_small.txt");
/// `paper_tables --small --jobs 1 all` stdout, recorded when the
/// benchmark was defined; it covers the drivers the golden does not.
pub const SMALL_SUITE_EXPECTED: &str = include_str!("../expected/small_suite.txt");

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Batch {
    Paper45,
    SmallSuite,
}

impl Batch {
    pub fn name(self) -> &'static str {
        match self {
            Batch::Paper45 => "paper45",
            Batch::SmallSuite => "small-suite",
        }
    }

    pub fn from_name(name: &str) -> Option<Batch> {
        [Batch::Paper45, Batch::SmallSuite]
            .into_iter()
            .find(|b| b.name() == name)
    }

    fn workers(self) -> usize {
        match self {
            Batch::Paper45 => 1,
            Batch::SmallSuite => SMALL_SUITE_WORKERS,
        }
    }

    /// The workload's flow points in canonical (unpermuted) order.
    pub fn canonical_points(self) -> Vec<PlanPoint> {
        let mut plan = ExperimentPlan::new();
        match self {
            Batch::Paper45 => {
                let cfg = FlowConfig::new(NodeId::N45).scale(BenchScale::Paper);
                for bench in PAPER45_BENCHES {
                    plan.push_comparison(bench, &cfg);
                }
            }
            Batch::SmallSuite => {
                for (name, _) in m3d_bench::paper_drivers() {
                    plan.merge(experiments::plan_for(name, BenchScale::Small));
                }
            }
        }
        plan.points().to_vec()
    }
}

/// How a pass runs its points.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// `ParallelExecutor::run` over the seeded plan: the timed pass.
    Fanout,
    /// One point at a time through `ParallelExecutor::run_point`, so
    /// every event can be attributed to the point that caused it.
    Serial,
}

/// Options of one `perfbench pass` child.
pub struct PassArgs {
    pub batch: Batch,
    pub seed: u64,
    pub mode: Mode,
    pub setup_only: bool,
    pub trace_out: Option<PathBuf>,
}

impl PassArgs {
    fn to_args(&self) -> Vec<String> {
        let mut a = vec![
            "pass".to_string(),
            "--workload".to_string(),
            self.batch.name().to_string(),
            "--seed".to_string(),
            self.seed.to_string(),
            "--mode".to_string(),
            match self.mode {
                Mode::Fanout => "fanout",
                Mode::Serial => "serial",
            }
            .to_string(),
        ];
        if self.setup_only {
            a.push("--setup-only".to_string());
        }
        if let Some(p) = &self.trace_out {
            a.push("--trace-out".to_string());
            a.push(p.display().to_string());
        }
        a
    }
}

/// Canonical indices in the order this seed runs them.
fn seeded_order(n: usize, seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    Rng::new(seed).shuffle(&mut order);
    order
}

fn parent_id(i: usize, p: &PlanPoint) -> String {
    format!(
        "{}/{}/{}#{i}",
        p.bench.name(),
        p.style.label(),
        p.config.node_id.label()
    )
}

/// Set-up: the PDK registry plus every cell library the points need,
/// characterized into the process-wide cache the pass then uses.
fn setup(points: &[PlanPoint]) -> Result<(), String> {
    let _ = PdkRegistry::global();
    let cache = ArtifactCache::global();
    let mut seen = HashSet::new();
    for p in points {
        let c = &p.config;
        let mut keys = vec![(
            c.node_id,
            p.style,
            c.lower_metal_rho,
            c.pin_cap_scale.to_bits(),
        )];
        if !c.tmi_wlm && p.style == DesignStyle::Tmi {
            keys.push((
                c.node_id,
                DesignStyle::TwoD,
                c.lower_metal_rho,
                1f64.to_bits(),
            ));
        }
        for k in keys {
            if seen.insert(k) {
                cache
                    .library(k.0, k.1, k.2, f64::from_bits(k.3))
                    .map_err(|e| format!("library {}/{}: {e}", k.0.label(), k.1.label()))?;
            }
        }
    }
    Ok(())
}

/// The body of a `perfbench pass` child. Prints `setup_done` once the
/// libraries are built, then one flat JSON record of the pass.
pub fn pass_main(args: &PassArgs) -> Result<(), String> {
    let points = args.batch.canonical_points();
    setup(&points)?;
    let mut out = std::io::stdout();
    writeln!(out, "setup_done")
        .and_then(|()| out.flush())
        .map_err(|e| e.to_string())?;
    if args.setup_only {
        return Ok(());
    }

    let cache = ArtifactCache::global();
    let rec = args
        .trace_out
        .as_ref()
        .map(|_| Arc::new(SpanRecorder::new()));
    if let Some(r) = &rec {
        cache.set_recorder(Arc::clone(r) as Arc<dyn monolith3d::Recorder>);
    }
    let order = seeded_order(points.len(), args.seed);
    let before = cache.stats();
    let mut rec_json = Metrics::default();

    let t = Instant::now();
    let mut results: Vec<Option<FlowResult>> = vec![None; points.len()];
    match args.mode {
        Mode::Fanout => {
            let mut plan = ExperimentPlan::new();
            for &i in &order {
                let p = &points[i];
                plan.push(p.bench, p.style, p.config.clone());
            }
            let report = ParallelExecutor::new(args.batch.workers()).run(&plan);
            let util = report.utilization();
            rec_json
                .num("exec_busy_s", report.workers.iter().map(|w| w.busy_s).sum())
                .num(
                    "exec_util",
                    util.iter().sum::<f64>() / util.len().max(1) as f64,
                )
                .int(
                    "exec_steals",
                    report.workers.iter().map(|w| w.steals as u64).sum(),
                );
            for (slot, r) in order.iter().zip(report.results) {
                match r {
                    Ok(r) => results[*slot] = Some(r),
                    Err(e) => {
                        eprintln!("perfbench pass: {}: {e}", parent_id(*slot, &points[*slot]))
                    }
                }
            }
        }
        Mode::Serial => {
            let exec = ParallelExecutor::new(1);
            let tok = CancelToken::new();
            for &i in &order {
                if let Some(r) = &rec {
                    r.set_parent(&parent_id(i, &points[i]));
                }
                match exec.run_point(&points[i], &tok) {
                    PointOutcome::Done(r) => results[i] = Some(*r),
                    other => eprintln!("perfbench pass: {}: {other:?}", parent_id(i, &points[i])),
                }
            }
        }
    }
    if let Some(r) = &rec {
        r.set_parent("format");
    }
    let sections = format_output(args.batch, &results, args.seed);
    let wall_s = t.elapsed().as_secs_f64();

    let stats = cache.stats().delta(&before);
    let failed_points = results.iter().filter(|r| r.is_none()).count() as u64;
    let (checks, mismatches) = check_output(args.batch, &sections);
    rec_json
        .num("wall_s", wall_s)
        .int("points", points.len() as u64)
        .int("failed_points", failed_points)
        .int("checks", checks)
        .int("mismatches", mismatches)
        .num(
            "rss_mib",
            util::vm_hwm_mib(Path::new("/proc/self/status")).unwrap_or(0.0),
        )
        .int("library_builds", stats.library_builds)
        .int("library_hits", stats.library_hits)
        .int("flow_hits", stats.flow_hits)
        .int("flow_misses", stats.flow_misses)
        .int("disk_hits", stats.disk_hits)
        .int("disk_stores", stats.disk_stores)
        .int("disk_quarantined", stats.disk_quarantined);
    if let (Some(r), Some(path)) = (&rec, &args.trace_out) {
        cache.set_recorder(monolith3d::observe::null());
        let events = r.write_validated(path)?;
        let totals = r.totals();
        for (stage, s) in STAGES.iter().zip(totals.stage_s) {
            rec_json.num(&format!("stage_{}_s", stage.key()), s);
        }
        rec_json
            .num("span_s", totals.total_s())
            .int("attempts", totals.attempts)
            .int("coalesced", totals.coalesced)
            .int("trace_events", events as u64);
    }
    writeln!(out, "{}", rec_json.to_json()).map_err(|e| e.to_string())
}

/// The pass's output as `(section name, text)` in canonical order.
/// Drivers run in the seeded order; the result is reassembled so the
/// check holds whatever the order.
fn format_output(batch: Batch, results: &[Option<FlowResult>], seed: u64) -> Vec<(String, String)> {
    match batch {
        Batch::Paper45 => results
            .chunks(2)
            .zip(PAPER45_BENCHES)
            .map(|(pair, bench)| {
                let text = match pair {
                    [Some(two_d), Some(tmi)] => {
                        let cmp = Comparison {
                            two_d: two_d.clone(),
                            tmi: tmi.clone(),
                        };
                        format!(
                            "{}\n{}\n{}",
                            cmp.table_row(),
                            detail_row(two_d),
                            detail_row(tmi)
                        )
                    }
                    _ => String::new(),
                };
                (bench.name().to_string(), text)
            })
            .collect(),
        Batch::SmallSuite => {
            let drivers = m3d_bench::paper_drivers();
            let mut texts: Vec<Option<String>> = vec![None; drivers.len()];
            for i in seeded_order(drivers.len(), seed) {
                texts[i] = Some((drivers[i].1)(BenchScale::Small));
            }
            drivers
                .iter()
                .zip(texts)
                .map(|((name, _), t)| (name.to_string(), t.unwrap_or_default()))
                .collect()
        }
    }
}

/// One detailed layout row, as Tables 13/14 print it.
fn detail_row(r: &FlowResult) -> String {
    format!(
        "  {:3} fp {:9.0} um2  cells {:7} bufs {:6} util {:4.2} WL {:7.3} m WNS {:+6.0} ps  \
         P {:8.2} mW (cell {:7.2} net {:7.2} leak {:6.3})",
        r.style.label(),
        r.footprint_um2,
        r.cell_count,
        r.buffer_count,
        r.utilization,
        r.wirelength_m(),
        r.wns_ps,
        r.total_power_mw(),
        r.power.cell_mw,
        r.power.net_mw(),
        r.power.leakage_mw
    )
}

/// Splits `paper_tables` stdout into its `==== name ====` sections.
pub fn sections(text: &str) -> BTreeMap<String, String> {
    let mut out = BTreeMap::new();
    let mut name: Option<String> = None;
    let mut body = String::new();
    for line in text.lines() {
        let header = line
            .strip_prefix("==================== ")
            .and_then(|l| l.strip_suffix(" ===================="));
        if let Some(h) = header {
            if let Some(n) = name.take() {
                out.insert(n, std::mem::take(&mut body));
            }
            name = Some(h.to_string());
        } else if name.is_some() {
            body.push_str(line);
            body.push('\n');
        }
    }
    if let Some(n) = name {
        out.insert(n, body);
    }
    out
}

/// The expected text of one `paper45` circuit: its Table 4 row and its
/// two detailed rows from the recorded paper-scale run.
fn paper45_expected(bench: Benchmark) -> String {
    let all = sections(PAPER_TABLES_OUTPUT);
    let table4 = all.get("table4").map(String::as_str).unwrap_or("");
    let idx = Benchmark::ALL.iter().position(|b| *b == bench).unwrap_or(0);
    let row = table4
        .lines()
        .find(|l| l.split_whitespace().next() == Some(bench.name()))
        .unwrap_or("");
    let details: Vec<&str> = table4
        .lines()
        .skip_while(|l| !l.starts_with("detailed rows"))
        .skip(1)
        .collect();
    format!(
        "{row}\n{}\n{}",
        details.get(2 * idx).unwrap_or(&""),
        details.get(2 * idx + 1).unwrap_or(&"")
    )
}

/// Compares every section with its expectation: `(checked, mismatched)`.
fn check_output(batch: Batch, got: &[(String, String)]) -> (u64, u64) {
    let golden = sections(SMOKE_GOLDEN);
    let recorded = sections(SMALL_SUITE_EXPECTED);
    let mut bad = 0;
    for (name, text) in got {
        let ok = match batch {
            Batch::Paper45 => {
                let bench = PAPER45_BENCHES.iter().find(|b| b.name() == name);
                bench.is_some_and(|b| *text == paper45_expected(*b))
            }
            // paper_tables prints each driver's text with println!, so
            // a section is the text plus one newline.
            Batch::SmallSuite => {
                let want = golden.get(name).or_else(|| recorded.get(name));
                want.is_some_and(|w| *w == format!("{text}\n"))
            }
        };
        if !ok {
            eprintln!(
                "perfbench: {} output mismatch in section {name}",
                batch.name()
            );
            bad += 1;
        }
    }
    (got.len() as u64, bad)
}

/// One finished child pass, as the orchestrator saw it.
pub struct PassOut {
    /// Spawn until `setup_done`.
    pub setup_s: f64,
    /// Spawn until exit.
    pub total_s: f64,
    /// The child's JSON record (empty for a set-up-only child).
    pub record: String,
}

impl PassOut {
    pub fn get(&self, k: &str) -> f64 {
        field(&self.record, k)
    }
}

/// Spawns one pass child and waits for it.
pub fn spawn_pass(exe: &Path, args: &PassArgs) -> Result<PassOut, String> {
    let t0 = Instant::now();
    let mut child = Command::new(exe)
        .args(args.to_args())
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| format!("spawn {}: {e}", exe.display()))?;
    let mut setup_s = None;
    let mut record = String::new();
    if let Some(stdout) = child.stdout.take() {
        for line in BufReader::new(stdout).lines() {
            let line = line.map_err(|e| e.to_string())?;
            if line == "setup_done" {
                setup_s = Some(t0.elapsed().as_secs_f64());
            } else if line.starts_with('{') {
                record = line;
            }
        }
    }
    let status = child.wait().map_err(|e| e.to_string())?;
    let total_s = t0.elapsed().as_secs_f64();
    match setup_s {
        Some(setup_s) if status.success() && (args.setup_only || !record.is_empty()) => {
            Ok(PassOut {
                setup_s,
                total_s,
                record,
            })
        }
        _ => Err(format!("{} pass failed ({status})", args.batch.name())),
    }
}
