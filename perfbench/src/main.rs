//! The monolith3d benchmark: end-to-end metrics of three workloads
//! from untraced runs, per-layer metrics from a separate traced run.
//!
//! ```text
//! perfbench --workload paper45|small-suite|serve-mix --seed N --seconds S --trace 0|1
//! ```
//!
//! The last stdout line is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`; the lines before it print every metric with
//! its unit and the run's provenance. `perfbench/README.md` defines
//! each metric and why each workload exists. The binary re-executes
//! itself as `perfbench pass ...` for every batch pass.

mod batch;
mod probe;
mod serve;
mod trace;
mod util;

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;

use batch::{spawn_pass, Batch, Mode, PassArgs, PassOut};
use probe::Design;
use util::{median, percentile, Metrics};

/// End-to-end metrics: name and unit. Printed for every workload.
const END_TO_END: [(&str, &str); 5] = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("rps", "req/s"),
    ("p50_ms", "ms"),
];

/// Set-ups measured per run, at least: the median of several keeps
/// `setup_s` steady although one set-up takes milliseconds.
const MIN_SETUPS: usize = 9;

/// Pings behind `probe.frame_ms`.
const FRAME_PINGS: usize = 200;

/// Untraced `serve-mix` rounds in the traced run.
const TRACED_RUN_ROUNDS: usize = 3;

fn per_layer_units() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = Vec::new();
    for s in trace::STAGES {
        v.push((format!("stage.{}_s", s.key()), "s"));
    }
    v.push(("stage.attempts".into(), "count"));
    v.push(("stage.outside_s".into(), "s"));
    v.push(("trace.overhead_s".into(), "s"));
    for c in [
        "flow_hits",
        "flow_misses",
        "library_builds",
        "library_hits",
        "coalesced",
    ] {
        v.push((format!("cache.{c}"), "count"));
    }
    v.push(("cache.flow_hit_ratio".into(), "fraction"));
    for c in ["disk_hits", "disk_stores", "quarantined"] {
        v.push((format!("store.{c}"), "count"));
    }
    v.push(("executor.busy_s".into(), "s"));
    v.push(("executor.utilization".into(), "fraction"));
    v.push(("executor.steals".into(), "count"));
    v.push(("serve.p99_ms".into(), "ms"));
    v.push(("serve.hit_p50_ms".into(), "ms"));
    v.push(("serve.cold_p50_ms".into(), "ms"));
    v.push(("serve.coalesce_rate".into(), "fraction"));
    for c in serve::ERROR_CLASSES {
        v.push((format!("serve.errors.{c}"), "count"));
    }
    for s in probe::STEPS {
        v.push((format!("probe.{s}_s"), "s"));
    }
    v.push(("probe.cells".into(), "count"));
    v.push(("probe.nets".into(), "count"));
    for s in ["store_load", "store_publish", "frame"] {
        v.push((format!("probe.{s}_ms"), "ms"));
    }
    v
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

/// Where one run keeps its scratch files, relative to the checkout
/// root so unix-socket paths stay short.
fn work_root() -> PathBuf {
    PathBuf::from(".bench_build/perfbench-work").join(std::process::id().to_string())
}

/// Where a traced run keeps its JSONL trace after the run.
fn trace_path(workload: &str, seed: u64) -> Result<PathBuf, String> {
    let dir = PathBuf::from(".bench_build/perfbench-traces");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(dir.join(format!("{workload}-seed{seed}.jsonl")))
}

/// Tallies of one run: what the result line's `attempted` and
/// `failed` count.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let code = if argv.first().map(String::as_str) == Some("pass") {
        match parse_pass(&argv[1..]).and_then(|a| batch::pass_main(&a)) {
            Ok(()) => 0,
            Err(e) => {
                eprintln!("perfbench pass: {e}");
                1
            }
        }
    } else {
        match parse(&argv).and_then(|a| orchestrate(&a)) {
            Ok(()) => 0,
            Err(e) => {
                eprintln!("perfbench: {e}");
                1
            }
        }
    };
    std::process::exit(code);
}

fn value<'a>(it: &mut impl Iterator<Item = &'a String>, flag: &str) -> Result<&'a String, String> {
    it.next().ok_or(format!("{flag} needs a value"))
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--workload" => workload = Some(value(&mut it, a)?.clone()),
            "--seed" => seed = Some(value(&mut it, a)?.parse().map_err(|_| "bad --seed")?),
            "--seconds" => {
                let s: f64 = value(&mut it, a)?.parse().map_err(|_| "bad --seconds")?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value(&mut it, a)?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let usage = "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1";
    Ok(Args {
        workload: workload.ok_or(usage)?,
        seed: seed.ok_or(usage)?,
        seconds: seconds.ok_or(usage)?,
        trace: trace.ok_or(usage)?,
    })
}

fn parse_pass(argv: &[String]) -> Result<PassArgs, String> {
    let mut args = PassArgs {
        batch: Batch::Paper45,
        seed: 0,
        mode: Mode::Fanout,
        setup_only: false,
        trace_out: None,
    };
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--workload" => {
                let w = value(&mut it, a)?;
                args.batch = Batch::from_name(w).ok_or(format!("no batch workload {w}"))?;
            }
            "--seed" => args.seed = value(&mut it, a)?.parse().map_err(|_| "bad --seed")?,
            "--mode" => {
                args.mode = match value(&mut it, a)?.as_str() {
                    "fanout" => Mode::Fanout,
                    "serial" => Mode::Serial,
                    other => return Err(format!("unknown mode {other}")),
                }
            }
            "--setup-only" => args.setup_only = true,
            "--trace-out" => args.trace_out = Some(PathBuf::from(value(&mut it, a)?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

/// The checked-out commit, read from `.git` in the working directory
/// (never above it), or `unknown` outside a git checkout.
fn git_commit() -> String {
    let read = |p: &str| std::fs::read_to_string(Path::new(".git").join(p)).ok();
    let head = read("HEAD").unwrap_or_default();
    let head = head.trim();
    let commit = match head.strip_prefix("ref: ") {
        None => Some(head.to_string()),
        Some(r) => read(r).map(|c| c.trim().to_string()).or_else(|| {
            read("packed-refs")?
                .lines()
                .find(|l| l.ends_with(&format!(" {r}")))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        }),
    };
    commit
        .filter(|c| !c.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// One line of command output, or `unknown`.
fn command_line(cmd: &str, args: &[&str]) -> String {
    Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

fn orchestrate(a: &Args) -> Result<(), String> {
    if cfg!(debug_assertions) {
        return Err("refusing to record numbers from a debug build; build with --release".into());
    }
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let serve_bin = exe.with_file_name("m3d_serve");
    let work = work_root();
    std::fs::create_dir_all(&work).map_err(|e| format!("{}: {e}", work.display()))?;

    let mut m = Metrics::default();
    let mut tally = Tally::default();
    let run = match (Batch::from_name(&a.workload), a.workload.as_str()) {
        (Some(b), _) if a.trace => traced_batch(b, a, &exe, &serve_bin, &work, &mut m, &mut tally),
        (Some(b), _) => timed_batch(b, a, &exe, &mut m, &mut tally),
        (None, "serve-mix") if a.trace => traced_serve(a, &serve_bin, &work, &mut m, &mut tally),
        (None, "serve-mix") => timed_serve(a, &serve_bin, &work, &mut m, &mut tally),
        _ => Err(format!(
            "unknown workload {} (paper45, small-suite, serve-mix)",
            a.workload
        )),
    };
    let _ = std::fs::remove_dir_all(&work);
    run?;

    let units: Vec<(String, &str)> = if a.trace {
        per_layer_units()
    } else {
        END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), *u))
            .collect()
    };
    let missing: BTreeSet<&str> = units
        .iter()
        .map(|(n, _)| n.as_str())
        .filter(|n| !m.0.contains_key(*n))
        .collect();
    if !missing.is_empty() {
        return Err(format!("metrics not measured: {missing:?}"));
    }

    println!(
        "perfbench {} seed {} ({} run, {:.0} s window)",
        a.workload,
        a.seed,
        if a.trace { "traced" } else { "untraced" },
        a.seconds
    );
    println!(
        "provenance: nproc {} | profile release | {} | commit {} | requests {}",
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        command_line("rustc", &["-V"]),
        git_commit(),
        tally.attempted
    );
    let mut json = String::from("{");
    for (i, (name, unit)) in units.iter().enumerate() {
        let v = m.0[name];
        println!("  {name:28} {v:>14.6} {unit}");
        if i > 0 {
            json.push(',');
        }
        json.push_str(&format!(
            "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
            util::finite(v)
        ));
    }
    json.push('}');
    println!(
        "  error_rate {:.6} ({} failed of {} attempted)",
        tally.failed as f64 / tally.attempted.max(1) as f64,
        tally.failed,
        tally.attempted
    );
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{json}}}",
        tally.failed == 0,
        tally.attempted.max(1),
        tally.failed
    );
    Ok(())
}

fn pass_args(b: Batch, seed: u64, mode: Mode) -> PassArgs {
    PassArgs {
        batch: b,
        seed,
        mode,
        setup_only: false,
        trace_out: None,
    }
}

fn count_pass(p: &PassOut, t: &mut Tally) {
    t.attempted += (p.get("points") + p.get("checks")) as u64;
    t.failed += (p.get("failed_points") + p.get("mismatches")) as u64;
}

/// Passes until the window is spent (at least one), then set-up-only
/// children until `MIN_SETUPS` set-ups are measured.
fn timed_batch(
    b: Batch,
    a: &Args,
    exe: &Path,
    m: &mut Metrics,
    t: &mut Tally,
) -> Result<(), String> {
    let start = Instant::now();
    let mut passes: Vec<PassOut> = Vec::new();
    loop {
        passes.push(spawn_pass(exe, &pass_args(b, a.seed, Mode::Fanout))?);
        let typical = median(&passes.iter().map(|p| p.total_s).collect::<Vec<_>>());
        if start.elapsed().as_secs_f64() + typical > a.seconds {
            break;
        }
    }
    let mut setups: Vec<f64> = passes.iter().map(|p| p.setup_s).collect();
    while setups.len() < MIN_SETUPS {
        let only = PassArgs {
            setup_only: true,
            ..pass_args(b, a.seed, Mode::Fanout)
        };
        setups.push(spawn_pass(exe, &only)?.setup_s);
    }
    let walls: Vec<f64> = passes.iter().map(|p| p.get("wall_s")).collect();
    let rps: Vec<f64> = passes
        .iter()
        .map(|p| p.get("points") / p.get("wall_s"))
        .collect();
    let rss: Vec<f64> = passes.iter().map(|p| p.get("rss_mib")).collect();
    for p in &passes {
        count_pass(p, t);
    }
    // A batch request is one whole pass: a user waits for all of it.
    m.num("wall_s", median(&walls))
        .num("setup_s", median(&setups))
        .num("peak_rss_mb", median(&rss))
        .num("rps", median(&rps))
        .num("p50_ms", median(&walls) * 1e3);
    Ok(())
}

/// The distinct designs of a batch workload.
fn batch_designs(b: Batch) -> Vec<Design> {
    let mut v: Vec<Design> = Vec::new();
    for p in b.canonical_points() {
        let d = Design {
            bench: p.bench,
            style: p.style,
            node: p.config.node_id,
            scale: p.config.bench_scale,
        };
        if !v.contains(&d) {
            v.push(d);
        }
    }
    v
}

/// Metrics of a layer the workload does not exercise: its counts and
/// times are zero by construction.
fn zero_layers(m: &mut Metrics, prefixes: &[&str]) {
    for (name, _) in per_layer_units() {
        if prefixes.iter().any(|p| name.starts_with(p)) {
            m.num(&name, 0.0);
        }
    }
}

fn traced_batch(
    b: Batch,
    a: &Args,
    exe: &Path,
    serve_bin: &Path,
    work: &Path,
    m: &mut Metrics,
    t: &mut Tally,
) -> Result<(), String> {
    // The timed pass itself, untraced: executor and cache counters.
    let fanout = spawn_pass(exe, &pass_args(b, a.seed, Mode::Fanout))?;
    // Serial untraced and traced passes of identical code: the
    // difference is what the recorder costs.
    let serial = spawn_pass(exe, &pass_args(b, a.seed, Mode::Serial))?;
    let trace_file = trace_path(b.name(), a.seed)?;
    let traced = spawn_pass(
        exe,
        &PassArgs {
            trace_out: Some(trace_file.clone()),
            ..pass_args(b, a.seed, Mode::Serial)
        },
    )?;
    for p in [&fanout, &serial, &traced] {
        count_pass(p, t);
    }
    eprintln!(
        "perfbench: {} trace events written to {}",
        traced.get("trace_events"),
        trace_file.display()
    );

    for s in trace::STAGES {
        let k = format!("stage_{}_s", s.key());
        m.num(&format!("stage.{}_s", s.key()), traced.get(&k));
    }
    let (hits, misses) = (fanout.get("flow_hits"), fanout.get("flow_misses"));
    m.num("stage.attempts", traced.get("attempts"))
        .num(
            "stage.outside_s",
            traced.get("wall_s") - traced.get("span_s"),
        )
        .num(
            "trace.overhead_s",
            traced.get("wall_s") - serial.get("wall_s"),
        )
        .num("cache.flow_hits", hits)
        .num("cache.flow_misses", misses)
        .num("cache.flow_hit_ratio", hits / (hits + misses).max(1.0))
        .num("cache.library_builds", fanout.get("library_builds"))
        .num("cache.library_hits", fanout.get("library_hits"))
        .num("cache.coalesced", traced.get("coalesced"))
        .num("store.disk_hits", fanout.get("disk_hits"))
        .num("store.disk_stores", fanout.get("disk_stores"))
        .num("store.quarantined", fanout.get("disk_quarantined"))
        .num("executor.busy_s", fanout.get("exec_busy_s"))
        .num("executor.utilization", fanout.get("exec_util"))
        .num("executor.steals", fanout.get("exec_steals"));
    zero_layers(m, &["serve."]);
    probe::run(&batch_designs(b), &work.join("store-probe"), m)?;
    m.num(
        "probe.frame_ms",
        serve::probe_frame(serve_bin, work, FRAME_PINGS)?,
    );
    Ok(())
}

fn count_round(r: &serve::RoundOut, t: &mut Tally) {
    t.attempted += r.samples.len() as u64;
    t.failed += r.failures();
}

/// Rounds until the window is spent (at least one), then bare server
/// starts until `MIN_SETUPS` set-ups are measured.
fn timed_serve(
    a: &Args,
    bin: &Path,
    work: &Path,
    m: &mut Metrics,
    t: &mut Tally,
) -> Result<(), String> {
    let mix = serve::prepare(a.seed, work)?;
    let start = Instant::now();
    let mut rounds: Vec<serve::RoundOut> = Vec::new();
    loop {
        rounds.push(serve::round(bin, work, rounds.len(), &mix, None)?);
        let typical = median(&rounds.iter().map(|r| r.total_s).collect::<Vec<_>>());
        if start.elapsed().as_secs_f64() + typical > a.seconds {
            break;
        }
    }
    let mut setups: Vec<f64> = rounds.iter().map(|r| r.setup_s).collect();
    while setups.len() < MIN_SETUPS {
        let dir = work.join(format!("setup-{}", setups.len()));
        let mut srv = serve::ServerProc::start(bin, &work.join("setup.sock"), &dir, None)?;
        setups.push(srv.setup_s);
        srv.stop()?;
    }
    let lat: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.samples.iter().map(serve::Sample::latency_ms))
        .collect();
    for r in &rounds {
        count_round(r, t);
    }
    let walls: Vec<f64> = rounds.iter().map(|r| r.wall_s).collect();
    // The server's accept loop polls every 25 ms, so the first `pong`
    // comes either at once or one poll later, about half the time each;
    // the mean is steady where a median would jump between the modes.
    let setup_mean = setups.iter().sum::<f64>() / setups.len() as f64;
    m.num("wall_s", median(&walls))
        .num("setup_s", setup_mean)
        .num(
            "peak_rss_mb",
            median(&rounds.iter().map(|r| r.rss_mib).collect::<Vec<_>>()),
        )
        .num("rps", lat.len() as f64 / walls.iter().sum::<f64>())
        .num("p50_ms", percentile(&lat, 50.0));
    // Too unsteady on a 2-core host to carry a bound; shown, not gated.
    eprintln!(
        "perfbench: {} requests in {} rounds of {}; p99 {:.3} ms with {} samples beyond it",
        lat.len(),
        rounds.len(),
        mix.requests_per_round(),
        percentile(&lat, 99.0),
        lat.len() / 100
    );
    Ok(())
}

fn traced_serve(
    a: &Args,
    bin: &Path,
    work: &Path,
    m: &mut Metrics,
    t: &mut Tally,
) -> Result<(), String> {
    let mix = serve::prepare(a.seed, work)?;
    let mut rounds = Vec::new();
    for k in 0..TRACED_RUN_ROUNDS {
        rounds.push(serve::round(bin, work, k, &mix, None)?);
    }
    let trace_file = trace_path("serve-mix", a.seed)?;
    let traced = serve::round(bin, work, TRACED_RUN_ROUNDS, &mix, Some(&trace_file))?;
    for r in rounds.iter().chain([&traced]) {
        count_round(r, t);
    }

    // The server's own JSONL trace of the traced round.
    let text = std::fs::read_to_string(&trace_file).map_err(|e| e.to_string())?;
    monolith3d::observe::validate_jsonl(&text)
        .map_err(|e| format!("server trace {} invalid: {e}", trace_file.display()))?;
    let mut stage_s = [0.0; 7];
    let (mut attempts, mut coalesced) = (0u64, 0u64);
    for line in text.lines() {
        match monolith3d::json_str_field(line, "kind").as_deref() {
            Some("stage_finished") => {
                attempts += 1;
                let stage = monolith3d::json_str_field(line, "stage").unwrap_or_default();
                if let Some(i) = trace::STAGES.iter().position(|s| s.key() == stage) {
                    stage_s[i] += util::field(line, "wall_s");
                }
            }
            Some("cache_coalesced") => coalesced += 1,
            _ => {}
        }
    }
    for (s, v) in trace::STAGES.iter().zip(stage_s) {
        m.num(&format!("stage.{}_s", s.key()), v);
    }
    let untraced_wall = median(&rounds.iter().map(|r| r.wall_s).collect::<Vec<_>>());
    // Two dispatchers overlap their spans, so this can go negative.
    m.num("stage.attempts", attempts as f64)
        .num(
            "stage.outside_s",
            traced.wall_s - stage_s.iter().sum::<f64>(),
        )
        .num("trace.overhead_s", traced.wall_s - untraced_wall);
    serve::cache_layer(&rounds[0], coalesced, m);
    serve::serve_layer(&mix, &rounds, m);
    zero_layers(m, &["executor."]);

    let designs: Vec<Design> = serve::run_points()
        .into_iter()
        .map(|p| Design {
            bench: p.bench,
            style: p.style,
            node: p.node,
            scale: m3d_netlist::BenchScale::Small,
        })
        .collect();
    probe::run(&designs, &work.join("store-probe"), m)?;
    m.num(
        "probe.frame_ms",
        serve::probe_frame(bin, work, FRAME_PINGS)?,
    );
    Ok(())
}
