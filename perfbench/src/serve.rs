//! The `serve-mix` workload: a closed loop of 2 connections from this
//! process against a spawned `m3d_serve`, over a cache directory that
//! already holds a seed-chosen half of the small-scale `run` points.
//!
//! One round starts a fresh server on a fresh copy of that directory
//! and replays the run's request sequence, so every round sees the
//! same mix of memory hits, cross-connection coalescing, verified disk
//! reads, cold flows that publish to disk, and table renders that
//! compute fresh points.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use m3d_netlist::{BenchScale, Benchmark};
use m3d_serve::client::{response_error, response_ok};
use m3d_serve::protocol::write_run_done;
use m3d_serve::ClientStream;
use m3d_tech::{DesignStyle, NodeId, PdkRegistry};
use monolith3d::{ArtifactCache, DiskStore, Flow, FlowConfig, FlowResult};

use crate::batch::{sections, SMALL_SUITE_EXPECTED};
use crate::util::{field, median, percentile, Metrics, Rng};

/// Nodes of the `run` points, by registered PDK name.
pub const NODES: [&str; 3] = ["45nm", "7nm", "fdsoi-miv"];
/// Tables rendered once per round; their sweeps compute points beyond
/// the `run` points.
const TABLES: [&str; 4] = ["table8", "table9", "fig11", "table15"];
/// `run` requests per round, first touches included. Mostly repeats,
/// so a round's many memory hits outnumber its few dozen slow requests
/// and the hit latency sets `p50_ms`.
const RUNS_PER_ROUND: usize = 3000;
const CONNECTIONS: usize = 2;
const SERVER_JOBS: &str = "2";

/// Every protocol error class, for the `serve.errors.<class>` counts.
pub const ERROR_CLASSES: [&str; 9] = [
    "bad_frame",
    "bad_request",
    "oversized",
    "queue_full",
    "quota_exhausted",
    "draining",
    "cancelled",
    "deadline_exceeded",
    "failed",
];

#[derive(Debug, Clone, Copy)]
pub struct RunPoint {
    pub bench: Benchmark,
    pub style: DesignStyle,
    pub node: NodeId,
}

impl RunPoint {
    fn config(&self) -> FlowConfig {
        FlowConfig::new(self.node).scale(BenchScale::Small)
    }
}

/// Every bench × style × node `run` point, canonical order.
pub fn run_points() -> Vec<RunPoint> {
    let mut v = Vec::new();
    for name in NODES {
        let node = PdkRegistry::global()
            .by_name(name)
            .unwrap_or_else(|| panic!("PDK {name} is registered"));
        for bench in Benchmark::ALL {
            for style in [DesignStyle::TwoD, DesignStyle::Tmi] {
                v.push(RunPoint { bench, style, node });
            }
        }
    }
    v
}

#[derive(Debug, Clone, Copy)]
enum Req {
    Run(usize),
    Table(usize),
}

/// The inputs one seed draws, plus what each response must say.
pub struct Mix {
    points: Vec<RunPoint>,
    /// Per point: on disk before the round starts.
    prefilled: Vec<bool>,
    /// The request sequence, shared by the connections in order.
    seq: Vec<Req>,
    /// Per point: the in-process result.
    expected: Vec<FlowResult>,
    /// Per table: the `paper_tables --small` text.
    tables: Vec<String>,
    template: PathBuf,
}

impl Mix {
    pub fn requests_per_round(&self) -> usize {
        self.seq.len()
    }
}

/// Draws the mix for `seed` and fills the template cache directory.
/// For each bench × node exactly one style is prefilled, so every seed
/// has the same amount of cold work.
pub fn prepare(seed: u64, work: &Path) -> Result<Mix, String> {
    let points = run_points();
    let mut rng = Rng::new(seed);
    let mut prefilled = vec![false; points.len()];
    for pair in 0..points.len() / 2 {
        prefilled[2 * pair + rng.below(2)] = true;
    }
    let mut seq: Vec<Req> = (0..points.len()).map(Req::Run).collect();
    while seq.len() < RUNS_PER_ROUND {
        seq.push(Req::Run(rng.below(points.len())));
    }
    seq.extend((0..TABLES.len()).map(Req::Table));
    rng.shuffle(&mut seq);

    let template = work.join("template");
    let disk = Arc::new(ArtifactCache::default());
    disk.attach_disk(DiskStore::open(&template));
    let memory = Arc::new(ArtifactCache::default());
    let mut expected = Vec::with_capacity(points.len());
    for (p, pre) in points.iter().zip(&prefilled) {
        let cache = if *pre { &disk } else { &memory };
        let r = Flow::new(p.bench, p.style, p.config())
            .try_run_with_cache(cache)
            .map_err(|e| format!("prefill {}/{}: {e}", p.bench.name(), p.style.label()))?;
        expected.push(r);
    }
    let recorded = sections(SMALL_SUITE_EXPECTED);
    let tables = TABLES
        .iter()
        .map(|t| recorded.get(*t).cloned().ok_or(format!("no recorded {t}")))
        .collect::<Result<_, _>>()?;
    Ok(Mix {
        points,
        prefilled,
        seq,
        expected,
        tables,
        template,
    })
}

/// A running `m3d_serve` and its control connection.
pub struct ServerProc {
    child: Child,
    ctl: ClientStream,
    /// Spawn until the first `pong`.
    pub setup_s: f64,
}

impl ServerProc {
    pub fn start(
        bin: &Path,
        sock: &Path,
        cache_dir: &Path,
        trace: Option<&Path>,
    ) -> Result<ServerProc, String> {
        let _ = std::fs::remove_file(sock);
        let t0 = Instant::now();
        let mut cmd = Command::new(bin);
        cmd.arg("--unix")
            .arg(sock)
            .arg("--cache-dir")
            .arg(cache_dir)
            .args(["--jobs", SERVER_JOBS]);
        if let Some(t) = trace {
            cmd.arg("--trace").arg(t);
        }
        let mut child = cmd
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let ctl = loop {
            match ClientStream::connect_unix(sock) {
                Ok(c) => break c,
                Err(e) => {
                    if t0.elapsed() > Duration::from_secs(20) {
                        let _ = child.kill();
                        let _ = child.wait();
                        return Err(format!("m3d_serve never listened: {e}"));
                    }
                    std::thread::sleep(Duration::from_micros(200));
                }
            }
        };
        // From here on, dropping `srv` on an error path kills the child.
        let mut srv = ServerProc {
            child,
            ctl,
            setup_s: 0.0,
        };
        let pong = srv.request("{\"id\":0,\"op\":\"ping\"}")?;
        srv.setup_s = t0.elapsed().as_secs_f64();
        if !response_ok(&pong) {
            return Err(format!("ping answered {pong}"));
        }
        Ok(srv)
    }

    pub fn request(&mut self, line: &str) -> Result<String, String> {
        self.ctl.request(line).map_err(|e| e.to_string())
    }

    /// Peak resident set of the server so far, MiB.
    pub fn rss_mib(&self) -> f64 {
        crate::util::vm_hwm_mib(&PathBuf::from(format!("/proc/{}/status", self.child.id())))
            .unwrap_or(0.0)
    }

    /// Wire shutdown, then waits for the process to exit.
    pub fn stop(&mut self) -> Result<(), String> {
        let _ = self.ctl.request("{\"id\":0,\"op\":\"shutdown\"}");
        let t = Instant::now();
        loop {
            match self.child.try_wait().map_err(|e| e.to_string())? {
                Some(_) => return Ok(()),
                None if t.elapsed() > Duration::from_secs(20) => {
                    return Err("m3d_serve did not exit after shutdown".to_string());
                }
                None => std::thread::sleep(Duration::from_millis(5)),
            }
        }
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        // A no-op once `stop` saw the process exit; otherwise no
        // server outlives the benchmark.
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Median round trip of `n` pings to a fresh server, ms.
pub fn probe_frame(bin: &Path, work: &Path, n: usize) -> Result<f64, String> {
    let dir = work.join("frame");
    let mut srv = ServerProc::start(bin, &work.join("frame.sock"), &dir, None)?;
    let mut rtt = Vec::with_capacity(n);
    for _ in 0..n {
        let t = Instant::now();
        let r = srv.request("{\"id\":1,\"op\":\"ping\"}")?;
        rtt.push(t.elapsed().as_secs_f64() * 1e3);
        if !response_ok(&r) {
            return Err(format!("ping answered {r}"));
        }
    }
    srv.stop()?;
    Ok(median(&rtt))
}

/// One request as the client saw it.
#[derive(Debug, Clone)]
pub struct Sample {
    point: Option<usize>,
    sent_s: f64,
    done_s: f64,
    error: Option<String>,
    mismatch: bool,
}

impl Sample {
    pub fn latency_ms(&self) -> f64 {
        (self.done_s - self.sent_s) * 1e3
    }
}

pub struct RoundOut {
    pub setup_s: f64,
    pub wall_s: f64,
    pub total_s: f64,
    pub rss_mib: f64,
    pub samples: Vec<Sample>,
    /// The server's `stats` response after the round.
    pub stats: String,
    pub disk_stores: u64,
    pub quarantined: u64,
}

impl RoundOut {
    pub fn failures(&self) -> u64 {
        self.samples
            .iter()
            .filter(|s| s.error.is_some() || s.mismatch)
            .count() as u64
    }
}

fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        let dst = to.join(entry.file_name());
        if entry.file_type()?.is_dir() {
            copy_dir(&entry.path(), &dst)?;
        } else {
            std::fs::copy(entry.path(), dst)?;
        }
    }
    Ok(())
}

/// Files under `dir` with extension `ext` (any extension when `None`).
fn count_files(dir: &Path, ext: Option<&str>) -> u64 {
    let Ok(rd) = std::fs::read_dir(dir) else {
        return 0;
    };
    rd.flatten()
        .map(|e| {
            let p = e.path();
            if p.is_dir() {
                count_files(&p, ext)
            } else {
                u64::from(ext.is_none_or(|x| p.extension().is_some_and(|e| e == x)))
            }
        })
        .sum()
}

fn entries(dir: &Path) -> u64 {
    count_files(&dir.join("flow"), Some("m3d")) + count_files(&dir.join("lib"), Some("m3d"))
}

fn request_line(mix: &Mix, id: u64, req: Req) -> String {
    match req {
        Req::Run(i) => {
            let p = &mix.points[i];
            format!(
                "{{\"id\":{id},\"op\":\"run\",\"bench\":\"{}\",\"style\":\"{}\",\"scale\":\"small\",\"node\":\"{}\"}}",
                p.bench.name(),
                p.style.label(),
                p.node.label()
            )
        }
        Req::Table(t) => format!(
            "{{\"id\":{id},\"op\":\"table\",\"name\":\"{}\",\"scale\":\"small\"}}",
            TABLES[t]
        ),
    }
}

fn response_matches(mix: &Mix, id: u64, req: Req, resp: &str) -> bool {
    match req {
        Req::Run(i) => {
            let mut want = String::new();
            write_run_done(&mut want, id, &mix.expected[i]);
            resp == want
        }
        Req::Table(t) => monolith3d::json_str_field(resp, "text")
            .is_some_and(|text| format!("{text}\n") == mix.tables[t]),
    }
}

/// One connection of the closed loop: takes the next request of the
/// shared sequence whenever its previous one has been answered.
fn drive(
    sock: &Path,
    mix: &Mix,
    next: &AtomicUsize,
    epoch: Instant,
) -> Result<Vec<Sample>, String> {
    let mut c = ClientStream::connect_unix(sock).map_err(|e| format!("connect: {e}"))?;
    let mut out = Vec::new();
    loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        let Some(req) = mix.seq.get(i) else {
            return Ok(out);
        };
        let id = i as u64 + 1;
        let line = request_line(mix, id, *req);
        let sent_s = epoch.elapsed().as_secs_f64();
        let resp = c.request(&line).map_err(|e| format!("request {id}: {e}"))?;
        let done_s = epoch.elapsed().as_secs_f64();
        let error = if response_ok(&resp) {
            None
        } else {
            Some(response_error(&resp).unwrap_or_else(|| "bad_frame".to_string()))
        };
        let mismatch = error.is_none() && !response_matches(mix, id, *req, &resp);
        out.push(Sample {
            point: match req {
                Req::Run(p) => Some(*p),
                Req::Table(_) => None,
            },
            sent_s,
            done_s,
            error,
            mismatch,
        });
    }
}

/// Runs one round on a fresh server over a fresh copy of the template.
pub fn round(
    bin: &Path,
    work: &Path,
    k: usize,
    mix: &Mix,
    trace: Option<&Path>,
) -> Result<RoundOut, String> {
    let t0 = Instant::now();
    let dir = work.join(format!("round-{k}"));
    copy_dir(&mix.template, &dir).map_err(|e| format!("copy template: {e}"))?;
    let before = entries(&dir);
    let sock = work.join(format!("r{k}.sock"));
    let mut srv = ServerProc::start(bin, &sock, &dir, trace)?;

    let next = AtomicUsize::new(0);
    let epoch = Instant::now();
    let results: Vec<Result<Vec<Sample>, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|_| s.spawn(|| drive(&sock, mix, &next, epoch)))
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client thread panicked".to_string()))
            })
            .collect()
    });
    let wall_s = epoch.elapsed().as_secs_f64();

    let stats = srv.request("{\"id\":0,\"op\":\"stats\"}");
    let rss_mib = srv.rss_mib();
    let setup_s = srv.setup_s;
    let stopped = srv.stop();
    let mut samples = Vec::new();
    for r in results {
        samples.extend(r?);
    }
    let stats = stats?;
    stopped?;
    let disk_stores = entries(&dir).saturating_sub(before);
    let quarantined = count_files(&dir.join("quarantine"), None);
    let _ = std::fs::remove_dir_all(&dir);
    Ok(RoundOut {
        setup_s,
        wall_s,
        total_s: t0.elapsed().as_secs_f64(),
        rss_mib,
        samples,
        stats,
        disk_stores,
        quarantined,
    })
}

/// How each `run` request was served, judged from the client side.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// First touch of a point that was not on disk: a cold flow.
    Cold,
    /// First touch of a prefilled point: a verified disk read.
    Disk,
    /// Sent while an earlier request for the point was in flight.
    Coalesced,
    /// Sent after an earlier request for the point completed.
    Hit,
}

/// Classifies the `run` samples of one round, in sample order.
pub fn classify(mix: &Mix, samples: &[Sample]) -> Vec<(Class, f64)> {
    let mut by_point: BTreeMap<usize, Vec<&Sample>> = BTreeMap::new();
    for s in samples {
        if let Some(p) = s.point {
            by_point.entry(p).or_default().push(s);
        }
    }
    let mut out = Vec::new();
    for (p, mut v) in by_point {
        v.sort_by(|a, b| a.sent_s.total_cmp(&b.sent_s));
        let first_done = v[0].done_s;
        for (i, s) in v.iter().enumerate() {
            let class = if i == 0 {
                if mix.prefilled[p] {
                    Class::Disk
                } else {
                    Class::Cold
                }
            } else if s.sent_s < first_done {
                Class::Coalesced
            } else {
                Class::Hit
            };
            out.push((class, s.latency_ms()));
        }
    }
    out
}

/// Summary over several rounds: the `serve.*` per-layer metrics.
pub fn serve_layer(mix: &Mix, rounds: &[RoundOut], out: &mut Metrics) {
    let mut all = Vec::new();
    let mut hit = Vec::new();
    let mut cold = Vec::new();
    let (mut coalesced, mut runs) = (0u64, 0u64);
    let mut errors: BTreeMap<String, u64> = BTreeMap::new();
    for r in rounds {
        for (class, ms) in classify(mix, &r.samples) {
            runs += 1;
            match class {
                Class::Hit => hit.push(ms),
                Class::Cold => cold.push(ms),
                Class::Coalesced => coalesced += 1,
                Class::Disk => {}
            }
        }
        for s in &r.samples {
            all.push(s.latency_ms());
            if let Some(e) = &s.error {
                *errors.entry(e.clone()).or_default() += 1;
            }
        }
    }
    out.num("serve.p99_ms", percentile(&all, 99.0))
        .num("serve.hit_p50_ms", percentile(&hit, 50.0))
        .num("serve.cold_p50_ms", percentile(&cold, 50.0))
        .num("serve.coalesce_rate", coalesced as f64 / runs.max(1) as f64);
    for class in ERROR_CLASSES {
        out.int(
            &format!("serve.errors.{class}"),
            errors.get(class).copied().unwrap_or(0),
        );
    }
}

/// The `cache.*` and `store.*` metrics of one round, from the server's
/// `stats` response and the files the round left in its directory.
pub fn cache_layer(r: &RoundOut, coalesced: u64, out: &mut Metrics) {
    let hits = field(&r.stats, "flow_hits");
    let misses = field(&r.stats, "flow_misses");
    out.num("cache.flow_hits", hits)
        .num("cache.flow_misses", misses)
        .num("cache.flow_hit_ratio", hits / (hits + misses).max(1.0))
        .num("cache.library_builds", field(&r.stats, "library_builds"))
        .num("cache.library_hits", field(&r.stats, "library_hits"))
        .int("cache.coalesced", coalesced)
        .num("store.disk_hits", field(&r.stats, "disk_hits"))
        .int("store.disk_stores", r.disk_stores)
        .int("store.quarantined", r.quarantined);
}
