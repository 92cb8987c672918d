//! The benchmark's own recorder for the traced run: keeps every engine
//! event in memory with the flow point that caused it as its parent,
//! and writes them out once the pass is over.

use std::fmt::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use monolith3d::observe::{write_event_json, Event};
use monolith3d::{EventKind, FlowStage, Recorder};

/// Stage keys in paper Fig. 1 order.
pub const STAGES: [FlowStage; 7] = [
    FlowStage::Library,
    FlowStage::Synthesis,
    FlowStage::Placement,
    FlowStage::PreRouteOpt,
    FlowStage::Routing,
    FlowStage::PostRouteOpt,
    FlowStage::SignOff,
];

#[derive(Debug)]
pub struct SpanRecorder {
    start: Instant,
    seq: AtomicU64,
    parent: Mutex<Arc<str>>,
    events: Mutex<Vec<(Event, Arc<str>)>>,
}

/// What the recorded spans add up to.
#[derive(Debug, Default)]
pub struct SpanTotals {
    /// Summed `wall_s` of finished spans, per entry of [`STAGES`].
    pub stage_s: [f64; 7],
    /// Finished stage spans (one per attempt).
    pub attempts: u64,
    pub coalesced: u64,
}

impl SpanTotals {
    pub fn total_s(&self) -> f64 {
        self.stage_s.iter().sum()
    }
}

impl SpanRecorder {
    pub fn new() -> SpanRecorder {
        SpanRecorder {
            start: Instant::now(),
            seq: AtomicU64::new(0),
            parent: Mutex::new(Arc::from("setup")),
            events: Mutex::new(Vec::new()),
        }
    }

    /// Names the flow point every following event belongs to. Only
    /// meaningful while points run one at a time.
    pub fn set_parent(&self, parent: &str) {
        *self.parent.lock().expect("parent lock") = Arc::from(parent);
    }

    pub fn totals(&self) -> SpanTotals {
        let mut t = SpanTotals::default();
        for (ev, _) in self.events.lock().expect("events lock").iter() {
            match ev.kind {
                EventKind::StageFinished { stage, wall_s, .. } => {
                    if let Some(i) = STAGES.iter().position(|s| *s == stage) {
                        t.stage_s[i] += wall_s;
                    }
                    t.attempts += 1;
                }
                EventKind::CacheCoalesced { .. } => t.coalesced += 1,
                _ => {}
            }
        }
        t
    }

    /// The events as JSONL in the engine's trace schema, each line
    /// carrying one extra `parent` field.
    pub fn to_jsonl(&self) -> String {
        let mut evs = self.events.lock().expect("events lock").clone();
        evs.sort_by_key(|(e, _)| e.seq);
        let mut out = String::new();
        let mut line = String::new();
        for (ev, parent) in &evs {
            line.clear();
            write_event_json(&mut line, ev);
            line.pop(); // the closing brace
            line.push_str(",\"parent\":\"");
            monolith3d::escape_json_into(&mut line, parent);
            line.push_str("\"}");
            let _ = writeln!(out, "{line}");
        }
        out
    }

    /// Writes the JSONL to `path` and checks it with the engine's own
    /// validator; returns the number of events.
    pub fn write_validated(&self, path: &Path) -> Result<usize, String> {
        let text = self.to_jsonl();
        std::fs::write(path, &text).map_err(|e| format!("{}: {e}", path.display()))?;
        monolith3d::observe::validate_jsonl(&text)
            .map(|s| s.events)
            .map_err(|e| format!("trace {} invalid: {e}", path.display()))
    }
}

impl Recorder for SpanRecorder {
    fn record(&self, kind: EventKind) {
        let parent = Arc::clone(&self.parent.lock().expect("parent lock"));
        let mut events = self.events.lock().expect("events lock");
        // Stamped under the lock so `seq` order is push order.
        let ev = Event {
            seq: self.seq.fetch_add(1, Ordering::Relaxed),
            thread: thread_ordinal(),
            t_s: self.start.elapsed().as_secs_f64(),
            kind,
        };
        events.push((ev, parent));
    }
}

fn thread_ordinal() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    thread_local! {
        static ORDINAL: u64 = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    ORDINAL.with(|n| *n)
}
