//! Flight recorder: a bounded ring buffer of cycle-stamped engine events.
//!
//! The recorder keeps the **last `capacity` events** of a serve run —
//! admissions, terminals (completions, expiries, drops, failures),
//! controller rung changes and admission-gate flips, fault retries, and
//! quarantine enter/probe/exit — so a postmortem after a typed failure or
//! a SIGTERM has the recent control history even when the full run is
//! too long to log.
//!
//! Events are stamped with **simulated cycles and a monotone sequence
//! number**, never wall time, and recorded from the serial scheduler
//! loop, so [`FlightRecorder::to_json`] is byte-identical across
//! `DOTA_THREADS` values and build modes. The JSON is canonical (fixed
//! key order) and structured for `dota report diff`.

use crate::event::{EventSink, ServeEvent, Transition};
use dota_metrics::JsonWriter;
use std::collections::VecDeque;
use std::io;
use std::path::Path;
use std::sync::{Arc, Mutex};

/// Version stamp of the flight JSON schema.
pub const FLIGHT_VERSION: u32 = 1;

/// Shared handle to a [`FlightRecorder`]: the engine records through it
/// while the CLI keeps a clone to dump from, even when the run returns a
/// typed error.
pub type FlightHandle = Arc<Mutex<FlightRecorder>>;

/// One recorded event.
#[derive(Debug, Clone, PartialEq)]
pub struct FlightEvent {
    /// Monotone sequence number across the whole run (never resets, so
    /// ring wraparound is visible as a nonzero first sequence).
    pub seq: u64,
    /// Index into [`FlightRecorder::cells`] of the cell that was running.
    pub cell: u32,
    /// What happened, and at which simulated cycle.
    pub event: ServeEvent,
}

/// The ring's name for a transition, or `None` for the kinds it does not
/// keep (per-step traffic would evict the control history it exists for).
pub fn flight_kind(what: &Transition) -> Option<&'static str> {
    match what {
        Transition::Admitted { .. } => Some("admit"),
        Transition::Terminal { .. } => Some("terminal"),
        Transition::Rung { .. } => Some("rung"),
        Transition::Gate { .. } => Some("gate"),
        Transition::Retry { .. } => Some("retry"),
        Transition::Quarantine { .. } => Some("quarantine"),
        Transition::Probe { .. } => Some("probe"),
        Transition::Offered { .. }
        | Transition::SlotStep { .. }
        | Transition::FirstToken { .. }
        | Transition::Discard { .. }
        | Transition::StepBoundary { .. } => None,
    }
}

impl FlightEvent {
    fn write_json(&self, w: &mut JsonWriter) {
        let kind = flight_kind(&self.event.what).expect("the ring only stores kinds it names");
        w.compact_obj()
            .field("seq", self.seq)
            .field("cell", self.cell)
            .field("cycle", self.event.cycle)
            .field("kind", kind);
        match &self.event.what {
            Transition::Admitted { id, lane, rung, .. } => {
                w.field("id", *id).field("lane", *lane).field("rung", *rung);
            }
            Transition::Terminal {
                id, reason, tokens, ..
            } => {
                w.field("id", *id)
                    .field("reason", reason.name())
                    .field("tokens", *tokens);
            }
            Transition::Rung { from, to } => {
                w.field("from", *from).field("to", *to);
            }
            Transition::Gate { closed } => {
                w.field("closed", u8::from(*closed));
            }
            Transition::Retry { id, attempt, .. } => {
                w.field("id", *id).field("attempt", *attempt);
            }
            Transition::Quarantine { lane } => {
                w.field("lane", *lane);
            }
            Transition::Probe { lane, passed } => {
                w.field("lane", *lane).field("passed", u8::from(*passed));
            }
            _ => {}
        }
        w.end();
    }
}

/// The bounded ring buffer (see module docs).
#[derive(Debug)]
pub struct FlightRecorder {
    capacity: usize,
    cells: Vec<String>,
    events: VecDeque<FlightEvent>,
    seq: u64,
}

impl FlightRecorder {
    /// A recorder keeping the last `capacity` events (min 1).
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity: capacity.max(1),
            cells: Vec::new(),
            events: VecDeque::new(),
            seq: 0,
        }
    }

    /// A shared handle around a fresh recorder.
    pub fn shared(capacity: usize) -> FlightHandle {
        Arc::new(Mutex::new(Self::new(capacity)))
    }

    /// Starts a new cell section; subsequent events are attributed to
    /// `label`.
    pub fn begin_cell(&mut self, label: &str) {
        self.cells.push(label.to_owned());
    }

    /// Events currently held (≤ capacity).
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// `true` when nothing has been recorded (or everything was evicted —
    /// impossible, eviction only happens on insert).
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Total events ever recorded, including evicted ones.
    pub fn recorded(&self) -> u64 {
        self.seq
    }

    /// Events lost to ring eviction.
    pub fn dropped(&self) -> u64 {
        self.seq - self.events.len() as u64
    }

    /// The retained events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &FlightEvent> {
        self.events.iter()
    }

    /// Cell labels, in the order `begin_cell` declared them.
    pub fn cells(&self) -> &[String] {
        &self.cells
    }

    /// The canonical flight document: fixed key order, integers only,
    /// trailing newline. A pure function of the recorded events, hence
    /// byte-deterministic.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::pretty();
        w.obj()
            .field("version", FLIGHT_VERSION)
            .field("capacity", self.capacity)
            .field("recorded", self.seq)
            .field("dropped", self.dropped())
            .list("cells", &self.cells)
            .key("events")
            .arr();
        for ev in &self.events {
            ev.write_json(&mut w);
        }
        w.end().end();
        w.finish()
    }

    /// Writes the flight document to `path` atomically, so a crash
    /// mid-dump never leaves a torn file.
    ///
    /// # Errors
    ///
    /// Propagates the underlying I/O error.
    pub fn write(&self, path: &Path) -> io::Result<()> {
        dota_metrics::write_atomic(path, &self.to_json())
    }
}

/// Keeps the events [`flight_kind`] names, evicting the oldest when the
/// ring is full.
impl EventSink for FlightRecorder {
    fn on(&mut self, event: &ServeEvent) {
        if flight_kind(&event.what).is_none() {
            return;
        }
        if self.cells.is_empty() {
            self.cells.push("default".to_owned());
        }
        if self.events.len() == self.capacity {
            self.events.pop_front();
        }
        self.events.push_back(FlightEvent {
            seq: self.seq,
            cell: (self.cells.len() - 1) as u32,
            event: event.clone(),
        });
        self.seq += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::FinishReason;

    fn at(cycle: u64, what: Transition) -> ServeEvent {
        ServeEvent { cycle, what }
    }

    fn terminal(id: u64, reason: FinishReason) -> Transition {
        Transition::Terminal {
            id,
            reason,
            tokens: id * 2,
            slo: None,
        }
    }

    #[test]
    fn ring_keeps_the_last_capacity_events() {
        let mut fr = FlightRecorder::new(4);
        fr.begin_cell("cell-a");
        for i in 0..10 {
            fr.on(&at(i * 100, terminal(i, FinishReason::Completed)));
        }
        assert_eq!(fr.len(), 4);
        assert_eq!(fr.recorded(), 10);
        assert_eq!(fr.dropped(), 6);
        let seqs: Vec<u64> = fr.events().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![6, 7, 8, 9]);
        // Dropped count is visible in the dump.
        assert!(fr.to_json().contains("\"dropped\": 6"));
    }

    #[test]
    fn events_attribute_to_the_current_cell() {
        let mut fr = FlightRecorder::new(16);
        fr.begin_cell("first");
        fr.on(&at(1, terminal(0, FinishReason::Eos)));
        fr.begin_cell("second");
        fr.on(&at(2, terminal(1, FinishReason::Eos)));
        let cells: Vec<u32> = fr.events().map(|e| e.cell).collect();
        assert_eq!(cells, vec![0, 1]);
        assert_eq!(fr.cells(), ["first", "second"]);
    }

    #[test]
    fn recording_without_a_cell_synthesizes_one() {
        let mut fr = FlightRecorder::new(4);
        fr.on(&at(0, Transition::Gate { closed: true }));
        assert_eq!(fr.cells(), ["default"]);
    }

    #[test]
    fn json_is_canonical_and_covers_every_stored_kind() {
        let mut fr = FlightRecorder::new(16);
        fr.begin_cell("cell");
        for ev in [
            at(
                10,
                Transition::Admitted {
                    id: 1,
                    lane: 2,
                    rung: 0,
                    retention: 1.0,
                    attempt: 0,
                },
            ),
            // Per-request and per-step traffic is not the ring's to keep.
            at(15, Transition::FirstToken { id: 1 }),
            at(20, Transition::Rung { from: 0, to: 1 }),
            at(21, Transition::Gate { closed: true }),
            at(
                30,
                Transition::Retry {
                    id: 1,
                    attempt: 2,
                    discarded: 1,
                },
            ),
            at(31, Transition::Quarantine { lane: 2 }),
            at(
                40,
                Transition::Probe {
                    lane: 2,
                    passed: false,
                },
            ),
            at(
                45,
                Transition::Discard {
                    id: 1,
                    discarded: 3,
                },
            ),
            at(
                50,
                Transition::Terminal {
                    id: 1,
                    reason: FinishReason::Failed,
                    tokens: 3,
                    slo: None,
                },
            ),
        ] {
            fr.on(&ev);
        }
        assert_eq!(fr.recorded(), 7);
        let json = fr.to_json();
        // Deterministic: same recorder, same bytes.
        assert_eq!(json, fr.to_json());
        for needle in [
            "{\"seq\":0,\"cell\":0,\"cycle\":10,\"kind\":\"admit\",\"id\":1,\"lane\":2,\"rung\":0}",
            "\"kind\":\"rung\",\"from\":0,\"to\":1",
            "\"kind\":\"gate\",\"closed\":1",
            "\"kind\":\"retry\",\"id\":1,\"attempt\":2",
            "\"kind\":\"quarantine\",\"lane\":2",
            "\"kind\":\"probe\",\"lane\":2,\"passed\":0",
            "\"kind\":\"terminal\",\"id\":1,\"reason\":\"failed\",\"tokens\":3",
        ] {
            assert!(json.contains(needle), "missing `{needle}` in:\n{json}");
        }
        assert!(json.ends_with("]\n}\n"));
    }

    #[test]
    fn write_is_atomic_and_readable() {
        let dir = std::env::temp_dir().join("dota-telemetry-flight-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("flight.json");
        let mut fr = FlightRecorder::new(4);
        fr.begin_cell("c");
        fr.on(&at(1, terminal(0, FinishReason::Completed)));
        fr.write(&path).unwrap();
        let back = std::fs::read_to_string(&path).unwrap();
        assert_eq!(back, fr.to_json());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
