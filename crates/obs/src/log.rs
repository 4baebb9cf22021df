//! The typed event log.
//!
//! [`EventLog`] is an append-only, time-ordered record of [`Event`]s with
//! text queries (`find`, `contains`), a time-window query, a
//! one-line-per-event text rendering and a line-oriented JSON export for
//! offline analysis.
//!
//! Determinism: the log never consults a clock or an RNG — entries carry
//! the simulated instant the caller passes in — so two runs that execute
//! the same events produce byte-identical logs and JSONL dumps regardless
//! of worker count.

use std::fmt;

use rh_sim::time::SimTime;

use crate::event::Event;

/// One recorded event with its simulated timestamp.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EventRecord {
    /// Instant at which the event was recorded.
    pub at: SimTime,
    /// The typed event.
    pub event: Event,
}

impl EventRecord {
    /// Renders in the trace text format:
    /// `[<time, right-aligned to 10>] <category, padded to 8> <message>`.
    fn render_legacy(&self) -> String {
        format!(
            "[{:>10}] {:<8} {}",
            self.at.to_string(),
            self.event.category(),
            self.event.message()
        )
    }
}

impl fmt::Display for EventRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render_legacy())
    }
}

/// An append-only, time-ordered log of typed [`Event`]s.
///
/// # Examples
///
/// ```
/// use rh_obs::{DomId, Event, EventLog};
/// use rh_sim::time::SimTime;
///
/// let mut log = EventLog::new();
/// log.emit(SimTime::from_secs(1), Event::Suspending(DomId(1)));
/// log.emit(SimTime::from_secs(2), Event::Frozen(DomId(1)));
/// assert_eq!(log.len(), 2);
/// assert!(log.contains("frozen on memory"));
/// ```
#[derive(Debug, Clone, Default)]
pub struct EventLog {
    records: Vec<EventRecord>,
    enabled: bool,
}

impl EventLog {
    /// Creates an enabled, empty log.
    pub fn new() -> Self {
        EventLog {
            records: Vec::new(),
            enabled: true,
        }
    }

    /// Creates a disabled log that drops every event (for long benchmark
    /// simulations where recording overhead matters).
    pub fn disabled() -> Self {
        EventLog {
            records: Vec::new(),
            enabled: false,
        }
    }

    /// Records a typed event (no-op when disabled).
    pub fn emit(&mut self, at: SimTime, event: Event) {
        if !self.enabled {
            return;
        }
        self.records.push(EventRecord { at, event });
    }

    /// All records, in recording order.
    pub fn records(&self) -> &[EventRecord] {
        &self.records
    }

    /// Number of retained records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True if no records are retained.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Records with `from <= at < to`.
    pub fn in_window(&self, from: SimTime, to: SimTime) -> impl Iterator<Item = &EventRecord> {
        self.records
            .iter()
            .filter(move |r| r.at >= from && r.at < to)
    }

    /// The first record whose message contains `needle`, if any.
    pub fn find(&self, needle: &str) -> Option<&EventRecord> {
        self.records
            .iter()
            .find(|r| r.event.message().contains(needle))
    }

    /// True if some record's message contains `needle`.
    pub fn contains(&self, needle: &str) -> bool {
        self.find(needle).is_some()
    }

    /// Discards all records (keeps the enabled flag).
    pub fn clear(&mut self) {
        self.records.clear();
    }

    /// Renders the whole log in the trace text format, one line per
    /// record.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for r in &self.records {
            out.push_str(&r.render_legacy());
            out.push('\n');
        }
        out
    }

    /// Dumps the log as JSON Lines: one object per record with stable
    /// keys `at_us`, `category`, `kind`, optional `dom`, and `message`.
    ///
    /// The writer is hand-rolled (the workspace is hermetic; no serde) and
    /// fully deterministic: key order is fixed and values derive only from
    /// the simulated run.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for r in &self.records {
            out.push_str(&format!(
                "{{\"at_us\":{},\"category\":\"{}\",\"kind\":\"{}\"",
                r.at.as_micros(),
                json_escape(r.event.category()),
                r.event.kind()
            ));
            if let Some(dom) = r.event.domain() {
                out.push_str(&format!(",\"dom\":\"{dom}\""));
            }
            out.push_str(&format!(
                ",\"message\":\"{}\"}}\n",
                json_escape(&r.event.message())
            ));
        }
        out
    }
}

/// Numbers a slice of events, one per line, in the counterexample-trace
/// format the protocol checker prints:
///
/// ```text
///     1. guest    domU1 suspending
///     2. vmm      domU1 frozen on memory
/// ```
pub fn render_numbered(events: &[Event]) -> String {
    let mut out = String::new();
    for (i, e) in events.iter().enumerate() {
        out.push_str(&format!("  {:>3}. {e}\n", i + 1));
    }
    out
}

/// Escapes a string for inclusion in a JSON string literal: everything
/// RFC 8259 §7 requires (`"`, `\` and every control character).
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{DomId, StrategyKind};
    use crate::phase::Phase;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn emit_and_query() {
        let mut log = EventLog::new();
        log.emit(t(1), Event::RebootCommanded(StrategyKind::Warm));
        log.emit(t(2), Event::Suspending(DomId(1)));
        log.emit(t(3), Event::Suspending(DomId(2)));
        log.emit(t(4), Event::Frozen(DomId(1)));
        assert_eq!(log.len(), 4);
        assert_eq!(log.in_window(t(2), t(4)).count(), 2);
        assert_eq!(log.find("frozen").map(|r| r.at), Some(t(4)));
        assert!(log.contains("warm reboot commanded"));
        assert!(!log.contains("cold"));
    }

    #[test]
    fn render_golden_pins_the_text_format() {
        let mut log = EventLog::new();
        log.emit(t(1), Event::RebootCommanded(StrategyKind::Warm));
        log.emit(t(2), Event::Suspending(DomId(1)));
        log.emit(
            SimTime::from_micros(61_500_250),
            Event::note("cell", "vm7 parked warm"),
        );
        assert_eq!(
            log.render(),
            "[    1.000s] host     warm reboot commanded\n\
             [    2.000s] guest    domU1 suspending\n\
             [   61.500s] cell     vm7 parked warm\n"
        );
    }

    #[test]
    fn disabled_log_drops_events() {
        let mut log = EventLog::disabled();
        log.emit(t(0), Event::PowerOn);
        assert!(log.is_empty());
    }

    #[test]
    fn clear_retains_enabled_flag() {
        let mut log = EventLog::new();
        log.emit(t(0), Event::PowerOn);
        log.clear();
        assert!(log.is_empty());
        log.emit(t(1), Event::PowerOn);
        assert_eq!(log.len(), 1, "a cleared log still records");
    }

    #[test]
    fn jsonl_has_stable_shape() {
        let mut log = EventLog::new();
        log.emit(t(1), Event::Frozen(DomId(1)));
        log.emit(t(2), Event::PhaseBegin(Phase::QuickReload));
        let jsonl = log.to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(
            lines[0],
            "{\"at_us\":1000000,\"category\":\"vmm\",\"kind\":\"Frozen\",\
             \"dom\":\"domU1\",\"message\":\"domU1 frozen on memory\"}"
        );
        assert_eq!(
            lines[1],
            "{\"at_us\":2000000,\"category\":\"phase\",\"kind\":\"PhaseBegin\",\
             \"message\":\"begin quick reload\"}"
        );
    }

    #[test]
    fn json_escape_handles_specials() {
        assert_eq!(json_escape("plain"), "plain");
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("feed\ttab\rcr"), "feed\\ttab\\rcr");
        assert_eq!(json_escape("\u{1}bell\u{7}"), "\\u0001bell\\u0007");
    }

    #[test]
    fn render_numbered_matches_checker_format() {
        let events = vec![Event::Suspending(DomId(1)), Event::Frozen(DomId(1))];
        let r = render_numbered(&events);
        let lines: Vec<&str> = r.lines().collect();
        assert_eq!(lines[0], "    1. guest    domU1 suspending");
        assert_eq!(lines[1], "    2. vmm      domU1 frozen on memory");
    }
}
