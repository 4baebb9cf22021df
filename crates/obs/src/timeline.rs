//! Typed reboot phase timelines — the data behind Fig. 7.
//!
//! Figure 7 superimposes "the time needed for each operation during the
//! reboot" onto the throughput trace. [`Timeline`] records [`PhaseSpan`]s
//! keyed by the closed [`Phase`] set (no string matching anywhere on the
//! render path) and renders them byte-identically to the legacy free-form
//! recorder, so every existing report stays stable.

use std::fmt;

use rh_sim::time::{SimDuration, SimTime};

use crate::phase::Phase;

/// One span of a reboot phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseSpan {
    /// Which phase this span belongs to.
    pub phase: Phase,
    /// Phase start.
    pub start: SimTime,
    /// Phase end; `None` while still open.
    pub end: Option<SimTime>,
}

impl PhaseSpan {
    /// Duration of a closed phase.
    pub fn duration(&self) -> Option<SimDuration> {
        self.end.map(|e| e - self.start)
    }

    /// The phase's display name (legacy string).
    pub fn name(&self) -> &'static str {
        self.phase.name()
    }
}

/// Accumulates phase spans for one reboot.
///
/// # Examples
///
/// ```
/// use rh_obs::{Phase, Timeline};
/// use rh_sim::time::SimTime;
///
/// let mut m = Timeline::new();
/// m.begin(SimTime::from_secs(20), Phase::Dom0Shutdown);
/// m.end(SimTime::from_secs(34), Phase::Dom0Shutdown);
/// assert_eq!(m.duration_of(Phase::Dom0Shutdown).unwrap().as_secs_f64(), 14.0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Timeline {
    spans: Vec<PhaseSpan>,
}

impl Timeline {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        Timeline::default()
    }

    /// Opens a phase. Phases may overlap; re-opening a phase creates a new
    /// span.
    pub fn begin(&mut self, at: SimTime, phase: Phase) {
        self.spans.push(PhaseSpan {
            phase,
            start: at,
            end: None,
        });
    }

    /// Closes the most recent open span of this phase.
    ///
    /// # Panics
    ///
    /// Panics if no open span of `phase` exists — that is a sequencing bug
    /// in the reboot driver.
    pub fn end(&mut self, at: SimTime, phase: Phase) {
        let span = self
            .spans
            .iter_mut()
            .rev()
            .find(|s| s.phase == phase && s.end.is_none())
            // lint:allow(unwrap-panic): documented panicking variant; end_if_open is the fallible form
            .unwrap_or_else(|| panic!("no open phase named {:?}", phase.name()));
        span.end = Some(at);
    }

    /// Closes the most recent open span of this phase, if one exists.
    /// Returns `true` if a span was closed.
    pub fn end_if_open(&mut self, at: SimTime, phase: Phase) -> bool {
        match self
            .spans
            .iter_mut()
            .rev()
            .find(|s| s.phase == phase && s.end.is_none())
        {
            Some(span) => {
                span.end = Some(at);
                true
            }
            None => false,
        }
    }

    /// All spans, in opening order.
    pub fn spans(&self) -> &[PhaseSpan] {
        &self.spans
    }

    /// Duration of the most recent closed span of this phase.
    pub fn duration_of(&self, phase: Phase) -> Option<SimDuration> {
        self.spans
            .iter()
            .rev()
            .find(|s| s.phase == phase && s.end.is_some())
            .and_then(|s| s.duration())
    }

    /// Discards all spans.
    pub fn clear(&mut self) {
        self.spans.clear();
    }

    /// Renders the timeline, one line per span (byte-identical to the
    /// legacy string-keyed recorder).
    pub fn render(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            match s.end {
                Some(e) => out.push_str(&format!(
                    "{:<18} {:>9} .. {:>9}  ({})\n",
                    s.name(),
                    s.start.to_string(),
                    e.to_string(),
                    (e - s.start)
                )),
                None => out.push_str(&format!(
                    "{:<18} {:>9} .. (open)\n",
                    s.name(),
                    s.start.to_string()
                )),
            }
        }
        out
    }
}

impl fmt::Display for Timeline {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn begin_end_and_duration() {
        let mut m = Timeline::new();
        m.begin(t(10), Phase::Suspend);
        m.end(t(14), Phase::Suspend);
        assert_eq!(
            m.duration_of(Phase::Suspend),
            Some(SimDuration::from_secs(4))
        );
    }

    #[test]
    fn overlapping_phases_allowed() {
        let mut m = Timeline::new();
        m.begin(t(0), Phase::Reboot);
        m.begin(t(1), Phase::Suspend);
        m.end(t(2), Phase::Suspend);
        m.end(t(5), Phase::Reboot);
        assert_eq!(m.spans().len(), 2);
        assert_eq!(
            m.duration_of(Phase::Reboot),
            Some(SimDuration::from_secs(5))
        );
    }

    #[test]
    fn repeated_phases_take_latest() {
        let mut m = Timeline::new();
        m.begin(t(0), Phase::GuestBoot);
        m.end(t(1), Phase::GuestBoot);
        m.begin(t(10), Phase::GuestBoot);
        m.end(t(13), Phase::GuestBoot);
        assert_eq!(
            m.duration_of(Phase::GuestBoot),
            Some(SimDuration::from_secs(3))
        );
    }

    #[test]
    #[should_panic(expected = "no open phase")]
    fn ending_unopened_phase_panics() {
        let mut m = Timeline::new();
        m.end(t(0), Phase::Resume);
    }

    #[test]
    fn end_if_open_reports_outcome() {
        let mut m = Timeline::new();
        assert!(!m.end_if_open(t(0), Phase::Resume));
        m.begin(t(0), Phase::Resume);
        assert!(m.end_if_open(t(1), Phase::Resume));
    }

    #[test]
    fn render_lists_every_span() {
        let mut m = Timeline::new();
        m.begin(t(0), Phase::HardwareReset);
        m.end(t(47), Phase::HardwareReset);
        m.begin(t(47), Phase::VmmBoot);
        let r = m.render();
        assert!(r.contains("hardware reset"));
        assert!(r.contains("(open)"));
        assert_eq!(r.lines().count(), 2);
        assert_eq!(m.to_string(), r);
        // Exact legacy layout: name padded to 18, times right-aligned to 9.
        assert_eq!(
            r.lines().next().unwrap(),
            "hardware reset        0.000s ..   47.000s  (47.000s)"
        );
    }

    #[test]
    fn clear_empties() {
        let mut m = Timeline::new();
        m.begin(t(0), Phase::Reboot);
        m.clear();
        assert!(m.spans().is_empty());
    }
}
