//! Software-aging detection and proactive triggering.
//!
//! The paper motivates rejuvenation with resource-exhaustion aging: the
//! 16 MB VMM heap leaking on every VM reboot, xenstored leaking per
//! transaction (§2). Following the trend-estimation methodology of Garg et
//! al. (the paper's reference 13), [`AgingDetector`] tracks a free-resource
//! time series, fits a linear trend, extrapolates time-to-exhaustion, and
//! recommends rejuvenation when exhaustion would land inside the
//! configured lead time.

use std::collections::VecDeque;

use rh_sim::stats::linear_fit;
use rh_sim::time::{SimDuration, SimTime};

/// A trend-based exhaustion detector over a sliding window of
/// `(time, free_amount)` samples.
///
/// # Examples
///
/// ```
/// use rh_rejuv::aging::AgingDetector;
/// use rh_sim::time::{SimDuration, SimTime};
///
/// let mut d = AgingDetector::new(16);
/// for i in 0..10u64 {
///     // Free heap shrinking by 100 units/second.
///     d.add_sample(SimTime::from_secs(i), 10_000.0 - 100.0 * i as f64);
/// }
/// let eta = d.estimate_exhaustion().unwrap();
/// assert!((eta.as_secs_f64() - 100.0).abs() < 1.0);
/// assert!(d.should_rejuvenate(SimTime::from_secs(9), SimDuration::from_secs(120)));
/// ```
#[derive(Debug, Clone)]
pub struct AgingDetector {
    window: usize,
    samples: VecDeque<(SimTime, f64)>,
}

impl AgingDetector {
    /// Creates a detector keeping the last `window` samples.
    ///
    /// # Panics
    ///
    /// Panics if `window < 2`.
    pub fn new(window: usize) -> Self {
        assert!(window >= 2, "need at least two samples to fit a trend");
        AgingDetector {
            window,
            samples: VecDeque::new(),
        }
    }

    /// Records a measurement of the free resource at `at`.
    ///
    /// # Panics
    ///
    /// Panics if samples go backwards in time.
    pub fn add_sample(&mut self, at: SimTime, free: f64) {
        if let Some(&(last, _)) = self.samples.back() {
            assert!(at >= last, "samples must be time-ordered");
        }
        if self.samples.len() == self.window {
            self.samples.pop_front();
        }
        self.samples.push_back((at, free));
    }

    /// Number of retained samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True if no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// The fitted depletion rate in units/second (negative = leaking), or
    /// `None` with fewer than two samples.
    #[cfg(test)]
    fn trend(&self) -> Option<f64> {
        let xs: Vec<f64> = self.samples.iter().map(|(t, _)| t.as_secs_f64()).collect();
        let ys: Vec<f64> = self.samples.iter().map(|(_, v)| *v).collect();
        linear_fit(&xs, &ys).map(|f| f.slope)
    }

    /// Extrapolated instant at which the resource hits zero, or `None` if
    /// the trend is flat/improving or not yet estimable.
    pub fn estimate_exhaustion(&self) -> Option<SimTime> {
        let xs: Vec<f64> = self.samples.iter().map(|(t, _)| t.as_secs_f64()).collect();
        let ys: Vec<f64> = self.samples.iter().map(|(_, v)| *v).collect();
        let fit = linear_fit(&xs, &ys)?;
        if fit.slope >= 0.0 {
            return None;
        }
        let zero_at = -fit.intercept / fit.slope;
        if zero_at <= 0.0 {
            return Some(SimTime::ZERO);
        }
        Some(SimTime::from_secs_f64(zero_at))
    }

    /// True if projected exhaustion falls within `lead` of `now` — time to
    /// schedule a rejuvenation.
    pub fn should_rejuvenate(&self, now: SimTime, lead: SimDuration) -> bool {
        match self.estimate_exhaustion() {
            Some(eta) => eta <= now.saturating_add(lead),
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn linear_leak_is_extrapolated_exactly() {
        let mut d = AgingDetector::new(32);
        for i in 0..20u64 {
            d.add_sample(t(i * 10), 1000.0 - 5.0 * (i * 10) as f64);
        }
        // Hits zero at t = 200.
        let eta = d.estimate_exhaustion().unwrap();
        assert!((eta.as_secs_f64() - 200.0).abs() < 1e-6);
        assert!((d.trend().unwrap() + 5.0).abs() < 1e-9);
    }

    #[test]
    fn healthy_resource_never_triggers() {
        let mut d = AgingDetector::new(8);
        for i in 0..8u64 {
            d.add_sample(t(i), 1000.0); // flat
        }
        assert_eq!(d.estimate_exhaustion(), None);
        assert!(!d.should_rejuvenate(t(8), SimDuration::from_secs(1_000_000)));
        let mut d2 = AgingDetector::new(8);
        for i in 0..8u64 {
            d2.add_sample(t(i), 1000.0 + i as f64); // improving
        }
        assert_eq!(d2.estimate_exhaustion(), None);
    }

    #[test]
    fn trigger_respects_lead_time() {
        let mut d = AgingDetector::new(8);
        for i in 0..8u64 {
            d.add_sample(t(i), 100.0 - 10.0 * i as f64); // zero at t=10
        }
        assert!(!d.should_rejuvenate(t(7), SimDuration::from_secs(1)));
        assert!(d.should_rejuvenate(t(7), SimDuration::from_secs(5)));
    }

    #[test]
    fn window_slides() {
        let mut d = AgingDetector::new(4);
        // Old flat history followed by a sharp recent leak: the window
        // must only see the leak.
        for i in 0..10u64 {
            d.add_sample(t(i), 1000.0);
        }
        for i in 10..14u64 {
            d.add_sample(t(i), 1000.0 - 50.0 * (i - 9) as f64);
        }
        assert_eq!(d.len(), 4);
        let trend = d.trend().unwrap();
        assert!((trend + 50.0).abs() < 1e-6, "trend {trend}");
    }

    #[test]
    fn already_exhausted_reports_time_zero_or_now() {
        let mut d = AgingDetector::new(4);
        d.add_sample(t(0), -10.0);
        d.add_sample(t(1), -20.0);
        let eta = d.estimate_exhaustion().unwrap();
        assert_eq!(eta, SimTime::ZERO);
    }

    #[test]
    fn detector_against_live_vmm_heap() {
        // Drive the real VMM's heap through the changeset-9392 leak and
        // let the detector catch it before exhaustion.
        use rh_memory::heap::VmmHeap;
        let mut heap = VmmHeap::new(1_000_000);
        let mut d = AgingDetector::new(16);
        let mut triggered_at = None;
        for step in 0..200u64 {
            heap.leak(10_000);
            let now = t(step * 60);
            d.add_sample(now, heap.free_bytes() as f64);
            if d.should_rejuvenate(now, SimDuration::from_secs(20 * 60)) {
                triggered_at = Some((step, heap.free_bytes()));
                break;
            }
        }
        let (step, free_left) = triggered_at.expect("detector must fire before exhaustion");
        assert!(free_left > 0, "fired too late");
        assert!(step > 10, "fired unreasonably early at step {step}");
        // Rejuvenation resets the trend.
        heap.reset();
        assert_eq!(heap.free_bytes(), 1_000_000);
    }

    #[test]
    #[should_panic(expected = "time-ordered")]
    fn out_of_order_samples_rejected() {
        let mut d = AgingDetector::new(4);
        d.add_sample(t(5), 1.0);
        d.add_sample(t(4), 1.0);
    }

    #[test]
    #[should_panic(expected = "at least two")]
    fn tiny_window_rejected() {
        AgingDetector::new(1);
    }
}
