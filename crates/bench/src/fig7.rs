//! Figure 7: the downtime breakdown and web-server throughput trace.
//!
//! 11 VMs; VM 1 runs Apache serving a cached corpus, hammered by an
//! httperf fleet whose 50-request-window throughput is recorded while the
//! VMM reboots. The phase timeline (dom0 shutdown, suspend, quick reload /
//! hardware reset, boots, resume) is superimposed, reproducing the paper's
//! two headline observations:
//!
//! * the warm path keeps serving ~7 s longer (the VMM suspends guests only
//!   *after* dom0 is down),
//! * after a cold reboot throughput stays degraded while the page cache
//!   refills; after a warm reboot it recovers instantly.

use rh_guest::fs::FileSet;
use rh_guest::services::ServiceKind;
use rh_net::httperf::{AccessPattern, HttperfClient};
use rh_obs::PhaseSpan;
use rh_sim::series::TimeSeries;
use rh_sim::time::{SimDuration, SimTime};
use rh_vmm::config::{HostConfig, RebootStrategy};
use rh_vmm::domain::{DomainId, DomainSpec};
use rh_vmm::harness::HostSim;

use crate::cli::Run;
use crate::exec::{Sweep, DEFAULT_SEED};

/// Web corpus for the 1 GiB VM: 1 200 × 512 KB (fits the page cache).
fn fig7_corpus() -> FileSet {
    FileSet::new(1_200, 512 * 1024)
}

/// One strategy's Fig. 7 trace.
#[derive(Debug, Clone)]
pub struct Fig7Trace {
    /// Strategy.
    pub strategy: RebootStrategy,
    /// When the reboot command was issued.
    pub command_at: SimTime,
    /// 50-request-window throughput (req/s) over the whole run.
    pub series: TimeSeries,
    /// Phase timeline of the reboot.
    pub phases: Vec<PhaseSpan>,
    /// Mean steady throughput before the command.
    pub steady_before: f64,
    /// Instant the web server stopped answering.
    pub stopped_at: SimTime,
    /// Instant it answered again.
    pub restored_at: SimTime,
    /// Mean throughput in the 10 s right after restoration.
    pub just_after: f64,
    /// Mean throughput from 60 s after restoration (fully recovered).
    pub recovered: f64,
}

impl Fig7Trace {
    /// Relative throughput right after restoration vs steady state
    /// (1.0 = no degradation).
    fn after_ratio(&self) -> f64 {
        self.just_after / self.steady_before
    }
}

/// Runs the Fig. 7 experiment for one strategy.
///
/// # Errors
///
/// Returns a message when the run does not produce the expected trace —
/// the httperf fleet vanished, the web VM was never metered, or the reboot
/// caused no outage.
pub fn run(strategy: RebootStrategy) -> Result<Fig7Trace, String> {
    let web = DomainSpec::standard("web", ServiceKind::ApacheWeb).with_files(fig7_corpus());
    let cfg = HostConfig::paper_testbed()
        .with_domain(web)
        .with_vms(10, ServiceKind::Ssh)
        .with_trace(false);
    let mut sim = HostSim::new(cfg);
    sim.power_on_and_wait();
    let target = DomainId(1);
    sim.host_mut().warm_cache(target, fig7_corpus().files);
    sim.attach_httperf(
        target,
        HttperfClient::new(10, fig7_corpus().files, AccessPattern::Cyclic),
    );

    // Steady state before the reboot.
    sim.run_for(SimDuration::from_secs(30));
    let command_at = sim.now();
    sim.reboot_and_wait(strategy);
    // Watch the recovery (cache refill) for a while.
    sim.run_for(SimDuration::from_secs(90));

    let client = sim
        .detach_httperf()
        .ok_or("httperf client detached before the trace was read")?;
    let series = client.throughput_windows(50);
    let meter = sim
        .host()
        .meter(target)
        .ok_or("web vm has no availability meter")?;
    let outage = meter
        .outages()
        .iter()
        .rev()
        .find(|o| o.end >= command_at)
        .copied()
        .ok_or_else(|| format!("{strategy} reboot caused no outage on the web vm"))?;
    let steady_before = series
        .mean_over(SimTime::ZERO, command_at)
        .unwrap_or(f64::NAN);
    let just_after = series
        .mean_over(outage.end, outage.end + SimDuration::from_secs(10))
        .unwrap_or(f64::NAN);
    let recovered = series
        .mean_over(outage.end + SimDuration::from_secs(60), sim.now())
        .unwrap_or(f64::NAN);
    Ok(Fig7Trace {
        strategy,
        command_at,
        series,
        phases: sim.host().metrics.spans().to_vec(),
        steady_before,
        stopped_at: outage.start,
        restored_at: outage.end,
        just_after,
        recovered,
    })
}

/// Renders the phase timeline relative to the reboot command.
fn render_phases(trace: &Fig7Trace) -> String {
    let mut out = format!(
        "## fig7 {} reboot (command at t={})\n",
        trace.strategy, trace.command_at
    );
    out.push_str(&format!(
        "steady {:.0} req/s | stopped at +{:.1}s | restored at +{:.1}s | just-after {:.0} req/s ({:.0} %) | recovered {:.0} req/s\n",
        trace.steady_before,
        (trace.stopped_at - trace.command_at).as_secs_f64(),
        (trace.restored_at - trace.command_at).as_secs_f64(),
        trace.just_after,
        trace.after_ratio() * 100.0,
        trace.recovered,
    ));
    for s in &trace.phases {
        if let Some(end) = s.end {
            let rel_s = s.start.saturating_duration_since(trace.command_at);
            let rel_e = end.saturating_duration_since(trace.command_at);
            out.push_str(&format!(
                "  {:<16} +{:>7.1}s .. +{:>7.1}s\n",
                s.name(),
                rel_s.as_secs_f64(),
                rel_e.as_secs_f64()
            ));
        }
    }
    out
}

/// Prints the warm and cold phase breakdowns, each followed by its
/// throughput trace as CSV when `csv` is set (the `fig7` binary; `all`
/// leaves the traces out).
pub fn report(run: &mut Run, csv: bool) {
    let mut sweep = Sweep::new(DEFAULT_SEED);
    for strategy in [RebootStrategy::Warm, RebootStrategy::Cold] {
        sweep.point(format!("fig7/{strategy}"), move |_rng| self::run(strategy));
    }
    for trace in run.sweep(sweep) {
        match trace {
            Ok(t) => {
                println!("{}", render_phases(&t));
                if csv {
                    println!("throughput trace (50-request windows), CSV:");
                    println!("{}", t.series.to_csv());
                }
            }
            Err(e) => run.fail(format!("fig7 trace failed: {e}")),
        }
    }
}

/// Writes the typed event streams of a canonical 2-domain warm and cold
/// reboot as JSON Lines to `--trace-jsonl`, if given. The reboots run
/// through the executor, so every `--jobs` count writes the same bytes.
pub fn traces(run: &mut Run) {
    let Some(path) = run.trace_jsonl.clone() else {
        return;
    };
    let mut sweep = Sweep::new(DEFAULT_SEED);
    for strategy in [RebootStrategy::Warm, RebootStrategy::Cold] {
        sweep.point(format!("trace/{strategy}"), move |_rng| {
            let mut sim = rh_vmm::harness::booted_host(2, ServiceKind::Ssh);
            sim.reboot_and_wait(strategy);
            sim.host().trace.to_jsonl()
        });
    }
    let logs = run.sweep(sweep);
    run.write(&path, logs.concat());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn warm_keeps_serving_longer_and_recovers_instantly() {
        let warm = run(RebootStrategy::Warm).unwrap();
        let cold = run(RebootStrategy::Cold).unwrap();

        // The paper: web server stopped at +14 s (warm) vs +7 s (cold),
        // i.e. the warm path serves ~7 s longer.
        let warm_stop = (warm.stopped_at - warm.command_at).as_secs_f64();
        let cold_stop = (cold.stopped_at - cold.command_at).as_secs_f64();
        assert!(
            (warm_stop - cold_stop - 7.0).abs() < 1.5,
            "warm stops at +{warm_stop:.1}, cold at +{cold_stop:.1}"
        );

        // Both ran at the same steady state before.
        assert!(warm.steady_before > 150.0, "steady {}", warm.steady_before);
        assert!((warm.steady_before - cold.steady_before).abs() < 20.0);

        // Warm: no degradation after the reboot.
        assert!(
            warm.after_ratio() > 0.9,
            "warm after-ratio {:.2}",
            warm.after_ratio()
        );
        // Cold: significant degradation just after (cache misses), then
        // recovery.
        assert!(
            cold.after_ratio() < 0.6,
            "cold after-ratio {:.2}",
            cold.after_ratio()
        );
        assert!(
            cold.recovered > 0.9 * cold.steady_before,
            "cold recovered to {:.0} of {:.0}",
            cold.recovered,
            cold.steady_before
        );

        // Downtime ordering: warm outage far shorter than cold.
        let warm_outage = (warm.restored_at - warm.stopped_at).as_secs_f64();
        let cold_outage = (cold.restored_at - cold.stopped_at).as_secs_f64();
        assert!(warm_outage * 2.0 < cold_outage);
    }

    #[test]
    fn phase_render_mentions_key_phases() {
        let warm = run(RebootStrategy::Warm).unwrap();
        let rendered = render_phases(&warm);
        for phase in [
            "dom0 shutdown",
            "suspend",
            "quick reload",
            "dom0 boot",
            "resume",
        ] {
            assert!(rendered.contains(phase), "missing {phase} in:\n{rendered}");
        }
    }
}
