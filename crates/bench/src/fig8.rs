//! Figure 8: throughput of file reads and web accesses before/after the
//! reboot.
//!
//! * **8(a)** — one 11 GiB VM reads a fully cached 512 MB file just before
//!   and just after the reboot: cold loses 91 % of throughput (every block
//!   misses), warm loses nothing.
//! * **8(b)** — Apache serves 10 000 × 512 KB cached files to 10 parallel
//!   httperf processes, each file requested once: cold loses 69 %, warm
//!   nothing.

use rh_guest::fs::FileSet;
use rh_guest::services::ServiceKind;
use rh_net::httperf::{AccessPattern, HttperfClient};
use rh_sim::time::SimDuration;
use rh_vmm::config::{HostConfig, RebootStrategy};
use rh_vmm::domain::{DomainId, DomainSpec};
use rh_vmm::harness::HostSim;

use crate::cli::Run;
use crate::exec::{Sweep, DEFAULT_SEED};

/// Before/after throughput pair (bytes/s for 8a, req/s for 8b).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BeforeAfter {
    /// Throughput just before the reboot.
    pub before: f64,
    /// Throughput just after the reboot.
    pub after: f64,
}

impl BeforeAfter {
    /// Degradation fraction: 0.91 means −91 %.
    pub fn degradation(&self) -> f64 {
        1.0 - self.after / self.before
    }
}

/// Fig. 8 results for one reboot strategy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig8Result {
    /// Strategy measured.
    pub strategy: RebootStrategy,
    /// 8(a): sequential file-read throughput.
    pub file_read: BeforeAfter,
    /// 8(b): web-serving throughput.
    pub web: BeforeAfter,
}

fn big_vm_host(files: FileSet) -> HostSim {
    let spec = DomainSpec::standard("big", ServiceKind::ApacheWeb)
        .with_mem_bytes(11 << 30)
        .with_files(files);
    let cfg = HostConfig::paper_testbed()
        .with_domain(spec)
        .with_trace(false);
    let mut sim = HostSim::new(cfg);
    sim.power_on_and_wait();
    sim
}

/// Runs the 8(a) file-read comparison for one strategy.
pub fn file_read(strategy: RebootStrategy) -> BeforeAfter {
    let corpus = FileSet::single_large_file();
    let mut sim = big_vm_host(corpus);
    let dom = DomainId(1);
    // Pre-warm: the whole 512 MB file is cached, as in the paper.
    sim.host_mut().warm_cache(dom, 1);
    let before = sim.file_read_and_wait(dom, 0);
    sim.reboot_and_wait(strategy);
    let after = sim.file_read_and_wait(dom, 0);
    BeforeAfter { before, after }
}

/// Measures web throughput by running a fresh 10-process httperf fleet
/// through every file exactly once (the Fig. 8b methodology).
fn web_throughput(sim: &mut HostSim, files: u32) -> f64 {
    sim.attach_httperf(
        DomainId(1),
        HttperfClient::new(10, files, AccessPattern::EachOnce),
    );
    let ok = sim.run_until(SimDuration::from_secs(3600), |h| {
        h.httperf().map(|c| c.is_done()).unwrap_or(true)
    });
    let Some(client) = sim.detach_httperf() else {
        // Attached above, so this cannot happen; NaN keeps the comparisons
        // loud without aborting a whole sweep.
        return f64::NAN;
    };
    if !ok {
        return f64::NAN;
    }
    let log = client.log();
    let count = log.len() as f64;
    let span = log
        .throughput_per_window(log.len())
        .iter()
        .next()
        .map(|(_, rate)| rate)
        .unwrap_or(f64::NAN);
    debug_assert!(count > 0.0);
    span
}

/// Runs the 8(b) web comparison for one strategy. `files` scales the
/// corpus (10 000 in the paper; smaller in quick tests).
pub fn web(strategy: RebootStrategy, files: u32) -> BeforeAfter {
    let corpus = FileSet::new(files, 512 * 1024);
    let mut sim = big_vm_host(corpus);
    let dom = DomainId(1);
    sim.host_mut().warm_cache(dom, files);
    let before = web_throughput(&mut sim, files);
    sim.reboot_and_wait(strategy);
    let after = web_throughput(&mut sim, files);
    BeforeAfter { before, after }
}

/// Runs the full Fig. 8 for one strategy.
pub fn run(strategy: RebootStrategy, web_files: u32) -> Fig8Result {
    Fig8Result {
        strategy,
        file_read: file_read(strategy),
        web: web(strategy, web_files),
    }
}

/// Renders one strategy's results.
pub fn render(r: &Fig8Result) -> String {
    format!(
        "## fig8 ({} reboot)\n\
         file read : before {:>7.1} MB/s, after {:>7.1} MB/s  ({:+.0} %)\n\
         web       : before {:>7.1} req/s, after {:>7.1} req/s  ({:+.0} %)\n",
        r.strategy,
        r.file_read.before / 1e6,
        r.file_read.after / 1e6,
        -100.0 * r.file_read.degradation(),
        r.web.before,
        r.web.after,
        -100.0 * r.web.degradation(),
    )
}

/// Prints Fig. 8 for the warm and the cold reboot (a 500-file web corpus
/// under `--quick`, else the paper's 10 000) and records the cold
/// degradations as headlines.
pub fn report(run: &mut Run) {
    let web_files = if run.quick { 500 } else { 10_000 };
    let mut sweep = Sweep::new(DEFAULT_SEED);
    for strategy in [RebootStrategy::Warm, RebootStrategy::Cold] {
        sweep.point(format!("fig8/{strategy}"), move |_rng| {
            self::run(strategy, web_files)
        });
    }
    for r in run.sweep(sweep) {
        println!("{}", render(&r));
        if r.strategy == RebootStrategy::Cold {
            run.headline("fig8_cold_file_read_degradation", r.file_read.degradation());
            run.headline("fig8_cold_web_degradation", r.web.degradation());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn file_read_cold_loses_ninety_one_percent() {
        let cold = file_read(RebootStrategy::Cold);
        // Before: memory-speed (640 MB/s); after: seeky disk (~58 MB/s).
        assert!(cold.before > 500e6, "before {:.0} MB/s", cold.before / 1e6);
        let deg = cold.degradation();
        assert!((deg - 0.91).abs() < 0.03, "cold degradation {:.2}", deg);
    }

    #[test]
    fn file_read_warm_loses_nothing() {
        let warm = file_read(RebootStrategy::Warm);
        assert!(
            warm.degradation().abs() < 0.02,
            "warm degradation {:.3}",
            warm.degradation()
        );
    }

    #[test]
    fn web_cold_loses_about_sixty_nine_percent() {
        // A 1 500-file corpus keeps the test fast; the degradation ratio is
        // corpus-size-independent (it is a rate ratio).
        let cold = web(RebootStrategy::Cold, 1_500);
        let deg = cold.degradation();
        assert!((deg - 0.69).abs() < 0.08, "cold web degradation {:.2}", deg);
    }

    #[test]
    fn web_warm_loses_nothing() {
        let warm = web(RebootStrategy::Warm, 1_000);
        assert!(
            warm.degradation().abs() < 0.05,
            "warm web degradation {:.3}",
            warm.degradation()
        );
    }

    #[test]
    fn render_shape() {
        let r = Fig8Result {
            strategy: RebootStrategy::Cold,
            file_read: BeforeAfter {
                before: 640e6,
                after: 57e6,
            },
            web: BeforeAfter {
                before: 215.0,
                after: 66.0,
            },
        };
        let s = render(&r);
        assert!(s.contains("-91 %"));
        assert!(s.contains("cold"));
    }
}
