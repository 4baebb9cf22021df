//! The end-to-end golden test for a host that serves while it reboots:
//! the paper's Fig. 7 testbed (a 1 GiB web VM serving a page-cache-warmed
//! 1,200 × 512 KB corpus to a 10-client closed-loop httperf, beside 10
//! ssh VMs on the 12 GiB host) with the typed trace on, rebooted once by
//! every strategy, each reboot followed by a 60 s serving window.
//!
//! Under this load every served request re-arms the disk and network
//! wakes, so many wakes share an instant with other events. The test pins
//! everything the run reports, by one FNV-1a-64 digest: each
//! `RebootReport`, the completed requests and the latency histogram, the
//! final clock, the host's counters and timers, and the rendered typed
//! trace, which holds the saved, streamed and incremental event order
//! under load as well as the warm and cold one. Any change to the firing
//! order of same-instant events, to request service, or to a reboot
//! pipeline shows up here; update the pins only with a deliberate
//! behaviour change.

use std::fmt::Write as _;

use rh_guest::fs::FileSet;
use rh_guest::services::ServiceKind;
use rh_net::httperf::{AccessPattern, HttperfClient};
use rh_sim::time::SimDuration;
use rh_vmm::harness::HostSim;
use rh_vmm::{DomainId, DomainSpec, HostConfig, RebootStrategy};

/// The web VM is the first guest domain.
const WEB: DomainId = DomainId(1);

/// Simulated serving window after each reboot.
const WINDOW: SimDuration = SimDuration::from_secs(60);

/// 1,200 × 512 KB: fits the web VM's page cache, so once warmed every
/// request is a hit until a reboot that drops the cache.
fn corpus() -> FileSet {
    FileSet::new(1_200, 512 * 1024)
}

/// FNV-1a-64 of a rendered run: one number that pins every byte.
fn fnv1a64(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// What one served cycle reports.
struct Served {
    /// Everything the run reports, rendered.
    rendered: String,
    /// Requests httperf completed over the cycle.
    requests: u64,
    /// Typed trace records over the whole run, power-on included.
    records: usize,
}

/// Powers the testbed on, warms the web cache, attaches httperf, then
/// reboots by every strategy with a serving window after each.
fn served_cycle() -> Served {
    let web = DomainSpec::standard("web", ServiceKind::ApacheWeb).with_files(corpus());
    let cfg = HostConfig::paper_testbed()
        .with_domain(web)
        .with_vms(10, ServiceKind::Ssh)
        .with_trace(true)
        .with_seed(2007);
    let mut sim = HostSim::new(cfg);
    sim.power_on_and_wait();
    sim.host_mut().warm_cache(WEB, corpus().files);
    sim.attach_httperf(
        WEB,
        HttperfClient::new(10, corpus().files, AccessPattern::Cyclic),
    );
    let mut rendered = String::new();
    for strategy in RebootStrategy::ALL {
        let report = sim.reboot_and_wait(strategy);
        writeln!(rendered, "{report:?}").unwrap();
        sim.run_for(WINDOW);
    }
    let host = sim.host();
    assert!(host.errors().is_empty(), "{:?}", host.errors());
    let requests = host.httperf().map_or(0, HttperfClient::completed);
    writeln!(rendered, "requests {requests}").unwrap();
    writeln!(rendered, "latencies {:?}", host.request_latencies()).unwrap();
    writeln!(rendered, "now {:?}", sim.now()).unwrap();
    writeln!(rendered, "stats {:?}", host.stats).unwrap();
    rendered.push_str(&host.trace.render());
    Served {
        rendered,
        requests,
        records: host.trace.len(),
    }
}

#[test]
fn served_reboots_of_every_strategy_are_golden() {
    let run = served_cycle();
    assert_eq!(run.requests, 144_320, "requests served over the cycle");
    assert_eq!(run.records, 495, "typed trace records");
    assert_eq!(
        fnv1a64(&run.rendered),
        0x3545_2f5d_de40_77d1,
        "served cycle drifted; its rendering:\n{}",
        run.rendered
    );
}
