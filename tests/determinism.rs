//! Determinism: identical configurations must produce bit-identical
//! simulations — the property every debugging and regression workflow
//! rests on.

use roothammer::prelude::*;

fn run_one(seed: u64, strategy: RebootStrategy) -> (Vec<f64>, usize, u64) {
    let cfg = HostConfig::paper_testbed()
        .with_vms(5, ServiceKind::Jboss)
        .with_seed(seed)
        .with_probes(true);
    let mut sim = HostSim::new(cfg);
    sim.power_on_and_wait();
    let report = sim.reboot_and_wait(strategy);
    sim.run_for(SimDuration::from_secs(10));
    let downtimes: Vec<f64> = report.downtime.values().map(|d| d.as_secs_f64()).collect();
    let trace_len = sim.host().trace.len();
    let digest_sum: u64 = sim
        .host()
        .domu_ids()
        .iter()
        .map(|id| sim.host().domain_digest(*id).unwrap())
        .fold(0u64, |a, d| a.wrapping_add(d));
    (downtimes, trace_len, digest_sum)
}

#[test]
fn identical_runs_are_bit_identical() {
    for strategy in [
        RebootStrategy::Warm,
        RebootStrategy::Cold,
        RebootStrategy::Saved,
    ] {
        let a = run_one(42, strategy);
        let b = run_one(42, strategy);
        assert_eq!(a, b, "{strategy} runs diverged");
    }
}

#[test]
fn different_seeds_still_produce_equal_timing() {
    // The reboot timeline is load-independent of the RNG seed (no random
    // timing in the lifecycle path) — downtime must match across seeds,
    // while the memory digests (salted per create) differ.
    let a = run_one(1, RebootStrategy::Warm);
    let b = run_one(2, RebootStrategy::Warm);
    assert_eq!(a.0, b.0, "downtime must not depend on the seed");
    assert_eq!(a.1, b.1);
}

/// Cross-crate determinism: two identical `HostSim` runs must render
/// byte-identical reports — not just equal downtime vectors, but the same
/// bytes through every layer (rh-sim RNG → rh-memory digests → rh-vmm
/// reboot report → rh-net probe logs). This is the guarantee the in-repo
/// xoshiro256++ substitution preserves (DESIGN.md §"RNG substitution").
#[test]
fn identical_runs_render_byte_identical_reports() {
    let render = || {
        let cfg = HostConfig::paper_testbed()
            .with_vms(4, ServiceKind::Jboss)
            .with_seed(0xD5A7)
            .with_probes(true);
        let mut sim = HostSim::new(cfg);
        sim.power_on_and_wait();
        let report = sim.reboot_and_wait(RebootStrategy::Warm);
        sim.run_for(SimDuration::from_secs(5));
        let digests: Vec<String> = sim
            .host()
            .domu_ids()
            .iter()
            .map(|id| format!("{id:?}={:#018x}", sim.host().domain_digest(*id).unwrap()))
            .collect();
        format!(
            "{report:?}\n{digests:?}\ntrace_len={}\nspans={:?}",
            sim.host().trace.len(),
            sim.host()
                .metrics
                .spans()
                .iter()
                .map(|s| (s.name(), s.start, s.end))
                .collect::<Vec<_>>()
        )
        .into_bytes()
    };
    assert_eq!(render(), render(), "byte-level report divergence");
}

#[test]
fn replaying_a_trace_reproduces_phase_timings() {
    let measure = || {
        let mut sim = booted_host(3, ServiceKind::Ssh);
        sim.reboot_and_wait(RebootStrategy::Warm);
        sim.host()
            .metrics
            .spans()
            .iter()
            .map(|s| (s.name(), s.start, s.end))
            .collect::<Vec<_>>()
    };
    assert_eq!(measure(), measure());
}

/// Observability must be free: disabling the event log changes nothing
/// about the simulation itself. The log is append-only bookkeeping — it
/// never draws from the RNG or schedules work — so a traced run and an
/// untraced run of the same configuration produce identical reports.
#[test]
fn tracing_has_zero_behavioral_overhead() {
    fn run_one(trace: bool, strategy: RebootStrategy) -> (Vec<f64>, f64, u64) {
        let cfg = HostConfig::paper_testbed()
            .with_vms(4, ServiceKind::Ssh)
            .with_trace(trace);
        let mut sim = HostSim::new(cfg);
        sim.power_on_and_wait();
        let report = sim.reboot_and_wait(strategy);
        let downtimes: Vec<f64> = report.downtime.values().map(|d| d.as_secs_f64()).collect();
        let digest_sum: u64 = sim
            .host()
            .domu_ids()
            .iter()
            .map(|id| sim.host().domain_digest(*id).unwrap())
            .fold(0u64, |a, d| a.wrapping_add(d));
        (downtimes, sim.now().as_secs_f64(), digest_sum)
    }
    for strategy in [
        RebootStrategy::Warm,
        RebootStrategy::Cold,
        RebootStrategy::Saved,
    ] {
        let traced = run_one(true, strategy);
        let untraced = run_one(false, strategy);
        assert_eq!(traced, untraced, "{strategy}: tracing perturbed the run");
    }
}
