//! `rhctl` — a small operator-style CLI over the simulated host.
//!
//! ```text
//! rhctl reboot  [--strategy warm|cold|saved|streamed|incremental] [--vms N] [--service ssh|jboss|web]
//! rhctl crash   [--vms N]
//! rhctl policy  [--weeks N] [--vms N]
//! rhctl plan    [--hosts M] [--downtime SECS] [--max-down K]
//! ```
//!
//! Every subcommand builds the paper-testbed host, drives the requested
//! scenario, and prints what an operator would want to see.

use roothammer::cluster::schedule::{plan_uniform, ScheduleConstraints};
use roothammer::prelude::*;
use roothammer::rejuv::policy::{render_timeline, TimeBasedPolicy};

fn parse_flag(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn parse_u32(args: &[String], name: &str, default: u32) -> u32 {
    parse_flag(args, name)
        .map(|v| {
            v.parse()
                .unwrap_or_else(|_| die(&format!("bad value for {name}: {v}")))
        })
        .unwrap_or(default)
}

fn parse_service(args: &[String]) -> ServiceKind {
    match parse_flag(args, "--service").as_deref() {
        None | Some("ssh") => ServiceKind::Ssh,
        Some("jboss") => ServiceKind::Jboss,
        Some("web") => ServiceKind::ApacheWeb,
        Some(other) => die(&format!("unknown service {other:?} (ssh|jboss|web)")),
    }
}

fn parse_strategy(args: &[String]) -> RebootStrategy {
    match parse_flag(args, "--strategy").as_deref() {
        None | Some("warm") => RebootStrategy::Warm,
        Some("cold") => RebootStrategy::Cold,
        Some("saved") => RebootStrategy::Saved,
        Some("streamed") => RebootStrategy::Streamed,
        Some("incremental") => RebootStrategy::Incremental,
        Some(other) => die(&format!(
            "unknown strategy {other:?} (warm|cold|saved|streamed|incremental)"
        )),
    }
}

/// The guest count `--vms` asks for, checked against the testbed's memory
/// before anything boots. Guests are added one at a time, so a huge count
/// stops at the first guest that does not fit instead of building a spec
/// for every one.
fn parse_vms(args: &[String], default: u32, service: ServiceKind) -> u32 {
    let n = parse_u32(args, "--vms", default);
    let mut cfg = HostConfig::paper_testbed();
    for _ in 0..n {
        cfg = cfg.with_vms(1, service);
        if let Err(e) = cfg.validate() {
            die(&format!("--vms {n} does not fit the 12 GiB host: {e}"));
        }
    }
    n
}

fn die(msg: &str) -> ! {
    eprintln!("rhctl: {msg}");
    std::process::exit(2)
}

fn usage() -> ! {
    eprintln!(
        "usage: rhctl <command> [flags]\n\
         commands:\n\
           reboot  [--strategy warm|cold|saved|streamed|incremental]\n\
                   [--vms N] [--service ssh|jboss|web]\n\
           crash   [--vms N]\n\
           policy  [--weeks N] [--vms N]\n\
           plan    [--hosts M] [--downtime SECS] [--max-down K]"
    );
    std::process::exit(2)
}

fn cmd_reboot(args: &[String]) {
    let service = parse_service(args);
    let n = parse_vms(args, 11, service);
    let strategy = parse_strategy(args);
    println!("bringing up a 12 GiB host with {n} x 1 GiB {service} guests...");
    let mut sim = booted_host(n, service);
    println!("host up at t = {}", sim.now());
    let report = sim.reboot_and_wait(strategy);
    println!(
        "\n{strategy}-VM reboot complete at t = {}:",
        report.completed_at
    );
    for (id, d) in &report.downtime {
        println!("  {id}: down {d}");
    }
    println!(
        "mean {} | max {} | memory preserved: {}",
        report.mean_downtime(),
        report.max_downtime(),
        report.corrupted.is_empty()
    );
    println!("\nphase timeline:\n{}", sim.host().metrics);
}

fn cmd_crash(args: &[String]) {
    let n = parse_vms(args, 4, ServiceKind::Ssh);
    let mut sim = booted_host(n, ServiceKind::Ssh);
    println!("host up; crashing the VMM at t = {}...", sim.now());
    let report = sim.crash_and_recover();
    println!(
        "reactive recovery finished at t = {}: mean downtime {}, all guest state lost",
        report.completed_at,
        report.mean_downtime()
    );
}

fn cmd_policy(args: &[String]) {
    let weeks = parse_u32(args, "--weeks", 8) as u64;
    let n = parse_u32(args, "--vms", 3);
    let policy = TimeBasedPolicy::paper();
    let guests: Vec<DomainId> = (1..=n).map(DomainId).collect();
    let horizon = SimDuration::from_secs(weeks * 7 * 24 * 3600);
    let tick = SimDuration::from_secs(7 * 24 * 3600);
    println!("warm semantics (Fig. 2a):");
    let warm = policy.schedule(&guests, SimTime::ZERO, horizon, false);
    println!("{}", render_timeline(&warm, &guests, horizon, tick));
    println!("cold semantics (Fig. 2b):");
    let cold = policy.schedule(&guests, SimTime::ZERO, horizon, true);
    println!("{}", render_timeline(&cold, &guests, horizon, tick));
}

fn cmd_plan(args: &[String]) {
    let hosts = parse_u32(args, "--hosts", 8);
    let downtime = parse_u32(args, "--downtime", 42) as u64;
    let max_down = parse_u32(args, "--max-down", 1);
    let constraints = ScheduleConstraints {
        max_down,
        capacity_floor: 0.0,
        slack: SimDuration::from_secs(10),
    };
    match plan_uniform(hosts, SimDuration::from_secs(downtime), &constraints) {
        Ok(plan) => {
            println!("rejuvenation pass over {hosts} hosts ({downtime}s each, ≤{max_down} down):");
            for (host, start) in &plan.starts {
                println!("  host {host}: start at {start}");
            }
            println!(
                "makespan {}, peak concurrently down {}",
                plan.makespan, plan.peak_down
            );
        }
        Err(e) => die(&e.to_string()),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(|s| s.as_str()) {
        Some("reboot") => cmd_reboot(&args[1..]),
        Some("crash") => cmd_crash(&args[1..]),
        Some("policy") => cmd_policy(&args[1..]),
        Some("plan") => cmd_plan(&args[1..]),
        _ => usage(),
    }
}
