//! Figure 6: downtime of networked services across the three reboots.
//!
//! Sweeps 1..=11 VMs for ssh (6a) and JBoss (6b), measuring the per-service
//! outage of every strategy, and reproduces the §5.3 ssh-session fate
//! analysis (TCP retransmission vs 60 s client timeout vs reset).

use rh_guest::services::ServiceKind;
use rh_guest::session::{SessionFate, TcpSession};
use rh_sim::time::{SimDuration, SimTime};
use rh_vmm::config::RebootStrategy;

use crate::cli::Run;
use crate::exec::{Sweep, DEFAULT_SEED};
use crate::util::{booted_n_vms, secs, Table};

/// Downtimes (seconds) for one VM count and one service.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DowntimeRow {
    /// VM count.
    pub n: u32,
    /// Warm-VM reboot mean downtime.
    pub warm: f64,
    /// Saved-VM reboot mean downtime.
    pub saved: f64,
    /// Cold-VM reboot mean downtime.
    pub cold: f64,
}

/// Measures one (service, n) cell of Fig. 6.
pub fn measure(n: u32, service: ServiceKind) -> DowntimeRow {
    let run = |strategy| {
        booted_n_vms(n, service)
            .reboot_and_wait(strategy)
            .mean_downtime()
            .as_secs_f64()
    };
    DowntimeRow {
        n,
        warm: run(RebootStrategy::Warm),
        saved: run(RebootStrategy::Saved),
        cold: run(RebootStrategy::Cold),
    }
}

/// One service's Fig. 6 sweep as executor points: one per VM count.
pub fn sweep_points(service: ServiceKind, counts: impl Iterator<Item = u32>) -> Sweep<DowntimeRow> {
    let mut sweep = Sweep::new(DEFAULT_SEED);
    for n in counts {
        sweep.point(format!("fig6/{service:?}/{n}vms"), move |_rng| {
            measure(n, service)
        });
    }
    sweep
}

/// Prints both panels of Fig. 6 over 1..=`--max-n` VMs, with §5.3's ssh
/// session fates at the largest count between them.
pub fn report(run: &mut Run) {
    let ssh = run.sweep(sweep_points(ServiceKind::Ssh, 1..=run.max_n));
    println!("{}", render("fig6a: ssh downtime (s)", &ssh));
    if let Some(last) = ssh.last() {
        let fates = session_fates(last, 60);
        println!(
            "ssh session with 60 s client timeout at n={}: warm {}, saved {}, cold {}\n",
            last.n, fates.warm, fates.saved, fates.cold
        );
        for (strategy, secs) in [
            ("warm", last.warm),
            ("saved", last.saved),
            ("cold", last.cold),
        ] {
            run.headline(
                format!("fig6a_{strategy}_downtime_s_at_{}vms", last.n),
                secs,
            );
        }
    }
    let jboss = run.sweep(sweep_points(ServiceKind::Jboss, 1..=run.max_n));
    println!("{}", render("fig6b: JBoss downtime (s)", &jboss));
}

/// Renders one panel of Fig. 6.
pub fn render(title: &str, rows: &[DowntimeRow]) -> Table {
    let mut t = Table::new(title, &["n", "warm", "saved", "cold"]);
    for r in rows {
        t.row(vec![
            r.n.to_string(),
            secs(r.warm),
            secs(r.saved),
            secs(r.cold),
        ]);
    }
    t
}

/// §5.3's ssh-session outcome for each strategy given measured downtimes
/// and a client-side timeout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionFates {
    /// Fate across a warm reboot.
    pub warm: SessionFate,
    /// Fate across a saved reboot.
    pub saved: SessionFate,
    /// Fate across a cold reboot.
    pub cold: SessionFate,
}

/// Computes session fates: warm/saved preserve the server process
/// (generation unchanged), cold restarts it.
pub fn session_fates(row: &DowntimeRow, client_timeout_secs: u64) -> SessionFates {
    let session = TcpSession::open(SimTime::ZERO, 1)
        .with_client_timeout(SimDuration::from_secs(client_timeout_secs));
    SessionFates {
        warm: session.fate(SimDuration::from_secs_f64(row.warm), 1),
        saved: session.fate(SimDuration::from_secs_f64(row.saved), 1),
        cold: session.fate(SimDuration::from_secs_f64(row.cold), 2),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eleven_vm_row_matches_paper() {
        let row = measure(11, ServiceKind::Ssh);
        // Paper: warm 42, saved 429, cold 157; warm is 9.8 % of saved and
        // cold is 3.7× warm.
        assert!((row.warm - 42.0).abs() < 5.0, "warm {}", row.warm);
        assert!((row.saved - 429.0).abs() < 60.0, "saved {}", row.saved);
        assert!((row.cold - 157.0).abs() < 20.0, "cold {}", row.cold);
        let warm_vs_saved = row.warm / row.saved;
        assert!(
            (warm_vs_saved - 0.098).abs() < 0.03,
            "ratio {warm_vs_saved:.3}"
        );
        let cold_vs_warm = row.cold / row.warm;
        assert!((cold_vs_warm - 3.7).abs() < 0.6, "ratio {cold_vs_warm:.2}");
    }

    #[test]
    fn saved_downtime_grows_fastest_with_n() {
        let rows = sweep_points(ServiceKind::Ssh, [2u32, 8].into_iter()).run_values(2);
        let slope = |f: fn(&DowntimeRow) -> f64| (f(&rows[1]) - f(&rows[0])) / 6.0;
        let warm_slope = slope(|r| r.warm);
        let saved_slope = slope(|r| r.saved);
        let cold_slope = slope(|r| r.cold);
        assert!(warm_slope < 1.0, "warm slope {warm_slope:.2}");
        assert!(saved_slope > 20.0, "saved slope {saved_slope:.2}");
        assert!(cold_slope > 2.0 && cold_slope < saved_slope);
    }

    #[test]
    fn session_fates_match_section_5_3() {
        // With the paper's 11-VM downtimes and a 60 s client timeout:
        // warm survives, saved times out, cold resets.
        let row = DowntimeRow {
            n: 11,
            warm: 42.0,
            saved: 429.0,
            cold: 157.0,
        };
        let fates = session_fates(&row, 60);
        assert_eq!(fates.warm, SessionFate::Survived);
        assert_eq!(fates.saved, SessionFate::TimedOut);
        assert_eq!(fates.cold, SessionFate::Reset);
        // Without a timeout, saved also survives (TCP retransmission).
        let session = TcpSession::open(SimTime::ZERO, 1);
        assert_eq!(
            session.fate(SimDuration::from_secs_f64(row.saved), 1),
            SessionFate::Survived
        );
    }

    #[test]
    fn render_shape() {
        let rows = vec![DowntimeRow {
            n: 11,
            warm: 41.1,
            saved: 392.7,
            cold: 141.8,
        }];
        let t = render("fig6a", &rows);
        assert!(t.render().contains("392.7"));
    }
}
