//! Every model checker names the offending flag first in a config error,
//! so `rh-lint <model>` prints `rh-lint: --flag …` whichever model
//! rejected the configuration.

use rh_lint::explore::Options;
use rh_lint::{balloon, fleet, postcopy, protocol};

/// The error `explore` returns for the default config changed by `tweak`.
fn config_error<C: Default, R>(
    explore: fn(&C, &Options) -> Result<R, String>,
    tweak: impl FnOnce(&mut C),
) -> String {
    let mut cfg = C::default();
    tweak(&mut cfg);
    explore(&cfg, &Options::default())
        .err()
        .expect("config rejected")
}

#[test]
fn config_errors_start_with_the_flag() {
    for err in [
        config_error(protocol::explore, |c| c.domains = 0),
        config_error(protocol::explore, |c| c.unsafe_recovery = true),
        config_error(fleet::explore, |c| c.hosts = 9),
        config_error(fleet::explore, |c| c.max_down = 0),
        config_error(postcopy::explore, |c| c.domains = 0),
        config_error(postcopy::explore, |c| c.pages = 9),
        config_error(postcopy::explore, |c| (c.pages, c.working_set) = (2, 3)),
        config_error(balloon::explore, |c| c.domains = 9),
        config_error(balloon::explore, |c| c.pages = 9),
    ] {
        assert!(
            err.starts_with("--"),
            "{err:?} does not start with the flag"
        );
    }
}
