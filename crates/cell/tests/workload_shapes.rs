//! Every workload shape the arrival generator cannot draw from is a
//! validation error naming the field, in both simulators that draw from
//! it — never a config that validates and then panics mid-run.

use rh_cell::{CellConfig, CellSimulation, ProvisionStrategy};
use rh_fleet::{FleetConfig, FleetSimulation, WorkloadConfig};
use rh_sim::time::SimDuration;

/// (field the error must name, the bad shape).
type Shape = (&'static str, fn(&mut WorkloadConfig));

const BAD_SHAPES: [Shape; 9] = [
    ("mean_lifetime", |w| w.mean_lifetime = SimDuration::ZERO),
    ("diurnal_period", |w| w.diurnal_period = SimDuration::ZERO),
    ("arrival_rate", |w| w.arrival_rate = f64::NAN),
    ("arrival_rate", |w| w.arrival_rate = f64::INFINITY),
    ("arrival_rate", |w| w.arrival_rate = 0.0),
    ("arrival_rate", |w| w.arrival_rate = f64::MAX),
    ("diurnal_amplitude", |w| w.diurnal_amplitude = 1.0),
    ("pair_fraction", |w| w.pair_fraction = 1.5),
    ("pair_fraction", |w| w.pair_fraction = f64::NAN),
];

fn assert_names(result: Result<(), String>, field: &str, who: &str) {
    match result {
        Err(e) => assert!(
            e.contains(field),
            "{who}: error {e:?} does not name {field}"
        ),
        Ok(()) => panic!("{who}: accepted a bad {field}"),
    }
}

#[test]
fn bad_workload_shapes_are_errors_in_both_simulators() {
    for (field, spoil) in BAD_SHAPES {
        let mut cell = CellConfig::burst(ProvisionStrategy::BalloonReclaim, 1.5);
        spoil(&mut cell.workload);
        assert_names(cell.workload.validate(), field, "WorkloadConfig::validate");
        assert_names(cell.validate(), field, "CellConfig::validate");
        assert_names(
            CellSimulation::new(cell).map(drop),
            field,
            "CellSimulation::new",
        );

        let mut fleet = FleetConfig::datacenter(10);
        spoil(&mut fleet.workload);
        assert_names(fleet.validate(), field, "FleetConfig::validate");
        assert_names(
            FleetSimulation::new(fleet).map(drop),
            field,
            "FleetSimulation::new",
        );
    }
}
