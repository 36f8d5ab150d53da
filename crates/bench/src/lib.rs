//! # gdx-bench
//!
//! Test support for the workspace's host-portable measurement pins: the
//! allocation-count and demand-visit regressions under `tests/`. Both
//! evaluate the paper's Example 2.2 query over the same instantiated
//! Flight/Hotel chase graph, defined once here. Wall-clock measurement
//! lives in the `perfbench` package (see `BENCHMARK.json`).

#![forbid(unsafe_code)]

use gdx_datagen::{flights_hotels, rng, FlightsHotelsParams};
use gdx_mapping::Setting;

/// The paper's query from Example 2.2, evaluated with bound endpoints by
/// the pins under `tests/`.
pub const PAPER_QUERY: &str = "f.f*.[h].f-.(f-)*";

/// The shared fixture of the pins: the instantiated chase graph of a
/// Flight/Hotel instance with `flights` flights over `flights/5` cities
/// and hotels (seed 42).
pub fn paper_flight_graph(flights: usize) -> gdx_graph::Graph {
    let setting = Setting::example_2_2_egd();
    let inst = flights_hotels(
        FlightsHotelsParams {
            flights,
            cities: (flights / 5).max(4),
            hotels: flights / 5,
            stays_per_flight: 2,
        },
        &mut rng(42),
    );
    let st = gdx_chase::chase_st(&inst, &setting).expect("st chase");
    gdx_pattern::instantiate_shortest(&st.pattern).expect("instantiation")
}
