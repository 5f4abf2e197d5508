//! Regenerates the gather/exchange-scheduler comparison: the relay-capable
//! gather policies against the scatter dual on the GRID'5000 Table-3 grid
//! (the curves coincide — the time-reversal duality made visible), and the
//! work of the lazy-invalidation exchange scheduler (heap pops) against the
//! T(T+1)/2 candidate scans of an O(T²) earliest-completion scan.

use gridcast_experiments::{figures, ExperimentConfig};

fn main() {
    let config = ExperimentConfig::default();
    let gather = figures::gather::run(&config);
    print!("{}", gather.to_ascii_table());
    eprintln!();
    eprint!("{}", gather.to_csv());
    let exchange = figures::gather::run_exchange(&config);
    print!("{}", exchange.to_ascii_table());
    eprintln!();
    eprint!("{}", exchange.to_csv());
}
