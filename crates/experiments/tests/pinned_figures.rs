//! The paper's figures and tables pinned value by value.
//!
//! The shape tests elsewhere would pass a change that moved a figure by 10 %;
//! this test hashes every output that reads no clock into one digest each and
//! compares the digests with `pinned/figures.txt`:
//!
//! * Figures 1–4, the mixed-strategy figure and the scaling sweep (the
//!   Monte-Carlo runner), Figure 5, the gather, scatter and all-to-all
//!   panels, the what-if and the fault-storm figures: FNV-1a over the bit
//!   pattern of every series point;
//! * Tables 1–3: FNV-1a over the rendered text.
//!
//! Two outputs stay unpinned because they plot wall-clock time. Figure 6
//! executes each heuristic through `Simulator::run_heuristic`, which charges
//! the measured scheduling time as start-up overhead, and
//! `gather::run_exchange` plots milliseconds per exchange schedule.
//!
//! A mismatch prints the regenerated file. Re-pin only for a change that is
//! meant to move the numbers, and state its cause in the change log.

use gridcast_experiments::figures::{
    faults, fig1, fig2, fig3, fig4, fig5, gather, mixed, patterns, scaling, whatif,
};
use gridcast_experiments::{tables, ExperimentConfig, FigureResult};
use std::fmt::Write as _;

/// The pinned Monte-Carlo iteration count. The scaling sweep derives its own
/// budget from it (`iterations_for`: 2 iterations per cluster count); the
/// GRID'5000 figures ignore it.
const ITERATIONS: usize = 24;

/// FNV-1a over `bytes`, continuing from the hash state `h`.
fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &byte in bytes {
        h ^= u64::from(byte);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a over the little-endian bytes of every point's `x` and `y` bits,
/// series by series in figure order.
fn digest(figure: &FigureResult) -> u64 {
    figure
        .series
        .iter()
        .flat_map(|s| &s.points)
        .fold(FNV_OFFSET, |h, point| {
            let h = fnv1a(h, &point.x.to_bits().to_le_bytes());
            fnv1a(h, &point.y.to_bits().to_le_bytes())
        })
}

/// The contents `pinned/figures.txt` should have for the current code.
fn regenerate() -> String {
    let config = ExperimentConfig::quick().with_iterations(ITERATIONS);
    let figures = [
        ("fig1", fig1::run(&config)),
        ("fig2", fig2::run(&config)),
        ("fig3", fig3::run(&config)),
        ("fig4", fig4::run(&config)),
        ("mixed_strategy", mixed::run(&config)),
        ("scaling_sweep", scaling::run(&config)),
        ("fig5", fig5::run(&config)),
        ("gather", gather::run(&config)),
        ("patterns", patterns::run(&config)),
        ("alltoall", patterns::run_alltoall(&config)),
        ("whatif", whatif::run(&config)),
        ("faults", faults::run(&config)),
    ];
    let tables = [
        ("table1", tables::table1()),
        ("table2", tables::table2()),
        ("table3", tables::table3()),
    ];
    let mut text = format!(
        "# figure digest: FNV-1a over every series point's x and y to_bits, \
         ExperimentConfig::quick().with_iterations({ITERATIONS})\n"
    );
    for (name, figure) in &figures {
        let _ = writeln!(text, "{name} {:016x}", digest(figure));
    }
    text.push_str("# table digest: FNV-1a over the rendered text's UTF-8 bytes\n");
    for (name, table) in &tables {
        let _ = writeln!(text, "{name} {:016x}", fnv1a(FNV_OFFSET, table.as_bytes()));
    }
    text
}

#[test]
fn figures_and_tables_match_their_pinned_digests() {
    let pinned = include_str!("../pinned/figures.txt");
    let fresh = regenerate();
    let moved: Vec<&str> = fresh
        .lines()
        .filter(|line| !pinned.lines().any(|p| p == *line))
        .collect();
    assert!(
        moved.is_empty() && pinned.lines().count() == fresh.lines().count(),
        "figure digests moved: {moved:?}\nregenerated pinned/figures.txt:\n{fresh}"
    );
}
