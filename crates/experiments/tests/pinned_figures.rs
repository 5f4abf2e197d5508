//! The Monte-Carlo figures pinned value by value.
//!
//! Figures 1–4, the mixed-strategy figure and the scaling sweep all run
//! through the parallel Monte-Carlo runner. The shape tests elsewhere would
//! pass a change that moved one of them by 10 %; this test hashes the bit
//! pattern of every series point into one digest per figure and compares the
//! digests with `pinned/figures.txt`. A mismatch prints the regenerated file.
//! Re-pin only for a change that is meant to move the numbers, and state its
//! cause in the change log.

use gridcast_experiments::figures::{fig1, fig2, fig3, fig4, mixed, scaling};
use gridcast_experiments::{ExperimentConfig, FigureResult};
use std::fmt::Write as _;

/// The pinned Monte-Carlo iteration count. The scaling sweep derives its own
/// budget from it (`iterations_for`: 2 iterations per cluster count).
const ITERATIONS: usize = 24;

/// FNV-1a over the little-endian bytes of every point's `x` and `y` bits,
/// series by series in figure order.
fn digest(figure: &FigureResult) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for point in figure.series.iter().flat_map(|s| &s.points) {
        for bits in [point.x.to_bits(), point.y.to_bits()] {
            for byte in bits.to_le_bytes() {
                h ^= u64::from(byte);
                h = h.wrapping_mul(0x0100_0000_01b3);
            }
        }
    }
    h
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
    ];
    let mut text = format!(
        "# figure digest: FNV-1a over every series point's x and y to_bits, \
         ExperimentConfig::quick().with_iterations({ITERATIONS})\n"
    );
    for (name, figure) in &figures {
        let _ = writeln!(text, "{name} {:016x}", digest(figure));
    }
    text
}

#[test]
fn monte_carlo_figures_match_their_pinned_digests() {
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
