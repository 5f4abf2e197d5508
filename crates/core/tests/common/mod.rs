//! The seeded Table 2 grids the work pins and the warm-start suite run on.

use gridcast_topology::{Grid, GridGenerator};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// The seed every pinned grid derives from.
const GRID_SEED: u64 = 0x0B0B_5CA7;

/// A random Table 2 grid with `clusters` clusters, deterministic in `index`.
pub fn random_grid(clusters: usize, index: u64) -> Grid {
    let mut rng = ChaCha8Rng::seed_from_u64(GRID_SEED.wrapping_add(index));
    GridGenerator::table2().generate(clusters, &mut rng)
}
