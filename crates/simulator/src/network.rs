//! Resolution of point-to-point parameters between individual machines.

use gridcast_plogp::{MessageSize, PLogP, Time};
use gridcast_topology::{ClusterId, Grid, IntraClusterParams, NodeId};

/// A node-level view of the grid: given two machines, what are the pLogP
/// parameters of the path between them?
///
/// * machines in different clusters use the inter-cluster link of their clusters,
/// * machines in the same *modelled* cluster use the cluster's intra pLogP model,
/// * machines in the same *fixed-time* cluster (the Monte-Carlo topology mode,
///   where the paper never looks inside clusters) fall back to a nominal LAN
///   model so that node-level plans remain executable.
#[derive(Debug, Clone)]
pub struct NodeNetwork {
    /// The cluster of every machine, indexed by [`NodeId`] in
    /// [`Grid::enumerate_nodes`] order: all the simulator reads of a node.
    node_cluster: Vec<ClusterId>,
    grid: Grid,
    fallback_lan: PLogP,
    wan_concurrency: usize,
}

/// Default number of concurrent transfers an inter-cluster path sustains at full
/// per-flow rate before additional transfers serialise.
///
/// A single TCP stream across a 2006-era wide-area path is window/RTT limited
/// (that is what the measured pLogP gap captures), while the physical path has
/// several times that capacity — so a handful of concurrent site-to-site
/// transfers proceed unhindered and only larger fan-ins contend. This is the one
/// free parameter of the testbed substitution, and this constant is its only
/// record.
pub const DEFAULT_WAN_CONCURRENCY: usize = 4;

impl NodeNetwork {
    /// Builds the node-level view of `grid`.
    pub fn new(grid: &Grid) -> Self {
        let mut node_cluster = Vec::with_capacity(grid.num_nodes() as usize);
        for cluster in grid.clusters() {
            node_cluster.extend((0..cluster.size).map(|_| cluster.id));
        }
        NodeNetwork {
            node_cluster,
            grid: grid.clone(),
            fallback_lan: PLogP::affine(Time::from_micros(50.0), Time::from_micros(20.0), 110e6),
            wan_concurrency: DEFAULT_WAN_CONCURRENCY,
        }
    }

    /// Overrides the number of concurrent inter-cluster transfers a cluster pair
    /// sustains before contention serialises them (must be at least 1).
    pub fn with_wan_concurrency(mut self, channels: usize) -> Self {
        assert!(channels >= 1, "a path has at least one channel");
        self.wan_concurrency = channels;
        self
    }

    /// Number of concurrent transfers an inter-cluster path sustains.
    pub fn wan_concurrency(&self) -> usize {
        self.wan_concurrency
    }

    /// Number of machines.
    pub fn num_nodes(&self) -> usize {
        self.node_cluster.len()
    }

    /// The cluster machine `node` belongs to.
    #[inline]
    pub(crate) fn cluster_of(&self, node: NodeId) -> ClusterId {
        self.node_cluster[node.index()]
    }

    /// The underlying grid.
    pub fn grid(&self) -> &Grid {
        &self.grid
    }

    /// Overwrites one directed inter-cluster link of this network's grid copy
    /// with the link `grid` holds — the warm what-if runner's way of keeping a
    /// long-lived network in sync with a patched scratch grid instead of
    /// re-enumerating every node per scenario. Cluster layout must match; the
    /// node table is untouched (links never change membership).
    pub fn sync_link_from(&mut self, grid: &Grid, from: ClusterId, to: ClusterId) {
        self.grid.set_link(from, to, grid.link(from, to).clone());
    }

    /// The pLogP parameters governing a message from `from` to `to`.
    pub fn link(&self, from: NodeId, to: NodeId) -> &PLogP {
        let (a, b) = (self.cluster_of(from), self.cluster_of(to));
        if a == b {
            match &self.grid.cluster(a).intra {
                IntraClusterParams::Modelled { plogp } => plogp,
                IntraClusterParams::Fixed { .. } => &self.fallback_lan,
            }
        } else {
            self.grid.link(a, b)
        }
    }

    /// Gap of a message of size `m` on the path `from → to`.
    pub fn gap(&self, from: NodeId, to: NodeId, m: MessageSize) -> Time {
        self.link(from, to).gap(m)
    }

    /// Latency of the path `from → to`.
    pub fn latency(&self, from: NodeId, to: NodeId) -> Time {
        self.link(from, to).latency()
    }

    /// Full transfer time `g(m) + L` of the path `from → to`.
    pub fn transfer(&self, from: NodeId, to: NodeId, m: MessageSize) -> Time {
        self.link(from, to).point_to_point(m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridcast_topology::{grid5000_table3, ClusterId, GridGenerator};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn grid5000_nodes_resolve_intra_and_inter_links() {
        let grid = grid5000_table3();
        let net = NodeNetwork::new(&grid);
        assert_eq!(net.num_nodes(), 88);
        let orsay_a0 = grid.coordinator(ClusterId(0));
        let orsay_a1 = NodeId(orsay_a0.0 + 1);
        let toulouse0 = grid.coordinator(ClusterId(5));
        // Intra-cluster latency ~47.56 µs; inter-cluster ~5.2 ms.
        assert!(net.latency(orsay_a0, orsay_a1) < Time::from_micros(100.0));
        assert!(net.latency(orsay_a0, toulouse0) > Time::from_millis(5.0));
        let m = MessageSize::from_mib(1);
        assert!(net.transfer(orsay_a0, toulouse0, m) > net.transfer(orsay_a0, orsay_a1, m));
    }

    #[test]
    fn fixed_time_clusters_use_the_fallback_lan_model() {
        let grid = GridGenerator::table2()
            .cluster_size(4)
            .generate(3, &mut ChaCha8Rng::seed_from_u64(5));
        let net = NodeNetwork::new(&grid);
        let c0_first = grid.coordinator(ClusterId(0));
        let c0_second = NodeId(c0_first.0 + 1);
        // Intra links of fixed-time clusters are the nominal LAN, far cheaper
        // than the Table 2 wide-area gaps (≥ 100 ms).
        let m = MessageSize::from_mib(1);
        assert!(net.transfer(c0_first, c0_second, m) < Time::from_millis(50.0));
        let c1_first = grid.coordinator(ClusterId(1));
        assert!(net.transfer(c0_first, c1_first, m) > Time::from_millis(100.0));
    }

    #[test]
    fn node_enumeration_matches_grid() {
        let grid = grid5000_table3();
        let net = NodeNetwork::new(&grid);
        assert_eq!(net.grid().num_clusters(), 6);
        assert_eq!(net.cluster_of(NodeId(0)), ClusterId(0));
        assert_eq!(net.cluster_of(NodeId(87)), ClusterId(5));
        let nodes = grid.enumerate_nodes();
        assert_eq!(net.num_nodes(), nodes.len());
        for node in &nodes {
            assert_eq!(net.cluster_of(node.id), node.cluster, "{}", node.name);
        }
    }
}
