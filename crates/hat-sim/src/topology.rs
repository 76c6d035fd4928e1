//! Node placement: regions, availability zones and sites.
//!
//! The paper's measurement study (§2.2) distinguishes three scales of
//! communication: within an availability zone, across availability zones of
//! the same region, and across regions. A [`Site`] captures where a node
//! lives; the [`Topology`] maps node ids to sites so the latency model can
//! classify every link.

use crate::latency::Region;

/// Identifier of a simulated node (server or client).
pub type NodeId = u32;

/// Physical placement of a node: a region plus an availability zone index
/// within that region.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Site {
    /// Geographic region (EC2 region in the paper's terms).
    pub region: Region,
    /// Availability-zone index within the region (datacenter).
    pub az: u8,
}

impl Site {
    /// A site in availability zone 0 of `region`.
    pub fn new(region: Region, az: u8) -> Self {
        Site { region, az }
    }
}

/// Maps every node to its site.
///
/// Node ids are dense (`0..len`), assigned in the order sites are pushed.
#[derive(Debug, Clone, Default)]
pub struct Topology {
    sites: Vec<Site>,
}

impl Topology {
    /// An empty topology.
    pub fn new() -> Self {
        Topology { sites: Vec::new() }
    }

    /// Adds a node at `site`, returning its id.
    pub fn add_node(&mut self, site: Site) -> NodeId {
        let id = self.sites.len() as NodeId;
        self.sites.push(site);
        id
    }

    /// Adds `n` nodes at `site`, returning their ids.
    pub fn add_nodes(&mut self, site: Site, n: usize) -> Vec<NodeId> {
        (0..n).map(|_| self.add_node(site)).collect()
    }

    /// The site of node `id`.
    ///
    /// # Panics
    /// Panics if `id` was never added.
    pub fn site(&self, id: NodeId) -> Site {
        self.sites[id as usize]
    }

    /// Number of nodes in the topology.
    pub fn len(&self) -> usize {
        self.sites.len()
    }

    /// True if no nodes have been added.
    pub fn is_empty(&self) -> bool {
        self.sites.is_empty()
    }

    /// Iterates over `(id, site)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, Site)> + '_ {
        self.sites
            .iter()
            .enumerate()
            .map(|(i, s)| (i as NodeId, *s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_ids_in_insertion_order() {
        let mut t = Topology::new();
        let a = t.add_node(Site::new(Region::Virginia, 0));
        let b = t.add_node(Site::new(Region::Oregon, 1));
        assert_eq!((a, b), (0, 1));
        assert_eq!(t.site(a).region, Region::Virginia);
        assert_eq!(t.site(b).az, 1);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn add_nodes_bulk() {
        let mut t = Topology::new();
        let ids = t.add_nodes(Site::new(Region::Ireland, 2), 5);
        assert_eq!(ids, vec![0, 1, 2, 3, 4]);
        assert!(ids.iter().all(|&i| t.site(i).az == 2));
        assert!(!t.is_empty());
    }

    #[test]
    fn iter_yields_all() {
        let mut t = Topology::new();
        t.add_nodes(Site::new(Region::Tokyo, 0), 3);
        let collected: Vec<_> = t.iter().collect();
        assert_eq!(collected.len(), 3);
        assert_eq!(collected[2].0, 2);
    }
}
