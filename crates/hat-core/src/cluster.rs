//! Cluster layout: partitioning, replica placement and master assignment.
//!
//! §6.3: "We deploy the database in clusters — disjoint sets of database
//! servers that each contain a single, fully replicated copy of the data
//! — typically across datacenters and stick all clients within a
//! datacenter to their respective cluster." Within a cluster, data is
//! hash-partitioned across servers — here via the consistent-hash
//! [`ShardRing`], so every key has exactly one replica per cluster, its
//! replica set has one server (the same position) in each cluster, and
//! resizing a cluster remaps only ~1/N of the keyspace.

use crate::shard::ShardRing;
use hat_sim::{NodeId, Region, Site};
use hat_storage::Key;

/// FNV-1a 64-bit hash — the deterministic key partitioner.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Declarative deployment: one entry per cluster, giving its site and
/// server count.
#[derive(Debug, Clone)]
pub struct ClusterSpec {
    /// `(site, servers)` per cluster.
    pub clusters: Vec<(Site, usize)>,
}

impl ClusterSpec {
    /// `n_clusters` clusters of `servers_each` servers, all in one
    /// datacenter (distinct AZ indices would model Figure 3A exactly;
    /// the paper's 3A deployment keeps both clusters within us-east, so
    /// we place each cluster in its own AZ of Virginia).
    pub fn single_dc(n_clusters: usize, servers_each: usize) -> Self {
        ClusterSpec {
            clusters: (0..n_clusters)
                .map(|i| (Site::new(Region::Virginia, i as u8), servers_each))
                .collect(),
        }
    }

    /// One cluster per region, `servers_each` servers each (Figures
    /// 3B/3C: clusters in distinct regions).
    pub fn regions(regions: &[Region], servers_each: usize) -> Self {
        ClusterSpec {
            clusters: regions
                .iter()
                .map(|&r| (Site::new(r, 0), servers_each))
                .collect(),
        }
    }

    /// The Virginia + Oregon deployment used by Figures 3B, 4, 5 and 6.
    pub fn va_or(servers_each: usize) -> Self {
        Self::regions(&[Region::Virginia, Region::Oregon], servers_each)
    }

    /// Total servers across clusters.
    pub fn total_servers(&self) -> usize {
        self.clusters.iter().map(|(_, n)| n).sum()
    }
}

/// Concrete node placement: which node ids are servers of which cluster,
/// which are clients, and how keys map to replicas.
#[derive(Debug, Clone)]
pub struct ClusterLayout {
    /// Server node ids, per cluster.
    pub servers: Vec<Vec<NodeId>>,
    /// Client node ids (dense, after all servers).
    pub clients: Vec<NodeId>,
    /// Home cluster index of each client (parallel to `clients`).
    pub client_home: Vec<usize>,
    /// The consistent-hash ring mapping keys to server positions.
    /// Shared by every cluster (clusters are equal-sized), which keeps
    /// replica sets and anti-entropy peering positional.
    ring: ShardRing,
    /// Dense `NodeId → cluster index` (None for clients): message paths
    /// resolve the receiving cluster on every dispatch, so this must be
    /// O(1) rather than a scan over every server list.
    cluster_by_node: Vec<Option<u32>>,
    /// Dense `NodeId → position within its cluster` (None for clients).
    position_by_node: Vec<Option<u32>>,
}

impl ClusterLayout {
    /// Builds a layout, computing the shard ring and the O(1) node
    /// lookup tables. Callers validate the spec first
    /// ([`crate::DeploymentBuilder::try_build`] reports a typed error);
    /// these asserts are the backstop for hand-built layouts.
    pub fn new(servers: Vec<Vec<NodeId>>, clients: Vec<NodeId>, client_home: Vec<usize>) -> Self {
        assert!(!servers.is_empty(), "need at least one cluster");
        let per_cluster = servers[0].len();
        assert!(
            per_cluster > 0 && servers.iter().all(|c| c.len() == per_cluster),
            "clusters must be equal-sized and non-empty"
        );
        assert_eq!(clients.len(), client_home.len(), "one home per client");
        let max_id = servers
            .iter()
            .flatten()
            .chain(clients.iter())
            .copied()
            .max()
            .unwrap_or(0) as usize;
        let mut cluster_by_node = vec![None; max_id + 1];
        let mut position_by_node = vec![None; max_id + 1];
        for (c, cluster) in servers.iter().enumerate() {
            for (pos, &id) in cluster.iter().enumerate() {
                cluster_by_node[id as usize] = Some(c as u32);
                position_by_node[id as usize] = Some(pos as u32);
            }
        }
        ClusterLayout {
            ring: ShardRing::new(per_cluster),
            servers,
            clients,
            client_home,
            cluster_by_node,
            position_by_node,
        }
    }

    /// Number of clusters (= replicas per key).
    pub fn num_clusters(&self) -> usize {
        self.servers.len()
    }

    /// Total number of servers.
    pub fn num_servers(&self) -> usize {
        self.servers.iter().map(|c| c.len()).sum()
    }

    /// Servers (= shards) per cluster.
    pub fn shards_per_cluster(&self) -> usize {
        self.servers[0].len()
    }

    /// The shard ring (base token placement, before handoff overrides).
    pub fn ring(&self) -> &ShardRing {
        &self.ring
    }

    /// The replica of `key` within `cluster` (consistent-hash
    /// partitioning over server positions).
    pub fn replica_in_cluster(&self, key: &Key, cluster: usize) -> NodeId {
        self.servers[cluster][self.ring.owner_position(key) as usize]
    }

    /// All replicas of `key`: one server (the same position) per
    /// cluster.
    pub fn replicas(&self, key: &Key) -> Vec<NodeId> {
        (0..self.num_clusters())
            .map(|c| self.replica_in_cluster(key, c))
            .collect()
    }

    /// The cluster holding `key`'s designated master (deterministic
    /// pseudo-random choice, as in the prototype's "randomly designated
    /// master replica for each key").
    pub fn master_cluster(&self, key: &Key) -> usize {
        // A second, independent hash picks the master cluster so masters
        // spread across clusters rather than all landing in cluster 0.
        let h = fnv1a(key).rotate_left(17) ^ 0x9E37_79B9_7F4A_7C15;
        (h % self.num_clusters() as u64) as usize
    }

    /// The designated master replica of `key`.
    pub fn master(&self, key: &Key) -> NodeId {
        self.replica_in_cluster(key, self.master_cluster(key))
    }

    /// Cluster index of server `id`, if it is a server. O(1).
    pub fn cluster_of(&self, id: NodeId) -> Option<usize> {
        self.cluster_by_node
            .get(id as usize)
            .copied()
            .flatten()
            .map(|c| c as usize)
    }

    /// Position of server `id` within its cluster, if it is a server.
    pub fn position_of(&self, id: NodeId) -> Option<u32> {
        self.position_by_node.get(id as usize).copied().flatten()
    }

    /// The home cluster of client node `id`.
    ///
    /// # Panics
    /// Panics if `id` is not a client node.
    pub fn home_of(&self, id: NodeId) -> usize {
        let idx = self
            .clients
            .iter()
            .position(|&c| c == id)
            .expect("not a client node");
        self.client_home[idx]
    }

    /// Sibling replicas of the partition that `server` owns in its
    /// cluster — the anti-entropy peers. Returns the same-partition
    /// server in every *other* cluster, given a representative key is not
    /// needed: peers are positional (server index within cluster).
    pub fn anti_entropy_peers(&self, server: NodeId) -> Vec<NodeId> {
        let (Some(cluster), Some(pos)) = (self.cluster_of(server), self.position_of(server)) else {
            return Vec::new();
        };
        self.servers
            .iter()
            .enumerate()
            .filter(|(c, _)| *c != cluster)
            .filter_map(|(_, servers)| servers.get(pos as usize).copied())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layout_with_clients(
        clusters: usize,
        servers_each: usize,
        n_clients: usize,
    ) -> ClusterLayout {
        let mut next = 0u32;
        let servers: Vec<Vec<NodeId>> = (0..clusters)
            .map(|_| {
                (0..servers_each)
                    .map(|_| {
                        let id = next;
                        next += 1;
                        id
                    })
                    .collect()
            })
            .collect();
        let clients: Vec<NodeId> = (0..n_clients as u32).map(|i| next + i).collect();
        // Homes are derived for any client count (round-robin over
        // clusters), not hardcoded for exactly two clients.
        let client_home = (0..n_clients).map(|i| i % clusters).collect();
        ClusterLayout::new(servers, clients, client_home)
    }

    fn layout(clusters: usize, servers_each: usize) -> ClusterLayout {
        layout_with_clients(clusters, servers_each, 2)
    }

    #[test]
    fn one_replica_per_cluster() {
        let l = layout(3, 5);
        let key = Key::from("some-key");
        let reps = l.replicas(&key);
        assert_eq!(reps.len(), 3);
        for (c, &r) in reps.iter().enumerate() {
            assert!(l.servers[c].contains(&r));
        }
    }

    #[test]
    fn replica_choice_is_deterministic_and_spread() {
        let l = layout(2, 5);
        let mut seen = std::collections::HashSet::new();
        for i in 0..100 {
            let key = Key::from(format!("key-{i}"));
            assert_eq!(l.replica_in_cluster(&key, 0), l.replica_in_cluster(&key, 0));
            seen.insert(l.replica_in_cluster(&key, 0));
        }
        assert_eq!(seen.len(), 5, "hash partitioning should use all servers");
    }

    #[test]
    fn masters_spread_across_clusters() {
        let l = layout(2, 5);
        let mut per_cluster = [0usize; 2];
        for i in 0..200 {
            let key = Key::from(format!("key-{i}"));
            let m = l.master(&key);
            per_cluster[l.cluster_of(m).unwrap()] += 1;
        }
        assert!(
            per_cluster[0] > 50 && per_cluster[1] > 50,
            "{per_cluster:?}"
        );
    }

    #[test]
    fn master_is_one_of_the_replicas() {
        let l = layout(3, 4);
        for i in 0..50 {
            let key = Key::from(format!("k{i}"));
            assert!(l.replicas(&key).contains(&l.master(&key)));
        }
    }

    #[test]
    fn anti_entropy_peers_are_positional() {
        let l = layout(3, 4);
        let server = l.servers[1][2];
        let peers = l.anti_entropy_peers(server);
        assert_eq!(peers, vec![l.servers[0][2], l.servers[2][2]]);
        // a client has no peers
        assert!(l.anti_entropy_peers(l.clients[0]).is_empty());
    }

    #[test]
    fn home_of_clients() {
        let l = layout(2, 2);
        assert_eq!(l.home_of(l.clients[0]), 0);
        assert_eq!(l.home_of(l.clients[1]), 1);
    }

    #[test]
    fn spec_totals() {
        assert_eq!(ClusterSpec::single_dc(2, 5).total_servers(), 10);
        assert_eq!(ClusterSpec::va_or(5).clusters.len(), 2);
    }

    #[test]
    fn fnv_is_stable() {
        // lock in the hash so partitioning never silently changes
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_ne!(fnv1a(b"a"), fnv1a(b"b"));
    }

    #[test]
    fn cluster_and_position_lookups_are_consistent() {
        let l = layout(3, 4);
        for (c, cluster) in l.servers.iter().enumerate() {
            for (pos, &id) in cluster.iter().enumerate() {
                assert_eq!(l.cluster_of(id), Some(c));
                assert_eq!(l.position_of(id), Some(pos as u32));
            }
        }
        for &client in &l.clients {
            assert_eq!(l.cluster_of(client), None);
            assert_eq!(l.position_of(client), None);
        }
        // ids beyond the dense table are not servers either
        assert_eq!(l.cluster_of(10_000), None);
    }

    #[test]
    fn homes_derived_for_any_client_count() {
        let l = layout_with_clients(3, 2, 7);
        assert_eq!(l.clients.len(), 7);
        for (i, &client) in l.clients.iter().enumerate() {
            assert_eq!(l.home_of(client), i % 3);
        }
    }

    #[test]
    fn replicas_are_positional_across_clusters() {
        // The shared ring places a key at the same position in every
        // cluster, which is what keeps anti-entropy peering positional.
        let l = layout(3, 5);
        for i in 0..50 {
            let key = Key::from(format!("pos-{i}"));
            let reps = l.replicas(&key);
            let positions: Vec<u32> = reps.iter().map(|&r| l.position_of(r).unwrap()).collect();
            assert!(positions.windows(2).all(|w| w[0] == w[1]), "{positions:?}");
        }
    }

    #[test]
    fn resize_remaps_a_bounded_fraction() {
        // The consistent-hash contract at the layout level: growing a
        // cluster from n to n+1 servers moves ~1/(n+1) of the keyspace,
        // where modulo placement moved ~all of it.
        let small = layout(1, 8);
        let grown = layout(1, 9);
        let samples = 2000;
        let moved = (0..samples)
            .filter(|i| {
                let key = Key::from(format!("resize-{i}"));
                small.ring().owner_position(&key) != grown.ring().owner_position(&key)
            })
            .count();
        assert!(moved <= 2 * samples / 8, "moved {moved}/{samples}");
        assert!(moved > 0);
    }
}
