//! The cluster router: one [`ClusterClient`] that makes N servers
//! look like a single [`NvmKvStore`].
//!
//! Routing is entirely client-side — servers never talk to each
//! other and need no cluster awareness (the wire protocol is
//! unchanged; see PROTOCOL.md). The router derives the same
//! deterministic [`HashRing`] everywhere, keeps one lazily-connected
//! [`Client`] per server, and consults the shared
//! [`ClusterView`] before every operation. The replication data path
//! (fan-out writes, read repair, error classification) lives in
//! [`crate::replicator`]; this module owns configuration, connection
//! management, drains, and the admin surface.

use crate::health::{ClusterView, HealthProber, NodeState};
use crate::replicator::ClusterStats;
use crate::ring::HashRing;
use e2nvm_kvstore::{NvmKvStore, StoreError, WearSummary};
use e2nvm_server::Client;
use std::sync::Arc;
use std::time::Duration;

/// Cluster topology and policy. Build with [`ClusterConfig::builder`].
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    pub(crate) addrs: Vec<String>,
    pub(crate) replication: usize,
    pub(crate) vnodes: usize,
    pub(crate) wear_drain_threshold: f64,
    pub(crate) probe_interval: Duration,
    pub(crate) probing: bool,
}

impl ClusterConfig {
    /// Start building a config. Defaults: replication factor 2
    /// (clamped to the node count), 64 vnodes per server, drain at 5%
    /// retired segments, probe every 200 ms, probing on.
    pub fn builder() -> ClusterConfigBuilder {
        ClusterConfigBuilder {
            addrs: Vec::new(),
            replication: 2,
            vnodes: 64,
            wear_drain_threshold: 0.05,
            probe_interval: Duration::from_millis(200),
            probing: true,
        }
    }

    /// Server addresses, in node-index order.
    pub fn addrs(&self) -> &[String] {
        &self.addrs
    }

    /// Effective replication factor (after clamping to node count).
    pub fn replication(&self) -> usize {
        self.replication
    }

    /// Wear fraction at which a node is drained.
    pub fn wear_drain_threshold(&self) -> f64 {
        self.wear_drain_threshold
    }
}

/// Builder for [`ClusterConfig`].
#[derive(Debug, Clone)]
pub struct ClusterConfigBuilder {
    addrs: Vec<String>,
    replication: usize,
    vnodes: usize,
    wear_drain_threshold: f64,
    probe_interval: Duration,
    probing: bool,
}

impl ClusterConfigBuilder {
    /// Server addresses, in node-index order (the index is the node's
    /// identity on the ring, so order matters and must match across
    /// routers).
    pub fn addrs<S: Into<String>>(mut self, addrs: impl IntoIterator<Item = S>) -> Self {
        self.addrs = addrs.into_iter().map(Into::into).collect();
        self
    }

    /// Replica count per key (clamped to the node count at build).
    pub fn replication(mut self, r: usize) -> Self {
        self.replication = r;
        self
    }

    /// Virtual nodes per server (more = smoother balance, larger ring).
    pub fn vnodes(mut self, v: usize) -> Self {
        self.vnodes = v;
        self
    }

    /// Wear fraction (`retired_segments / total_segments`) at which
    /// the prober flips a node to draining. See OPERATIONS.md for
    /// tuning guidance.
    pub fn wear_drain_threshold(mut self, t: f64) -> Self {
        self.wear_drain_threshold = t;
        self
    }

    /// How often the health prober polls each server.
    pub fn probe_interval(mut self, i: Duration) -> Self {
        self.probe_interval = i;
        self
    }

    /// Disable the background prober (tests that drive state
    /// transitions by hand; the router still marks nodes down on
    /// transport errors it observes itself).
    pub fn probing(mut self, on: bool) -> Self {
        self.probing = on;
        self
    }

    /// Validate and build.
    pub fn build(self) -> Result<ClusterConfig, StoreError> {
        if self.addrs.is_empty() {
            return Err(StoreError::Config(
                "cluster needs at least one server".into(),
            ));
        }
        if self.replication == 0 {
            return Err(StoreError::Config("replication factor must be >= 1".into()));
        }
        if self.vnodes == 0 {
            return Err(StoreError::Config("vnodes must be >= 1".into()));
        }
        if !(self.wear_drain_threshold > 0.0 && self.wear_drain_threshold <= 1.0) {
            return Err(StoreError::Config(format!(
                "wear_drain_threshold must be in (0, 1], got {}",
                self.wear_drain_threshold
            )));
        }
        Ok(ClusterConfig {
            replication: self.replication.min(self.addrs.len()),
            addrs: self.addrs,
            vnodes: self.vnodes,
            wear_drain_threshold: self.wear_drain_threshold,
            probe_interval: self.probe_interval,
            probing: self.probing,
        })
    }
}

/// A client-side cluster router implementing [`NvmKvStore`] over N
/// `e2nvm-server` processes: consistent-hash routing, R-way
/// replicated writes, per-key read repair, and wear-driven drains.
///
/// Cloning is intentionally not provided: each router owns its
/// connections. Multiple routers over the same topology agree on
/// routing (the ring is deterministic) but each maintains its own
/// [`ClusterView`] unless one is shared via
/// [`ClusterClient::connect_with_view`].
#[derive(Debug)]
pub struct ClusterClient {
    pub(crate) cfg: ClusterConfig,
    pub(crate) ring: HashRing,
    pub(crate) conns: Vec<Option<Client>>,
    pub(crate) view: ClusterView,
    pub(crate) stats: Arc<ClusterStats>,
    _prober: Option<HealthProber>,
}

impl ClusterClient {
    /// Connect a router over `cfg`'s servers. Connections open
    /// lazily on first use; the health prober (when enabled) starts
    /// immediately.
    pub fn connect(cfg: ClusterConfig) -> Self {
        let view = ClusterView::new(cfg.addrs.len());
        Self::connect_with_view(cfg, view)
    }

    /// Like [`ClusterClient::connect`] but sharing an existing view —
    /// several routers (e.g. one per driver thread) then observe each
    /// other's down-markings and drain claims.
    pub fn connect_with_view(cfg: ClusterConfig, view: ClusterView) -> Self {
        let ring = HashRing::new(cfg.addrs.len(), cfg.vnodes);
        let conns = cfg.addrs.iter().map(|_| None).collect();
        let prober = cfg.probing.then(|| {
            HealthProber::start(
                cfg.addrs.clone(),
                view.clone(),
                cfg.probe_interval,
                cfg.wear_drain_threshold,
            )
        });
        ClusterClient {
            ring,
            conns,
            view,
            stats: Arc::new(ClusterStats::default()),
            _prober: prober,
            cfg,
        }
    }

    /// The shared health view (clone to observe from elsewhere).
    pub fn view(&self) -> ClusterView {
        self.view.clone()
    }

    /// The deterministic hash ring this router routes by.
    pub fn ring(&self) -> &HashRing {
        &self.ring
    }

    /// The router's operation counters.
    pub fn cluster_stats(&self) -> &ClusterStats {
        &self.stats
    }

    /// This router's configuration.
    pub fn config(&self) -> &ClusterConfig {
        &self.cfg
    }

    /// The connection to node `i`, opening it if needed. A connect
    /// failure marks the node down before returning the error.
    pub(crate) fn conn(&mut self, i: usize) -> std::io::Result<&mut Client> {
        if self.conns[i].is_none() {
            match Client::connect(&self.cfg.addrs[i]) {
                Ok(c) => self.conns[i] = Some(c),
                Err(e) => {
                    self.view.mark_down(i);
                    self.stats.note_node_down();
                    return Err(e);
                }
            }
        }
        Ok(self.conns[i].as_mut().expect("connection just ensured"))
    }

    /// Drop node `i`'s connection and mark it down (transport error
    /// observed by the data path).
    pub(crate) fn fail_node(&mut self, i: usize) {
        self.conns[i] = None;
        self.view.mark_down(i);
        self.stats.note_node_down();
    }

    /// Re-home every key whose presence still depends on node `i`:
    /// scan the (draining, still readable) node and re-put, through
    /// the router, each entry that **no node in the key's current
    /// write set holds** — those are the keys that would go dark if
    /// `i` died. Keys a live replica already holds are skipped: the
    /// live copy is newer or equal (writes stopped reaching `i` the
    /// moment it entered draining, so `i` can never hold the newest
    /// version of a key a healthy replica also has), and re-putting
    /// the draining copy could roll a concurrent update back.
    ///
    /// Returns the number of keys re-homed. Safe to call repeatedly.
    /// A transport failure on `i` itself ends the drain with `Ok(0)`:
    /// failover — not drain — now owns its keys (they live on in the
    /// replicas). Known limitation, shared with read repair: a key
    /// deleted cluster-wide *while* `i` was draining still exists on
    /// `i` (deletes skip draining nodes) and is indistinguishable
    /// from a key that was never re-homed, so the drain resurrects
    /// it; see OPERATIONS.md.
    pub fn drain(&mut self, i: usize) -> Result<usize, StoreError> {
        let entries = match self.conn(i).and_then(|c| c.scan(0, u64::MAX, 0)) {
            Ok(entries) => entries,
            Err(e) if crate::replicator::is_transport(&e) => {
                self.fail_node(i);
                return Ok(0);
            }
            Err(e) => return Err(StoreError::Remote(e.to_string())),
        };
        let mut rehomed = 0usize;
        for (key, value) in entries {
            if self.any_write_replica_holds(key)? {
                continue;
            }
            self.put(key, &value)?;
            rehomed += 1;
        }
        self.stats.note_drain(rehomed);
        Ok(rehomed)
    }

    /// True when at least one node in `key`'s current write replica
    /// set already holds the key (transport failures mark the node
    /// down and keep looking).
    fn any_write_replica_holds(&mut self, key: u64) -> Result<bool, StoreError> {
        let view = self.view.clone();
        let set = self.ring.replicas_where(key, self.cfg.replication, |n| {
            view.state(n) == NodeState::Healthy
        });
        for node in set {
            match self.conn(node).and_then(|c| c.get(key)) {
                Ok(Some(_)) => return Ok(true),
                Ok(None) => {}
                Err(e) if crate::replicator::is_transport(&e) => self.fail_node(node),
                Err(e) => return Err(StoreError::Remote(e.to_string())),
            }
        }
        Ok(false)
    }

    /// Claim and execute every pending drain the prober has flagged.
    /// Returns total keys re-homed. Called from
    /// [`NvmKvStore::maintenance`], so embedders that already call
    /// maintenance periodically get wear-driven drains for free.
    pub fn run_pending_drains(&mut self) -> Result<usize, StoreError> {
        let mut total = 0usize;
        for i in self.view.drains_pending() {
            if self.view.claim_drain(i) {
                total += self.drain(i)?;
            }
        }
        Ok(total)
    }

    /// A markdown routing table: per node — address, state, primary
    /// ring ownership, and last observed wear. This is what the
    /// failover experiments snapshot before and after each event.
    pub fn routing_table(&self) -> String {
        let shares = self.ring.ownership();
        let snapshot = self.view.snapshot();
        let mut out = String::from(
            "| node | address | state | ring share | keys | retired/total segments |\n\
             |-----:|---------|-------|-----------:|-----:|-----------------------:|\n",
        );
        for (i, (node, share)) in snapshot.iter().zip(&shares).enumerate() {
            let WearSummary {
                keys,
                retired_segments,
                total_segments,
                ..
            } = node.wear;
            out.push_str(&format!(
                "| {i} | {} | {} | {:.1}% | {keys} | {retired_segments}/{total_segments} |\n",
                self.cfg.addrs[i],
                node.state.name(),
                share * 100.0,
            ));
        }
        out
    }

    /// Ask every reachable server to shut down gracefully. Used by
    /// experiment harnesses; errors on unreachable nodes are ignored
    /// (they are already down).
    pub fn shutdown_all(&mut self) {
        for i in 0..self.cfg.addrs.len() {
            if self.view.state(i) == NodeState::Down {
                continue;
            }
            if let Ok(conn) = self.conn(i) {
                let _ = conn.shutdown_server();
            }
        }
    }
}

impl NvmKvStore for ClusterClient {
    fn name(&self) -> &'static str {
        "e2nvm-cluster"
    }

    fn put(&mut self, key: u64, value: &[u8]) -> Result<(), StoreError> {
        self.replicated_put(key, value)
    }

    fn get(&mut self, key: u64) -> Result<Option<Vec<u8>>, StoreError> {
        self.replicated_get(key)
    }

    fn delete(&mut self, key: u64) -> Result<bool, StoreError> {
        self.replicated_delete(key)
    }

    fn scan(&mut self, lo: u64, hi: u64) -> Result<Vec<(u64, Vec<u8>)>, StoreError> {
        self.merged_scan(lo, hi)
    }

    /// Aggregate device statistics are not carried by the binary
    /// protocol (each server publishes its device counters in its own
    /// METRICS exposition); the cluster returns zeros here and exposes
    /// its own counters via [`ClusterClient::cluster_stats`].
    fn stats(&self) -> e2nvm_sim::DeviceStats {
        e2nvm_sim::DeviceStats::default()
    }

    fn reset_stats(&mut self) {
        self.stats.reset();
    }

    /// Maintenance = execute pending wear-driven drains. Errors are
    /// swallowed (maintenance is a best-effort hook) but counted in
    /// [`ClusterStats`].
    fn maintenance(&mut self) {
        if self.run_pending_drains().is_err() {
            self.stats.note_drain_error();
        }
    }

    /// Fan FLUSH out to every reachable server; returns the summed
    /// snapshot bytes (0 for memory-only servers).
    fn flush(&mut self) -> Result<u64, StoreError> {
        let mut total = 0u64;
        for i in 0..self.cfg.addrs.len() {
            if self.view.state(i) == NodeState::Down {
                continue;
            }
            match self.conn(i).and_then(|c| c.flush()) {
                Ok(bytes) => total += bytes,
                Err(e) if crate::replicator::is_transport(&e) => self.fail_node(i),
                Err(e) => return Err(StoreError::Remote(e.to_string())),
            }
        }
        Ok(total)
    }
}
