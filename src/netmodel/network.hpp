#pragma once

#include <cstddef>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "netmodel/routing.hpp"
#include "netmodel/topology.hpp"
#include "util/time.hpp"

namespace exasim {

/// Message transfer protocol selected by payload size (paper §V-C: eager
/// threshold 256 kB; larger payloads use the rendezvous protocol).
enum class Protocol { kEager, kRendezvous };

/// LogGP-style link/NIC parameters for one network level.
struct NetworkParams {
  SimTime link_latency = sim_us(1);            ///< L: per-hop wire latency.
  double bandwidth_bytes_per_sec = 32e9;       ///< Per-link bandwidth (32 GB/s, §V-C).
  SimTime per_message_overhead = sim_ns(500);  ///< o: software send/recv overhead.
  double injection_bandwidth_bytes_per_sec = 32e9;  ///< NIC serialization at the sender.
  std::size_t eager_threshold = 256 * 1024;    ///< Bytes; above this, rendezvous.
  SimTime failure_timeout = sim_ms(100);       ///< Communication timeout used for
                                               ///< failure detection (paper §IV-C).
  /// Per-link failure-timeout overrides (DESIGN.md §12). The default uniform
  /// spec keeps `failure_timeout` for every link and builds no table.
  LinkTimeoutSpec link_timeouts;
  /// Fold per-link occupancy windows into delivery times (off by default;
  /// exactly deterministic only at --sim-workers=1).
  bool contention = false;
};

/// Single-level network model over a topology.
///
/// For a payload of B bytes over h hops the one-way delivery time is
///   o + h*L + B / bandwidth
/// and the sender's NIC is occupied for
///   o + B / injection_bandwidth
/// (charged to the sender's virtual clock — this is what serializes linear
/// collectives at the root). Control messages (RTS/CTS) use B = 0.
///
/// On top of the hop-count cost the model knows the *route* each flow takes
/// (Topology::route_into + the RoutingPolicy's variant selection), which
/// feeds two optional layers, both off by default:
///  - per-link contention (NetworkParams::contention): each link keeps a
///    busy-until window; delivery_time_at() adds the wait a message's route
///    accumulates behind earlier flows sharing its links.
///  - per-link failure timeouts (NetworkParams::link_timeouts): when a table
///    is configured, failure_timeout(src, dst) is the max over the canonical
///    route's link timeouts and max_failure_timeout() the max over all links.
class NetworkModel {
 public:
  NetworkModel(std::shared_ptr<const Topology> topology, NetworkParams params,
               RoutingSpec routing = {});

  NetworkModel(const NetworkModel&) = delete;
  NetworkModel& operator=(const NetworkModel&) = delete;

  const Topology& topology() const { return *topology_; }
  const NetworkParams& params() const { return params_; }
  const RoutingSpec& routing() const { return routing_spec_; }

  Protocol protocol_for(std::size_t bytes) const {
    return bytes <= params_.eager_threshold ? Protocol::kEager : Protocol::kRendezvous;
  }

  /// One-way in-flight time for `bytes` from node src to node dst, with no
  /// contention (the uncontended LogGP cost, identical for every route
  /// variant of a pair — all variants are minimal).
  SimTime delivery_time(int src, int dst, std::size_t bytes) const;

  /// delivery_time plus the contention wait of the flow's route when
  /// NetworkParams::contention is on (`now` is the send time). With
  /// contention off this is exactly delivery_time — the default fast path.
  SimTime delivery_time_at(SimTime now, int src, int dst, std::size_t bytes) const;

  /// Time the sender's virtual clock is charged to push `bytes` into the NIC.
  SimTime sender_occupancy(std::size_t bytes) const;

  /// Receiver-side software overhead charged at match time.
  SimTime receiver_overhead() const { return params_.per_message_overhead; }

  /// Failure-detection timeout for the (src, dst) pair: the configured
  /// uniform timeout, or — with a per-link table — the max over the canonical
  /// (variant-0) route's links, so a hot link anywhere on the path lengthens
  /// the pair's detection bound. The canonical route keeps this independent
  /// of per-flow adaptive variant choices (detection configuration must not
  /// depend on message interleaving).
  virtual SimTime failure_timeout(int src, int dst) const;

  /// Largest failure-detection timeout across all links and network levels —
  /// the conservative system-wide detection bound. Used by the resilience
  /// layer as the default heartbeat period (a heartbeat slower than the
  /// worst-case timeout would detect later than the timeout detector).
  /// Computed over the link table at construction, so per-link heterogeneity
  /// is reflected without per-subclass overrides.
  virtual SimTime max_failure_timeout() const { return max_link_timeout_; }

  /// Lower bound on the delivery time of any message between two distinct
  /// nodes — the engine's conservative-window lookahead: no cross-node event
  /// scheduled at virtual time t can arrive before t + min_remote_latency().
  /// Provable over any route: every route between distinct nodes traverses
  /// at least one link (o + at least one hop of L with zero payload), every
  /// route variant is minimal, and the optional layers (contention waits,
  /// link timeouts) only ever *add* delay. For a HierarchicalNetwork this is
  /// the system level, matching the engine's node-aligned LP grouping
  /// (intra-node traffic never crosses groups).
  virtual SimTime min_remote_latency() const;

  virtual ~NetworkModel() = default;

 protected:
  /// Max link timeout over the canonical route between two *nodes*; the
  /// uniform fast path returns params_.failure_timeout without routing.
  SimTime link_pair_timeout(int src_node, int dst_node) const;

  /// Contention wait accumulated by the (src, dst) flow's next message when
  /// sent at `now` (0 with contention off). Advances the flow's seq counter
  /// and the busy windows of the chosen route's links.
  SimTime contention_delay(SimTime now, int src, int dst, std::size_t bytes) const;

  std::shared_ptr<const Topology> topology_;
  NetworkParams params_;
  RoutingSpec routing_spec_;
  std::unique_ptr<const RoutingPolicy> routing_policy_;
  /// Per-link failure timeouts; empty = uniform params_.failure_timeout.
  std::vector<SimTime> link_timeouts_;
  SimTime max_link_timeout_;

 private:
  /// Contention state (only touched when params_.contention). Guarded by
  /// net_mutex_: delivery queries come from any engine worker thread.
  mutable std::mutex net_mutex_;
  mutable std::vector<SimTime> link_busy_;  ///< Busy-until per link id.
  mutable std::unordered_map<std::uint64_t, std::uint64_t> flow_seq_;
  mutable std::vector<LinkId> route_scratch_;
};

/// Hierarchical network: on-chip / on-node / system levels, each with its own
/// parameters and failure-detection timeout (paper §IV-C: "each simulated
/// network, such as the on-chip, on-node, and system-wide network, has its
/// own network communication timeout"). The system level additionally
/// carries the per-link route layer (contention, link-timeout table) of the
/// base class; on-chip/on-node links are modeled as uncontended single hops.
///
/// Ranks are mapped to nodes/chips by `ranks_per_chip` and `chips_per_node`;
/// the system level routes between nodes over the given topology (node id =
/// rank / ranks_per_node). With ranks_per_node == 1 this degenerates to the
/// paper's experiment configuration (one MPI rank per node, MPI+X assumed).
class HierarchicalNetwork final : public NetworkModel {
 public:
  HierarchicalNetwork(std::shared_ptr<const Topology> system_topology,
                      NetworkParams system, NetworkParams on_node, NetworkParams on_chip,
                      int ranks_per_chip, int chips_per_node, RoutingSpec routing = {});

  enum class Level { kOnChip, kOnNode, kSystem };

  Level level_for(int src_rank, int dst_rank) const;
  const NetworkParams& params_for(Level level) const;

  int node_of_rank(int rank) const { return rank / ranks_per_node_; }
  int ranks_per_node() const { return ranks_per_node_; }

  SimTime delivery_time_ranks(int src_rank, int dst_rank, std::size_t bytes) const;
  /// delivery_time_ranks plus system-level contention when configured
  /// (on-chip/on-node levels never contend).
  SimTime delivery_time_ranks_at(SimTime now, int src_rank, int dst_rank,
                                 std::size_t bytes) const;
  SimTime failure_timeout(int src, int dst) const override;
  SimTime max_failure_timeout() const override;

 private:
  NetworkParams on_node_;
  NetworkParams on_chip_;
  int ranks_per_chip_;
  int ranks_per_node_;
};

}  // namespace exasim
