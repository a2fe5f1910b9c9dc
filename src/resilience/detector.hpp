#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "util/time.hpp"

namespace exasim::resilience {

/// Failure-detector families (the pipeline stage between a process failure
/// and the moment each survivor learns about it):
///
///  - kPaperInstant: xSim's simulator-internal broadcast — every survivor is
///    notified at the failure time itself (paper §IV-B). Zero detection
///    latency; the observable failure semantics are produced entirely by the
///    per-request communication timeouts of §IV-C. The default.
///  - kTimeout: the notice reaches each observer one network failure-detection
///    timeout after the failure, using the per-pair timeout of the network
///    level connecting observer and failed rank (§IV-C: "each simulated
///    network ... has its own network communication timeout").
///  - kHeartbeat: the failed process emits heartbeats every `period`; an
///    observer declares it dead after `miss` consecutive missed beats, giving
///    a detection latency between (miss-1) and miss periods (the
///    fault-scenario literature's model of real deployed detectors).
///  - kGossip: SWIM-style epidemic dissemination — the death rumor spreads in
///    rounds of `period`, each infected member telling `fanout` others, so an
///    observer's detection latency grows with its (network-distance-ordered)
///    position in the epidemic: close survivors learn within one round, far
///    ones after O(log_{fanout+1} ranks) rounds, giving the non-uniform
///    per-observer detection-latency distributions of real deployed
///    detectors.
enum class DetectorKind : std::uint8_t { kPaperInstant, kTimeout, kHeartbeat, kGossip };

/// Parsed `--failure-detector` configuration. A zero period (heartbeat or
/// gossip) means "derive from the network": the machine substitutes the
/// network model's largest failure-detection timeout as the period.
struct DetectorSpec {
  DetectorKind kind = DetectorKind::kPaperInstant;
  SimTime heartbeat_period = 0;
  int heartbeat_miss = 3;
  SimTime gossip_period = 0;  ///< Epidemic round length; 0 = auto.
  int gossip_fanout = 2;      ///< Rumor targets per infected member per round.
  std::uint64_t gossip_seed = 1;  ///< Tie-break stream for equal-distance observers.

  friend bool operator==(const DetectorSpec&, const DetectorSpec&) = default;
};

/// Grammar: `paper-instant` | `timeout` | `heartbeat[:period=DUR][,miss=N]`
/// | `gossip[:period=DUR][,fanout=K][,seed=N]` (options separated by ','
/// after a ':'; `period=auto` selects the network-derived default). Returns
/// nullopt on malformed text.
std::optional<DetectorSpec> parse_detector_spec(const std::string& text);

/// Canonical round-trippable form, e.g. "heartbeat:period=100ms,miss=3".
std::string to_string(const DetectorSpec& spec);

/// Environment variable consulted when no --failure-detector is given.
inline constexpr const char* kDetectorEnvVar = "EXASIM_FAILURE_DETECTOR";

/// One row of `exasim_run --list-failure-detectors`.
struct DetectorInfo {
  std::string name;
  std::string summary;
};
const std::vector<DetectorInfo>& list_detectors();

/// Per-pair failure-detection timeout supplied by the layer that owns the
/// network model (core wires Fabric::failure_timeout in) — keeps this library
/// below vmpi/core in the link order. With per-link timeout overrides
/// (NetworkParams::link_timeouts, DESIGN.md §12) this is the max over the
/// pair's canonical route, so a hot link anywhere on the path lengthens the
/// observer's detection bound.
using PairTimeoutFn = std::function<SimTime(int observer_rank, int failed_rank)>;

/// Per-pair zero-byte delivery latency (core wires Fabric::delivery with
/// bytes = 0), the gossip detector's network-propagation term: for a
/// HierarchicalNetwork this is overhead + hops x per-level link latency, so
/// it orders observers by hop distance from the failed rank.
using PairLatencyFn = std::function<SimTime(int observer_rank, int failed_rank)>;

/// A detector model answers one question: at what virtual time does
/// `observer` learn that `failed` died at `t_fail`? The NotificationBus uses
/// the answer as the delivery time of the failure notice. Implementations
/// must behave as pure functions of their arguments (internal caches are
/// allowed but must be thread-safe and value-deterministic): the bus may
/// invoke them from any engine worker thread, and determinism across
/// `--sim-workers` settings depends on it.
class DetectorModel {
 public:
  virtual ~DetectorModel() = default;
  virtual const char* name() const = 0;
  /// Must return a time >= t_fail (a notice cannot precede the failure).
  virtual SimTime detection_time(int observer, int failed, SimTime t_fail) const = 0;
};

/// paper-instant: detection_time == t_fail.
class InstantDetector final : public DetectorModel {
 public:
  const char* name() const override { return "paper-instant"; }
  SimTime detection_time(int observer, int failed, SimTime t_fail) const override;
};

/// timeout: detection_time == t_fail + pair_timeout(observer, failed).
class TimeoutDetector final : public DetectorModel {
 public:
  explicit TimeoutDetector(PairTimeoutFn pair_timeout);
  const char* name() const override { return "timeout"; }
  SimTime detection_time(int observer, int failed, SimTime t_fail) const override;

 private:
  PairTimeoutFn pair_timeout_;
};

/// heartbeat: the failed process's last beat is at the last period boundary
/// at/before t_fail; the observer declares death after `miss` missed beats:
/// detection_time == (floor(t_fail / period) + miss) * period.
class HeartbeatDetector final : public DetectorModel {
 public:
  HeartbeatDetector(SimTime period, int miss);
  const char* name() const override { return "heartbeat"; }
  SimTime detection_time(int observer, int failed, SimTime t_fail) const override;

  SimTime period() const { return period_; }
  int miss() const { return miss_; }

 private:
  SimTime period_;
  int miss_;
};

/// gossip: SWIM-style epidemic dissemination. Observers of a failed rank f
/// are ordered by (pair_latency(o, f), seeded per-pair hash, rank) — network
/// distance first, with a deterministic seeded shuffle breaking ties among
/// equidistant observers — and the epidemic doubles `fanout + 1`-fold per
/// round: the observer at 0-based position p in that order is infected in
/// round r(p) = min { r >= 1 : (fanout + 1)^r >= p + 2 }. Its notice is
/// delivered at
///   t_fail + r(p) * period + pair_latency(o, f),
/// which is strictly increasing in hop distance (the latency term) while the
/// round term spreads equidistant observers across epidemic generations.
class GossipDetector final : public DetectorModel {
 public:
  GossipDetector(SimTime period, int fanout, std::uint64_t seed,
                 PairLatencyFn pair_latency, int ranks);
  const char* name() const override { return "gossip"; }
  SimTime detection_time(int observer, int failed, SimTime t_fail) const override;

  /// Epidemic round in which `observer` is infected (>= 1; 0 for the failed
  /// rank itself). Exposed for tests and the detector sweep.
  int rounds(int observer, int failed) const;

  SimTime period() const { return period_; }
  int fanout() const { return fanout_; }
  std::uint64_t seed() const { return seed_; }

 private:
  const std::vector<int>& rounds_for(int failed) const;

  SimTime period_;
  int fanout_;
  std::uint64_t seed_;
  PairLatencyFn pair_latency_;
  int ranks_;
  /// Per-failed-rank infection rounds, computed once per failure target
  /// (O(ranks log ranks)) so a ranks-wide broadcast costs O(1) per observer.
  /// Guarded: detection_time may run on any engine worker.
  mutable std::mutex cache_mutex_;
  mutable std::map<int, std::vector<int>> rounds_cache_;
};

/// Everything a detector family may need from the layers that own the
/// network: per-pair timeouts (timeout), per-pair zero-byte latency and the
/// rank count (gossip), and the network-derived default period substituted
/// for `period=auto` (heartbeat, gossip).
struct DetectorWiring {
  PairTimeoutFn pair_timeout;
  PairLatencyFn pair_latency;
  SimTime default_period = 0;
  int ranks = 0;
};

/// Builds the detector for a spec from the supplied wiring. Throws
/// std::invalid_argument when the spec needs wiring that is absent (e.g.
/// gossip without pair_latency/ranks).
std::unique_ptr<DetectorModel> make_detector(const DetectorSpec& spec, DetectorWiring wiring);

}  // namespace exasim::resilience
