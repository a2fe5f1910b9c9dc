#include "resilience/detector.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "util/parse.hpp"

namespace exasim::resilience {

namespace {

std::optional<long> parse_positive_int(const std::string& value) {
  try {
    std::size_t used = 0;
    const long n = std::stol(value, &used);
    if (used != value.size() || n < 1) return std::nullopt;
    return n;
  } catch (...) {
    return std::nullopt;
  }
}

std::optional<std::uint64_t> parse_u64(const std::string& value) {
  try {
    std::size_t used = 0;
    const unsigned long long n = std::stoull(value, &used);
    if (used != value.size() || value.empty() || value[0] == '-') return std::nullopt;
    return static_cast<std::uint64_t>(n);
  } catch (...) {
    return std::nullopt;
  }
}

}  // namespace

std::optional<DetectorSpec> parse_detector_spec(const std::string& text) {
  DetectorSpec spec;
  std::string head = text;
  std::string opts;
  if (auto colon = text.find(':'); colon != std::string::npos) {
    head = text.substr(0, colon);
    opts = text.substr(colon + 1);
  }

  if (head == "paper-instant") {
    spec.kind = DetectorKind::kPaperInstant;
  } else if (head == "timeout") {
    spec.kind = DetectorKind::kTimeout;
  } else if (head == "heartbeat") {
    spec.kind = DetectorKind::kHeartbeat;
  } else if (head == "gossip") {
    spec.kind = DetectorKind::kGossip;
  } else {
    return std::nullopt;
  }
  if (opts.empty()) return spec;
  if (spec.kind != DetectorKind::kHeartbeat && spec.kind != DetectorKind::kGossip) {
    return std::nullopt;  // No options.
  }

  std::size_t pos = 0;
  while (pos < opts.size()) {
    std::size_t comma = opts.find(',', pos);
    if (comma == std::string::npos) comma = opts.size();
    const std::string item = opts.substr(pos, comma - pos);
    pos = comma + 1;

    const std::size_t eq = item.find('=');
    if (eq == std::string::npos) return std::nullopt;
    const std::string key = item.substr(0, eq);
    const std::string value = item.substr(eq + 1);
    SimTime* period = spec.kind == DetectorKind::kHeartbeat ? &spec.heartbeat_period
                                                            : &spec.gossip_period;
    if (key == "period") {
      if (value == "auto") {
        *period = 0;  // Resolved to the network timeout later.
        continue;
      }
      auto t = parse_duration(value);
      if (!t || *t == 0) return std::nullopt;
      *period = *t;
    } else if (key == "miss" && spec.kind == DetectorKind::kHeartbeat) {
      auto n = parse_positive_int(value);
      if (!n) return std::nullopt;
      spec.heartbeat_miss = static_cast<int>(*n);
    } else if (key == "fanout" && spec.kind == DetectorKind::kGossip) {
      auto n = parse_positive_int(value);
      if (!n) return std::nullopt;
      spec.gossip_fanout = static_cast<int>(*n);
    } else if (key == "seed" && spec.kind == DetectorKind::kGossip) {
      auto n = parse_u64(value);
      if (!n) return std::nullopt;
      spec.gossip_seed = *n;
    } else {
      return std::nullopt;
    }
  }
  return spec;
}

namespace {

/// Canonical duration spelling ("100ms", "2s", "750ns") that
/// parse_detector_spec reads back — unlike the human-facing format_sim_time,
/// which inserts spaces and fixed decimals.
std::string canonical_duration(SimTime t) {
  if (t >= sim_seconds(1.0) && t % sim_seconds(1.0) == 0) {
    return std::to_string(t / sim_seconds(1.0)) + "s";
  }
  if (t >= sim_ms(1) && t % sim_ms(1) == 0) return std::to_string(t / sim_ms(1)) + "ms";
  if (t >= sim_us(1) && t % sim_us(1) == 0) return std::to_string(t / sim_us(1)) + "us";
  return std::to_string(t) + "ns";
}

}  // namespace

std::string to_string(const DetectorSpec& spec) {
  switch (spec.kind) {
    case DetectorKind::kPaperInstant:
      return "paper-instant";
    case DetectorKind::kTimeout:
      return "timeout";
    case DetectorKind::kHeartbeat: {
      std::string out = "heartbeat:period=";
      out += spec.heartbeat_period == 0 ? std::string("auto")
                                        : canonical_duration(spec.heartbeat_period);
      out += ",miss=" + std::to_string(spec.heartbeat_miss);
      return out;
    }
    case DetectorKind::kGossip: {
      std::string out = "gossip:period=";
      out += spec.gossip_period == 0 ? std::string("auto")
                                     : canonical_duration(spec.gossip_period);
      out += ",fanout=" + std::to_string(spec.gossip_fanout);
      out += ",seed=" + std::to_string(spec.gossip_seed);
      return out;
    }
  }
  return "?";
}

const std::vector<DetectorInfo>& list_detectors() {
  static const std::vector<DetectorInfo> infos = {
      {"paper-instant",
       "simulator-internal broadcast at the failure time (paper SIV-B, default)"},
      {"timeout",
       "notice after the per-pair network failure-detection timeout (paper SIV-C)"},
      {"heartbeat",
       "declared dead after N missed heartbeats; options :period=DUR,miss=N "
       "(default period=network timeout, miss=3)"},
      {"gossip",
       "SWIM-style epidemic: notice after hop-distance latency plus epidemic "
       "rounds; options :period=DUR,fanout=K,seed=N (default period=network "
       "timeout, fanout=2, seed=1)"},
  };
  return infos;
}

SimTime InstantDetector::detection_time(int observer, int failed, SimTime t_fail) const {
  (void)observer;
  (void)failed;
  return t_fail;
}

TimeoutDetector::TimeoutDetector(PairTimeoutFn pair_timeout)
    : pair_timeout_(std::move(pair_timeout)) {
  if (!pair_timeout_) throw std::invalid_argument("null pair timeout");
}

SimTime TimeoutDetector::detection_time(int observer, int failed, SimTime t_fail) const {
  return t_fail + pair_timeout_(observer, failed);
}

HeartbeatDetector::HeartbeatDetector(SimTime period, int miss) : period_(period), miss_(miss) {
  if (period_ == 0) throw std::invalid_argument("zero heartbeat period");
  if (miss_ < 1) throw std::invalid_argument("heartbeat miss < 1");
}

SimTime HeartbeatDetector::detection_time(int observer, int failed, SimTime t_fail) const {
  (void)observer;
  (void)failed;
  return (t_fail / period_ + static_cast<SimTime>(miss_)) * period_;
}

namespace {

/// splitmix64 finalizer — a cheap, well-mixed 64-bit hash used to shuffle
/// equidistant observers deterministically from (seed, failed, observer).
std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

GossipDetector::GossipDetector(SimTime period, int fanout, std::uint64_t seed,
                               PairLatencyFn pair_latency, int ranks)
    : period_(period),
      fanout_(fanout),
      seed_(seed),
      pair_latency_(std::move(pair_latency)),
      ranks_(ranks) {
  if (period_ == 0) throw std::invalid_argument("zero gossip period");
  if (fanout_ < 1) throw std::invalid_argument("gossip fanout < 1");
  if (!pair_latency_) throw std::invalid_argument("null gossip pair latency");
  if (ranks_ <= 0) throw std::invalid_argument("gossip needs a positive rank count");
}

const std::vector<int>& GossipDetector::rounds_for(int failed) const {
  std::lock_guard<std::mutex> lock(cache_mutex_);
  auto it = rounds_cache_.find(failed);
  if (it != rounds_cache_.end()) return it->second;

  struct Entry {
    SimTime latency;
    std::uint64_t hash;
    int rank;
  };
  std::vector<Entry> order;
  order.reserve(static_cast<std::size_t>(ranks_ > 0 ? ranks_ - 1 : 0));
  for (int r = 0; r < ranks_; ++r) {
    if (r == failed) continue;
    const std::uint64_t pair =
        (static_cast<std::uint64_t>(static_cast<std::uint32_t>(failed)) << 32) |
        static_cast<std::uint32_t>(r);
    order.push_back({pair_latency_(r, failed), splitmix64(seed_ ^ splitmix64(pair)), r});
  }
  std::sort(order.begin(), order.end(), [](const Entry& a, const Entry& b) {
    if (a.latency != b.latency) return a.latency < b.latency;
    if (a.hash != b.hash) return a.hash < b.hash;
    return a.rank < b.rank;
  });

  std::vector<int> rounds(static_cast<std::size_t>(ranks_), 0);
  // The epidemic multiplies (fanout + 1)-fold per round: after round r the
  // rumor has reached (fanout + 1)^r members including the origin, so the
  // observer at 0-based position p joins in the first round r with
  // (fanout + 1)^r >= p + 2. Walk the boundary instead of taking logs.
  std::uint64_t boundary = 1;  // Members infected after `round` rounds.
  int round = 0;
  const std::uint64_t growth = static_cast<std::uint64_t>(fanout_) + 1;
  for (std::size_t p = 0; p < order.size(); ++p) {
    while (boundary < p + 2) {
      boundary = boundary > (~0ULL) / growth ? ~0ULL : boundary * growth;
      ++round;
    }
    rounds[static_cast<std::size_t>(order[p].rank)] = round;
  }
  return rounds_cache_.emplace(failed, std::move(rounds)).first->second;
}

int GossipDetector::rounds(int observer, int failed) const {
  if (observer == failed) return 0;
  return rounds_for(failed)[static_cast<std::size_t>(observer)];
}

SimTime GossipDetector::detection_time(int observer, int failed, SimTime t_fail) const {
  if (observer == failed) return t_fail;
  return t_fail + static_cast<SimTime>(rounds(observer, failed)) * period_ +
         pair_latency_(observer, failed);
}

std::unique_ptr<DetectorModel> make_detector(const DetectorSpec& spec, DetectorWiring wiring) {
  switch (spec.kind) {
    case DetectorKind::kPaperInstant:
      return std::make_unique<InstantDetector>();
    case DetectorKind::kTimeout:
      return std::make_unique<TimeoutDetector>(std::move(wiring.pair_timeout));
    case DetectorKind::kHeartbeat: {
      const SimTime period =
          spec.heartbeat_period != 0 ? spec.heartbeat_period : wiring.default_period;
      return std::make_unique<HeartbeatDetector>(period, spec.heartbeat_miss);
    }
    case DetectorKind::kGossip: {
      const SimTime period =
          spec.gossip_period != 0 ? spec.gossip_period : wiring.default_period;
      return std::make_unique<GossipDetector>(period, spec.gossip_fanout, spec.gossip_seed,
                                              std::move(wiring.pair_latency), wiring.ranks);
    }
  }
  throw std::invalid_argument("bad detector kind");
}

}  // namespace exasim::resilience
