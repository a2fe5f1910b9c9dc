#pragma once

#include "ckpt/tiered.hpp"
#include "exp/plan.hpp"
#include "iomodel/storage.hpp"
#include "netmodel/routing.hpp"
#include "pdes/scheduler.hpp"
#include "resilience/detector.hpp"

namespace exasim::exp {

/// The canonical failure-detector axis: one value per registered detector
/// family (paper-instant, timeout, heartbeat), in registry order. Benches
/// resolve a point's value with `detector_spec_for(point.at(axis))`.
Axis failure_detector_axis();

/// DetectorSpec for a failure_detector_axis() value index (defaults for the
/// parameterized families: heartbeat period auto, miss 3).
resilience::DetectorSpec detector_spec_for(std::size_t value_index);

/// The window-scheduler axis: one value per registered scheduler family
/// (fixed, adaptive), in registry order — for perf campaigns comparing
/// policies (the simulated result is policy-invariant by design).
Axis scheduler_axis();

/// SchedulerKind for a scheduler_axis() value index.
SchedulerKind scheduler_kind_for(std::size_t value_index);

/// The routing-policy axis: one value per registered routing family
/// (deterministic, adaptive), in registry order — for campaigns comparing
/// route-variant spreading under contention or heterogeneous link timeouts.
Axis routing_axis();

/// RoutingSpec for a routing_axis() value index (family defaults).
RoutingSpec routing_spec_for(std::size_t value_index);

/// The storage-hierarchy axis: one value per registered storage preset
/// (pfs, hpc), in registry order — for co-design campaigns sweeping what
/// checkpoint I/O costs.
Axis storage_axis();

/// StorageSpec for a storage_axis() value index (registered presets).
StorageSpec storage_spec_for(std::size_t value_index);

/// The checkpoint-mode axis: pfs / partner / staged, in registry order.
Axis ckpt_mode_axis();

/// CkptMode for a ckpt_mode_axis() value index.
ckpt::CkptMode ckpt_mode_for(std::size_t value_index);

}  // namespace exasim::exp
