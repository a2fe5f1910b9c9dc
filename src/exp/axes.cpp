#include "exp/axes.hpp"

#include <stdexcept>

namespace exasim::exp {

Axis failure_detector_axis() {
  Axis axis;
  axis.name = "failure_detector";
  for (const auto& d : resilience::list_detectors()) axis.values.push_back(d.name);
  return axis;
}

resilience::DetectorSpec detector_spec_for(std::size_t value_index) {
  const auto& detectors = resilience::list_detectors();
  if (value_index >= detectors.size()) throw std::out_of_range("detector axis index");
  auto spec = resilience::parse_detector_spec(detectors[value_index].name);
  if (!spec) throw std::logic_error("unparsable registered detector name");
  return *spec;
}

Axis scheduler_axis() {
  Axis axis;
  axis.name = "scheduler";
  for (const auto& name : list_schedulers()) axis.values.push_back(name);
  return axis;
}

SchedulerKind scheduler_kind_for(std::size_t value_index) {
  const auto& names = list_schedulers();
  if (value_index >= names.size()) throw std::out_of_range("scheduler axis index");
  auto kind = parse_scheduler_spec(names[value_index]);
  if (!kind) throw std::logic_error("unparsable registered scheduler name");
  return *kind;
}

Axis routing_axis() {
  Axis axis;
  axis.name = "routing";
  for (const auto& name : list_routings()) axis.values.push_back(name);
  return axis;
}

RoutingSpec routing_spec_for(std::size_t value_index) {
  const auto& names = list_routings();
  if (value_index >= names.size()) throw std::out_of_range("routing axis index");
  auto spec = parse_routing_spec(names[value_index]);
  if (!spec) throw std::logic_error("unparsable registered routing name");
  return *spec;
}

Axis storage_axis() {
  Axis axis;
  axis.name = "storage";
  for (const auto& p : list_storage()) axis.values.push_back(p.name);
  return axis;
}

StorageSpec storage_spec_for(std::size_t value_index) {
  const auto& presets = list_storage();
  if (value_index >= presets.size()) throw std::out_of_range("storage axis index");
  auto spec = parse_storage_spec(presets[value_index].name);
  if (!spec) throw std::logic_error("unparsable registered storage preset");
  return *spec;
}

Axis ckpt_mode_axis() {
  Axis axis;
  axis.name = "ckpt_mode";
  for (const auto& name : ckpt::list_ckpt_modes()) axis.values.push_back(name);
  return axis;
}

ckpt::CkptMode ckpt_mode_for(std::size_t value_index) {
  const auto& names = ckpt::list_ckpt_modes();
  if (value_index >= names.size()) throw std::out_of_range("ckpt mode axis index");
  auto mode = ckpt::parse_ckpt_mode(names[value_index]);
  if (!mode) throw std::logic_error("unparsable registered ckpt mode");
  return *mode;
}

}  // namespace exasim::exp
