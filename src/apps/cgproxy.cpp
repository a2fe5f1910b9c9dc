#include "apps/cgproxy.hpp"

#include <cmath>
#include <cstring>
#include <stdexcept>

#include "core/machine.hpp"
#include "vmpi/context.hpp"

namespace exasim::apps {
namespace {

struct CgCkptHeader {
  std::uint32_t magic = 0x43475052;  // "CGPR"
  std::int32_t rank = -1;
  std::int32_t iteration = -1;
  double residual = 0;
};

void cg_main(vmpi::Context& ctx, const CgProxyParams& p, std::vector<CgProxyReport>* reports) {
  const int rank = ctx.rank();
  auto& services = core::services_of(ctx);
  const bool checkpointing = p.checkpoint_interval > 0 && services.checkpoints != nullptr;
  ckpt::TieredWriter writer(*services.storage, services.ckpt_mode);

  // Deterministic local vector.
  std::vector<double> x(p.local_elements);
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = std::sin(0.01 * static_cast<double>(i) + rank);
  }

  int start_iteration = 1;
  int restarts_used = 0;
  double residual = 0;
  std::uint64_t prev_version = 0;
  bool have_prev = false;

  if (checkpointing) {
    std::uint64_t version = 0;
    vmpi::Err err = vmpi::Err::kSuccess;
    if (auto payload = ckpt::read_latest_checkpoint_tiered(
            ctx, *services.checkpoints, *services.storage, &version, nullptr, &err)) {
      CgCkptHeader header{};
      if (payload->size() != sizeof(header) + x.size() * sizeof(double)) {
        throw std::runtime_error("cgproxy checkpoint size mismatch");
      }
      std::memcpy(&header, payload->data(), sizeof(header));
      if (header.magic != CgCkptHeader{}.magic || header.rank != rank) {
        throw std::runtime_error("cgproxy checkpoint mismatch");
      }
      start_iteration = header.iteration + 1;
      residual = header.residual;
      restarts_used = 1;
      std::memcpy(x.data(), payload->data() + sizeof(header), x.size() * sizeof(double));
      prev_version = version;
      have_prev = true;
    } else if (err != vmpi::Err::kSuccess) {
      return;  // The restore fetch failed: not a cold start.
    }
  }

  for (int it = start_iteration; it <= p.total_iterations; ++it) {
    // Local "matrix-vector" work.
    ctx.compute(static_cast<double>(p.local_elements) * p.work_units_per_element);
    double local_dot = 0;
    for (std::size_t i = 0; i < x.size(); ++i) {
      x[i] = 0.999 * x[i] + 1e-6;
      local_dot += x[i] * x[i];
    }

    // Two global reductions per iteration, CG-style.
    double global_dot = 0;
    if (ctx.allreduce(ctx.world(), vmpi::ReduceOp::kSum, vmpi::Dtype::kF64, &local_dot,
                      &global_dot, 1) != vmpi::Err::kSuccess) {
      return;
    }
    double global_max = 0;
    double local_max = std::abs(x[0]);
    if (ctx.allreduce(ctx.world(), vmpi::ReduceOp::kMax, vmpi::Dtype::kF64, &local_max,
                      &global_max, 1) != vmpi::Err::kSuccess) {
      return;
    }
    residual = global_dot / (1.0 + global_max);

    if (checkpointing && (it % p.checkpoint_interval == 0 || it == p.total_iterations)) {
      CgCkptHeader header;
      header.rank = rank;
      header.iteration = it;
      header.residual = residual;
      std::vector<std::byte> payload(sizeof(header) + x.size() * sizeof(double));
      std::memcpy(payload.data(), &header, sizeof(header));
      std::memcpy(payload.data() + sizeof(header), x.data(), x.size() * sizeof(double));
      writer.write(ctx, *services.checkpoints, static_cast<std::uint64_t>(it), payload);
      if (ctx.barrier(ctx.world()) != vmpi::Err::kSuccess) return;
      if (have_prev && prev_version != static_cast<std::uint64_t>(it)) {
        services.checkpoints->remove_file(prev_version, rank);
      }
      prev_version = static_cast<std::uint64_t>(it);
      have_prev = true;
    }
  }

  if (reports != nullptr) {
    auto& rep = reports->at(static_cast<std::size_t>(rank));
    rep.completed_iterations = p.total_iterations;
    rep.restarts_used = restarts_used;
    rep.residual = residual;
  }
  ctx.finalize();
}

}  // namespace

vmpi::AppMain make_cgproxy(CgProxyParams params, std::vector<CgProxyReport>* reports) {
  return [params, reports](vmpi::Context& ctx) { cg_main(ctx, params, reports); };
}

}  // namespace exasim::apps
