#include "apps/heat3d.hpp"

#include <cmath>
#include <cstring>
#include <stdexcept>

#include "core/machine.hpp"

namespace exasim::apps {
namespace {

using vmpi::Context;
using vmpi::Err;
using vmpi::RequestHandle;

/// Face directions in deterministic order: -x, +x, -y, +y, -z, +z.
constexpr int kDirs = 6;
constexpr int opposite(int dir) { return dir ^ 1; }
constexpr int kHaloTagBase = 100;

struct Decomposition {
  int px, py, pz;       // process grid
  int lx, ly, lz;       // local interior dims
  int ix, iy, iz;       // my process coordinates
  int neighbor[kDirs];  // world rank per direction, -1 at physical boundary

  std::size_t points() const {
    return static_cast<std::size_t>(lx) * static_cast<std::size_t>(ly) *
           static_cast<std::size_t>(lz);
  }
  std::size_t face_bytes(int dir) const {
    const std::size_t d = dir / 2 == 0   ? static_cast<std::size_t>(ly) * lz
                          : dir / 2 == 1 ? static_cast<std::size_t>(lx) * lz
                                         : static_cast<std::size_t>(lx) * ly;
    return d * sizeof(double);
  }
};

Decomposition decompose(const HeatParams& p, int rank, int size) {
  if (p.px * p.py * p.pz != size) {
    throw std::invalid_argument("heat3d: process grid does not match world size");
  }
  if (p.nx % p.px != 0 || p.ny % p.py != 0 || p.nz % p.pz != 0) {
    throw std::invalid_argument("heat3d: grid does not divide evenly");
  }
  Decomposition d{};
  d.px = p.px;
  d.py = p.py;
  d.pz = p.pz;
  d.lx = p.nx / p.px;
  d.ly = p.ny / p.py;
  d.lz = p.nz / p.pz;
  d.ix = rank % p.px;
  d.iy = (rank / p.px) % p.py;
  d.iz = rank / (p.px * p.py);
  auto rank_of = [&](int x, int y, int z) -> int {
    if (x < 0 || x >= p.px || y < 0 || y >= p.py || z < 0 || z >= p.pz) return -1;
    return x + y * p.px + z * p.px * p.py;
  };
  d.neighbor[0] = rank_of(d.ix - 1, d.iy, d.iz);
  d.neighbor[1] = rank_of(d.ix + 1, d.iy, d.iz);
  d.neighbor[2] = rank_of(d.ix, d.iy - 1, d.iz);
  d.neighbor[3] = rank_of(d.ix, d.iy + 1, d.iz);
  d.neighbor[4] = rank_of(d.ix, d.iy, d.iz - 1);
  d.neighbor[5] = rank_of(d.ix, d.iy, d.iz + 1);
  return d;
}

// On x86-64 the stencil is built twice, baseline and AVX2, and the loader's
// ifunc resolver picks one per process. AVX2 does not imply FMA (a separate
// ISA flag), so the clones round identically; other targets build one copy.
// So do ThreadSanitizer builds: GCC instruments the resolver with a call into
// the TSan runtime, which crashes when the loader runs it before that runtime
// is set up.
#if defined(__x86_64__) && defined(__linux__) && !defined(__SANITIZE_THREAD__) && \
    defined(__has_attribute)
#if __has_attribute(target_clones)
#define EXASIM_STENCIL_CLONES __attribute__((target_clones("avx2", "default")))
#endif
#endif
#ifndef EXASIM_STENCIL_CLONES
#define EXASIM_STENCIL_CLONES
#endif

/// Four x-adjacent grid points, one per lane of a generic vector.
typedef double Lanes __attribute__((vector_size(4 * sizeof(double))));

/// One explicit step of the 7-point heat stencil: reads the dense
/// (lx+2) x (ly+2) x (lz+2) block `cur` (one halo layer) and writes the
/// interior of `next`. Four x-points go per vector op and a scalar tail takes
/// lx % 4. Every lane does the scalar expression's operations in its order —
/// ((((xm+xp)+ym)+yp)+zm)+zp, then c + 0.1*(sum - 6*c) — so the result is
/// bit-identical for any lx and either clone (DESIGN.md §2).
EXASIM_STENCIL_CLONES
void stencil_rows(const double* cur, double* next, int lx, int ly, int lz) {
  constexpr double kAlpha = 0.1;
  const std::ptrdiff_t sx = lx + 2;
  const std::ptrdiff_t plane = sx * (ly + 2);
  for (int z = 0; z < lz; ++z) {
    for (int y = 0; y < ly; ++y) {
      const std::ptrdiff_t row = (z + 1) * plane + (y + 1) * sx + 1;
      const double* c = cur + row;
      double* out = next + row;
      int x = 0;
      for (; x + 4 <= lx; x += 4) {
        Lanes v, xm, xp, ym, yp, zm, zp;
        std::memcpy(&v, c + x, sizeof v);
        std::memcpy(&xm, c + x - 1, sizeof v);
        std::memcpy(&xp, c + x + 1, sizeof v);
        std::memcpy(&ym, c + x - sx, sizeof v);
        std::memcpy(&yp, c + x + sx, sizeof v);
        std::memcpy(&zm, c + x - plane, sizeof v);
        std::memcpy(&zp, c + x + plane, sizeof v);
        const Lanes sum = xm + xp + ym + yp + zm + zp;
        const Lanes r = v + kAlpha * (sum - 6.0 * v);
        std::memcpy(out + x, &r, sizeof r);
      }
      for (; x < lx; ++x) {
        const double sum =
            c[x - 1] + c[x + 1] + c[x - sx] + c[x + sx] + c[x - plane] + c[x + plane];
        out[x] = c[x] + kAlpha * (sum - 6.0 * c[x]);
      }
    }
  }
}

/// Real-mode grid with one halo layer: index (x,y,z) in [-1, l?] maps into a
/// dense (lx+2) x (ly+2) x (lz+2) block, x fastest. Halo planes change only
/// in unpack_face, which writes them into both buffers: a step never carries
/// them across, and halo state stays single-sourced (it may not alternate
/// between the buffers, or a restart from a checkpointed interior could never
/// reproduce it).
class Grid {
 public:
  explicit Grid(const Decomposition& d)
      : d_(d),
        sx_(static_cast<std::size_t>(d.lx) + 2),
        plane_(sx_ * (static_cast<std::size_t>(d.ly) + 2)),
        cur_(plane_ * (static_cast<std::size_t>(d.lz) + 2), 0.0),
        next_(cur_.size(), 0.0) {}

  void init() {
    // Deterministic initial condition from global coordinates:
    // sin(0.1 gx) + cos(0.13 gy) + sin(0.07 gz + 1), summed in that order.
    // Each term depends on one coordinate, so it is tabulated once per
    // coordinate.
    std::vector<double> fx, fy, fz;
    for (int x = 0; x < d_.lx; ++x) fx.push_back(std::sin(0.1 * (d_.ix * d_.lx + x)));
    for (int y = 0; y < d_.ly; ++y) fy.push_back(std::cos(0.13 * (d_.iy * d_.ly + y)));
    for (int z = 0; z < d_.lz; ++z) fz.push_back(std::sin(0.07 * (d_.iz * d_.lz + z) + 1.0));
    for (int z = 0; z < d_.lz; ++z) {
      for (int y = 0; y < d_.ly; ++y) {
        double* row = &cur_[index(0, y, z)];
        for (int x = 0; x < d_.lx; ++x) {
          row[x] = fx[static_cast<std::size_t>(x)] + fy[static_cast<std::size_t>(y)] +
                   fz[static_cast<std::size_t>(z)];
        }
      }
    }
  }

  void step() {
    stencil_rows(cur_.data(), next_.data(), d_.lx, d_.ly, d_.lz);
    cur_.swap(next_);
  }

  void pack_face(int dir, std::vector<double>& buf) const {
    buf.resize(d_.face_bytes(dir) / sizeof(double));
    double* out = buf.data();
    for_face_rows(dir, /*halo=*/false, [&](std::size_t at, std::size_t n) {
      std::memcpy(out, &cur_[at], n * sizeof(double));
      out += n;
    });
  }

  void unpack_face(int dir, const std::vector<double>& buf) {
    const double* in = buf.data();
    for_face_rows(dir, /*halo=*/true, [&](std::size_t at, std::size_t n) {
      std::memcpy(&cur_[at], in, n * sizeof(double));
      std::memcpy(&next_[at], in, n * sizeof(double));
      in += n;
    });
  }

  double checksum() const {
    double s = 0;
    for (int z = 0; z < d_.lz; ++z) {
      for (int y = 0; y < d_.ly; ++y) {
        const double* row = &cur_[index(0, y, z)];
        for (int x = 0; x < d_.lx; ++x) s += row[x];
      }
    }
    return s;
  }

  /// Writes the interior rows, packed x-fastest, to `out` (checkpointing).
  void save_interior(std::byte* out) const {
    const std::size_t row_bytes = static_cast<std::size_t>(d_.lx) * sizeof(double);
    for (int z = 0; z < d_.lz; ++z) {
      for (int y = 0; y < d_.ly; ++y) {
        std::memcpy(out, &cur_[index(0, y, z)], row_bytes);
        out += row_bytes;
      }
    }
  }

  void restore_interior(const std::byte* in) {
    const std::size_t row_bytes = static_cast<std::size_t>(d_.lx) * sizeof(double);
    for (int z = 0; z < d_.lz; ++z) {
      for (int y = 0; y < d_.ly; ++y) {
        std::memcpy(&cur_[index(0, y, z)], in, row_bytes);
        in += row_bytes;
      }
    }
  }

 private:
  std::size_t index(int x, int y, int z) const {
    return static_cast<std::size_t>(z + 1) * plane_ + static_cast<std::size_t>(y + 1) * sx_ +
           static_cast<std::size_t>(x + 1);
  }

  /// Calls f(offset, count) for each contiguous run of face `dir` in pack
  /// order. The interior face (halo=false) is the boundary plane we send; the
  /// halo plane (halo=true) is where the neighbour's data lands. y and z faces
  /// run in lx-long rows; an x face is strided, one point per run.
  template <typename F>
  void for_face_rows(int dir, bool halo, F&& f) const {
    const int axis = dir / 2;
    const bool low = (dir % 2) == 0;
    const int extent = axis == 0 ? d_.lx : axis == 1 ? d_.ly : d_.lz;
    const int at = halo ? (low ? -1 : extent) : (low ? 0 : extent - 1);
    const auto lx = static_cast<std::size_t>(d_.lx);
    if (axis == 0) {
      for (int z = 0; z < d_.lz; ++z)
        for (int y = 0; y < d_.ly; ++y) f(index(at, y, z), 1);
    } else if (axis == 1) {
      for (int z = 0; z < d_.lz; ++z) f(index(0, at, z), lx);
    } else {
      for (int y = 0; y < d_.ly; ++y) f(index(0, y, at), lx);
    }
  }

  const Decomposition& d_;
  const std::size_t sx_, plane_;  // Row and plane strides of the block.
  std::vector<double> cur_, next_;
};

void set_phase(const HeatParams& p, int rank, HeatPhase phase) {
  if (p.telemetry != nullptr) {
    p.telemetry->last_phase[static_cast<std::size_t>(rank)] = phase;
  }
}

/// Per-rank halo state reused across exchanges, so the steady-state halo
/// loop allocates nothing: one face buffer per direction each way, and the
/// request handles of the exchange in flight.
struct HaloBuffers {
  HaloBuffers() : send_bufs(kDirs), recv_bufs(kDirs) { handles.reserve(2 * kDirs); }
  std::vector<std::vector<double>> send_bufs, recv_bufs;
  std::vector<RequestHandle> handles;
};

/// Halo exchange with the (up to 6) face neighbors. Returns the first error
/// the underlying MPI operations reported (the error handler of the world
/// communicator already ran — under kFatal this call aborts instead of
/// returning).
Err halo_exchange(Context& ctx, const Decomposition& d, Grid* grid, HaloBuffers& halo) {
  auto& world = ctx.world();
  auto& send_bufs = halo.send_bufs;
  auto& recv_bufs = halo.recv_bufs;
  auto& handles = halo.handles;
  handles.clear();

  for (int dir = 0; dir < kDirs; ++dir) {
    if (d.neighbor[dir] < 0) continue;
    const std::size_t bytes = d.face_bytes(dir);
    if (grid != nullptr) {
      recv_bufs[static_cast<std::size_t>(dir)].resize(bytes / sizeof(double));
      handles.push_back(ctx.irecv(world, d.neighbor[dir], kHaloTagBase + opposite(dir),
                                  recv_bufs[static_cast<std::size_t>(dir)].data(), bytes));
    } else {
      handles.push_back(
          ctx.irecv_modeled(world, d.neighbor[dir], kHaloTagBase + opposite(dir), bytes));
    }
  }
  for (int dir = 0; dir < kDirs; ++dir) {
    if (d.neighbor[dir] < 0) continue;
    const std::size_t bytes = d.face_bytes(dir);
    if (grid != nullptr) {
      grid->pack_face(dir, send_bufs[static_cast<std::size_t>(dir)]);
      handles.push_back(ctx.isend(world, d.neighbor[dir], kHaloTagBase + dir,
                                  send_bufs[static_cast<std::size_t>(dir)].data(), bytes));
    } else {
      handles.push_back(ctx.isend_modeled(world, d.neighbor[dir], kHaloTagBase + dir, bytes));
    }
  }

  Err e = ctx.waitall(world, handles, nullptr);
  if (e == Err::kSuccess && grid != nullptr) {
    for (int dir = 0; dir < kDirs; ++dir) {
      if (d.neighbor[dir] < 0) continue;
      grid->unpack_face(dir, recv_bufs[static_cast<std::size_t>(dir)]);
    }
  }
  return e;
}

void heat3d_main(Context& ctx, const HeatParams& p, std::vector<HeatReport>* reports) {
  const int rank = ctx.rank();
  auto& services = core::services_of(ctx);
  if (services.checkpoints == nullptr) {
    throw std::logic_error("heat3d requires a checkpoint store service");
  }
  auto& store = *services.checkpoints;
  ckpt::TieredWriter writer(*services.storage, services.ckpt_mode);

  set_phase(p, rank, HeatPhase::kStartup);
  const Decomposition d = decompose(p, rank, ctx.size());
  const std::size_t state_bytes = d.points() * sizeof(double);

  std::unique_ptr<Grid> grid;
  if (p.real_compute) {
    grid = std::make_unique<Grid>(d);
    grid->init();
  }
  HaloBuffers halo;

  // Restart path (paper §V-B): "it automatically loads the last checkpoint".
  int start_iteration = 1;
  int restarts_used = 0;
  std::uint64_t restored_version = 0;
  Err restore_err = Err::kSuccess;
  if (auto payload = ckpt::read_latest_checkpoint_tiered(ctx, store, *services.storage,
                                                         &restored_version, nullptr,
                                                         &restore_err)) {
    HeatCkptHeader header{};
    if (payload->size() < sizeof(header)) throw std::runtime_error("corrupt checkpoint header");
    std::memcpy(&header, payload->data(), sizeof(header));
    if (header.magic != HeatCkptHeader{}.magic || header.rank != rank) {
      throw std::runtime_error("checkpoint mismatch");
    }
    start_iteration = header.iteration + 1;
    restarts_used = 1;
    if (grid) {
      if (payload->size() != sizeof(header) + state_bytes) {
        throw std::runtime_error("checkpoint payload size mismatch");
      }
      grid->restore_interior(payload->data() + sizeof(header));
    }
    // Stale complete sets older than the one restored are garbage-collected.
    for (std::uint64_t v : store.versions()) {
      if (v < restored_version) store.remove_file(v, rank);
    }
    // Checkpoints persist interiors only; rebuild the halo layers so the
    // physics after restart is bit-identical to the uninterrupted run.
    set_phase(p, rank, HeatPhase::kHalo);
    if (halo_exchange(ctx, d, grid.get(), halo) != Err::kSuccess) return;
  } else if (restore_err != Err::kSuccess) {
    return;  // The restore fetch failed: not a cold start.
  }

  std::uint64_t prev_ckpt_version = restarts_used != 0 ? restored_version : 0;
  bool have_prev_ckpt = restarts_used != 0;
  // One checkpoint payload per rank, reused by every checkpoint: the header,
  // then in real mode the interior rows.
  std::vector<std::byte> payload(sizeof(HeatCkptHeader) + (grid ? state_bytes : 0));

  for (int it = start_iteration; it <= p.total_iterations; ++it) {
    // Computation phase — by far the longest (§V-D), so most failures
    // activate here and are *detected* in the next halo exchange.
    set_phase(p, rank, HeatPhase::kCompute);
    if (grid) grid->step();
    ctx.compute(static_cast<double>(d.points()) * p.work_units_per_point);

    const bool do_halo = p.halo_interval > 0 && it % p.halo_interval == 0;
    const bool do_ckpt =
        (p.checkpoint_interval > 0 && it % p.checkpoint_interval == 0) ||
        it == p.total_iterations;

    if (do_halo) {
      set_phase(p, rank, HeatPhase::kHalo);
      if (halo_exchange(ctx, d, grid.get(), halo) != Err::kSuccess) return;
    }

    if (do_ckpt) {
      // Checkpoint phase: write file, then global barrier, then delete the
      // previous checkpoint ("such that the previous checkpoint can be
      // deleted safely", §V-B).
      set_phase(p, rank, HeatPhase::kCheckpoint);
      HeatCkptHeader header;
      header.rank = rank;
      header.iteration = it;
      header.nx = p.nx;
      header.ny = p.ny;
      header.nz = p.nz;
      std::memcpy(payload.data(), &header, sizeof(header));
      if (grid) grid->save_interior(payload.data() + sizeof(header));
      writer.write(ctx, store, static_cast<std::uint64_t>(it), payload,
                   sizeof(header) + state_bytes);

      set_phase(p, rank, HeatPhase::kBarrier);
      if (ctx.barrier(ctx.world()) != Err::kSuccess) return;

      set_phase(p, rank, HeatPhase::kCleanup);
      if (have_prev_ckpt && prev_ckpt_version != static_cast<std::uint64_t>(it)) {
        store.remove_file(prev_ckpt_version, rank);
      }
      prev_ckpt_version = static_cast<std::uint64_t>(it);
      have_prev_ckpt = true;
    }
  }

  set_phase(p, rank, HeatPhase::kDone);
  if (reports != nullptr) {
    auto& rep = reports->at(static_cast<std::size_t>(rank));
    rep.completed_iterations = p.total_iterations;
    rep.restarts_used = restarts_used;
    rep.checksum = grid ? grid->checksum() : 0.0;
  }
  ctx.finalize();
}

}  // namespace

const char* to_string(HeatPhase p) {
  switch (p) {
    case HeatPhase::kStartup: return "startup";
    case HeatPhase::kCompute: return "compute";
    case HeatPhase::kHalo: return "halo";
    case HeatPhase::kCheckpoint: return "checkpoint";
    case HeatPhase::kBarrier: return "barrier";
    case HeatPhase::kCleanup: return "cleanup";
    case HeatPhase::kDone: return "done";
  }
  return "?";
}

vmpi::AppMain make_heat3d(HeatParams params, std::vector<HeatReport>* reports) {
  return [params, reports](Context& ctx) { heat3d_main(ctx, params, reports); };
}

}  // namespace exasim::apps
