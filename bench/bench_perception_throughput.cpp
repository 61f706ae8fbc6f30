// bench_perception_throughput — the perception hot-path microbench behind
// BENCH_PERF.json.
//
// Replays one identical synthetic sensor workload (frames of hit/free rays
// marched into an occupancy map at mission-realistic precision levels)
// through four insertion paths:
//
//   reference_per_cell  the frozen seed implementation (pointer octree,
//                       per-cell root descents; tests/reference_octree.h)
//   pooled_per_cell     the pooled tree, still one updateCell per cell
//                       (isolates the storage-layout win)
//   pooled_batched      per-ray Morton-keyed batches: cellKey per sample,
//                       then updateCells (adds the shared-prefix win)
//   pooled_ray_walk     the shipped kernel path: one fused updateRay walk
//                       per ray (no staged keys; same-cell and same-state
//                       samples cost one cell-coordinate compare)
//
// plus a coarsened-collection pass (the bridge's collectOccupied) over the
// resulting maps. All four trees must answer identically — the bench exits
// nonzero if they diverge, so a perf number can never come from a wrong map.
//
// A second, steady-state pass re-inserts the same frames, as sensor sweeps
// of at least 512 rays, into the map the first pass built: once through
// the shipped kernel (insertPointCloud, which classifies each ray's live
// window on the fork-join pool and walks only that), once through the
// serial kernel it replaced (tests/reference_sweep.h). Fresh space is the
// settled-span mechanism's worst case; this pass is its common case. The
// two maps must be identical, or the bench exits nonzero.
//
// Usage:
//   bench_perception_throughput [--smoke] [--json <path>]
//
// --smoke shrinks the workload for CI; --json writes the machine-readable
// record (the perception_throughput section of BENCH_PERF.json).

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "geom/rng.h"
#include "obs/json.h"
#include "perception/fork_join.h"
#include "perception/octomap_kernel.h"
#include "perception/octree.h"
#include "reference_octree.h"
#include "reference_sweep.h"

namespace {

using namespace roborun;
using perception::OccupancyOctree;
using perception::Occupancy;
using perception::reference::ReferenceOctree;
using geom::Vec3;
using obs::jsonNumber;

struct Ray {
  Vec3 origin;
  Vec3 end;
  bool hit;
  Vec3 dir;
  double len;
};

struct Workload {
  std::vector<Ray> rays;  ///< all frames concatenated, in insertion order
  double world_half = 38.4;
  double voxel_min = 0.3;
  int occ_level = 0;   ///< precision 0.3
  int free_level = 2;  ///< free-space floor 1.2 (the kernel's default regime)
  std::size_t frames = 0;
  std::size_t rays_per_frame = 0;
};

Workload buildWorkload(bool smoke) {
  Workload w;
  // Frames of at least 512 rays, so the steady-state pass's sweeps cross the
  // kernel's fork grain in both modes.
  w.frames = smoke ? 4 : 64;
  w.rays_per_frame = smoke ? 512 : 600;
  geom::Rng rng(0xB0B0CAFEu);
  w.rays.reserve(w.frames * w.rays_per_frame);
  for (std::size_t f = 0; f < w.frames; ++f) {
    // The sensor walks a diagonal through the world, like a mission does.
    const double s = static_cast<double>(f) / static_cast<double>(w.frames);
    const Vec3 origin{-30.0 + 60.0 * s, -10.0 + 20.0 * s, 2.0 + 3.0 * s};
    for (std::size_t r = 0; r < w.rays_per_frame; ++r) {
      Vec3 dir;
      for (;;) {
        dir = rng.uniformInBox({-1, -1, -1}, {1, 1, 1});
        const double n = dir.norm();
        if (n > 0.1) {
          dir = dir / n;
          break;
        }
      }
      const bool hit = rng.chance(0.45);
      const double len = hit ? rng.uniform(2.0, 25.0) : 30.0;
      w.rays.push_back({origin, origin + dir * len, hit, dir, len});
    }
  }
  return w;
}

/// The workload's frames as sensor sweeps (hits become points, misses free
/// rays of their full range), and the sensor path as their trajectory.
std::vector<perception::PointCloud> frameClouds(const Workload& w, std::vector<Vec3>& path) {
  std::vector<perception::PointCloud> clouds(w.frames);
  for (std::size_t f = 0; f < w.frames; ++f) {
    perception::PointCloud& cloud = clouds[f];
    for (std::size_t r = 0; r < w.rays_per_frame; ++r) {
      const Ray& ray = w.rays[f * w.rays_per_frame + r];
      cloud.origin = ray.origin;
      if (ray.hit) {
        cloud.points.push_back(ray.end);
      } else {
        cloud.free_rays.push_back({ray.dir, ray.len});
      }
    }
    cloud.max_range = 30.0;
    cloud.source_rays = w.rays_per_frame;
    path.push_back(cloud.origin);
  }
  return clouds;
}

/// Observable differences between two pooled maps: stats, live nodes, the
/// occupied collection at every level, and point queries.
std::size_t treeMismatches(const OccupancyOctree& a, const OccupancyOctree& b,
                           const geom::Aabb& extent) {
  std::size_t mismatches = 0;
  const auto& sa = a.stats();
  const auto& sb = b.stats();
  if (sa.occupied_leaves != sb.occupied_leaves || sa.free_leaves != sb.free_leaves ||
      sa.inner_nodes != sb.inner_nodes || sa.occupied_volume != sb.occupied_volume ||
      sa.free_volume != sb.free_volume || a.liveNodeCount() != b.liveNodeCount())
    ++mismatches;
  for (int level = 0; level <= a.maxDepth(); ++level)
    if (a.collectOccupied(level).size() != b.collectOccupied(level).size()) ++mismatches;
  geom::Rng probe(515151);
  for (int i = 0; i < 20000; ++i) {
    const Vec3 p = probe.uniformInBox(extent.lo, extent.hi);
    if (a.query(p) != b.query(p)) ++mismatches;
  }
  return mismatches;
}

/// March one ray the way the seed kernel did, calling `freeCell` per free
/// cell and `occCell` for a hit endpoint.
template <typename FreeCell, typename OccCell>
void marchRay(const Ray& ray, double cell, FreeCell&& freeCell, OccCell&& occCell) {
  const Vec3 d = ray.end - ray.origin;
  const double len = d.norm();
  if (len > 1e-9) {
    const Vec3 dir = d / len;
    const double free_len = ray.hit ? std::max(0.0, len - cell) : len;
    for (double t = cell * 0.5; t < free_len; t += cell) freeCell(ray.origin + dir * t);
  }
  if (ray.hit) occCell(ray.end);
}

/// March one ray the way the kernel does (octomap_kernel.cpp's traceRay):
/// one fused updateRay walk for the free cells, then the hit endpoint.
void walkRay(OccupancyOctree& tree, const Ray& ray, double cell, int free_level, int occ_level) {
  const Vec3 d = ray.end - ray.origin;
  const double len = d.norm();
  if (len > 1e-9) {
    const double free_len = ray.hit ? std::max(0.0, len - cell) : len;
    tree.updateRay(ray.origin, d / len, cell, free_len, free_level, Occupancy::Free);
  }
  if (ray.hit) tree.updateCell(ray.end, occ_level, Occupancy::Occupied);
}

struct VariantResult {
  double seconds = 0.0;
  std::size_t cell_updates = 0;
  double updates_per_sec = 0.0;
  double collect_seconds = 0.0;
  std::size_t collected_voxels = 0;
};

template <typename Fn>
double timeIt(Fn&& fn) {
  const auto start = std::chrono::steady_clock::now();
  fn();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

void writeVariant(std::ostream& os, const char* name, const VariantResult& v, bool last) {
  os << "    \"" << name << "\": {\"seconds\": " << jsonNumber(v.seconds)
     << ", \"cell_updates\": " << v.cell_updates
     << ", \"updates_per_sec\": " << jsonNumber(v.updates_per_sec, 0)
     << ", \"collect_seconds\": " << jsonNumber(v.collect_seconds)
     << ", \"collected_voxels\": " << v.collected_voxels << "}" << (last ? "" : ",") << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else if (arg == "--help" || arg == "-h") {
      std::cout << "usage: bench_perception_throughput [--smoke] [--json <path>]\n";
      return 0;
    } else {
      std::cerr << "bench_perception_throughput: unknown flag " << arg << "\n";
      return 2;
    }
  }

  const Workload w = buildWorkload(smoke);
  const geom::Aabb extent{{-w.world_half, -w.world_half, -4.0},
                          {w.world_half, w.world_half, 12.0}};
  const int reps = smoke ? 2 : 4;  // best-of-N: tame scheduler/turbo noise

  // Each rep replays the workload into a fresh tree; the kept trees (for
  // the equality check and the collect pass) are from the final rep.
  ReferenceOctree ref_tree(extent, w.voxel_min);
  OccupancyOctree pooled_cell_tree(extent, w.voxel_min);
  OccupancyOctree batched_tree(extent, w.voxel_min);
  OccupancyOctree ray_walk_tree(extent, w.voxel_min);
  const double cell = batched_tree.cellSizeAtLevel(w.free_level);

  VariantResult reference, pooled_cell, batched, ray_walk;
  reference.seconds = pooled_cell.seconds = batched.seconds = ray_walk.seconds = 1e100;

  for (int rep = 0; rep < reps; ++rep) {
    ref_tree = ReferenceOctree(extent, w.voxel_min);
    reference.cell_updates = 0;
    reference.seconds = std::min(reference.seconds, timeIt([&] {
      for (const Ray& ray : w.rays)
        marchRay(
            ray, cell,
            [&](const Vec3& p) {
              ref_tree.updateCell(p, w.free_level, Occupancy::Free);
              ++reference.cell_updates;
            },
            [&](const Vec3& p) {
              ref_tree.updateCell(p, w.occ_level, Occupancy::Occupied);
              ++reference.cell_updates;
            });
    }));

    pooled_cell_tree = OccupancyOctree(extent, w.voxel_min);
    pooled_cell.cell_updates = 0;
    pooled_cell.seconds = std::min(pooled_cell.seconds, timeIt([&] {
      for (const Ray& ray : w.rays)
        marchRay(
            ray, cell,
            [&](const Vec3& p) {
              pooled_cell_tree.updateCell(p, w.free_level, Occupancy::Free);
              ++pooled_cell.cell_updates;
            },
            [&](const Vec3& p) {
              pooled_cell_tree.updateCell(p, w.occ_level, Occupancy::Occupied);
              ++pooled_cell.cell_updates;
            });
    }));

    batched_tree = OccupancyOctree(extent, w.voxel_min);
    batched.cell_updates = 0;
    std::vector<std::uint64_t> keys;
    keys.reserve(64);
    batched.seconds = std::min(batched.seconds, timeIt([&] {
      for (const Ray& ray : w.rays) {
        keys.clear();
        marchRay(
            ray, cell,
            [&](const Vec3& p) {
              if (batched_tree.rootBox().contains(p))
                keys.push_back(batched_tree.cellKey(p, w.free_level));
              ++batched.cell_updates;
            },
            [&](const Vec3& p) {
              batched_tree.updateCells(keys, w.free_level, Occupancy::Free);
              keys.clear();
              batched_tree.updateCell(p, w.occ_level, Occupancy::Occupied);
              ++batched.cell_updates;
            });
        batched_tree.updateCells(keys, w.free_level, Occupancy::Free);
        keys.clear();
      }
    }));

    ray_walk_tree = OccupancyOctree(extent, w.voxel_min);
    ray_walk.seconds = std::min(ray_walk.seconds, timeIt([&] {
      for (const Ray& ray : w.rays) walkRay(ray_walk_tree, ray, cell, w.free_level, w.occ_level);
    }));
  }
  // Same workload, same sampled cells: the walk just never counts them.
  ray_walk.cell_updates = reference.cell_updates;

  for (VariantResult* v : {&reference, &pooled_cell, &batched, &ray_walk})
    v->updates_per_sec = v->seconds > 0.0 ? static_cast<double>(v->cell_updates) / v->seconds : 0.0;

  // The bridge-side coarsening pass (collectOccupied at the bridge's usual
  // 0.3 m level) on the maps the insertion built.
  const int bridge_level = 0;
  std::vector<perception::VoxelBox> ref_voxels, pooled_voxels, pooled_cell_voxels, ray_walk_voxels;
  reference.collect_seconds = timeIt([&] { ref_voxels = ref_tree.collectOccupied(bridge_level); });
  batched.collect_seconds =
      timeIt([&] { pooled_voxels = batched_tree.collectOccupied(bridge_level); });
  pooled_cell.collect_seconds =
      timeIt([&] { pooled_cell_voxels = pooled_cell_tree.collectOccupied(bridge_level); });
  ray_walk.collect_seconds =
      timeIt([&] { ray_walk_voxels = ray_walk_tree.collectOccupied(bridge_level); });
  reference.collected_voxels = ref_voxels.size();
  batched.collected_voxels = pooled_voxels.size();
  pooled_cell.collected_voxels = pooled_cell_voxels.size();
  ray_walk.collected_voxels = ray_walk_voxels.size();

  // Safety: a speedup over a wrong map is no speedup. All four trees must
  // agree with the reference everywhere we look.
  std::size_t mismatches = 0;
  for (const auto* voxels : {&pooled_voxels, &pooled_cell_voxels, &ray_walk_voxels})
    if (ref_voxels.size() != voxels->size()) ++mismatches;
  geom::Rng probe(424242);
  for (int i = 0; i < 20000; ++i) {
    const Vec3 p = probe.uniformInBox(extent.lo, extent.hi);
    const auto want = ref_tree.query(p);
    if (batched_tree.query(p) != want || pooled_cell_tree.query(p) != want ||
        ray_walk_tree.query(p) != want)
      ++mismatches;
  }
  const auto& rs = ref_tree.stats();
  for (const auto* s : {&batched_tree.stats(), &pooled_cell_tree.stats(), &ray_walk_tree.stats()}) {
    if (rs.occupied_leaves != s->occupied_leaves || rs.free_leaves != s->free_leaves ||
        rs.inner_nodes != s->inner_nodes)
      ++mismatches;
  }

  // Steady state: every frame again, into copies of the first pass's map.
  std::vector<Vec3> path;
  const std::vector<perception::PointCloud> clouds = frameClouds(w, path);
  perception::OctomapInsertParams params;
  params.precision = w.voxel_min;  // free level 2 under the default 1.2 m floor
  params.volume_budget = 1e12;     // keep every ray
  OccupancyOctree steady_serial_tree(extent, w.voxel_min);
  OccupancyOctree steady_kernel_tree(extent, w.voxel_min);
  double steady_serial_s = 1e100, steady_kernel_s = 1e100;
  for (int rep = 0; rep < reps; ++rep) {
    steady_serial_tree = ray_walk_tree;
    steady_serial_s = std::min(steady_serial_s, timeIt([&] {
      for (const auto& cloud : clouds)
        perception::reference::insertSweep(steady_serial_tree, cloud, params, path);
    }));
    steady_kernel_tree = ray_walk_tree;
    steady_kernel_s = std::min(steady_kernel_s, timeIt([&] {
      for (const auto& cloud : clouds)
        perception::insertPointCloud(steady_kernel_tree, cloud, params, path);
    }));
  }
  mismatches += treeMismatches(steady_kernel_tree, steady_serial_tree, extent);
  const double speedup_steady = steady_kernel_s > 0.0 ? steady_serial_s / steady_kernel_s : 0.0;

  if (mismatches != 0) {
    std::cerr << "bench_perception_throughput: TREES DIVERGED (" << mismatches
              << " mismatches) — numbers below are invalid\n";
  }

  const double speedup_batched =
      batched.seconds > 0.0 ? reference.seconds / batched.seconds : 0.0;
  const double speedup_pooled =
      pooled_cell.seconds > 0.0 ? reference.seconds / pooled_cell.seconds : 0.0;
  const double speedup_ray_walk =
      ray_walk.seconds > 0.0 ? reference.seconds / ray_walk.seconds : 0.0;
  const double speedup_collect =
      batched.collect_seconds > 0.0 ? reference.collect_seconds / batched.collect_seconds : 0.0;

  std::cerr << "perception throughput (" << (smoke ? "smoke" : "full") << ": " << w.frames
            << " frames x " << w.rays_per_frame << " rays, free@" << cell << " m)\n"
            << "  reference_per_cell: " << jsonNumber(reference.updates_per_sec / 1e6, 2)
            << " M upd/s\n"
            << "  pooled_per_cell:    " << jsonNumber(pooled_cell.updates_per_sec / 1e6, 2)
            << " M upd/s  (" << jsonNumber(speedup_pooled, 2) << "x)\n"
            << "  pooled_batched:     " << jsonNumber(batched.updates_per_sec / 1e6, 2)
            << " M upd/s  (" << jsonNumber(speedup_batched, 2) << "x)\n"
            << "  pooled_ray_walk:    " << jsonNumber(ray_walk.updates_per_sec / 1e6, 2)
            << " M upd/s  (" << jsonNumber(speedup_ray_walk, 2) << "x)\n"
            << "  collectOccupied:    " << jsonNumber(speedup_collect, 2) << "x\n"
            << "  steady state:       serial " << jsonNumber(steady_serial_s * 1e3, 1)
            << " ms, kernel " << jsonNumber(steady_kernel_s * 1e3, 1) << " ms ("
            << jsonNumber(speedup_steady, 2) << "x, " << perception::forkJoinHelpers()
            << " fork-join helpers)\n";

  std::ostringstream json;
  json << "{\n";
  json << "  \"schema\": \"roborun-perception-throughput-v1\",\n";
  json << "  \"smoke\": " << (smoke ? "true" : "false") << ",\n";
  json << "  \"workload\": {\"frames\": " << w.frames
       << ", \"rays_per_frame\": " << w.rays_per_frame
       << ", \"free_cell_m\": " << jsonNumber(cell, 3)
       << ", \"occ_cell_m\": " << jsonNumber(batched_tree.cellSizeAtLevel(w.occ_level), 3)
       << "},\n";
  json << "  \"variants\": {\n";
  writeVariant(json, "reference_per_cell", reference, false);
  writeVariant(json, "pooled_per_cell", pooled_cell, false);
  writeVariant(json, "pooled_batched", batched, false);
  writeVariant(json, "pooled_ray_walk", ray_walk, true);
  json << "  },\n";
  json << "  \"speedup\": {\"pooled_per_cell\": " << jsonNumber(speedup_pooled, 3)
       << ", \"pooled_batched\": " << jsonNumber(speedup_batched, 3)
       << ", \"pooled_ray_walk\": " << jsonNumber(speedup_ray_walk, 3)
       << ", \"collect_occupied\": " << jsonNumber(speedup_collect, 3) << "},\n";
  json << "  \"steady_state\": {\"serial_seconds\": " << jsonNumber(steady_serial_s)
       << ", \"kernel_seconds\": " << jsonNumber(steady_kernel_s)
       << ", \"speedup\": " << jsonNumber(speedup_steady, 3)
       << ", \"fork_join_helpers\": " << perception::forkJoinHelpers() << "},\n";
  json << "  \"trees_agree\": " << (mismatches == 0 ? "true" : "false") << "\n";
  json << "}\n";

  if (json_path.empty()) {
    std::cout << json.str();
  } else {
    std::ofstream out(json_path);
    if (!out) {
      std::cerr << "bench_perception_throughput: cannot open " << json_path << "\n";
      return 1;
    }
    out << json.str();
    std::cerr << "bench_perception_throughput: wrote " << json_path << "\n";
  }
  return mismatches == 0 ? 0 : 1;
}
