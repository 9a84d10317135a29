#include "fleet/shard_plan.h"

#include <algorithm>
#include <cassert>
#include <string>

#include "exp/aggregate.h"
#include "simcore/fnv.h"

namespace vafs::fleet {

ShardPlan::ShardPlan(std::size_t scenario_count, std::size_t seed_count, std::size_t shard_size)
    : scenarios_(scenario_count),
      seeds_(seed_count),
      tasks_(scenario_count * seed_count),
      shard_size_(shard_size > 0 ? shard_size : 1) {}

std::size_t ShardPlan::shard_count() const {
  return tasks_ == 0 ? 0 : (tasks_ + shard_size_ - 1) / shard_size_;
}

Shard ShardPlan::shard(std::size_t id) const {
  assert(id < shard_count());
  Shard s;
  s.id = id;
  s.first_task = id * shard_size_;
  s.task_count = std::min(shard_size_, tasks_ - s.first_task);
  return s;
}

TaskRef ShardPlan::task(std::size_t index) const {
  assert(index < tasks_ && seeds_ > 0);
  return TaskRef{index / seeds_, index % seeds_};
}

std::uint64_t grid_fingerprint(const std::vector<exp::ScenarioSpec>& scenarios,
                               const std::vector<std::uint64_t>& seeds, std::size_t shard_size) {
  std::uint64_t h = sim::kFnvOffset;
  h = sim::fnv1a_u64(h, scenarios.size());
  for (const auto& spec : scenarios) {
    h = sim::fnv1a(h, spec.id);
    h = sim::fnv1a_u64(h, 0);  // terminator: ids "ab","c" vs "a","bc" differ
  }
  h = sim::fnv1a_u64(h, seeds.size());
  for (const std::uint64_t seed : seeds) h = sim::fnv1a_u64(h, seed);
  h = sim::fnv1a_u64(h, shard_size);
  // The metric schema: a checkpoint's aggregate rows are positional, so a
  // reordered or extended metric table must invalidate old checkpoints.
  for (const auto& metric : exp::Aggregate::metrics()) {
    h = sim::fnv1a(h, std::string_view(metric.name));
    h = sim::fnv1a_u64(h, 1);
  }
  return h;
}

}  // namespace vafs::fleet
