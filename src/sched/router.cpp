#include "sched/router.h"

#include <cassert>
#include <string_view>
#include <utility>

namespace vafs::sched {

ClusterRouter::ClusterRouter(std::vector<ClusterRef> clusters)
    : clusters_(std::move(clusters)), decode_counts_(clusters_.size(), 0) {
  assert(!clusters_.empty() && "router needs at least one cluster");
  assert(clusters_.size() <= (1u << 7) && "cluster index must fit the id namespace byte");
  for (std::size_t i = 1; i < clusters_.size(); ++i) {
    if (capacity_khz(i) > capacity_khz(primary_cluster_)) primary_cluster_ = i;
    if (capacity_khz(i) < capacity_khz(network_cluster_)) network_cluster_ = i;
  }
  decode_cluster_ = primary_cluster_;
}

double ClusterRouter::capacity_khz(std::size_t i) const {
  return static_cast<double>(clusters_[i].cpu->opps().max().freq_khz) /
         clusters_[i].cycle_penalty;
}

std::uint64_t ClusterRouter::submit(std::string_view name, double cycles,
                                    sim::EventFn on_complete) {
  const bool is_decode = name.starts_with("decode");
  const std::size_t target = is_decode ? decode_cluster_ : network_cluster_;
  if (is_decode) ++decode_counts_[target];
  const std::uint64_t raw = clusters_[target].cpu->submit(
      name, cycles * clusters_[target].cycle_penalty, std::move(on_complete));
  // Cluster index in the top byte: ids stay unique across clusters and
  // cancel() dispatches exactly. CpuModel ids count up from 1, far below
  // 2^56; cluster 0 ids are numerically identical to the raw ids.
  return raw | (static_cast<std::uint64_t>(target) << kClusterShift);
}

bool ClusterRouter::cancel(std::uint64_t id) {
  const std::size_t target = static_cast<std::size_t>(id >> kClusterShift);
  if (target >= clusters_.size()) return false;
  return clusters_[target].cpu->cancel(id & ((1ULL << kClusterShift) - 1));
}

void ClusterRouter::set_decode_cluster(std::size_t i) {
  assert(i < clusters_.size());
  if (i == decode_cluster_) return;
  decode_cluster_ = i;
  ++migrations_;
}

}  // namespace vafs::sched
