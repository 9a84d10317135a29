// Heterogeneous-cluster task routing: a CpuSink that places pipeline tasks
// on one of N clusters.
//
// Placement policy mirrors what Android affinity / EAS achieves for a
// video pipeline: network-stack work (latency-insensitive, light) always
// runs on the most efficient cluster (lowest capacity); decode runs on
// whichever cluster the current policy selects — statically the primary
// (highest-capacity) cluster, or moved by the VAFS controller when the
// predicted demand fits a smaller cluster's capacity. Tasks already
// submitted stay where they are; routing affects future submissions only
// (cheap "migration", no state to move in this model).
//
// Task ids are namespaced per cluster (the owning cluster's index rides in
// the id's top byte), so cancel() dispatches to exactly the submitting
// cluster. The pre-namespace design forwarded raw CpuModel ids — unique
// per model, not across them — and broke ties big-first on cancel, which
// could cancel a same-id task on the wrong cluster.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "cpu/cpu_model.h"
#include "cpu/cpu_sink.h"

namespace vafs::sched {

class ClusterRouter final : public cpu::CpuSink {
 public:
  /// One routable cluster: the model plus its reference-cycle inflation
  /// (a task of N reference cycles needs cycle_penalty·N cycles there).
  struct ClusterRef {
    cpu::CpuModel* cpu = nullptr;
    double cycle_penalty = 1.0;
  };

  /// All clusters must outlive the router; at least one is required.
  /// Decode starts on the highest-capacity cluster; network work always
  /// goes to the lowest-capacity one (ties: the earliest such cluster).
  explicit ClusterRouter(std::vector<ClusterRef> clusters);

  /// Routes by task class: "decode" tasks to the decode cluster, all
  /// network/other tasks to the network cluster; cycles are inflated by
  /// the target cluster's penalty. The returned id is cluster-namespaced.
  std::uint64_t submit(std::string_view name, double cycles,
                       sim::EventFn on_complete) override;

  /// Cancels on the cluster encoded in the id.
  bool cancel(std::uint64_t id) override;

  std::size_t cluster_count() const { return clusters_.size(); }
  cpu::CpuModel& cluster(std::size_t i) { return *clusters_[i].cpu; }
  double cycle_penalty(std::size_t i) const { return clusters_[i].cycle_penalty; }
  /// Reference-cycle retire rate at f_max (kHz-equivalents): f_max/penalty.
  double capacity_khz(std::size_t i) const;

  void set_decode_cluster(std::size_t i);
  std::size_t decode_cluster() const { return decode_cluster_; }
  /// Where non-decode (network, audio) work runs: lowest capacity.
  std::size_t network_cluster() const { return network_cluster_; }
  /// Decode's static home: highest capacity (the router's initial choice).
  std::size_t primary_cluster() const { return primary_cluster_; }

  std::uint64_t decode_tasks_on(std::size_t i) const { return decode_counts_[i]; }
  std::uint64_t migrations() const { return migrations_; }

 private:
  static constexpr std::uint64_t kClusterShift = 56;

  std::vector<ClusterRef> clusters_;
  std::vector<std::uint64_t> decode_counts_;
  std::size_t primary_cluster_ = 0;
  std::size_t network_cluster_ = 0;
  std::size_t decode_cluster_ = 0;
  std::uint64_t migrations_ = 0;
};

}  // namespace vafs::sched
