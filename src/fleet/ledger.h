// The fold ledger behind fleet::run_fleet and supervise::run_supervised.
//
// Both runners execute a grid's canonical task order and fold every task
// into one Ledger, strictly in that order. The ledger owns everything the
// fold touches: the FleetResult, the checkpoint manifest (resume and
// writes), the row spool and the quarantine log. The two runners therefore
// fold, spool and checkpoint through one writer, and either can resume the
// other's manifest.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "fleet/checkpoint.h"
#include "fleet/fleet_runner.h"
#include "fleet/shard_plan.h"
#include "fleet/spool.h"

namespace vafs::fleet {

class Ledger {
 public:
  /// Fills `result`'s skeleton and fingerprint, creates the checkpoint
  /// directory, resumes from its manifest when opts.resume is set, and
  /// opens the spool and — given a path — the quarantine log at the
  /// resumed offsets. Errors land in result->error behind `prefix`
  /// ("fleet", "supervise"); check ok() before folding.
  Ledger(const std::vector<exp::ScenarioSpec>& scenarios, const FleetOptions& opts,
         FleetResult* result, std::string prefix, const std::string& quarantine_path = {});
  ~Ledger();

  Ledger(const Ledger&) = delete;
  Ledger& operator=(const Ledger&) = delete;

  bool ok() const { return result_->error.empty(); }
  const ShardPlan& plan() const { return plan_; }
  /// The next task to fold (canonical order); task_count once done.
  std::uint64_t next_task() const { return next_task_; }
  /// The quarantine log's descriptor, -1 without one. A forked worker
  /// must close it.
  int quarantine_fd() const { return qfd_; }

  /// Each fold consumes task next_task() and returns false when the run
  /// must stop: on_progress declined at a shard close (result->stopped)
  /// or a write failed (result->error).
  ///
  /// A session folds its exp::kMetricCount values into the aggregate and
  /// the spool, and its digest into the chain.
  bool fold_session(const double* values, bool finished, std::uint64_t digest);
  /// A failed task is recorded, chains a zero digest and spools a failure
  /// row — the chain stays aligned with the task order.
  bool fold_failure(std::string message);
  /// A quarantined task stays out of the chain, the aggregates and the
  /// spool; `log_line` goes to the quarantine log.
  bool fold_quarantine(CheckpointQuarantine record, std::string_view log_line);

  /// Closes the spool and the quarantine log; a failure lands in
  /// result->error unless an earlier error is already there.
  void close();

 private:
  bool end_task();
  bool write_manifest();
  bool fail(const std::string& message);

  const FleetOptions& opts_;
  FleetResult* result_;
  std::string prefix_;
  ShardPlan plan_;
  std::string manifest_path_;  // empty: no checkpointing
  std::uint64_t next_task_ = 0;
  Spool spool_;
  int qfd_ = -1;
  std::uint64_t quarantine_offset_ = 0;
};

}  // namespace vafs::fleet
