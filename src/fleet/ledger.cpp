#include "fleet/ledger.h"

#include <algorithm>
#include <filesystem>
#include <utility>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include "fleet/io.h"
#include "obs/trace.h"

namespace vafs::fleet {

Ledger::Ledger(const std::vector<exp::ScenarioSpec>& scenarios, const FleetOptions& opts,
               FleetResult* result, std::string prefix, const std::string& quarantine_path)
    : opts_(opts),
      result_(result),
      prefix_(std::move(prefix)),
      plan_(scenarios.size(), opts.seeds.size(), opts.shard_size) {
  result_->scenarios.reserve(scenarios.size());
  for (const auto& spec : scenarios) result_->scenarios.push_back(FleetScenario{spec, {}});
  result_->fingerprint = grid_fingerprint(scenarios, opts.seeds, plan_.shard_size());
  result_->shard_count = plan_.shard_count();

  if (!opts.checkpoint_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(opts.checkpoint_dir, ec);
    if (ec) {
      fail("cannot create checkpoint dir '" + opts.checkpoint_dir + "': " + ec.message());
      return;
    }
    manifest_path_ = opts.checkpoint_dir + "/manifest.ckpt";
  }

  // ---- Resume: restore the fold state from the manifest, if any.
  CheckpointState cs;
  if (opts.resume && !manifest_path_.empty() && std::filesystem::exists(manifest_path_)) {
    std::string error;
    if (!read_checkpoint(manifest_path_, &cs, &error)) {
      fail("resume failed: " + error);
      return;
    }
    if (cs.fingerprint != result_->fingerprint) {
      fail("resume refused: the manifest was written for a different grid, seed list or shard "
           "size (fingerprint mismatch)");
      return;
    }
    if (cs.aggregates.size() != scenarios.size() || cs.shards_done > result_->shard_count ||
        cs.tasks_done != std::min<std::uint64_t>(cs.shards_done * plan_.shard_size(),
                                                 plan_.task_count())) {
      fail("resume refused: manifest shape does not match the grid");
      return;
    }
    for (std::size_t s = 0; s < scenarios.size(); ++s) {
      result_->scenarios[s].agg = cs.aggregates[s];
    }
    result_->failures = std::move(cs.failures);
    result_->quarantined = std::move(cs.quarantined);
    result_->digest_chain = cs.digest_chain;
    result_->sessions_resumed = cs.tasks_done;
    result_->shards_done = cs.shards_done;
    next_task_ = cs.tasks_done;
  }

  // ---- Spool: next to the manifest unless given a path.
  SpoolOptions spool_opts = opts.spool;
  if (spool_opts.format != SpoolFormat::kNone && spool_opts.path.empty() &&
      !manifest_path_.empty()) {
    spool_opts.path = opts.checkpoint_dir +
                      (spool_opts.format == SpoolFormat::kCsv ? "/spool.csv" : "/spool.jsonl");
  }
  std::string error;
  if (!spool_.open(spool_opts, cs.spool_offset, &error)) {
    fail(error);
    return;
  }

  // ---- Quarantine log: rolled back to the checkpointed offset, like the
  // spool; records past it belong to shards the resumed run refolds.
  quarantine_offset_ = cs.quarantine_offset;
  if (quarantine_path.empty()) return;
  qfd_ = ::open(quarantine_path.c_str(), O_WRONLY | O_CREAT | O_CLOEXEC, 0644);
  if (qfd_ < 0) {
    fail("cannot open quarantine log '" + quarantine_path + "'");
    return;
  }
  struct stat st {};
  if (::fstat(qfd_, &st) == 0 && static_cast<std::uint64_t>(st.st_size) < quarantine_offset_) {
    fail("quarantine log '" + quarantine_path + "' is shorter (" + std::to_string(st.st_size) +
         " B) than the checkpointed offset (" + std::to_string(quarantine_offset_) + " B)");
    return;
  }
  if (::ftruncate(qfd_, static_cast<off_t>(quarantine_offset_)) != 0 ||
      ::lseek(qfd_, static_cast<off_t>(quarantine_offset_), SEEK_SET) < 0) {
    fail("cannot truncate quarantine log '" + quarantine_path + "'");
  }
}

Ledger::~Ledger() {
  if (qfd_ >= 0) ::close(qfd_);
}

bool Ledger::fold_session(const double* values, bool finished, std::uint64_t digest) {
  const TaskRef ref = plan_.task(next_task_);
  FleetScenario& fs = result_->scenarios[ref.scenario];
  fs.agg.add_values(values, finished);
  spool_.append_values(fs.spec, opts_.seeds[ref.seed_index], values, digest);
  result_->digest_chain = obs::chain_digest(result_->digest_chain, digest);
  ++result_->sessions_run;
  return end_task();
}

bool Ledger::fold_failure(std::string message) {
  const TaskRef ref = plan_.task(next_task_);
  FleetScenario& fs = result_->scenarios[ref.scenario];
  const std::uint64_t seed = opts_.seeds[ref.seed_index];
  result_->failures.push_back(CheckpointFailure{next_task_, seed, std::move(message)});
  fs.agg.all_finished = false;
  spool_.append_failure(fs.spec, seed);
  result_->digest_chain = obs::chain_digest(result_->digest_chain, 0);
  ++result_->sessions_run;
  return end_task();
}

bool Ledger::fold_quarantine(CheckpointQuarantine record, std::string_view log_line) {
  if (qfd_ >= 0) {
    std::string error;
    if (!write_all(qfd_, log_line.data(), log_line.size(), &error)) {
      return fail("quarantine log write: " + error);
    }
    quarantine_offset_ += log_line.size();
  }
  result_->quarantined.push_back(std::move(record));
  return end_task();
}

bool Ledger::end_task() {
  ++next_task_;
  if (next_task_ % plan_.shard_size() != 0 && next_task_ != plan_.task_count()) return true;

  // Shard close: the manifest at the cadence and after the last shard,
  // then on_progress; a stop gets a final manifest of its own.
  ++result_->shards_done;
  const bool last = result_->shards_done == result_->shard_count;
  if (!manifest_path_.empty() &&
      (last || result_->shards_done % opts_.checkpoint_every_shards == 0) && !write_manifest()) {
    return false;
  }
  if (opts_.on_progress && !opts_.on_progress(result_->shards_done, result_->shard_count)) {
    result_->stopped = true;
    if (!manifest_path_.empty()) write_manifest();
    return false;
  }
  return true;
}

bool Ledger::write_manifest() {
  // sync, not flush: the manifest's offsets must never point past bytes a
  // power loss could still lose.
  std::string error;
  if (!spool_.sync(&error)) return fail(error);
  if (qfd_ >= 0 && !fsync_fd(qfd_, &error)) return fail("quarantine log fsync: " + error);
  CheckpointState cs;
  cs.fingerprint = result_->fingerprint;
  cs.shards_done = result_->shards_done;
  cs.tasks_done = next_task_;
  cs.digest_chain = result_->digest_chain;
  cs.spool_offset = spool_.offset();
  cs.quarantine_offset = quarantine_offset_;
  cs.aggregates.reserve(result_->scenarios.size());
  for (const auto& fs : result_->scenarios) cs.aggregates.push_back(fs.agg);
  cs.failures = result_->failures;
  cs.quarantined = result_->quarantined;
  if (!write_checkpoint(manifest_path_, cs, &error)) return fail(error);
  return true;
}

void Ledger::close() {
  std::string error;
  if (!spool_.close(&error)) fail(error);
  if (qfd_ >= 0) {
    if (!fsync_fd(qfd_, &error)) fail("quarantine log fsync: " + error);
    ::close(qfd_);
    qfd_ = -1;
  }
}

bool Ledger::fail(const std::string& message) {
  if (result_->error.empty()) result_->error = prefix_ + ": " + message;
  return false;
}

}  // namespace vafs::fleet
