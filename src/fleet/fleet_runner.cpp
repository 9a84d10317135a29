#include "fleet/fleet_runner.h"

#include <atomic>
#include <condition_variable>
#include <deque>
#include <filesystem>
#include <map>
#include <mutex>
#include <thread>
#include <utility>

#include "exp/runner.h"
#include "fleet/shard_plan.h"
#include "obs/trace.h"

namespace vafs::fleet {
namespace {

/// Per-worker shard deques with stealing. Shards are dealt round-robin in
/// id order, so each worker's deque front holds its lowest id and
/// self-service pops keep the fold frontier moving; thieves take from the
/// *back* of a victim — the work farthest from the frontier — leaving the
/// owner its frontier-adjacent shards.
class ShardQueue {
 public:
  ShardQueue(std::size_t begin, std::size_t end, std::size_t workers) : deques_(workers) {
    for (std::size_t id = begin; id < end; ++id) {
      deques_[(id - begin) % workers].q.push_back(id);
    }
  }

  bool take(std::size_t worker, std::size_t* out) {
    if (pop(worker, out, /*front=*/true)) return true;
    for (std::size_t i = 1; i < deques_.size(); ++i) {
      if (pop((worker + i) % deques_.size(), out, /*front=*/false)) return true;
    }
    return false;
  }

 private:
  struct Deque {
    std::mutex m;
    std::deque<std::size_t> q;
  };

  bool pop(std::size_t w, std::size_t* out, bool front) {
    Deque& d = deques_[w];
    std::lock_guard<std::mutex> lock(d.m);
    if (d.q.empty()) return false;
    *out = front ? d.q.front() : d.q.back();
    if (front) {
      d.q.pop_front();
    } else {
      d.q.pop_back();
    }
    return true;
  }

  std::vector<Deque> deques_;
};

std::string manifest_path(const std::string& dir) { return dir + "/manifest.ckpt"; }

}  // namespace

FleetResult run_fleet(const std::vector<exp::ScenarioSpec>& scenarios, const FleetOptions& opts) {
  FleetResult result;
  result.scenarios.reserve(scenarios.size());
  for (const auto& spec : scenarios) result.scenarios.push_back(FleetScenario{spec, {}});

  const ShardPlan plan(scenarios.size(), opts.seeds.size(), opts.shard_size);
  result.fingerprint = grid_fingerprint(scenarios, opts.seeds, plan.shard_size());
  result.shard_count = plan.shard_count();

  const bool checkpointing = !opts.checkpoint_dir.empty();
  if (checkpointing) {
    std::error_code ec;
    std::filesystem::create_directories(opts.checkpoint_dir, ec);
    if (ec) {
      result.error = "fleet: cannot create checkpoint dir '" + opts.checkpoint_dir +
                     "': " + ec.message();
      return result;
    }
  }

  // ---- Resume: restore the fold state from the manifest, if any.
  std::uint64_t frontier = 0;  // shards folded so far
  std::uint64_t spool_resume_offset = 0;
  std::uint64_t quarantine_offset = 0;  // carried through for supervised manifests
  if (opts.resume && checkpointing &&
      std::filesystem::exists(manifest_path(opts.checkpoint_dir))) {
    CheckpointState cs;
    std::string error;
    if (!read_checkpoint(manifest_path(opts.checkpoint_dir), &cs, &error)) {
      result.error = "fleet: resume failed: " + error;
      return result;
    }
    if (cs.fingerprint != result.fingerprint) {
      result.error =
          "fleet: resume refused: the manifest was written for a different grid, seed list or "
          "shard size (fingerprint mismatch)";
      return result;
    }
    if (cs.aggregates.size() != scenarios.size() || cs.shards_done > result.shard_count) {
      result.error = "fleet: resume refused: manifest shape does not match the grid";
      return result;
    }
    for (std::size_t s = 0; s < scenarios.size(); ++s) {
      result.scenarios[s].agg = cs.aggregates[s];
    }
    result.failures = std::move(cs.failures);
    result.quarantined = std::move(cs.quarantined);
    result.digest_chain = cs.digest_chain;
    result.sessions_resumed = cs.tasks_done;
    frontier = cs.shards_done;
    spool_resume_offset = cs.spool_offset;
    quarantine_offset = cs.quarantine_offset;
  }

  // ---- Spool.
  SpoolOptions spool_opts = opts.spool;
  if (spool_opts.format != SpoolFormat::kNone && spool_opts.path.empty() && checkpointing) {
    spool_opts.path = opts.checkpoint_dir +
                      (spool_opts.format == SpoolFormat::kCsv ? "/spool.csv" : "/spool.jsonl");
  }
  Spool spool;
  {
    std::string error;
    if (!spool.open(spool_opts, spool_resume_offset, &error)) {
      result.error = "fleet: " + error;
      return result;
    }
  }

  std::uint64_t tasks_done = result.sessions_resumed;
  result.shards_done = frontier;

  const auto write_manifest = [&](std::string* error) {
    // sync, not flush: the manifest's spool_offset must never point past
    // bytes a power loss could still lose.
    if (!spool.sync(error)) return false;
    CheckpointState cs;
    cs.fingerprint = result.fingerprint;
    cs.shards_done = result.shards_done;
    cs.tasks_done = tasks_done;
    cs.digest_chain = result.digest_chain;
    cs.spool_offset = spool.offset();
    cs.quarantine_offset = quarantine_offset;
    cs.aggregates.reserve(result.scenarios.size());
    for (const auto& fs : result.scenarios) cs.aggregates.push_back(fs.agg);
    cs.failures = result.failures;
    cs.quarantined = result.quarantined;
    return write_checkpoint(manifest_path(opts.checkpoint_dir), cs, error);
  };

  // ---- Workers: execute shards, deposit outcomes into a reorder buffer.
  const std::size_t shard_count = result.shard_count;
  const std::size_t workers = static_cast<std::size_t>(
      std::max(1, std::min<int>(opts.jobs, static_cast<int>(shard_count - frontier) > 0
                                               ? static_cast<int>(shard_count - frontier)
                                               : 1)));
  const std::size_t max_pending =
      opts.max_pending_shards > 0 ? opts.max_pending_shards : 2 * workers + 2;

  std::mutex mu;
  std::condition_variable space_cv;  // workers: room to start a new shard
  std::condition_variable fold_cv;   // folder: the frontier shard arrived
  std::map<std::size_t, std::vector<exp::TaskOutcome>> pending;
  bool stop = false;

  ShardQueue queue(frontier, shard_count, workers);
  const auto worker_body = [&](std::size_t w) {
    core::SessionArena arena;
    for (;;) {
      {
        // Backpressure gates *starting* work, never depositing it: the
        // reorder buffer stays <= max_pending + workers shards, and the
        // worker holding the frontier shard can always hand it over.
        std::unique_lock<std::mutex> lock(mu);
        space_cv.wait(lock, [&] { return stop || pending.size() < max_pending; });
        if (stop) return;
      }
      std::size_t sid = 0;
      if (!queue.take(w, &sid)) return;
      const Shard shard = plan.shard(sid);
      std::vector<exp::TaskOutcome> outcomes;
      outcomes.reserve(shard.task_count);
      for (std::size_t i = 0; i < shard.task_count; ++i) {
        const TaskRef ref = plan.task(shard.first_task + i);
        core::SessionHooks hooks;
        hooks.decision_backend = opts.decision_backend;
        outcomes.push_back(exp::run_one_task(scenarios[ref.scenario], opts.seeds[ref.seed_index],
                                             std::move(hooks), opts.trace, &arena,
                                             opts.task_timeout_ms));
      }
      {
        std::lock_guard<std::mutex> lock(mu);
        if (stop) return;  // a stopped run discards undelivered shards
        pending.emplace(sid, std::move(outcomes));
      }
      fold_cv.notify_one();
    }
  };

  std::vector<std::thread> pool;
  if (frontier < shard_count) {
    pool.reserve(workers);
    for (std::size_t w = 0; w < workers; ++w) pool.emplace_back(worker_body, w);
  }

  const auto shutdown = [&] {
    {
      std::lock_guard<std::mutex> lock(mu);
      stop = true;
    }
    space_cv.notify_all();
    for (auto& th : pool) th.join();
    pool.clear();
  };

  // ---- Fold loop: strictly in shard-id order == canonical task order.
  for (std::size_t next = frontier; next < shard_count; ++next) {
    std::vector<exp::TaskOutcome> outcomes;
    {
      std::unique_lock<std::mutex> lock(mu);
      fold_cv.wait(lock, [&] { return pending.count(next) > 0; });
      outcomes = std::move(pending[next]);
      pending.erase(next);
    }
    space_cv.notify_all();

    const Shard shard = plan.shard(next);
    for (std::size_t i = 0; i < shard.task_count; ++i) {
      const std::uint64_t task_index = shard.first_task + i;
      const TaskRef ref = plan.task(task_index);
      exp::TaskOutcome& out = outcomes[i];
      FleetScenario& fs = result.scenarios[ref.scenario];
      if (out.ok()) {
        fs.agg.add(out.result);
        spool.append(fs.spec, opts.seeds[ref.seed_index], out.result);
      } else {
        result.failures.push_back(CheckpointFailure{task_index, opts.seeds[ref.seed_index],
                                                    std::move(out.error)});
        fs.agg.all_finished = false;
        spool.append_failure(fs.spec, opts.seeds[ref.seed_index]);
      }
      // Failed tasks fold a zero digest, keeping the chain aligned with
      // the task order regardless of which tasks failed.
      result.digest_chain = obs::chain_digest(result.digest_chain, out.result.trace_digest);
    }
    tasks_done += shard.task_count;
    result.sessions_run += shard.task_count;
    result.shards_done = next + 1;

    const bool last = next + 1 == shard_count;
    if (checkpointing &&
        (last || (result.shards_done % opts.checkpoint_every_shards) == 0)) {
      std::string error;
      if (!write_manifest(&error)) {
        result.error = "fleet: " + error;
        shutdown();
        return result;
      }
    }
    if (opts.on_progress && !opts.on_progress(result.shards_done, shard_count)) {
      result.stopped = true;
      if (checkpointing) {
        std::string error;
        if (!write_manifest(&error)) result.error = "fleet: " + error;
      }
      break;
    }
  }

  shutdown();
  {
    std::string error;
    if (!spool.close(&error) && result.error.empty()) result.error = "fleet: " + error;
  }
  return result;
}

FleetResult run_fleet(const exp::ExperimentGrid& grid, const FleetOptions& opts) {
  return run_fleet(grid.scenarios(), opts);
}

}  // namespace vafs::fleet
