#include "fleet/fleet_runner.h"

#include <algorithm>

#include "exp/runner.h"
#include "fleet/ledger.h"

namespace vafs::fleet {

FleetResult run_fleet(const std::vector<exp::ScenarioSpec>& scenarios, const FleetOptions& opts) {
  FleetResult result;
  Ledger ledger(scenarios, opts, &result, "fleet");
  if (ledger.ok()) {
    const ShardPlan& plan = ledger.plan();
    exp::execute_tasks(
        ledger.next_task(), plan.task_count(), plan.shard_size(), opts.jobs,
        2 * static_cast<std::size_t>(std::max(opts.jobs, 1)) + 2,
        [&](std::size_t t, core::SessionArena& arena) {
          const TaskRef ref = plan.task(t);
          core::SessionHooks hooks;
          hooks.decision_backend = opts.decision_backend;
          return exp::run_one_task(scenarios[ref.scenario], opts.seeds[ref.seed_index],
                                   std::move(hooks), opts.trace, &arena, opts.task_timeout_ms);
        },
        [&](std::size_t, std::vector<exp::TaskOutcome>& outcomes) {
          for (exp::TaskOutcome& out : outcomes) {
            if (!out.ok()) {
              if (!ledger.fold_failure(std::move(out.error))) return false;
              continue;
            }
            double values[exp::kMetricCount];
            exp::Aggregate::session_values(out.result, values);
            if (!ledger.fold_session(values, out.result.finished, out.result.trace_digest)) {
              return false;
            }
          }
          return true;
        });
  }
  ledger.close();
  return result;
}

FleetResult run_fleet(const exp::ExperimentGrid& grid, const FleetOptions& opts) {
  return run_fleet(grid.scenarios(), opts);
}

}  // namespace vafs::fleet
