#include "core/session.h"

#include "core/session_instance.h"
#include "net/bandwidth.h"

namespace vafs::core {

const char* net_profile_name(NetProfile p) {
  switch (p) {
    case NetProfile::kPoor: return "poor";
    case NetProfile::kFair: return "fair";
    case NetProfile::kGood: return "good";
    case NetProfile::kExcellent: return "excellent";
    case NetProfile::kConstant: return "constant";
    case NetProfile::kTrace: return "trace";
  }
  return "?";
}

const char* abr_kind_name(AbrKind k) {
  switch (k) {
    case AbrKind::kFixed: return "fixed";
    case AbrKind::kRate: return "rate";
    case AbrKind::kBuffer: return "buffer";
    case AbrKind::kBola: return "bola";
  }
  return "?";
}

net::MarkovBandwidth::Params net_profile_params(NetProfile p) {
  net::MarkovBandwidth::Params params;
  switch (p) {
    case NetProfile::kPoor:
      params.mean_mbps = 3.0;
      params.min_mbps = 0.4;
      params.max_mbps = 8.0;
      params.volatility = 0.45;
      break;
    case NetProfile::kFair:
      params.mean_mbps = 8.0;
      params.min_mbps = 1.0;
      params.max_mbps = 20.0;
      params.volatility = 0.40;
      break;
    case NetProfile::kGood:
      params.mean_mbps = 16.0;
      params.min_mbps = 4.0;
      params.max_mbps = 40.0;
      params.volatility = 0.35;
      break;
    case NetProfile::kExcellent:
      params.mean_mbps = 30.0;
      params.min_mbps = 10.0;
      params.max_mbps = 60.0;
      params.volatility = 0.30;
      break;
    case NetProfile::kConstant:
    case NetProfile::kTrace:
      break;  // unused
  }
  return params;
}

video::ContentStore& SessionArena::content_store(const ContentKey& key) {
  for (auto it = content_.begin(); it != content_.end(); ++it) {
    if (it->key == key) {
      content_.splice(content_.end(), content_, it);  // most-recent last
      return content_.back().store;
    }
  }
  if (content_.size() >= kContentCapacity) content_.pop_front();
  return content_.emplace_back(ContentEntry{key, {}}).store;
}

SessionResult run_session(const SessionConfig& config, const SessionHooks& hooks,
                          SessionArena* arena) {
  SessionInstance instance(config, hooks, arena);
  while (instance.step_one()) {
  }
  return instance.finish();
}

}  // namespace vafs::core
