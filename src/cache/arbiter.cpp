#include "cache/arbiter.hpp"

#include <algorithm>
#include <utility>

#include "common/check.hpp"

namespace daop::cache {

PlacementArbiter::PlacementArbiter(Placement initial)
    : placement_(std::move(initial)),
      pins_(static_cast<std::size_t>(placement_.n_layers()) *
            static_cast<std::size_t>(placement_.n_experts())),
      weight_ready_(pins_.size(), 0.0) {}

std::size_t PlacementArbiter::idx(int layer, int expert) const {
  DAOP_CHECK_GE(layer, 0);
  DAOP_CHECK_LT(layer, placement_.n_layers());
  DAOP_CHECK_GE(expert, 0);
  DAOP_CHECK_LT(expert, placement_.n_experts());
  return static_cast<std::size_t>(layer) *
             static_cast<std::size_t>(placement_.n_experts()) +
         static_cast<std::size_t>(expert);
}

void PlacementArbiter::pin(int layer, int expert, long long session) {
  auto& holders = pins_[idx(layer, expert)];
  for (Pin& p : holders) {
    if (p.session == session) {
      ++p.count;
      return;
    }
  }
  holders.push_back({session, 1});
}

void PlacementArbiter::unpin(int layer, int expert, long long session) {
  auto& holders = pins_[idx(layer, expert)];
  const auto it = std::find_if(
      holders.begin(), holders.end(),
      [&](const Pin& p) { return p.session == session; });
  DAOP_CHECK_MSG(it != holders.end(),
                 "unpin without matching pin: layer " << layer << " expert "
                                                      << expert << " session "
                                                      << session);
  if (--it->count == 0) holders.erase(it);
}

void PlacementArbiter::unpin_session(long long session) {
  for (auto& holders : pins_) {
    std::erase_if(holders, [&](const Pin& p) { return p.session == session; });
  }
}

int PlacementArbiter::pin_count(int layer, int expert) const {
  int n = 0;
  for (const Pin& p : pins_[idx(layer, expert)]) n += p.count;
  return n;
}

int PlacementArbiter::pin_count(int expert) const {
  DAOP_CHECK_GE(expert, 0);
  DAOP_CHECK_LT(expert, placement_.n_experts());
  int n = 0;
  for (int layer = 0; layer < placement_.n_layers(); ++layer) {
    n += pin_count(layer, expert);
  }
  return n;
}

std::vector<long long> PlacementArbiter::pinning_sessions(int layer,
                                                          int expert) const {
  std::vector<long long> out;
  for (const Pin& p : pins_[idx(layer, expert)]) out.push_back(p.session);
  std::sort(out.begin(), out.end());
  return out;
}

int PlacementArbiter::total_pin_count() const {
  int n = 0;
  for (const auto& holders : pins_) {
    for (const Pin& p : holders) n += p.count;
  }
  return n;
}

bool PlacementArbiter::pinned_by_other(int layer, int expert,
                                       long long session) const {
  const auto& holders = pins_[idx(layer, expert)];
  return std::any_of(holders.begin(), holders.end(),
                     [&](const Pin& p) { return p.session != session; });
}

bool PlacementArbiter::try_swap(int layer, int expert_in, int expert_out,
                                long long session) {
  if (pinned_by_other(layer, expert_out, session)) return false;
  placement_.swap(layer, expert_in, expert_out);
  return true;
}

bool PlacementArbiter::try_evict(int layer, int expert, long long session) {
  if (pinned_by_other(layer, expert, session)) return false;
  placement_.move_to_cpu(layer, expert);
  return true;
}

double PlacementArbiter::weight_ready(int layer, int expert) const {
  return weight_ready_[idx(layer, expert)];
}

void PlacementArbiter::set_weight_ready(int layer, int expert, double t) {
  double& slot = weight_ready_[idx(layer, expert)];
  slot = std::max(slot, t);
}

}  // namespace daop::cache
