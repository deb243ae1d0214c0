#include "sched/tenant.hpp"

#include "util/error.hpp"

namespace msp::sched {

TenantLedger::TenantLedger(const std::vector<TenantSpec>& specs)
    : specs_(specs), usage_(specs.size(), 0.0) {
  MSP_CHECK_MSG(!specs_.empty(), "scheduler needs at least one tenant");
  for (std::size_t t = 0; t < specs_.size(); ++t) {
    MSP_CHECK_MSG(!specs_[t].name.empty(), "tenant with an empty name");
    MSP_CHECK_MSG(specs_[t].weight > 0.0, "tenant weight must be positive");
    for (std::size_t u = 0; u < t; ++u)
      MSP_CHECK_MSG(specs_[u].name != specs_[t].name,
                    "duplicate tenant name: " + specs_[t].name);
  }
}

std::size_t TenantLedger::index_of(const std::string& name) const {
  for (std::size_t t = 0; t < specs_.size(); ++t)
    if (specs_[t].name == name) return t;
  throw InvalidArgument("job references unknown tenant: " + name);
}

void TenantLedger::advance(double now) {
  if (now <= last_advance_s_) return;
  const double factor =
      std::exp2(-(now - last_advance_s_) / kFairShareHalfLifeS);
  for (double& usage : usage_) usage *= factor;
  last_advance_s_ = now;
}

}  // namespace msp::sched
