// Fleet configuration file: the `svm_tool serve --fleet-config` format.
//
// Line-oriented; '#' starts a comment, blank lines are skipped. Fleet-wide
// knobs are `<key> <value>` pairs; each `tenant` line declares one tenant
// and its model file:
//
//   # fleet knobs (all optional, defaults in FleetConfig)
//   replicas 2
//   min_replicas 1
//   max_replicas 4
//   scale_up_depth 8
//   scale_up_ticks 2
//   scale_down_depth 0.25
//   scale_down_ticks 4
//   share_sv on
//   sv_cache_capacity 1048576
//   shed_start 0.75    # >= 0; >= 1 turns overload shedding off
//
//   # tenant <name> model=<path> [priority=N] [rate=R] [burst=B] [weight=W]
//   #   [decision=probability|voting] [cascade=exact|eliminate]
//   #   [cascade_budget=N] [cascade_threshold=T] [cascade_band=B]
//   tenant acme  model=acme.model  priority=2 weight=8
//   tenant small model=small.model priority=0 rate=50 burst=4 weight=1
//
// Unknown keys and malformed values fail parsing with the line number, so a
// config typo cannot silently serve with defaults.

#ifndef GMPSVM_FLEET_FLEET_CONFIG_H_
#define GMPSVM_FLEET_FLEET_CONFIG_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "fleet/autoscaler.h"
#include "fleet/fleet_server.h"

namespace gmpsvm::fleet {

struct FleetConfigTenant {
  TenantSpec spec;
  std::string model_path;
};

struct FleetConfig {
  int replicas = 1;
  AutoscalePolicy autoscale;
  bool share_support_vectors = true;
  int64_t sv_cache_capacity = 1 << 20;
  double shed_start_fraction = 0.75;
  std::vector<FleetConfigTenant> tenants;
};

// Parses the format above; requires at least one tenant line.
Result<FleetConfig> ParseFleetConfig(const std::string& text);

// Reads `path` and parses it.
Result<FleetConfig> LoadFleetConfigFile(const std::string& path);

}  // namespace gmpsvm::fleet

#endif  // GMPSVM_FLEET_FLEET_CONFIG_H_
