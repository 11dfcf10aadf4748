#include "fleet/fleet_config.h"

#include <fstream>
#include <sstream>

#include "common/string_util.h"

namespace gmpsvm::fleet {
namespace {

Status LineError(int line, const std::string& message) {
  return Status::InvalidArgument(StrPrintf("fleet config line %d: %s", line,
                                           message.c_str()));
}

Result<double> ParseDoubleField(int line, std::string_view key,
                                std::string_view value) {
  double parsed = 0.0;
  if (!ParseDouble(value, &parsed)) {
    return LineError(line, StrPrintf("invalid number for %.*s: '%.*s'",
                                     static_cast<int>(key.size()), key.data(),
                                     static_cast<int>(value.size()),
                                     value.data()));
  }
  return parsed;
}

Result<int32_t> ParseIntField(int line, std::string_view key,
                              std::string_view value) {
  int32_t parsed = 0;
  if (!ParseInt32(value, &parsed)) {
    return LineError(line, StrPrintf("invalid integer for %.*s: '%.*s'",
                                     static_cast<int>(key.size()), key.data(),
                                     static_cast<int>(value.size()),
                                     value.data()));
  }
  return parsed;
}

Result<bool> ParseBoolField(int line, std::string_view key,
                            std::string_view value) {
  if (value == "on" || value == "true" || value == "1") return true;
  if (value == "off" || value == "false" || value == "0") return false;
  return LineError(line, StrPrintf("invalid on/off for %.*s: '%.*s'",
                                   static_cast<int>(key.size()), key.data(),
                                   static_cast<int>(value.size()),
                                   value.data()));
}

// Lazily materializes the tenant's PredictOptions override (fleet defaults
// until a predict key appears on the line).
PredictOptions& TenantPredict(FleetConfigTenant& tenant) {
  if (!tenant.spec.predict.has_value()) tenant.spec.predict.emplace();
  return *tenant.spec.predict;
}

// Parses one `tenant <name> key=value...` line.
Result<FleetConfigTenant> ParseTenantLine(
    int line, const std::vector<std::string_view>& tokens) {
  if (tokens.size() < 2) {
    return LineError(line, "tenant line needs a name");
  }
  FleetConfigTenant tenant;
  tenant.spec.name = std::string(tokens[1]);
  for (size_t i = 2; i < tokens.size(); ++i) {
    const std::string_view token = tokens[i];
    const size_t eq = token.find('=');
    if (eq == std::string_view::npos) {
      return LineError(line, StrPrintf("expected key=value, got '%.*s'",
                                       static_cast<int>(token.size()),
                                       token.data()));
    }
    const std::string_view key = token.substr(0, eq);
    const std::string_view value = token.substr(eq + 1);
    if (key == "model") {
      tenant.model_path = std::string(value);
    } else if (key == "priority") {
      GMP_ASSIGN_OR_RETURN(tenant.spec.priority,
                           ParseIntField(line, key, value));
    } else if (key == "rate") {
      GMP_ASSIGN_OR_RETURN(tenant.spec.quota.rate_per_sec,
                           ParseDoubleField(line, key, value));
    } else if (key == "burst") {
      GMP_ASSIGN_OR_RETURN(tenant.spec.quota.burst,
                           ParseDoubleField(line, key, value));
    } else if (key == "weight") {
      GMP_ASSIGN_OR_RETURN(tenant.spec.weight,
                           ParseDoubleField(line, key, value));
    } else if (key == "decision") {
      if (value == "probability") {
        TenantPredict(tenant).decision = PredictOptions::Decision::kProbability;
      } else if (value == "voting") {
        TenantPredict(tenant).decision = PredictOptions::Decision::kVoting;
      } else {
        return LineError(line,
                         StrPrintf("decision must be probability|voting, got "
                                   "'%.*s'",
                                   static_cast<int>(value.size()), value.data()));
      }
    } else if (key == "cascade") {
      if (value == "exact") {
        TenantPredict(tenant).cascade.mode = CascadeOptions::Mode::kExact;
      } else if (value == "eliminate") {
        TenantPredict(tenant).cascade.mode = CascadeOptions::Mode::kEliminate;
      } else {
        return LineError(line,
                         StrPrintf("cascade must be exact|eliminate, got '%.*s'",
                                   static_cast<int>(value.size()), value.data()));
      }
    } else if (key == "cascade_budget") {
      GMP_ASSIGN_OR_RETURN(TenantPredict(tenant).cascade.budget,
                           ParseIntField(line, key, value));
    } else if (key == "cascade_threshold") {
      GMP_ASSIGN_OR_RETURN(TenantPredict(tenant).cascade.elimination_threshold,
                           ParseDoubleField(line, key, value));
    } else if (key == "cascade_band") {
      GMP_ASSIGN_OR_RETURN(TenantPredict(tenant).cascade.ambiguity_band,
                           ParseDoubleField(line, key, value));
    } else {
      return LineError(line, StrPrintf("unknown tenant key '%.*s'",
                                       static_cast<int>(key.size()),
                                       key.data()));
    }
  }
  if (tenant.model_path.empty()) {
    return LineError(line, "tenant " + tenant.spec.name + " needs model=<path>");
  }
  if (tenant.spec.predict.has_value()) {
    // Registration would reject these anyway; failing here keeps the line
    // number in the diagnostic.
    const Status status = tenant.spec.predict->Validate();
    if (!status.ok()) return LineError(line, status.message());
  }
  return tenant;
}

}  // namespace

Result<FleetConfig> ParseFleetConfig(const std::string& text) {
  FleetConfig config;
  std::istringstream stream(text);
  std::string raw_line;
  int line = 0;
  while (std::getline(stream, raw_line)) {
    ++line;
    std::string_view view = StripWhitespace(raw_line);
    const size_t comment = view.find('#');
    if (comment != std::string_view::npos) {
      view = StripWhitespace(view.substr(0, comment));
    }
    if (view.empty()) continue;
    const std::vector<std::string_view> tokens = SplitTokens(view, " \t");
    const std::string_view key = tokens[0];

    if (key == "tenant") {
      GMP_ASSIGN_OR_RETURN(FleetConfigTenant tenant,
                           ParseTenantLine(line, tokens));
      config.tenants.push_back(std::move(tenant));
      continue;
    }
    if (tokens.size() != 2) {
      return LineError(line, StrPrintf("expected '%.*s <value>'",
                                       static_cast<int>(key.size()),
                                       key.data()));
    }
    const std::string_view value = tokens[1];
    if (key == "replicas") {
      GMP_ASSIGN_OR_RETURN(config.replicas, ParseIntField(line, key, value));
    } else if (key == "min_replicas") {
      GMP_ASSIGN_OR_RETURN(config.autoscale.min_replicas,
                           ParseIntField(line, key, value));
    } else if (key == "max_replicas") {
      GMP_ASSIGN_OR_RETURN(config.autoscale.max_replicas,
                           ParseIntField(line, key, value));
    } else if (key == "scale_up_depth") {
      GMP_ASSIGN_OR_RETURN(config.autoscale.scale_up_depth,
                           ParseDoubleField(line, key, value));
    } else if (key == "scale_up_ticks") {
      GMP_ASSIGN_OR_RETURN(config.autoscale.scale_up_ticks,
                           ParseIntField(line, key, value));
    } else if (key == "scale_down_depth") {
      GMP_ASSIGN_OR_RETURN(config.autoscale.scale_down_depth,
                           ParseDoubleField(line, key, value));
    } else if (key == "scale_down_ticks") {
      GMP_ASSIGN_OR_RETURN(config.autoscale.scale_down_ticks,
                           ParseIntField(line, key, value));
    } else if (key == "share_sv") {
      GMP_ASSIGN_OR_RETURN(config.share_support_vectors,
                           ParseBoolField(line, key, value));
    } else if (key == "sv_cache_capacity") {
      int64_t capacity = 0;
      if (!ParseInt64(value, &capacity)) {
        return LineError(line, "invalid integer for sv_cache_capacity");
      }
      config.sv_cache_capacity = capacity;
    } else if (key == "shed_start") {
      GMP_ASSIGN_OR_RETURN(config.shed_start_fraction,
                           ParseDoubleField(line, key, value));
      const Status status = ValidateShedStart(config.shed_start_fraction);
      if (!status.ok()) return LineError(line, status.message());
    } else {
      return LineError(line, StrPrintf("unknown key '%.*s'",
                                       static_cast<int>(key.size()),
                                       key.data()));
    }
  }
  if (config.tenants.empty()) {
    return Status::InvalidArgument(
        "fleet config declares no tenants (need at least one 'tenant' line)");
  }
  GMP_RETURN_NOT_OK(config.autoscale.Validate());
  return config;
}

Result<FleetConfig> LoadFleetConfigFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return Status::IoError("cannot open fleet config: " + path);
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return ParseFleetConfig(buffer.str());
}

}  // namespace gmpsvm::fleet
