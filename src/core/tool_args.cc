#include "core/tool_args.h"

#include <algorithm>
#include <ostream>
#include <utility>

#include "obs/export.h"
#include "util/file_util.h"
#include "util/string_util.h"

namespace pdd {

ToolFlag SwitchFlag(std::string name, bool* on) {
  return {std::move(name), false, [on](const std::string&) {
            *on = true;
            return Status::OK();
          }};
}

ToolFlag TextFlag(std::string name, std::string* value) {
  return {std::move(name), true, [value](const std::string& text) {
            *value = text;
            return Status::OK();
          }};
}

ToolFlag CountFlag(std::string name, size_t* count) {
  const std::string error = name + " needs a positive integer";
  return {std::move(name), true, [count, error](const std::string& text) {
            size_t n = 0;
            if (!ParseSize(text, &n) || n < 1) {
              return Status::InvalidArgument(error);
            }
            *count = n;
            return Status::OK();
          }};
}

ToolFlag OutputPathFlag(std::string name, std::string* path) {
  return {std::move(name), true, [path](const std::string& text) {
            PDD_RETURN_IF_ERROR(CheckOutputPath(text));
            *path = text;
            return Status::OK();
          }};
}

Result<ToolArgs> ParseToolArgs(const std::vector<std::string>& args,
                               unsigned groups,
                               std::vector<ToolFlag> flags) {
  ToolArgs out;
  PlanSpec sets;
  if ((groups & kPlanFlags) != 0) {
    flags.push_back({"--plan", true, [&out](const std::string& file) {
                       PDD_ASSIGN_OR_RETURN(std::string text,
                                            ReadFileToString(file));
                       PDD_ASSIGN_OR_RETURN(PlanSpec spec,
                                            PlanSpec::Parse(text));
                       out.plans.push_back(std::move(spec));
                       return Status::OK();
                     }});
    flags.push_back({"--set", true, [&sets](const std::string& assignment) {
                       return sets.SetAssignment(assignment);
                     }});
    // The executor flags are plan keys under a shorter name.
    for (const auto& [flag, key] : {std::pair{"--workers", "executor.workers"},
                                    std::pair{"--batch", "executor.batch"}}) {
      flags.push_back({flag, true, [&out, key = key](const std::string& v) {
                         out.overrides.params().Set(key, v);
                         return Status::OK();
                       }});
    }
  }
  if ((groups & kSidecarFlags) != 0) {
    flags.push_back(OutputPathFlag("--metrics", &out.metrics_file));
    flags.push_back({"--metrics-format", true, [&out](const std::string& v) {
                       if (v != "json" && v != "prom") {
                         return Status::InvalidArgument(
                             "--metrics-format needs json or prom");
                       }
                       out.metrics_format = v;
                       return Status::OK();
                     }});
  }
  if ((groups & kCacheFlags) != 0) {
    flags.push_back(CountFlag("--cache-capacity", &out.cache_capacity));
    flags.push_back(OutputPathFlag("--cache-file", &out.cache_file));
  }
  for (size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (arg.size() < 2 || arg[0] != '-') {
      out.positional.push_back(arg);
      continue;
    }
    auto flag = std::find_if(flags.begin(), flags.end(), [&arg](auto& f) {
      return f.name == arg;
    });
    if (flag == flags.end()) {
      return Status::InvalidArgument("unknown option '" + arg + "'");
    }
    if (flag->takes_value && i + 1 == args.size()) {
      return Status::InvalidArgument(arg + " needs a value");
    }
    PDD_RETURN_IF_ERROR(flag->apply(flag->takes_value ? args[++i] : ""));
  }
  // --set applies last, over --workers/--batch.
  for (const auto& [key, value] : sets.params().entries()) {
    out.overrides.params().Set(key, value);
  }
  return out;
}

DetectorConfig DefaultConfig(const Schema& schema) {
  DetectorConfig config;
  config.key = {{schema.attribute(0).name, 3}};
  if (schema.arity() > 1) config.key.emplace_back(schema.attribute(1).name, 2);
  config.weights.assign(schema.arity(),
                        1.0 / static_cast<double>(schema.arity()));
  return config;
}

Result<DetectorConfig> ResolveConfig(const ToolArgs& args,
                                     const Schema& schema) {
  DetectorConfig config = DefaultConfig(schema);
  for (const PlanSpec& plan : args.plans) {
    PDD_ASSIGN_OR_RETURN(config,
                         DetectorConfig::FromSpec(plan, std::move(config)));
  }
  if (!args.overrides.params().empty()) {
    PDD_ASSIGN_OR_RETURN(
        config, DetectorConfig::FromSpec(args.overrides, std::move(config)));
  }
  return config;
}

Result<std::shared_ptr<ShardedDecisionCache>> OpenCache(
    const ToolArgs& args, std::ostream* torn_report) {
  ShardedDecisionCacheOptions options;
  if (args.cache_capacity > 0) options.capacity = args.cache_capacity;
  auto cache = std::make_shared<ShardedDecisionCache>(options);
  if (args.cache_file.empty()) return cache;
  size_t torn_bytes = 0;
  Status loaded = cache->LoadSnapshot(args.cache_file, &torn_bytes);
  // A missing file is a cold first run, not an error.
  if (loaded.code() == StatusCode::kNotFound) return cache;
  PDD_RETURN_IF_ERROR(loaded);
  if (torn_report != nullptr) {
    *torn_report << "cache file: " << torn_bytes << " torn bytes dropped\n";
  }
  return cache;
}

Status WriteSidecar(const ToolArgs& args, const RunTelemetry& telemetry) {
  if (args.metrics_file.empty()) return Status::OK();
  return WriteTelemetrySidecar(telemetry, args.metrics_file,
                               args.metrics_format);
}

}  // namespace pdd
