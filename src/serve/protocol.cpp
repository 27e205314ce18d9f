#include "serve/protocol.hpp"

#include <cmath>
#include <cstdint>
#include <vector>

#include "io/json.hpp"

namespace ehsim::serve {
namespace {

constexpr const char* kTypeIds[] = {"run",      "sweep",    "optimise", "ensemble",
                                    "resume",   "accuracy", "autotune", "cancel",
                                    "stats",    "shutdown"};

RequestType request_type_from(const std::string& id) {
  for (std::size_t i = 0; i < std::size(kTypeIds); ++i) {
    if (id == kTypeIds[i]) return static_cast<RequestType>(i);
  }
  throw ProtocolError("request 'type' '" + id +
                          "' is not run | sweep | optimise | ensemble | resume | "
                          "accuracy | autotune | cancel | stats | shutdown",
                      "type");
}

std::uint64_t parse_id(const io::JsonValue& envelope) {
  if (envelope.find("id") == nullptr) throw ProtocolError("request is missing 'id'", "id");
  const std::optional<std::uint64_t> id = envelope_id(envelope);
  if (!id) throw ProtocolError("request 'id' must be a non-negative integer", "id");
  return *id;
}

experiments::CheckpointOptions parse_checkpoint(RequestType type, const io::JsonValue& json) {
  if (!json.is_object())
    throw ProtocolError("request 'checkpoint' must be an object {\"dir\", \"every\"}",
                        "checkpoint");
  for (const auto& [key, value] : json.as_object()) {
    (void)value;
    if (key != "dir" && key != "every")
      throw ProtocolError("request 'checkpoint' has unknown key '" + key + "'",
                          "checkpoint");
  }
  experiments::CheckpointOptions checkpoint;
  const io::JsonValue* dir = json.find("dir");
  if (dir == nullptr || !dir->is_string() || dir->as_string().empty())
    throw ProtocolError("request 'checkpoint' needs a non-empty 'dir' string",
                        "checkpoint");
  checkpoint.dir = dir->as_string();
  if (const io::JsonValue* every = json.find("every")) {
    if (!every->is_number() || !(every->as_number() > 0.0))
      throw ProtocolError("request 'checkpoint.every' must be a positive number "
                          "of simulated seconds",
                          "checkpoint");
    checkpoint.every = every->as_number();
  }
  if (checkpoint.every <= 0.0 && type != RequestType::kResume)
    throw ProtocolError(std::string("request type '") + request_type_id(type) +
                            "' needs 'checkpoint.every' (only resume may omit it)",
                        "checkpoint");
  return checkpoint;
}

}  // namespace

const char* request_type_id(RequestType type) {
  return kTypeIds[static_cast<std::size_t>(type)];
}

std::vector<const char*> expected_spec_types(RequestType type) {
  switch (type) {
    case RequestType::kRun:
      return {"experiment"};
    case RequestType::kSweep:
      return {"sweep"};
    case RequestType::kOptimise:
      return {"optimise"};
    case RequestType::kEnsemble:
      return {"ensemble"};
    case RequestType::kResume:
    case RequestType::kAccuracy:
      return {"experiment", "sweep"};
    case RequestType::kAutotune:
      return {"autotune"};
    default:
      return {};
  }
}

void check_spec_flavour(RequestType type, const io::AnySpec& spec, const std::string& key) {
  const std::string actual = spec.type_id();
  std::string wanted;
  for (const char* id : expected_spec_types(type)) {
    if (actual == id) return;
    if (!wanted.empty()) wanted += "' | '";
    wanted += id;
  }
  throw ProtocolError(std::string("'") + request_type_id(type) + "' needs a spec of type '" +
                          wanted + "', but '" + key + "' holds a '" + actual + "' spec",
                      key);
}

std::optional<std::uint64_t> envelope_id(const io::JsonValue& envelope) {
  const io::JsonValue* id = envelope.is_object() ? envelope.find("id") : nullptr;
  if (id == nullptr || !id->is_number()) return std::nullopt;
  const double value = id->as_number();
  if (!(value >= 0.0) || value != std::floor(value) || value > 9.007199254740992e15)
    return std::nullopt;
  return static_cast<std::uint64_t>(value);
}

Request parse_request(const std::string& line) {
  io::JsonValue envelope;
  try {
    envelope = io::JsonValue::parse(line);
  } catch (const ModelError& error) {
    throw ProtocolError(std::string("request is not valid JSON: ") +
                            error.what(),
                        "");
  }
  if (!envelope.is_object())
    throw ProtocolError("request must be a JSON object envelope", "");
  for (const auto& [key, value] : envelope.as_object()) {
    (void)value;
    if (key != "id" && key != "type" && key != "spec" && key != "spec_path" &&
        key != "checkpoint")
      throw ProtocolError("request has unknown key '" + key + "'", key);
  }

  Request request;
  request.id = parse_id(envelope);

  const io::JsonValue* type = envelope.find("type");
  if (type == nullptr) throw ProtocolError("request is missing 'type'", "type");
  if (!type->is_string())
    throw ProtocolError("request 'type' must be a string", "type");
  request.type = request_type_from(type->as_string());

  const io::JsonValue* spec = envelope.find("spec");
  const io::JsonValue* spec_path = envelope.find("spec_path");
  const io::JsonValue* checkpoint = envelope.find("checkpoint");
  if (expected_spec_types(request.type).empty()) {
    if (spec != nullptr || spec_path != nullptr)
      throw ProtocolError(std::string("request type '") +
                              request_type_id(request.type) +
                              "' does not take a spec",
                          spec != nullptr ? "spec" : "spec_path");
    if (checkpoint != nullptr)
      throw ProtocolError(std::string("request type '") +
                              request_type_id(request.type) +
                              "' does not take a checkpoint",
                          "checkpoint");
    return request;
  }

  if ((spec == nullptr) == (spec_path == nullptr))
    throw ProtocolError(std::string("request type '") +
                            request_type_id(request.type) +
                            "' needs exactly one of 'spec' and 'spec_path'",
                        "spec");
  if (spec != nullptr) {
    if (!spec->is_object())
      throw ProtocolError("request 'spec' must be a spec object", "spec");
    try {
      request.spec = io::spec_from_json(*spec);
    } catch (const ProtocolError&) {
      throw;
    } catch (const ModelError& error) {
      throw ProtocolError(std::string("request 'spec' is invalid: ") +
                              error.what(),
                          "spec");
    }
    check_spec_flavour(request.type, request.spec, "spec");
  } else {
    if (!spec_path->is_string())
      throw ProtocolError("request 'spec_path' must be a file path string",
                          "spec_path");
    try {
      request.spec = io::load_spec_file(spec_path->as_string());
    } catch (const std::exception& error) {
      throw ProtocolError(std::string("request 'spec_path' failed to load: ") +
                              error.what(),
                          "spec_path");
    }
    check_spec_flavour(request.type, request.spec, "spec_path");
  }

  const bool takes_checkpoint = request.type == RequestType::kRun ||
                                request.type == RequestType::kSweep ||
                                request.type == RequestType::kResume;
  if (checkpoint != nullptr) {
    if (!takes_checkpoint)
      throw ProtocolError(std::string("request type '") +
                              request_type_id(request.type) +
                              "' does not take a checkpoint",
                          "checkpoint");
    request.checkpoint = parse_checkpoint(request.type, *checkpoint);
  } else if (request.type == RequestType::kResume) {
    throw ProtocolError("request type 'resume' needs a 'checkpoint' block naming "
                        "the directory to resume from",
                        "checkpoint");
  }
  return request;
}

}  // namespace ehsim::serve
