// ModelRegistry: named, versioned MpSvmModels with atomic hot-swap.
//
// Workers resolve a model by name into a ModelHandle — a shared_ptr snapshot
// plus the version it carries and the predictor built for that version.
// Registering a new model under an existing name swaps the pointer under the
// registry lock; in-flight batches keep predicting against the snapshot they
// already hold, so a swap never tears a batch and never blocks on prediction
// work. Old versions are freed when the last in-flight batch drops its
// handle.

#ifndef GMPSVM_SERVE_MODEL_REGISTRY_H_
#define GMPSVM_SERVE_MODEL_REGISTRY_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>

#include "common/status.h"
#include "core/model.h"
#include "core/predictor.h"

namespace gmpsvm {

namespace fault {
class FaultInjector;
}  // namespace fault

// A consistent (model, version) snapshot. Copyable; keeps the model alive.
struct ModelHandle {
  std::shared_ptr<const MpSvmModel> model;
  int64_t version = 0;
  std::string name;
  // The version's predictor, built once when it was registered (so its
  // cascade tables are not rebuilt per batch). It shares the model's
  // lifetime, so it never outlives the model it reads.
  std::shared_ptr<const MpSvmPredictor> predictor;

  bool valid() const { return model != nullptr; }
};

// Optional gate run against a candidate model before it is committed.
// Returning a non-OK status rejects the swap; the previous version stays
// registered and keeps serving (rollback is "never commit").
using ModelValidator = std::function<Status(const MpSvmModel&)>;

class ModelRegistry {
 public:
  ModelRegistry() = default;

  ModelRegistry(const ModelRegistry&) = delete;
  ModelRegistry& operator=(const ModelRegistry&) = delete;

  // Registers `model` under `name`, replacing any current version atomically.
  // Returns the new version number (1 for a fresh name, previous + 1 on
  // swap). Rejects structurally empty models, models failing the validator
  // (if set), and — under an attached fault injector — injected swap
  // failures (kUnavailable). A rejected swap leaves the previous version
  // serving untouched.
  Result<int64_t> Register(const std::string& name, MpSvmModel model);

  // Installs a validation gate for all future Register calls (nullptr
  // clears it).
  void SetValidator(ModelValidator validator);

  // Attaches a fault injector consulted (site kModelSwap) when Register
  // would replace an existing version; nullptr detaches. The injector must
  // outlive the registry.
  void SetFaultInjector(fault::FaultInjector* injector);

  // Loads a model file (core/model_io) and registers it.
  Result<int64_t> LoadFromFile(const std::string& name, const std::string& path);

  // Snapshot of the current version of `name`; kFailedPrecondition when the
  // name is unknown.
  Result<ModelHandle> Get(const std::string& name) const;

  size_t size() const;

 private:
  // One registered model and the predictor over it, in one allocation that
  // every handle to the version shares.
  struct ModelVersion {
    explicit ModelVersion(MpSvmModel m)
        : model(std::move(m)), predictor(&model) {}
    ModelVersion(const ModelVersion&) = delete;
    ModelVersion& operator=(const ModelVersion&) = delete;

    const MpSvmModel model;
    const MpSvmPredictor predictor;
  };

  // A name's current version. Entries are never removed, so `version`
  // counts every commit under the name.
  struct Entry {
    std::shared_ptr<const ModelVersion> current;
    int64_t version = 0;
  };

  mutable std::mutex mu_;
  ModelValidator validator_;
  fault::FaultInjector* fault_ = nullptr;
  std::map<std::string, Entry> models_;
};

}  // namespace gmpsvm

#endif  // GMPSVM_SERVE_MODEL_REGISTRY_H_
