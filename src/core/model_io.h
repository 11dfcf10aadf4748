// Text serialization for MpSvmModel, in the spirit of LibSVM model files
// but with the shared support-vector pool stored once and referenced by
// index from each binary SVM.

#ifndef GMPSVM_CORE_MODEL_IO_H_
#define GMPSVM_CORE_MODEL_IO_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "core/model.h"

namespace gmpsvm {

// Serializes the model to its text format.
std::string SerializeModel(const MpSvmModel& model);

// Parses a model from text; validates structure and index ranges, and that
// the svm entries are the k(k-1)/2 pairs in pair order (PairIndex).
Result<MpSvmModel> DeserializeModel(const std::string& text);

// File wrappers.
Status SaveModel(const MpSvmModel& model, const std::string& path);
Result<MpSvmModel> LoadModel(const std::string& path);

// --- Training checkpoints ---------------------------------------------------
//
// A checkpoint directory holds one file per completed binary SVM pair plus a
// manifest listing the completed pairs and a fingerprint of (dataset,
// options). On resume the trainer verifies the fingerprint, loads the
// completed pairs, and trains only the remainder; because every numeric value
// round-trips through "%.17g"-precision text exactly, a resumed run produces
// a byte-identical model to an uninterrupted one.
//
// All parse failures return kInvalidArgument (corrupt checkpoints are caller
// data errors, not I/O errors) and never crash on truncated or hostile input.

// The distilled result of one trained binary SVM, independent of solver
// internals: enough to rebuild the model entry without retraining.
struct PairCheckpoint {
  int class_s = 0;
  int class_t = 0;
  double bias = 0.0;
  SigmoidParams sigmoid;
  // Pair trained but exhausted its retries under the skip-degraded policy:
  // a neutral entry (no SVs, p = 0.5). Degraded pairs are re-trained on
  // resume rather than loaded.
  bool degraded = false;
  std::vector<int32_t> sv_rows;  // global dataset rows of the SVs
  std::vector<double> sv_coef;   // alpha_i * y_i, parallel to sv_rows
};

std::string SerializePairCheckpoint(const PairCheckpoint& pair);
Result<PairCheckpoint> ParsePairCheckpoint(const std::string& text);

struct CheckpointManifest {
  // FNV-1a over the training configuration + dataset shape/labels; a resume
  // against different data or options is rejected.
  uint64_t fingerprint = 0;
  int num_classes = 0;
  // Completed (s, t) pairs, in completion order.
  std::vector<std::pair<int, int>> completed;
};

std::string SerializeCheckpointManifest(const CheckpointManifest& manifest);
Result<CheckpointManifest> ParseCheckpointManifest(const std::string& text);

// File name for pair (s, t) inside a checkpoint directory, and the manifest's
// file name.
std::string PairCheckpointFileName(int class_s, int class_t);
inline const char* kCheckpointManifestFileName = "manifest.ckpt";

// File wrappers (parse failures stay kInvalidArgument; open/write failures
// are kIoError).
Status SavePairCheckpoint(const PairCheckpoint& pair, const std::string& path);
Result<PairCheckpoint> LoadPairCheckpoint(const std::string& path);
Status SaveCheckpointManifest(const CheckpointManifest& manifest,
                              const std::string& path);
Result<CheckpointManifest> LoadCheckpointManifest(const std::string& path);

}  // namespace gmpsvm

#endif  // GMPSVM_CORE_MODEL_IO_H_
