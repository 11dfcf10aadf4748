// Whole-file text reads and writes for the model, checkpoint and delta
// formats.

#ifndef GMPSVM_COMMON_FILE_UTIL_H_
#define GMPSVM_COMMON_FILE_UTIL_H_

#include <string>

#include "common/status.h"

namespace gmpsvm {

// Reads a whole file into a string; kIoError if it cannot be opened.
Result<std::string> ReadFile(const std::string& path);

// Writes `text` to `path`, replacing it; kIoError if it cannot be opened or
// the write fails.
Status WriteFile(const std::string& text, const std::string& path);

}  // namespace gmpsvm

#endif  // GMPSVM_COMMON_FILE_UTIL_H_
